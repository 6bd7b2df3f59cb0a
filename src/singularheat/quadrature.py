"""The 8-point Gauss-Legendre rule and the split of an interval at its
breakpoints, in plain Python floats: importing this module loads no numpy.

heat1d applies GAUSS8 to the lattice cells of the interval's moment
table, regint to geometric panels on the segments past its collar.
"""

from __future__ import annotations

#: the 8-point Gauss-Legendre rule on [-1, 1], (nodes, weights): numpy's
#: leggauss(8) bit for bit, written out so that no import of the package
#: loads numpy.polynomial
GAUSS8 = (
    (-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
     0.7966664774136267, 0.9602898564975362),
    (0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
     0.22238103445337443, 0.10122853629037706))


def segments(lo: float, hi: float, cuts) -> list:
    """Split [lo, hi] at the cut points strictly inside it."""
    inner = sorted(c for c in cuts if lo < c < hi)
    edges = [lo] + inner + [hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i]]
