"""Tanh-sinh (double-exponential) quadrature and small helpers.

The transform x = m + r*tanh((pi/2)*sinh(u)) pushes endpoint singularities
to |u| -> inf where the weights decay doubly exponentially, so integrands
like x**(-0.9) * smooth(x) converge at machine precision with a few
hundred nodes (Takahasi and Mori, Publ. RIMS 9, 1974).  Node positions
are stored as offsets from the nearest endpoint so that points
exponentially close to an endpoint keep full relative precision
(essential when the singular endpoint is 0).

There is one grid, step _H0 / 2**_LEVEL, and its error estimate is the
difference from the rule of twice the step on the same nodes (Bailey,
Jeyabalan and Li, Exp. Math. 14, 2005): tanh_sinh_nodes returns the grid
for batch integration, tanh_sinh integrates one function on it.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_H0 = 0.5
_LEVEL = 6           # step _H0 / 2**6 = 1/128
_UMAX = 6.1          # (pi/2)*sinh(6.1) ~ 350: past this, weights underflow
_WFRAC_MIN = 1e-250  # drop nodes whose weight fraction underflows
_EPS = np.finfo(float).eps
_FAIL_REL = 1e-9     # largest level difference, relative to sum |w f|


def _point(u: float) -> tuple[float, float]:
    """Return (delta, wfrac): endpoint offset and weight on [0, 1], u >= 0."""
    s = 0.5 * math.pi * math.sinh(u)
    delta = 1.0 / (1.0 + math.exp(2.0 * s))       # distance from endpoint
    sech = 2.0 * delta * math.exp(s) if s < 350 else 0.0  # sech(s)
    wfrac = 0.25 * math.pi * math.cosh(u) * sech * sech
    return delta, wfrac


def _level_points(level: int) -> tuple[np.ndarray, np.ndarray]:
    """New (delta, wfrac) pairs introduced at this refinement level.

    Level 0 holds all integer multiples of _H0 (u > 0 side); level k > 0
    holds the odd multiples of _H0 / 2**k.  The u = 0 midpoint is handled
    separately.
    """
    h = _H0 / 2 ** level
    if level == 0:
        us = [k * h for k in range(1, int(_UMAX / h) + 1)]
    else:
        us = [k * h for k in range(1, int(_UMAX / h) + 1, 2)]
    deltas, wfracs = [], []
    for u in us:
        d, w = _point(u)
        if w >= _WFRAC_MIN:
            deltas.append(d)
            wfracs.append(w)
    return np.asarray(deltas), np.asarray(wfracs)


@lru_cache(maxsize=1)
def _reference_grid():
    """All (delta, wfrac, is_new, side) up to _LEVEL, plus the u = 0 node."""
    deltas = [np.array([0.5])]
    wfracs = [np.array([_point(0.0)[1]])]
    newflag = [np.array([False])]
    sides = [np.array([0])]  # 0: measured from a; 1: measured from b
    for lev in range(0, _LEVEL + 1):
        d, w = _level_points(lev)
        for side in (0, 1):
            deltas.append(d)
            wfracs.append(w)
            newflag.append(np.full(d.shape, lev == _LEVEL))
            sides.append(np.full(d.shape, side, dtype=int))
    return (np.concatenate(deltas), np.concatenate(wfracs),
            np.concatenate(newflag), np.concatenate(sides))


def tanh_sinh_nodes(a: float, b: float):
    """Fixed tanh-sinh grid on [a, b] for vectorized batch integration.

    Returns (x, w, w_coarse): nodes, weights, and weights realizing the
    rule of twice the step on the same node set (zeros at the nodes the
    coarser rule does not use).  Integrating with both weight vectors
    gives a practically free error estimate.  The smallest offset from
    an endpoint is about 7e-254 (b - a): nodes closer carry a weight
    fraction below _WFRAC_MIN and are dropped.
    """
    deltas, wfracs, is_new, sides = _reference_grid()
    width = b - a
    x = np.where(sides == 0, a + width * deltas, b - width * deltas)
    # the u = 0 node (delta 0.5, side 0) is exactly the midpoint
    h = _H0 / 2 ** _LEVEL
    w = h * width * wfracs
    w_coarse = np.where(is_new, 0.0, 2.0 * h * width * wfracs)
    return x, w, w_coarse


def tanh_sinh(f, a: float, b: float):
    """(value, err) of the integral of f over [a, b] on the fixed grid.

    f is called once, with the array of tanh_sinh_nodes(a, b), and
    returns real or complex values of that shape.  It must be analytic
    inside (a, b), so callers split at breakpoints; endpoint
    singularities are what the rule is for.  err is the level difference
    |sum (w - w_coarse) f| plus the rounding floor eps * nodes * sum |w f|,
    so it stays above 0 when the two rules agree bitwise.  Raises
    QuadratureError on an empty interval, or when the level difference
    exceeds _FAIL_REL * sum |w f|; measured against that mass, a value
    that cancels to near 0 needs no absolute floor.
    """
    if not b > a:
        raise QuadratureError(f"empty interval [{a}, {b}]")
    x, w, w_coarse = tanh_sinh_nodes(a, b)
    fx = f(x)
    value = np.dot(w, fx)
    diff = abs(np.dot(w - w_coarse, fx))
    mass = np.dot(w, np.abs(fx))
    if diff > _FAIL_REL * mass:
        raise QuadratureError(
            f"tanh_sinh did not converge on [{a}, {b}]: level difference "
            f"{diff:.3e} vs {_FAIL_REL:g} * {mass:.3e}")
    return value, diff + _EPS * x.size * mass


#: the 8-point Gauss-Legendre rule on [-1, 1], rows nodes and weights,
#: read-only: numpy's leggauss(8) bit for bit, written out so that no
#: import of the package loads numpy.polynomial
GAUSS8 = np.array([
    [-0.9602898564975362, -0.7966664774136267, -0.525532409916329,
     -0.18343464249564978, 0.18343464249564978, 0.525532409916329,
     0.7966664774136267, 0.9602898564975362],
    [0.10122853629037706, 0.22238103445337443, 0.3137066458778869,
     0.36268378337836166, 0.36268378337836166, 0.3137066458778869,
     0.22238103445337443, 0.10122853629037706]])
GAUSS8.setflags(write=False)


def segments(lo: float, hi: float, cuts) -> list:
    """Split [lo, hi] at the cut points strictly inside it."""
    inner = sorted(c for c in cuts if lo < c < hi)
    edges = [lo] + inner + [hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i]]
