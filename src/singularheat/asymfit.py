"""Least-squares extraction of asymptotic coefficients from beta(t) samples.

The model class is a finite sum of real powers of t drawn from two
families: integer interior exponents n and boundary exponents
(1 + j - a1 - a2) / 2.  Fitting solves the scaled Vandermonde-type system
[t_i^{gamma_k}] c = beta_i with row weights 1 / max(|beta_i|, floor), so
that small-t rows carry equal relative weight, and unit column norms.
There are at most TERM_CAP columns, so the solve is plain Python: a
Householder QR and back substitution, and the singular values of the
triangle R by one-sided Jacobi for the condition number (Golub and Van
Loan, Matrix Computations, 4th ed., 2013, sec. 5.2 and 8.6).  Importing
this module loads no numpy.
"""

from __future__ import annotations

import json
import math
from array import array
from operator import mul

from .errors import (IllConditionedError, InsufficientDataError, RangeError)

#: minimum allowed gap between fitted exponents
GAP_MIN = 0.05
#: Vandermonde-type conditioning becomes hopeless past this many terms
TERM_CAP = 6
_COND_MAX = 1e10
_WEIGHT_FLOOR = 1e-30
#: rows reduced per Householder pass, so that a pass works in cache
_BLOCK = 4096


class HeatContentSamples:
    """beta(t) samples of one problem, serializable as t,beta,err CSV."""

    def __init__(self, entries: list):
        if not all(math.isfinite(v) for e in entries for v in e):
            raise RangeError("t, beta and err must be finite")
        ts = [e[0] for e in entries]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise RangeError("sample times must be strictly increasing")
        if any(e[0] <= 0 or e[2] < 0 for e in entries):
            raise RangeError("need t > 0 and err >= 0")
        self.entries = entries

    def to_csv_text(self) -> str:
        lines = ["t,beta,err"]
        for t, beta, err in self.entries:
            lines.append(f"{t:.17g},{beta:.17g},{err:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_lines(cls, lines) -> "HeatContentSamples":
        """Parse t,beta,err CSV from an iterable of lines, such as an open
        file, one line at a time.  Blank lines are skipped; a
        whitespace-only line is a malformed row unless only blank lines
        follow it, and the header may carry surrounding whitespace."""
        rows = (ln for line in lines for ln in line.splitlines() if ln)
        header = next((ln for ln in rows if not ln.isspace()), "")
        if header.strip() != "t,beta,err":
            raise RangeError("expected header 't,beta,err'")
        entries, gap = [], None
        for ln in rows:
            if ln.isspace():  # a row that fails below, if one follows
                gap = gap or ln
                continue
            row = gap or ln
            try:
                t, beta, err = (float(v) for v in row.split(","))
            except ValueError:
                raise RangeError(f"malformed t,beta,err row {row!r}") from None
            entries.append((t, beta, err))
        return cls(entries)


class AsymptoticModel:
    """Fitted finite power series sum_k c_k t^{gamma_k}."""

    def __init__(self, exponents: list, coefficients: list,
                 fit_residual: float, condition_estimate: float):
        self.exponents = exponents
        self.coefficients = coefficients
        self.fit_residual = fit_residual
        self.condition_estimate = condition_estimate

    def to_json(self) -> str:
        return json.dumps({
            "exponents": list(map(float, self.exponents)),
            "coefficients": list(map(float, self.coefficients)),
            "residual": float(self.fit_residual),
            "condition": float(self.condition_estimate),
        })

def model_exponents(a, n_int: int, j_max: int) -> list:
    """Exponent grid {n} union {(1 + j - a1 - a2) / 2}, sorted."""
    a1, a2 = a
    s = complex(a1).real + complex(a2).real
    exps = [float(n) for n in range(n_int + 1)]
    exps += [(1.0 + j - s) / 2.0 for j in range(j_max + 1)]
    return sorted(exps)


def _householder(work: list) -> tuple:
    """QR of the m x n matrix whose columns are work[:n] (m >= n) by
    Householder reflections, applied to the right-hand side work[n]:
    (R, rest), R the rows of the n x (n + 1) upper triangle
    [R | (Q^T rhs)[:n]] and rest = (Q^T rhs)[n:].  The columns are lists
    of floats, and each step replaces them by the rows not yet reduced."""
    n = len(work) - 1
    r = [[0.0] * (n + 1) for _ in range(n)]
    for k in range(n):
        v = work[k]
        norm = math.hypot(*v)
        # H = I - tau v v^T with v = x - alpha e_1 maps x to alpha e_1,
        # alpha = -sign(x_0) |x|
        alpha = -norm if v[0] > 0.0 else norm
        r[k][k] = alpha
        if norm > 0.0:
            tau = 1.0 / (alpha * (alpha - v[0]))
            v[0] -= alpha
        for j in range(k + 1, n + 1):
            c = work[j]
            if norm > 0.0:
                f = tau * sum(map(mul, v, c))
                c = [ci - f * vi for ci, vi in zip(c, v)]
            r[k][j] = c[0]
            work[j] = c[1:]
    return r, work[n]


def _qr(cols: list) -> tuple:
    """_householder of the columns cols, arrays of doubles with the
    right-hand side last, at most _BLOCK rows at a time: each pass
    reduces the triangle of the rows before it stacked on the next block
    (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 34, 2012),
    so (R, rest) is that of all rows, with rest the remainders of all
    passes.  With at most _BLOCK rows it is one pass.  Block p holds
    every passes-th row from row p: a block of consecutive rows spans a
    narrow range of t, where the columns are nearly parallel, and
    stacking such blocks lost two digits on 10^6 rows against one pass.
    A pass unpacks its rows into fresh floats, so its working set stays
    in cache."""
    passes = -(-len(cols[0]) // _BLOCK)
    top = [[] for _ in cols]
    rest = []
    for p in range(passes):
        r, tail = _householder([t + c[p::passes].tolist()
                                for t, c in zip(top, cols)])
        top = [[row[j] for row in r] for j in range(len(cols))]
        rest += tail
    return r, rest


def _singular_values(r: list) -> list:
    """Singular values of the square matrix r (rows), largest first, by
    one-sided Jacobi rotations of its columns until every pair is
    orthogonal to rounding."""
    n = len(r)
    cols = [[row[k] for row in r] for k in range(n)]
    eps = 2.0 ** -52
    for _ in range(60):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                up, uq = cols[p], cols[q]
                a = sum(map(mul, up, up))
                b = sum(map(mul, uq, uq))
                g = sum(map(mul, up, uq))
                if abs(g) <= eps * math.sqrt(a * b):
                    continue
                rotated = True
                zeta = (b - a) / (2.0 * g)
                t = math.copysign(1.0, zeta) / (abs(zeta)
                                                + math.hypot(1.0, zeta))
                c = 1.0 / math.hypot(1.0, t)
                s = c * t
                cols[p] = [c * x - s * y for x, y in zip(up, uq)]
                cols[q] = [s * x + c * y for x, y in zip(up, uq)]
        if not rotated:
            break
    return sorted((math.hypot(*u) for u in cols), reverse=True)


def fit(samples: HeatContentSamples, a,
        n_int: int = 2, j_max: int = 3,
        known_interior: list | None = None) -> AsymptoticModel:
    """Fit the asymptotic series to beta(t) samples.

    a is the (alpha1, alpha2) pair; it may be the classical case
    alpha1 + alpha2 = 0, where the boundary family is the half-integers.
    With known_interior supplied, the interior sum  sum_n beta_n t^n is
    subtracted exactly and only the boundary family is fitted (much
    better conditioned, since the remaining exponents are well spaced).
    The number of terms is checked against TERM_CAP before the
    exponents are built.  The coefficients come from QR and back
    substitution; a design whose condition exceeds _COND_MAX, or whose
    weighted entries or data overflow, raises IllConditionedError.
    """
    t = [e[0] for e in samples.entries]
    beta = [e[1] for e in samples.entries]
    if len(t) < 2 or t[-1] / t[0] < 100.0:
        raise InsufficientDataError(
            "need samples spanning at least two decades of t")
    if known_interior is not None:
        n_int = -1  # the interior sum is subtracted, not fitted
    terms = max(n_int + 1, 0) + max(j_max + 1, 0)
    if terms > TERM_CAP:
        raise RangeError(
            f"at most {TERM_CAP} simultaneous terms are solvable; got "
            f"{terms} (supply known_interior or lower j_max)")
    exps = model_exponents(a, n_int, j_max)
    if any(hi - lo < GAP_MIN for lo, hi in zip(exps, exps[1:])):
        raise RangeError(f"exponent gaps below {GAP_MIN}: {exps}")
    n = len(exps)
    if len(t) < 2 * n:
        raise InsufficientDataError(
            f"need at least {2 * n} samples for {n} terms")

    # the weighted columns t^gamma / |beta|, then the weighted data
    try:
        for k, bk in enumerate(known_interior or ()):
            bk = complex(bk).real
            beta = [b - bk * ti ** k for b, ti in zip(beta, t)]
        w = [1.0 / max(abs(b), _WEIGHT_FLOOR) for b in beta]
        cols = [array("d", [ti ** g * wi for ti, wi in zip(t, w)])
                for g in exps]
        cols.append(array("d", [b * wi for b, wi in zip(beta, w)]))
    except OverflowError:
        norms = [math.inf]
    else:
        norms = [math.hypot(*c) for c in cols]
    if not all(map(math.isfinite, norms)):
        raise IllConditionedError("the weighted design or data overflow")
    # unit columns; a zero column stays 0 and makes R singular
    norms = [nk or 1.0 for nk in norms[:n]]
    cols[:n] = [array("d", [v / nk for v in c])
                for c, nk in zip(cols, norms)]
    r, rest = _qr(cols)
    sv = _singular_values([row[:n] for row in r])
    cond = sv[0] / sv[-1] if sv[-1] > 0 else math.inf
    if cond > _COND_MAX:
        raise IllConditionedError(
            f"design matrix condition {cond:.3e} exceeds {_COND_MAX:.0e}")
    y = [0.0] * n
    for k in reversed(range(n)):
        y[k] = (r[k][n] - sum(r[k][j] * y[j]
                              for j in range(k + 1, n))) / r[k][k]
    resid = math.hypot(*rest) / math.sqrt(len(t))
    return AsymptoticModel(exps, [yk / nk for yk, nk in zip(y, norms)],
                           resid, cond)
