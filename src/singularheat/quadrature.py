"""Tanh-sinh (double-exponential) quadrature and small helpers.

The transform x = m + r*tanh((pi/2)*sinh(u)) pushes endpoint singularities
to |u| -> inf where the weights decay doubly exponentially, so integrands
like x**(-0.9) * smooth(x) converge at machine precision with a few
hundred nodes.  Node positions are stored as offsets from the nearest
endpoint so that points exponentially close to an endpoint keep full
relative precision (essential when the singular endpoint is 0).

tanh_sinh_lanes runs K integrals ("lanes") through one adaptive loop,
one integrand call per level for all running lanes, so a caller with a
list of intervals integrates them all in one call.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import QuadratureError

_H0 = 0.5
_UMAX = 6.1          # (pi/2)*sinh(6.1) ~ 350: past this, weights underflow
_WFRAC_MIN = 1e-250  # drop nodes whose weight fraction underflows
_EPS = np.finfo(float).eps
_MAX_LEVEL = 12      # finest refinement level: h = _H0 / 2**12
_FAIL_FACTOR = 1e4   # a capped lane fails if its last move exceeds this * tol


def _point(u: float) -> tuple[float, float]:
    """Return (delta, wfrac): endpoint offset and weight on [0, 1], u >= 0."""
    s = 0.5 * math.pi * math.sinh(u)
    delta = 1.0 / (1.0 + math.exp(2.0 * s))       # distance from endpoint
    sech = 2.0 * delta * math.exp(s) if s < 350 else 0.0  # sech(s)
    wfrac = 0.25 * math.pi * math.cosh(u) * sech * sech
    return delta, wfrac


@lru_cache(maxsize=64)
def _level_points(level: int) -> tuple[np.ndarray, np.ndarray]:
    """New (delta, wfrac) pairs introduced at this refinement level.

    Level 0 holds all integer multiples of _H0 (u > 0 side); level k > 0
    holds the odd multiples of _H0 / 2**k.  The u = 0 midpoint is handled
    separately by the integrators.
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


def _row_dots(vals, w):
    """np.dot(w, row) for each row: a stacked matmul runs the same dot
    kernel per row, so a lane's bits do not depend on the other lanes."""
    return (np.asarray(vals)[..., None, :] @ w[:, None])[..., 0, 0]


def tanh_sinh_lanes(f, a, b, tol: float = 1e-12, abs_tol: float = 0.0):
    """Adaptive tanh-sinh integration over K intervals [a_k, b_k] at once.

    f(x, rows) gets the nodes x, shape (len(rows), m), of the running
    lanes rows and returns real or complex values of that shape.  A lane
    stops at the first level >= 2 whose estimate moved by at most
    max(tol * |value|, abs_tol).  Returns (values, errors), arrays of
    length K; with K = 0 both are empty and f is never called.  A lane's
    error is that last move plus the rounding floor eps * nodes *
    sum |w f| of its sum, so it stays above 0 once two levels agree
    bitwise.  Raises QuadratureError on an empty interval, or when a lane
    ends at level _MAX_LEVEL with a move above _FAIL_FACTOR * tol
    relative to its value (and above abs_tol).
    """
    a = np.atleast_1d(np.asarray(a, float))
    b = np.atleast_1d(np.asarray(b, float))
    if a.size == 0:
        return np.empty(0), np.empty(0)
    empty = np.flatnonzero(~(b > a))
    if empty.size:
        k = empty[0]
        raise QuadratureError(f"empty interval [{a[k]}, {b[k]}]")
    rows = np.arange(a.size)
    lo, hi, width = a[:, None], b[:, None], (b - a)[:, None]
    mid = np.asarray(f(0.5 * (lo + hi), rows))[:, 0]
    total = _point(0.0)[1] * mid
    mass = _point(0.0)[1] * np.abs(mid)  # sum of |w f|, unscaled
    nodes = 1
    value = np.empty_like(total)
    error = np.empty(a.size)
    prev, err = None, np.full(a.size, math.inf)
    for level in range(0, _MAX_LEVEL + 1):
        deltas, wfracs = _level_points(level)
        if deltas.size:
            wd = width * deltas
            fx = f(np.concatenate([lo + wd, hi - wd], 1), rows)
            w = np.concatenate([wfracs, wfracs])
            total = total + _row_dots(fx, w)
            mass = mass + _row_dots(np.abs(fx), w)
            nodes += w.size
        h = _H0 / 2 ** level
        cur = h * width[:, 0] * total
        if level >= 2:
            err = np.abs(cur - prev)
            bound = err + _EPS * nodes * h * width[:, 0] * mass
            done = err <= np.maximum(tol * np.maximum(np.abs(cur), 1e-300),
                                     abs_tol)
            if done.any():
                value[rows[done]] = cur[done]
                error[rows[done]] = bound[done]
                if done.all():
                    return value, error
                running = (rows, lo, hi, width, total, mass, cur, err, bound)
                rows, lo, hi, width, total, mass, cur, err, bound = [
                    v[~done] for v in running]
        prev = cur
    scale = np.maximum(np.abs(prev), 1e-300)
    bad = np.flatnonzero(err > np.maximum(_FAIL_FACTOR * tol * scale,
                                          abs_tol))
    if bad.size:
        k = bad[0]
        raise QuadratureError(
            f"tanh_sinh did not converge on [{lo[k, 0]}, {hi[k, 0]}]: "
            f"estimate {err[k]:.3e} vs tolerance {tol:.3e} * {scale[k]:.3e}")
    value[rows] = prev
    error[rows] = bound
    return value, error


@lru_cache(maxsize=32)
def _reference_grid(level: int):
    """All (delta, wfrac, is_new) up to a level, plus the u = 0 node."""
    deltas = [np.array([0.5])]
    wfracs = [np.array([_point(0.0)[1]])]
    newflag = [np.array([False])]
    sides = [np.array([0])]  # 0: measured from a; 1: measured from b
    for lev in range(0, level + 1):
        d, w = _level_points(lev)
        for side in (0, 1):
            deltas.append(d)
            wfracs.append(w)
            newflag.append(np.full(d.shape, lev == level))
            sides.append(np.full(d.shape, side, dtype=int))
    return (np.concatenate(deltas), np.concatenate(wfracs),
            np.concatenate(newflag), np.concatenate(sides))


def tanh_sinh_nodes(a: float, b: float, level: int):
    """Fixed tanh-sinh grid on [a, b] for vectorized batch integration.

    Returns (x, w, w_coarse): nodes, weights at this level, and weights
    realizing the level-1-coarser rule on the same node set (zeros at the
    nodes the coarser rule does not use).  Integrating with both weight
    vectors gives a practically free error estimate.
    """
    deltas, wfracs, is_new, sides = _reference_grid(level)
    width = b - a
    x = np.where(sides == 0, a + width * deltas, b - width * deltas)
    # the u = 0 node (delta 0.5, side 0) is exactly the midpoint
    h = _H0 / 2 ** level
    w = h * width * wfracs
    w_coarse = np.where(is_new, 0.0, 2.0 * h * width * wfracs)
    return x, w, w_coarse


@lru_cache(maxsize=16)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def segments(lo: float, hi: float, cuts) -> list:
    """Split [lo, hi] at the cut points strictly inside it."""
    inner = sorted(c for c in cuts if lo < c < hi)
    edges = [lo] + inner + [hi]
    return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)
            if edges[i + 1] > edges[i]]
