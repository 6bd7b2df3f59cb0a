"""Heat content beta(t) for the 1-D model problems.

Two spectral routes are provided: the interval [0, pi] with sums over
the Dirichlet or Robin eigenmodes of D = -d^2/dx^2 + c^2, and the circle
with Fourier modes.  The half-line is the interval after a change of
scale: plateau data see a far wall only through exponentially small
images, so its heat content is a rescaled interval sum with the same
BoundaryConditionKind at c = 0.  Each simulator takes a float t or a
1-D array of t, and one call sums the whole grid.

The interval moments int phi e^{inx}, n = 1..N, use one node set per N
and per pieces(): 8-node Gauss cells on the lattice x = k pi/N, summed by
one length-2N real FFT per Gauss offset, and the tanh-sinh head and tail
grids (one grid of step 1/128, built once at import and scaled to each)
plus the cells cut by a breakpoint, summed with their coarse-rule
difference by Gaussian gridding onto a 4N-point grid and one real FFT
per row (Greengard and Lee, SIAM Rev. 46, 2004), one pass per node set
with the rows of phi and rho side by side and the nodes that carry no
weight dropped; the gridding error (Gaussian truncation, aliasing and
rounding) is bounded in err.  The singular head [0, b] is integrated
after the change of variable x = b u^p, p = 1/(1 - max alpha), which
leaves a bounded integrand in u for every alpha < 1, so x^(-alpha) is
never formed there.  The Robin stationary mode is row n = 0 of the same
table, summed directly on the same nodes by numpy reductions, which call
no BLAS routine and so round alike under any thread count, and the
spectral sum runs over n = 0..N with lambda_0 = 0.  It starts at the
first N where e^{-t lambda_N} alone meets its tail target.  Each call
builds the spectral-sum terms it needs and keeps none of them: one table
for its grid's largest start size, and a larger one only for a sample
that has to double past it, with every smaller N summing a slice and
taking its tail bound from that slice.  So a sample's bits depend only
on the grid passed in its call, and a slice of a larger table differs
from the one built for its N within err.
The samples of one N are summed together, their e^{-t lambda_n} weights
in blocks combined with the table by np.einsum, which calls no BLAS
routine, so no sum depends on the thread count; the circle sums its
live modes the same way.
apply_A / intertwine_residual realize the first-order operators
A = d/dx + c and A* = -d/dx + c that exchange the Dirichlet and Robin
flows, giving a consistency check on both realizations: the two flows'
spectral terms agree mode by mode within their propagated err.
"""

from __future__ import annotations

import math
from itertools import count, takewhile

import numpy as np

from .coeff import BoundaryConditionKind
from .errors import DomainError, RangeError, TruncationError
from .profiles import (IntertwinedFactor, PlateauCutoff, SingularProfile,
                       plateau_profile)
from .quadrature import GAUSS8

#: a spectral sum doubles its table size from _SUM_START up to _SUM_CAP
_SUM_START, _SUM_CAP = 64, 20000
_TAIL_REL = 1e-13
#: t lambda_N at which e^{-t lambda_N} alone meets the tail target
_TAIL_EXP = math.log(1.0 / _TAIL_REL)
#: e^{-x} is exactly 0 in double precision for x above about 745.13
_EXP_DEAD = 746.0


def _robin_zero_mode(c: float, x):
    """psi_0(x) = z e^{cx - pi max(c, 0)}, the normalized stationary mode
    of the Robin interval, z = sqrt(2|c| / (1 - e^{-2 pi |c|})); at most
    z on [0, pi], so it is finite for every c."""
    a = abs(c)
    # (1 - e^{-2 pi a})/(2a) = pi (1 - pi a + ...) avoids 0/0
    z = 1.0 / math.sqrt(math.pi * (1.0 - math.pi * a)) if a < 1e-8 \
        else math.sqrt(2.0 * a / -math.expm1(-2.0 * math.pi * a))
    return z * np.exp(c * x - math.pi * max(c, 0.0))


# ---------------------------------------------------------------------------
# half-line as a rescaled interval

def halfline_heat_content(phi: SingularProfile, rho: SingularProfile,
                          bc: BoundaryConditionKind, t):
    """beta(t) = integral of K(x, y; t) phi(x) rho(y) over the quadrant,
    (beta, err), for plateau data; Robin means Neumann here.  t is a
    float or a 1-D array of times; beta and err follow it, floats for a
    float t.

    The data vanish past r0, the larger support end.  Put a far wall at
    Lam = r0 + 14 sqrt(T), T the power of ten with T/10 < t <= T, and
    map [0, Lam] onto [0, pi] with s = Lam/pi: x^(-a) times a plateau of
    radius r becomes s^(-a) times the same on [0, pi] at radius r/s, and
    the kernel scales as K(x, y; t) = K_pi(x/s, y/s; t/s^2)/s, so

        beta(t) = s^(1 - sigma) beta_[0, pi](t/s^2),  sigma = a1 + a2,

    with the same boundary condition at both ends and c = 0; err scales
    alike.  The wall enters only through the images reflected at Lam,
    terms at most e^{-(Lam - r0)^2/t} <= e^{-196} relative, far below
    the rounding in err.  The samples of one decade share Lam, so each
    decade, smallest first, is one interval call on its own pair.  The
    interval's mode cap then needs t >= s^2 _TAIL_EXP / _SUM_CAP^2,
    about 7.48e-8 s^2 or 7.6e-9 Lam^2; TruncationError names the
    smallest t of the decade that missed it.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts > 0) & (ts < np.inf)):
        raise RangeError("need finite t > 0")
    if not all(isinstance(f.smooth, PlateauCutoff)
               and f.smooth.r0 <= f.support_end() for f in (phi, rho)):
        raise DomainError("half-line data must be whole plateau profiles")
    decades = np.array([10.0 ** math.ceil(math.log10(v)) for v in ts.tolist()])
    decades[decades < ts] *= 10.0
    beta, err = np.empty(ts.size), np.empty(ts.size)
    for decade in sorted(set(decades.tolist())):
        idx = np.flatnonzero(decades == decade)
        s = (max(phi.support_end(), rho.support_end())
             + 14.0 * math.sqrt(decade)) / math.pi
        scaled = [plateau_profile(f.alpha, math.pi, f.smooth.r0 / s)
                  for f in (phi, rho)]
        try:
            b, e = interval_heat_content(*scaled, bc, 0.0, ts[idx] / (s * s))
        except TruncationError:
            raise TruncationError(f"needed more than {_SUM_CAP} modes at "
                                  f"t = {ts[idx].min():g}") from None
        scale = s ** (1.0 - phi.alpha - rho.alpha)
        beta[idx], err[idx] = scale * b, scale * e
    if np.ndim(t) == 0:
        return float(beta[0]), float(err[0])
    return beta, err


# ---------------------------------------------------------------------------
# the tanh-sinh grid of the head and tail nodes
#
# The transform x = m + r*tanh((pi/2)*sinh(u)) pushes endpoint singularities
# to |u| -> inf where the weights decay doubly exponentially, so integrands
# like x**(-0.9) * smooth(x) converge at machine precision with a few
# hundred nodes (Takahasi and Mori, Publ. RIMS 9, 1974).  Node positions
# are stored as offsets from the nearest endpoint so that points
# exponentially close to an endpoint keep full relative precision
# (essential when the singular endpoint is 0).  There is one grid, the
# nodes u = k _STEP on both sides of the midpoint, built once at import,
# and its error estimate is the difference from the rule of twice the
# step, the even k, on the same nodes (Bailey, Jeyabalan and Li, Exp.
# Math. 14, 2005).

_STEP = 1.0 / 128
_WFRAC_MIN = 1e-250  # drop nodes whose weight fraction underflows
_EPS = np.finfo(float).eps
#: the Gauss-Legendre rule as arrays, for the lattice cells
_GX, _GW = map(np.array, GAUSS8)


def _point(u: float) -> tuple[float, float]:
    """Return (delta, wfrac): endpoint offset and weight on [0, 1], u >= 0."""
    s = 0.5 * math.pi * math.sinh(u)
    delta = 1.0 / (1.0 + math.exp(2.0 * s))       # distance from endpoint
    sech = 2.0 * delta * math.exp(s)
    wfrac = 0.25 * math.pi * math.cosh(u) * sech * sech
    return delta, wfrac


#: (delta, wfrac) at u = k _STEP for k = 0, 1, ..., 757: k = 758, u ~ 5.92,
#: is the first node whose weight fraction is below _WFRAC_MIN, and there
#: s = (pi/2) sinh(u) ~ 293 keeps e^{2s} finite
_DELTA, _WFRAC = map(np.array, zip(*takewhile(
    lambda point: point[1] >= _WFRAC_MIN,
    (_point(k * _STEP) for k in count()))))
#: wfrac at the even k, the nodes of the rule of twice the step, else 0
_WFRAC_COARSE = np.where(np.arange(_WFRAC.size) % 2 == 0, _WFRAC, 0.0)


def tanh_sinh_nodes(a: float, b: float):
    """Fixed tanh-sinh grid on [a, b] for vectorized batch integration.

    Returns (x, w, w_coarse): nodes, weights, and weights realizing the
    rule of twice the step on the same node set (zeros at the odd k,
    which the coarser rule does not use).  The nodes are the midpoint
    (k = 0) and a + (b - a) delta_k for k >= 1, then b - (b - a) delta_k
    for k >= 1.  Integrating with both weight vectors gives a practically
    free error estimate.  The smallest offset from an endpoint is about
    2.8e-253 (b - a): nodes closer carry a weight fraction below
    _WFRAC_MIN and are dropped.
    """
    width = b - a
    x = np.concatenate((a + width * _DELTA, b - width * _DELTA[1:]))
    w = _STEP * width * np.concatenate((_WFRAC, _WFRAC[1:]))
    w_coarse = 2.0 * _STEP * width \
        * np.concatenate((_WFRAC_COARSE, _WFRAC_COARSE[1:]))
    return x, w, w_coarse


# ---------------------------------------------------------------------------
# interval [0, pi]: spectral sums over Fourier moments

_HEAD_PERIODS = 10.0   # head and tail cover 10 / N
_SPREAD = 14           # a gridded node spreads to 2 * 14 grid points
_SPREAD_CHUNK = 64     # nodes per bincount of the spread
#: Gaussian e^{-c t^2} in grid steps, c = pi (R - 1/2) / (R _SPREAD) at
#: oversampling R = 2 (4N grid points for the 2N modes -N..N)
_GAUSS = 0.75 * math.pi / _SPREAD


def _table_nodes(profiles: tuple, N: int):
    """((x, w, w_coarse), (cells, xl, wl), (u, top, b)): one grid for
    every mode n <= N and every profile, which share one pieces().

    Fixed tanh-sinh grids, with their level-coarser weights, cover the
    singular head [0, b], b = min(10/N, end of the first piece), and the
    support edge (where the smooth factor may lose regularity).  The head
    grid comes first in x: its nodes are x = b u^p for the tanh-sinh
    nodes u on [0, 1], p = 1/(1 - top) with top = max(alpha, 0) over the
    profiles, and its weights are those of [0, 1], since _profile_values
    puts the Jacobian into the values (Davis and Rabinowitz, Methods of
    Numerical Integration, 2nd ed., 1984, ch. 2).  The rest lies on the
    lattice of cells [k h, (k+1) h], h = pi/N, each with an 8-node Gauss
    rule: the whole cells k are listed in cells, with nodes xl[j, i] =
    h (cells[i] + (1 + g_j)/2) and weights wl[j] = h gw_j / 2 for the
    Gauss nodes g_j and weights gw_j on [-1, 1].  A cell cut by a
    breakpoint or by the end of the head or tail grid adds its parts to
    the direct nodes x as Gauss panels with w_coarse = w; parts of zero
    width are skipped.
    """
    pieces = profiles[0].pieces()
    support_end = pieces[-1][1]
    if support_end > math.pi:
        raise DomainError("interval data must vanish beyond pi")
    reach = _HEAD_PERIODS / N
    h = math.pi / N
    top = max(0.0, *(f.alpha for f in profiles))
    gx, gw = _GX, _GW
    parts, cut, whole = [], [], np.zeros(N, bool)
    for a, b in pieces:
        if a == 0.0:
            head = min(b, reach)
            u, w, w_coarse = tanh_sinh_nodes(0.0, 1.0)
            parts.append((head * u ** (1.0 / (1.0 - top)), w, w_coarse))
            a = head
        if b == support_end and b > a:
            tail = max(a, b - reach)
            parts.append(tanh_sinh_nodes(tail, b))
            b = tail
        lo, hi = math.ceil(a / h), math.floor(b / h)
        if lo > hi:  # [a, b] inside one cell
            cut.append((a, b))
        else:
            whole[lo:hi] = True
            cut += [(a, lo * h), (hi * h, b)]
    a, b = np.array([ab for ab in cut if ab[1] > ab[0]]).reshape(-1, 2).T
    half = 0.5 * (b - a)[:, None]
    w = (half * gw).ravel()
    parts.append(((a[:, None] + half * (1.0 + gx)).ravel(), w, w))
    cells = np.flatnonzero(whole)
    lattice = (cells, h * (cells + 0.5 * (1.0 + gx[:, None])),
               0.5 * h * gw[:, None])
    return tuple(map(np.concatenate, zip(*parts))), lattice, (u, top, head)


def _profile_values(profile: SingularProfile, x, head_grid):
    """The values of profile = x^(-a) s(x) that the weights w of
    _table_nodes integrate at its direct nodes x: on the head grid
    (u, top, b), the integrand s(x) p b^(1-a) u^(p(1-a) - 1) of
    int_0^1 du after x = b u^p, p = 1/(1 - top), and profile(x) on the
    rest.  The power of u is p (top - a): exactly 0 for the larger
    exponent, positive for the other (where it may underflow to 0), so
    x^(-a) is never formed on the head.
    """
    u, top, b = head_grid
    a, p = profile.alpha, 1.0 / (1.0 - top)
    head = profile.smooth(x[:u.size]) * (p * b ** (1.0 - a)) \
        * u ** (p * (top - a))
    return np.concatenate((head, profile(x[u.size:])))


def _grid_sums(x, v, N: int):
    """sum_j v_rj e^{i n x_j} for n = 1..N, one row per row r of v, by
    Gaussian gridding (Greengard and Lee, SIAM Rev. 46, 2004).

    In grid units s = x 2N/pi, each node spreads v_j e^{-c (s_j - k)^2}
    to the 2 _SPREAD integers k nearest s_j, wrapped onto the 4N-periodic
    grid; one real FFT of each row gives F_n = sum_k G_k e^{-i pi n k/2N},
    and the sum is conj(F_n) sqrt(c/pi) e^{(pi n/4N)^2/c}, which undoes
    the Fourier coefficient of the Gaussian.  The nodes are spread in
    ascending order, _SPREAD_CHUNK at a time, each chunk by one bincount
    into the window of grid points it reaches; each row's grid is then
    the sum of its chunk windows, one row at a time, so only one row of
    the grid is held.  N must be at least 8.
    """
    rows, period, pad = v.shape[0], 4 * N, _SPREAD - 1
    order = np.argsort(x, kind="stable")
    s = x[order] * (2 * N / math.pi)
    base = np.floor(s)
    frac = s - base
    base = base.astype(np.intp)
    v = v[:, order]
    k = np.arange(-pad, _SPREAD + 1)
    # column j of a row's grid holds grid point j - pad; a window is its
    # first column and the spread of every row
    windows = []
    for lo in range(0, x.size, _SPREAD_CHUNK):
        b = base[lo:lo + _SPREAD_CHUNK]
        width = int(b[-1] - b[0]) + 2 * _SPREAD
        cols = (b - b[0])[:, None] + (k + pad) \
            + width * np.arange(rows)[:, None, None]
        w = np.exp(-_GAUSS * (k - frac[lo:lo + b.size, None]) ** 2)
        spread = np.bincount(cols.ravel(),
                             (v[:, lo:lo + b.size, None] * w).ravel(),
                             rows * width)
        windows.append((b[0], spread.reshape(rows, width)))
    n = np.arange(1, N + 1)
    scale = math.sqrt(_GAUSS / math.pi) \
        * np.exp((math.pi / period * n) ** 2 / _GAUSS)
    out = np.empty((rows, N), complex)
    for r, row in enumerate(out):
        grid = np.zeros(period + pad)
        for first, spread in windows:
            grid[first:first + spread.shape[1]] += spread[r]
        grid[period:] += grid[:pad]  # the first pad columns wrap
        row[:] = np.fft.rfft(grid[pad:])[1:N + 1]
        np.conjugate(row, out=row)
        row *= scale
    return out


def _grid_error(x, v, N: int):
    """Bound on |_grid_sums(x, v, N) - exact|, one row per row of v.

    With M nodes, B = _SPREAD_CHUNK, u = eps/2, a = (pi n/4N)^2/c and
    A = sum_j |v_rj|, the parts are:
    - truncation: the Gaussian beyond the window, which is at least
      _SPREAD grid steps from every node, sqrt(c/pi) e^a 2 sum_{i>=0}
      e^{-c (_SPREAD + i)^2} A (the terms past i = 7 are below 1e-35);
    - aliasing: the FFT also returns the Gaussian's coefficients at
      n + 4Np, (e^{-(pi^2/c)(1 - n/2N)} + 2.0001 e^{-pi^2/c}) A;
    - rounding of the spread, (B + ceil(M/B) + 4) u: the product v w, a
      sum of at most B terms per grid point in a chunk and of at most
      ceil(M/B) chunk windows, the fold, and the weights (relative error
      (4 c t^2 + 2) u at distance t, whose Gaussian sum is
      4 sqrt(pi/c)); and of the FFT, eps log2(4N) as for the lattice;
      both per sum_k |G_k| <= sqrt(pi/c) A, so times sqrt(c/pi) e^a;
    - the scaling, (6a + 5) u A;
    - the rounding of s = x 2N/pi, a node shift of at most 3 u x_j, so
      3 u n sum_j |v_rj| x_j.
    """
    u = 0.5 * _EPS
    n = np.arange(1, N + 1, dtype=float)
    a = (math.pi / (4 * N) * n) ** 2 / _GAUSS
    tail = 2.0 * sum(math.exp(-_GAUSS * (_SPREAD + i) ** 2)
                     for i in range(8))
    chunks = -(-x.size // _SPREAD_CHUNK)
    spread = (_SPREAD_CHUNK + chunks + 4) * u + _EPS * math.log2(4 * N)
    unit = np.exp(a) * (math.sqrt(_GAUSS / math.pi) * tail + spread) \
        + np.exp(-math.pi ** 2 / _GAUSS * (1.0 - n / (2 * N))) \
        + 2.0001 * math.exp(-math.pi ** 2 / _GAUSS) + (6.0 * a + 5.0) * u
    size = np.abs(v)
    return np.outer(np.sum(size, axis=1), unit) \
        + 3.0 * u * np.outer(np.sum(size * x, axis=1), n)


def _lattice_sums(us: list, cells, N: int):
    """sum_ji u_ji e^{i n xl_ji} for n = 0..N on the lattice of _table_nodes,
    one row per array u in us (one per profile).

    For each Gauss offset g_j the sum over cells k is
    e^{i n h (1 + g_j)/2} sum_k u_jk e^{i pi n k / N}, the conjugate of one
    length-2N real FFT of row j times the offset phase (Press et al.,
    Numerical Recipes, 3rd ed., sec. 13.9), which is computed once for
    all profiles.  The FFT reduces n k mod 2N exactly, so only the offset
    phase rounds with n.
    """
    h = math.pi / N
    n = np.arange(N + 1)
    row = np.zeros(2 * N)
    totals = np.zeros((len(us), N + 1), complex)
    for j, g in enumerate(_GX):
        phase = np.exp(0.5j * h * (1.0 + g) * n)
        for u, total in zip(us, totals):
            row[cells] = u[j]
            total += phase * np.fft.rfft(row).conj()
    return totals


def _direct_sums(values: list, x, w, w_coarse, N: int):
    """(sums, err), one row per profile, over the direct nodes x of
    _table_nodes: sums_n = sum w phi e^{inx} and its error bound err_n,
    from the values phi(x) of each profile.

    The pass sums the rows w phi and (w - w_coarse) phi of each profile,
    side by side, in one _grid_sums call.  A node is dropped when its
    largest |v_r| is at most eps min sum |w phi| / M, so a row drops at
    most eps sum |w phi| of its own profile (about half the nodes: the
    far ends of the tanh-sinh grids).  err is the coarse-rule difference
    |sum (w - w_coarse) phi e^{inx}|, plus the _grid_error of both rows
    (linear in |v|, so that of their sum |v|), plus their mass
    sum_dropped |v| on the dropped nodes.
    """
    v = np.array([r for f in values for r in (w * f, (w - w_coarse) * f)])
    size = np.abs(v)
    keep = np.max(size, axis=0) \
        > _EPS * float(np.min(np.sum(size[::2], axis=1))) / x.size
    sums = _grid_sums(x[keep], v[:, keep], N)
    pairs = size.reshape(-1, 2, x.size).sum(axis=1)
    err = np.abs(sums[1::2]) + _grid_error(x[keep], pairs[:, keep], N) \
        + np.sum(pairs[:, ~keep], axis=1)[:, None]
    return sums[::2].copy(), err


def _moment_tables(profiles: tuple, N: int, c: float | None) -> list:
    """[(S, C, err)] per profile, n = 0..N: S_n = int phi sin(nx),
    C_n = int phi cos(nx) for n >= 1, and S_0 = 0, C_0 = int phi psi_0
    with the Robin stationary mode psi_0 = _robin_zero_mode(c); c None
    (Dirichlet, no stationary mode) leaves C_0 = err_0 = 0.

    The profiles share one pieces(), hence one node set.  The whole
    lattice cells are summed by _lattice_sums, eight real FFTs of length
    2N per profile and eight offset phases for all of them; the direct
    nodes (head and tail grids and cut cells) by _direct_sums, one
    gridding pass for all profiles; C_0, in place of
    the lattice's n = 0 term, by numpy reductions over the same nodes
    (np.sum, not a BLAS dot, whose rounding depends on the thread count
    once it has more than about 10,000 terms).
    err_n, a conservative estimate of |S_n - exact| and |C_n - exact|
    that the tests check as a bound, is the head and tail coarse-rule
    difference, plus the mass sum_dropped |v| of both rows on the dropped
    nodes, plus the _grid_error of both rows (Gaussian truncation and
    aliasing, the rounding of the spread, the FFT and the scaling, which
    undoing the Gaussian amplifies by up to e^{(pi n/4N)^2/c}, about 39 at
    n = N, and the rounding of the grid coordinate, 3 u n sum |v| x), plus
    eps (log2(2N) + n h) sum |u| over the lattice nodes, u = wl phi
    (rounding of the FFT and of the offset phase).  The direct sums and
    C_0 read the values of _profile_values, so the head [0, b] is the
    bounded integral over u of x = b u^p, and every node of it counts.
    err_0 has the same parts: the coarse-rule difference, and the
    rounding, in units of eps/2 times the mass sum |w phi psi_0| +
    sum |u psi_0|, of the sums of K terms, K - 1 in any order, of the
    exponent cx - pi max(c, 0), 4 pi |c|, and of exp, z and the
    products, 11.
    """
    (x, w, w_coarse), (cells, xl, wl), head_grid = _table_nodes(profiles, N)
    values = [_profile_values(profile, x, head_grid) for profile in profiles]
    sums, direct_err = _direct_sums(values, x, w, w_coarse, N)
    us = [profile(xl) * wl for profile in profiles]
    moms = _lattice_sums(us, cells, N)
    n = np.arange(1, N + 1, dtype=float)
    tables = []
    for k, (f, u, mom) in enumerate(zip(values, us, moms)):
        zero = zero_err = 0.0
        if c is not None:
            # psi_0 > 0 at every node
            mode, mode_l = _robin_zero_mode(c, x), _robin_zero_mode(c, xl)
            zero = np.sum(w * f * mode) + np.sum(u * mode_l)
            mass = np.sum(np.abs(w * f) * mode) + np.sum(np.abs(u) * mode_l)
            floor = 0.5 * _EPS * (x.size + u.size + 4 * math.pi * abs(c) + 11)
            zero_err = abs(np.sum((w - w_coarse) * f * mode)) + floor * mass
        mom[0] = zero
        mom[1:] += sums[k]
        rounding = _EPS * (math.log2(2 * N) + n * math.pi / N) \
            * float(np.sum(np.abs(u)))
        err = np.concatenate(([zero_err], direct_err[k] + rounding))
        tables.append((mom.imag, mom.real, err))
    return tables


def _gammas(table: tuple, bc: BoundaryConditionKind, c: float):
    """(gamma_n, err_n), n = 0..N, of interval_heat_content from one
    (S, C, err) moment table: gamma_0 = C_0 for Robin, 0 for Dirichlet."""
    S, C, err = table
    root = math.sqrt(2.0 / math.pi)
    if bc is BoundaryConditionKind.DIRICHLET:
        return root * S, root * err
    n = np.arange(1, S.size, dtype=float)
    lam_half = np.sqrt(n ** 2 + c ** 2)
    gamma, gamma_err = np.empty(S.size), np.empty(S.size)
    gamma[0], gamma_err[0] = C[0], err[0]
    gamma[1:] = root * (n * C[1:] + c * S[1:]) / lam_half
    gamma_err[1:] = root * (n + abs(c)) * err[1:] / lam_half
    return gamma, gamma_err


def _pair_table(phi: SingularProfile, rho: SingularProfile,
                bc: BoundaryConditionKind, c: float, N: int) -> tuple:
    """(cols, lambda), n = 0..N, from moment tables built for N.

    cols stacks the rows gp gr, |gp| er + |gr| ep + ep er and |gp gr|,
    where gp, ep are the (gamma_n, err_n) of phi and gr, er those of rho,
    so the second row bounds |gp gr - exact| for every n, and the third
    gives a sum's tail bound; lambda_n = n^2 + c^2 with lambda_0 = 0.  A
    pair phi == rho is one profile, and profiles with the same pieces()
    are tabulated together; other pairs take one pass per profile.  Only
    these terms are returned, not the moment tables behind them.
    """
    c0 = None if bc is BoundaryConditionKind.DIRICHLET else c
    if phi == rho:
        tables = _moment_tables((phi,), N, c0) * 2
    elif phi.pieces() == rho.pieces():
        tables = _moment_tables((phi, rho), N, c0)
    else:
        tables = _moment_tables((phi,), N, c0) + _moment_tables((rho,), N, c0)
    (gp, ep), (gr, er) = (_gammas(table, bc, c) for table in tables)
    gg = gp * gr
    cols = np.array([gg, np.abs(gp) * er + np.abs(gr) * ep + ep * er,
                     np.abs(gg)])
    lam = np.arange(N + 1, dtype=float) ** 2 + c ** 2
    lam[0] = 0.0
    return cols, lam


def interval_heat_content(phi: SingularProfile, rho: SingularProfile,
                          bc: BoundaryConditionKind, c: float, t):
    """Sum_n e^{-t lambda_n} gamma_n(phi) gamma_n(rho) on [0, pi], (beta, err).

    t is a float or a 1-D array of times; beta and err follow it, floats
    for a float t.  The modes are the eigenfunctions of D = -d^2/dx^2 +
    c^2.  Dirichlet: sqrt(2/pi) sin(nx), n >= 1, at lambda_n = n^2 + c^2.
    Robin (boundary operator (phi' - c phi)(0), (-phi' + c phi)(pi)): the
    normalized images A sqrt(2/pi) sin(nx), A = d/dx + c, at n^2 + c^2
    for n >= 1, and the n = 0 term, the stationary mode psi_0 ~ e^{cx} at
    lambda_0 = 0, which A* = -d/dx + c annihilates, so it is orthogonal
    to every A sin(nx) and satisfies both Robin conditions.

    Each sample's N starts at the smallest _SUM_START 2^k with
    t (N^2 + c^2) >= _TAIL_EXP = ln(1/_TAIL_REL), about 29.9, at most
    _SUM_CAP, and doubles until the tail bound drops below 1e-13 of the
    partial sum; TruncationError is raised, before any table is built,
    when even _SUM_CAP misses _TAIL_EXP for some t, and when the sum at
    _SUM_CAP does not stop.  At the start e^{-t (N^2 + c^2)} alone meets
    1e-13, so the sum stops there whenever the bound times its decay
    factor is at most the partial sum.

    The samples are summed in groups of one N, smallest first, each
    group by one _exp_weighted pass over rows 0..N of the call's table
    and their lambda_n.  The first group builds the table of the largest
    start size, so a grid builds one table for its start sizes.  A sample
    whose tail test fails moves to the group of 2N; if that has more rows
    than the table, the group builds the larger one, and it and every
    later group are summed from it.  The table is a local of the call, so
    a sample's bits depend only on the grid passed with it; a slice of a
    larger table differs from the table built for N by at most the sum
    of their propagated errors.
    err is the tail bound plus the propagated moment error plus the
    rounding of the N + 1 terms, all under the weights e^{-t lambda_n}.
    With B = 2 max |gamma gamma| over the modes N/2 < n <= N of the slice
    a group sums, taken once per group, as the uniform |gamma gamma|
    bound, the tail is B e^{-t c^2} sum_{n>N} e^{-t n^2}
    <= B e^{-t (N^2 + c^2)} (1 + 1/(2tN)).
    A sample whose sum is not finite, say from a moment whose quadrature
    met x^(-alpha) = inf at a subnormal node of the tail grid, is
    returned with err inf.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts > 0) & (ts < np.inf)):
        raise RangeError("need finite t > 0")
    start = np.full(ts.size, _SUM_START)
    while True:
        low = ts * (start * start + c * c) < _TAIL_EXP
        grow = low & (start < _SUM_CAP)
        if not grow.any():
            break
        start[grow] = np.minimum(2 * start[grow], _SUM_CAP)
    short = np.flatnonzero(low)
    if short.size:
        raise TruncationError(
            f"needed more than {_SUM_CAP} modes at t = {ts[short[0]]:g}")
    groups = {m: np.flatnonzero(start == m) for m in set(start.tolist())}
    top = max(groups, default=0)
    beta, err = np.empty(ts.size), np.empty(ts.size)
    table = None
    while groups:
        m = min(groups)
        idx = groups.pop(m)
        if table is None or table[1].size <= m:
            table = _pair_table(phi, rho, bc, c, max(m, top))
        cols, lam = table
        tg = ts[idx]
        sums = _exp_weighted(tg, lam[:m + 1], cols[:, :m + 1])
        partial = sums[:, 0]
        bound = 2.0 * float(np.max(cols[2, m // 2 + 1:m + 1]))
        finite = np.isfinite(partial)
        # a table that holds inf makes 0 * inf in the tail of a sum that
        # is not finite itself, and that sum's err is inf
        with np.errstate(invalid="ignore"):
            tail = np.exp(-tg * (m * m + c * c)) * bound \
                * (1.0 + 1.0 / (2.0 * tg * m))
            done = tail < _TAIL_REL * np.maximum(np.abs(partial), 1e-300)
            err[idx] = np.where(finite, tail + sums[:, 1]
                                + (m + 1) * _EPS * sums[:, 2], math.inf)
        beta[idx] = partial
        more = idx[finite & ~done]
        if more.size:
            if m >= _SUM_CAP:
                raise TruncationError(f"needed more than {_SUM_CAP} modes "
                                      f"at t = {ts[more[0]]:g}")
            up = min(2 * m, _SUM_CAP)
            groups[up] = np.concatenate((groups[up], more)) \
                if up in groups else more
    if np.ndim(t) == 0:
        return float(beta[0]), float(err[0])
    return beta, err


#: the most exp weights _exp_weighted holds at once, 2 MB
_BLOCK = 1 << 18


def _exp_weighted(ts, lam, cols):
    """sum_j e^{-t lam_j} cols[k, j], one row per t in ts and one column
    per row k of cols.

    The weights are taken in blocks of at most _BLOCK, and each block is
    combined with cols by one np.einsum.  Without optimize, einsum calls
    no BLAS routine: each sum runs over j in one inner loop of its own,
    so its bits depend neither on the thread count nor on the other
    times in ts.
    """
    out = np.empty((ts.size, cols.shape[0]))
    rows = max(1, _BLOCK // max(lam.size, 1))
    block = np.empty((min(rows, ts.size), lam.size))
    for lo in range(0, ts.size, rows):
        weights = block[:ts.size - lo]  # one buffer: no fresh pages per block
        np.multiply.outer(-ts[lo:lo + rows], lam, out=weights)
        np.exp(weights, out=weights)
        np.einsum("ij,kj->ik", weights, cols, out=out[lo:lo + rows])
    return out


# ---------------------------------------------------------------------------
# intertwining operators

def apply_A(profile: SingularProfile, c: float,
            adjoint: bool) -> SingularProfile:
    """(A phi) or (A* phi) for A = d/dx + c, A* = -d/dx + c.

    The singular exponent shifts by +1, so integrability of the result
    requires alpha < 0 on input; SingularProfile raises DomainError
    otherwise.
    """
    a = profile.alpha
    smooth = IntertwinedFactor(profile.smooth, a, float(c),
                               sign=+1 if adjoint else -1)
    return SingularProfile(a + 1.0, smooth, profile.L, profile.cutoff_radius)


def intertwine_residual(phi: SingularProfile, rho: SingularProfile,
                        c: float, dual: bool = False) -> float:
    """Largest defect of lambda_n gamma_n^R(phi) gamma_n^R(rho) =
    gamma_n^D(A* phi) gamma_n^D(A* rho), n = 0.._SUM_START, in units of
    the sum of both sides' propagated err; at most 1 where it holds.

    The identity is d/dt beta_R(phi, rho) = -beta_D(A* phi, A* rho) mode
    by mode: A sqrt(2/pi) sin(nx) / sqrt(lambda_n) is the Robin mode n,
    and sin(nx) vanishes at both ends, so integrating by parts gives
    gamma_n^R(phi) = gamma_n^D(A* phi) / sqrt(lambda_n); the Robin
    stationary mode n = 0 meets the Dirichlet flow's empty n = 0 term
    with its eigenvalue 0.  With dual=True the exchanged identity
    d/dt beta_D(phi, rho) = -beta_R(A phi, A rho), which needs data that
    vanish at both ends, is tested instead; its n = 0 term asks that the
    Robin zero mode of A phi vanish.  A mode whose bound is 0 counts 0
    when its defect is 0 and inf otherwise.
    """
    if phi.alpha >= -1.0 or rho.alpha >= -1.0:
        raise DomainError("intertwining identity needs alpha < -1")
    robin, dirichlet = (BoundaryConditionKind.ROBIN,
                        BoundaryConditionKind.DIRICHLET)
    flow, image = (dirichlet, robin) if dual else (robin, dirichlet)
    cols, lam = _pair_table(phi, rho, flow, c, _SUM_START)
    terms, _ = _pair_table(apply_A(phi, c, not dual),
                           apply_A(rho, c, not dual), image, c, _SUM_START)
    defect = np.abs(lam * cols[0] - terms[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(defect == 0.0, 0.0,
                         defect / (lam * cols[1] + terms[1]))
    return float(np.max(ratio))


# ---------------------------------------------------------------------------
# circle

def circle_heat_content(phi_fourier, rho_fourier, t):
    """Heat content on the unit circle from Fourier data, a float for a
    float t or an array for a 1-D array of t.

    Coefficient lists or arrays are in the basis [1, cos x, sin x,
    cos 2x, ...]; the mode k carries measure 2 pi (k = 0) or pi (k >= 1).
    The products phi rho measure are formed once for the grid, and those
    of cos kx and sin kx, which share e^{-t k^2}, are added.  Past
    t k^2 = _EXP_DEAD that weight is exactly 0, so each t is summed by
    _exp_weighted over the modes k < 2^p, the smallest power of two that
    covers its live modes k <= sqrt(_EXP_DEAD/t), at most all of them,
    with the times of one size in one pass.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all((ts > 0) & (ts < np.inf)):
        raise RangeError("need finite t > 0")
    m = min(len(phi_fourier), len(rho_fourier))
    k = (np.arange(m) + 1) // 2
    coef = np.bincount(k, np.asarray(phi_fourier[:m], float)
                       * np.asarray(rho_fourier[:m], float)
                       * np.where(k == 0, 2.0 * math.pi, math.pi), 1)
    lam = np.arange(coef.size, dtype=float) ** 2
    live = np.sqrt(_EXP_DEAD / ts) + 1.0
    size = np.minimum(np.exp2(np.ceil(np.log2(live))), coef.size).astype(int)
    out = np.empty(ts.size)
    for n in sorted(set(size.tolist())):
        idx = np.flatnonzero(size == n)
        out[idx] = _exp_weighted(ts[idx], lam[:n], coef[None, :n])[:, 0]
    if np.ndim(t) == 0:
        return float(out[0])
    return out
