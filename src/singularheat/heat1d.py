"""Heat content beta(t) for the 1-D model problems.

Three independent routes are provided: the half-line with image-method
Gaussian kernels, the interval [0, pi] with explicit Dirichlet/Robin
spectral resolutions of D = -d^2/dx^2 + c^2, and the circle with Fourier
modes.  The half-line inner integrals F(d), H(s) take all nodes of one
outer tanh-sinh level at once, as lanes: each node's range is split into
the same number of padded slots, one batch of tanh-sinh or Gauss lanes
each.  The interval moments int phi e^{inx}, n = 1..N, use one node set
per N (tanh-sinh head and tail grids, Gauss panels no wider than pi/N
between) and one blocked complex matrix product, cached per (profile, N).
apply_A / intertwine_residual realize the first-order operators
A = d/dx + c and A* = -d/dx + c that exchange the Dirichlet and Robin
flows, giving a simulator-level consistency check on both realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache

import numpy as np

from .coeff import BoundaryConditionKind
from .errors import DomainError, RangeError, TruncationError
from .profiles import IntertwinedFactor, SingularProfile
from .quadrature import (gauss_legendre, gauss_rule, tanh_sinh,
                         tanh_sinh_lanes, tanh_sinh_nodes)

#: kernel window: exp(-45^2/4) ~ 1e-220, far below any tolerance in use
_WINDOW_SIGMAS = 45.0
_SUM_CAP = 20000
_TAIL_REL = 1e-13
#: below this scale, x**(-alpha) node offsets can underflow to exact 0;
#: the skipped mass is O(_TINY^(1 - sigma)) times an underflowing weight
_TINY = 1e-60


class SpectralKind(Enum):
    DIRICHLET_INTERVAL = "dirichlet-interval"
    ROBIN_INTERVAL = "robin-interval"


@dataclass(frozen=True)
class SpectralResolution:
    """Explicit eigendata of D = -d^2/dx^2 + c^2 on [0, pi].

    Dirichlet: phi_n = sqrt(2/pi) sin(nx), n >= 1.  Robin (boundary
    operator (phi' - c phi)(0), (-phi' + c phi)(pi)): phi_n is the
    normalized image A phi_n^D for n >= 1, plus the stationary mode
    e^{cx} (annihilated by A*, hence orthogonal to every A phi_n^D and
    satisfying both Robin conditions) at eigenvalue 0.
    """

    kind: SpectralKind
    c: float = 0.0

    def __post_init__(self):
        if self.kind is not SpectralKind.ROBIN_INTERVAL and self.c != 0.0:
            raise RangeError("nonzero c requires the Robin interval kind")

    @property
    def has_zero_mode(self) -> bool:
        return self.kind is SpectralKind.ROBIN_INTERVAL

    def eigenvalue(self, n):
        n = np.asarray(n, float)
        if self.has_zero_mode:
            return np.where(n == 0, 0.0, n ** 2 + self.c ** 2)
        return n ** 2 + self.c ** 2

    def eigenfunction(self, n: int, x):
        x = np.asarray(x, float)
        if self.kind is SpectralKind.DIRICHLET_INTERVAL:
            if n < 1:
                raise RangeError("Dirichlet modes start at n = 1")
            return math.sqrt(2.0 / math.pi) * np.sin(n * x)
        if n == 0:
            return _robin_zero_norm(self.c) * np.exp(self.c * x)
        lam = n ** 2 + self.c ** 2
        return math.sqrt(2.0 / math.pi) / math.sqrt(lam) \
            * (n * np.cos(n * x) + self.c * np.sin(n * x))


def interval_spectrum(kind: SpectralKind, c: float = 0.0) -> SpectralResolution:
    return SpectralResolution(kind, float(c))


def _robin_zero_norm(c: float) -> float:
    """1 / ||e^{cx}||_{L^2(0, pi)}."""
    if abs(c) < 1e-8:
        # expand (e^{2 pi c} - 1)/(2c) = pi (1 + pi c + ...) to avoid 0/0
        return 1.0 / math.sqrt(math.pi * (1.0 + math.pi * c))
    try:
        return math.sqrt(2.0 * c / math.expm1(2.0 * math.pi * c))
    except OverflowError:
        raise RangeError(f"Robin parameter c = {c:g} overflows the "
                         "stationary mode e^(cx)") from None


@dataclass
class HeatContentSamples:
    """beta(t) samples of one problem, serializable as t,beta,err CSV."""

    problem: str
    entries: list = field(default_factory=list)

    def __post_init__(self):
        if not all(math.isfinite(v) for e in self.entries for v in e):
            raise RangeError("t, beta and err must be finite")
        ts = [e[0] for e in self.entries]
        if any(t2 <= t1 for t1, t2 in zip(ts, ts[1:])):
            raise RangeError("sample times must be strictly increasing")
        if any(e[0] <= 0 or e[2] < 0 for e in self.entries):
            raise RangeError("need t > 0 and err >= 0")

    def to_csv_text(self) -> str:
        lines = ["t,beta,err"]
        for t, beta, err in self.entries:
            lines.append(f"{t:.17g},{beta:.17g},{err:.17g}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv_text(cls, text: str, problem: str = "") -> "HeatContentSamples":
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0].strip() != "t,beta,err":
            raise RangeError("expected header 't,beta,err'")
        entries = []
        for ln in lines[1:]:
            try:
                t, beta, err = (float(v) for v in ln.split(","))
            except ValueError:
                raise RangeError(f"malformed t,beta,err row {ln!r}") from None
            entries.append((t, beta, err))
        return cls(problem=problem, entries=entries)


# ---------------------------------------------------------------------------
# half-line with image kernels

def halfline_kernel(bc: BoundaryConditionKind, x1, x2, t: float):
    """Dirichlet/Neumann heat kernel on [0, inf) by the method of images."""
    if t <= 0:
        raise RangeError("need t > 0")
    x1 = np.asarray(x1, float)
    x2 = np.asarray(x2, float)
    if np.any(x1 < 0) or np.any(x2 < 0):
        raise RangeError("half-line kernel needs x >= 0")
    norm = 1.0 / math.sqrt(4.0 * math.pi * t)
    direct = np.exp(-((x1 - x2) ** 2) / (4.0 * t))
    image = np.exp(-((x1 + x2) ** 2) / (4.0 * t))
    sign = bc.sign  # -1 Dirichlet, +1 Neumann
    return norm * (direct + sign * image)


def _split_sum(fn, lo, hi, cuts, tol: float, err_box: list, total=0.0):
    """total + int_lo^hi fn on every lane, each range split at its cuts.

    lo, hi and the cuts are per-lane arrays or scalars; hi < lo is an
    empty range.  Each lane's edges are lo, its cuts inside (lo, hi) in
    ascending order, then copies of hi, so all lanes have the same number
    of slots and a slot of zero width adds exactly 0.0.  The first slot
    holds the singular or nearly singular end (fn ~ x^(-alpha) near a
    small lo > 0) and uses tanh-sinh lanes, skipped from 0 below _TINY;
    every later slot uses 40-point Gauss lanes.  fn(x, k) evaluates the
    lanes k at nodes x of shape (len(k), m).
    """
    hi = np.maximum(hi, lo)
    inner = [np.where((lo < c) & (c < hi), c, hi) for c in cuts]
    edges = np.sort(np.column_stack(np.broadcast_arrays(lo, *inner, hi)),
                    axis=1)
    for slot, (a, b) in enumerate(zip(edges.T[:-1], edges.T[1:])):
        val = np.zeros(a.shape)
        live = b > np.where(a == 0.0, _TINY, a)
        ts = np.flatnonzero(live & (slot == 0))
        if ts.size:
            val[ts], err = tanh_sinh_lanes(
                lambda x, rows: fn(x, ts[rows]), a[ts], b[ts], tol=tol,
                abs_tol=1e-3 * tol)
            err_box[0] = max(err_box[0], err.max())
        gl = np.flatnonzero(live & (slot > 0))
        if gl.size:
            val[gl] = gauss_legendre(lambda x: fn(x, gl), a[gl], b[gl], n=40)
        total = total + val
    return total


def _cross_correlation(phi: SingularProfile, rho: SingularProfile,
                       d, tol: float, err_box: list):
    """F(d) = int rho(y) phi(y + d) dy for an array of d >= 0.

    Only rho is singular on the integration range (the phi argument
    stays >= d), so the singularity sits at the left endpoint of the
    first segment where the tanh-sinh nodes cluster.
    """
    hi = np.minimum(rho.support_end(), phi.support_end() - d)
    cuts = list(rho.smooth.breakpoints) \
        + [b - d for b in phi.smooth.breakpoints]
    return _split_sum(lambda y, k: rho(y) * phi(y + d[k, None]), 0.0, hi,
                      cuts, tol, err_box)


def _endpoint_convolution(phi: SingularProfile, rho: SingularProfile,
                          s, tol: float, err_box: list):
    """H(s) = int_0^s phi(x) rho(s - x) dx for an array of s, singular at
    both ends.

    Split at s/2 and reflect so each half carries its singularity at the
    left endpoint only (full precision there).  H is 0 for s <= _TINY
    (values scale like s^(1 - sigma): negligible below any tolerance) and
    past both supports.
    """
    dead = (s <= _TINY) | (s >= phi.support_end() + rho.support_end())
    total = 0.0
    for f, g in ((phi, rho), (rho, phi)):
        cuts = list(f.smooth.breakpoints) \
            + [s - b for b in g.smooth.breakpoints]
        lo = np.maximum(0.0, s - g.support_end())
        hi = np.where(dead, lo, np.minimum(0.5 * s, f.support_end()))
        total = _split_sum(lambda x, k: f(x) * g(s[k, None] - x), lo, hi,
                           cuts, tol, err_box, total)
    return total


def halfline_heat_content(phi: SingularProfile, rho: SingularProfile,
                          bc: BoundaryConditionKind, t: float,
                          tol: float = 1e-9):
    """beta(t) = integral of K(x, y; t) phi(x) rho(y) over the quadrant.

    In the difference/sum variables the double integral factors through
    one-dimensional profiles of the data:

        direct = int_0^w G(d) [F_{phi,rho}(d) + F_{rho,phi}(d)] dd,
        image  = int_0^w G(s) H(s) ds,

    with G the 1-D Gaussian, F the cross-correlation and H the endpoint
    convolution above; beta = direct + sign * image.  Both outer
    integrands are singular exactly at 0, matching the quadrature.  err
    adds the outer level differences and the largest inner tanh-sinh
    error times the lengths of the two outer windows in d and s.
    """
    if t <= 0:
        raise RangeError("need t > 0")
    sign = bc.sign
    w = _WINDOW_SIGMAS * math.sqrt(t)
    norm = 1.0 / math.sqrt(4.0 * math.pi * t)
    inner_err = [0.0]
    inner_tol = 0.01 * tol

    def direct_integrand(ds):
        return (_cross_correlation(phi, rho, ds, inner_tol, inner_err)
                + _cross_correlation(rho, phi, ds, inner_tol, inner_err)) \
            * np.exp(-ds ** 2 / (4.0 * t))

    def image_integrand(ss):
        return _endpoint_convolution(phi, rho, ss, inner_tol, inner_err) \
            * np.exp(-ss ** 2 / (4.0 * t))

    def gaussian_edges(hi: float) -> list:
        # geometric splits keep the Gaussian roll-off resolved per panel
        edges = [0.0]
        e = 6.0 * math.sqrt(t)
        while e < hi:
            edges.append(e)
            e *= 2.0
        edges.append(hi)
        return edges

    def integrate(fn, hi: float) -> tuple:
        total = e_tot = 0.0
        edges = gaussian_edges(hi)
        for a, b in zip(edges, edges[1:]):
            val, e = tanh_sinh(fn, a, b, tol=tol, abs_tol=1e-3 * tol)
            total += val
            e_tot += e
        return total, e_tot

    beta = 0.0
    err = 0.0
    d_hi = min(w, max(phi.support_end(), rho.support_end()))
    if d_hi > 0.0:
        val, e = integrate(direct_integrand, d_hi)
        beta += val
        err += e
    s_hi = min(w, phi.support_end() + rho.support_end())
    if s_hi > 0.0:
        val, e = integrate(image_integrand, s_hi)
        beta += sign * val
        err += e
    return norm * beta, norm * (err + inner_err[0] * (d_hi + s_hi))


# ---------------------------------------------------------------------------
# interval [0, pi]: spectral sums with cached Fourier moments

_HEAD_LEVEL = 6        # tanh-sinh level of the head and tail grids
_PANEL_NODES = 8       # Gauss nodes per panel of width <= pi / N
_HEAD_PERIODS = 10.0   # head and tail cover 10 / N
_MODE_BLOCK = 64       # n = n0 + d with n0 a multiple of 64, d in 1..64
_NODE_BLOCK = 32       # nodes per block of the matrix product
_EPS = np.finfo(float).eps


def _table_nodes(profile: SingularProfile, N: int):
    """(x, w, w_coarse): one quadrature grid for every mode n <= N.

    Fixed tanh-sinh grids, with their level-coarser weights, cover the
    singular head [0, 10/N] and the support edge (where the smooth factor
    may lose regularity); Gauss panels no wider than pi/N that never
    straddle a breakpoint cover the rest, with w_coarse = w.
    """
    pieces = profile.pieces()
    support_end = pieces[-1][1]
    reach = _HEAD_PERIODS / N
    gx, gw = gauss_rule(_PANEL_NODES)
    parts = []
    for a, b in pieces:
        if a == 0.0:
            head = min(b, reach)
            parts.append(tanh_sinh_nodes(0.0, head, _HEAD_LEVEL))
            a = head
        if b == support_end and b > a:
            tail = max(a, b - reach)
            parts.append(tanh_sinh_nodes(tail, b, _HEAD_LEVEL))
            b = tail
        if b <= a:
            continue
        m = max(1, int(math.ceil((b - a) * N / math.pi)))
        edges = np.linspace(a, b, m + 1)
        half = 0.5 * (edges[1] - edges[0])
        x = (edges[:-1, None] + half * (1.0 + gx[None, :])).ravel()
        w = np.broadcast_to(half * gw, (m, _PANEL_NODES)).ravel()
        parts.append((x, w, w))
    return tuple(map(np.concatenate, zip(*parts)))


def _exp_sums(x, v, N: int):
    """sum_j v_j e^{i n x_j} for n = 1..N as one blocked matrix product."""
    d = np.arange(1, _MODE_BLOCK + 1, dtype=float)
    n0 = np.arange(0, N, _MODE_BLOCK, dtype=float)
    out = np.zeros((n0.size, d.size), complex)
    for lo in range(0, x.size, _NODE_BLOCK):
        xb, vb = x[lo:lo + _NODE_BLOCK], v[lo:lo + _NODE_BLOCK]
        out += np.exp(1j * np.outer(n0, xb)) \
            @ (np.exp(1j * np.outer(xb, d)) * vb[:, None])
    return out.ravel()[:N]


@lru_cache(maxsize=32)
def _fourier_moments(profile: SingularProfile, N: int):
    """(S, C, err): S_n = int phi sin(nx), C_n = int phi cos(nx), n <= N.

    err_n, a conservative estimate of |S_n - exact| and |C_n - exact| that
    the tests check as a bound, is the head and tail coarse-rule difference
    plus eps (M + n x_max) sum |w phi| (rounding of M products and n x).
    """
    x, w, w_coarse = _table_nodes(profile, N)
    f = profile(x)
    mom = _exp_sums(x, w * f, N)
    ends = w != w_coarse
    quad = _exp_sums(x[ends], (w - w_coarse)[ends] * f[ends], N)
    n = np.arange(1, N + 1, dtype=float)
    rounding = _EPS * (x.size + n * x.max()) * float(np.sum(np.abs(w * f)))
    table = (mom.imag, mom.real, np.abs(quad) + rounding)
    for a in table:
        a.setflags(write=False)  # shared by every caller of the cache
    return table


@lru_cache(maxsize=32)
def _exp_moment(profile: SingularProfile, c: float) -> float:
    """int phi(x) e^{cx} dx over the support (Robin zero mode)."""
    total = 0.0
    for (a, b) in profile.pieces():
        val, _ = tanh_sinh(lambda x: profile(x) * np.exp(c * x), a, b,
                           abs_tol=1e-13)
        total += val
    return total


def _gammas(profile: SingularProfile, spec: SpectralResolution, n_max: int):
    """(gamma_n, err_n) for n = 1..n_max against the given resolution."""
    S, C, err = _fourier_moments(profile, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    root = math.sqrt(2.0 / math.pi)
    if spec.kind is SpectralKind.DIRICHLET_INTERVAL:
        return root * S, root * err
    if spec.kind is SpectralKind.ROBIN_INTERVAL:
        lam_half = np.sqrt(n ** 2 + spec.c ** 2)
        g = root * (n * C + spec.c * S) / lam_half
        e = root * (n + abs(spec.c)) * err / lam_half
        return g, e
    raise RangeError("interval heat content needs an interval resolution")


def interval_heat_content(phi: SingularProfile, rho: SingularProfile,
                          spec: SpectralResolution, t: float):
    """Sum_n e^{-t lambda_n} gamma_n(phi) gamma_n(rho) on [0, pi].

    The truncation N grows until the Gaussian tail bound
    e^{-t N^2} * (uniform |gamma gamma| bound) * (1 + 1/(2tN)) drops
    below 1e-13 of the partial sum, hard-capped at 20000 modes.
    """
    if t <= 0:
        raise RangeError("need t > 0")
    if t * _SUM_CAP ** 2 < 30.0:
        # e^{-t N^2} cannot reach the 1e-13 tail target within the cap
        raise TruncationError(
            f"needed more than {_SUM_CAP} modes at t = {t:g}")
    base = 0.0
    if spec.has_zero_mode:
        z = _robin_zero_norm(spec.c)
        base = (z * _exp_moment(phi, spec.c)) \
            * (z * _exp_moment(rho, spec.c))
    return _spectral_sum(phi, rho, spec, spec.c, t, base)


def _spectral_sum(phi: SingularProfile, rho: SingularProfile,
                  spec: SpectralResolution, c: float, t: float,
                  base: float = 0.0):
    """(base + sum_n e^{-t (n^2 + c^2)} gamma_n(phi) gamma_n(rho), err).

    The modes come from spec and c enters only the weights, so the
    Dirichlet modes with c != 0 give the flow of D = -d^2/dx^2 + c^2.
    N doubles from 64 under the truncation rule of interval_heat_content,
    each N with its own moment table; err is the tail bound plus the
    propagated moment error plus the rounding of the n_max + 1 terms.
    """
    n_max = 64
    while True:
        gp, ep = _gammas(phi, spec, n_max)
        gr, er = _gammas(rho, spec, n_max)
        n = np.arange(1, n_max + 1, dtype=float)
        weights = np.exp(-t * (n ** 2 + c ** 2))
        partial = base + float(np.dot(weights, gp * gr))
        bound = 2.0 * float(np.max(np.abs(gp * gr)[n_max // 2:]))
        tail = math.exp(-t * n_max ** 2) * bound \
            * (1.0 + 1.0 / (2.0 * t * n_max))
        if tail < _TAIL_REL * max(abs(partial), 1e-300):
            quad_err = float(np.dot(weights, np.abs(gp) * er
                                    + np.abs(gr) * ep))
            rounding = (n_max + 1) * _EPS \
                * (float(np.dot(weights, np.abs(gp * gr))) + abs(base))
            return partial, tail + quad_err + rounding
        if n_max >= _SUM_CAP:
            raise TruncationError(
                f"needed more than {_SUM_CAP} modes at t = {t:g}")
        n_max = min(2 * n_max, _SUM_CAP)


# ---------------------------------------------------------------------------
# intertwining operators

def apply_A(profile: SingularProfile, c: float,
            adjoint: bool) -> SingularProfile:
    """(A phi) or (A* phi) for A = d/dx + c, A* = -d/dx + c.

    The singular exponent shifts by +1, so integrability of the result
    requires Re(alpha) < 0 on input.
    """
    a = profile.real_alpha
    if a >= 0.0:
        raise DomainError("apply_A needs Re(alpha) < 0 to stay integrable")
    smooth = IntertwinedFactor(profile.smooth, a, float(c),
                               sign=+1 if adjoint else -1)
    return SingularProfile(a + 1.0, smooth, profile.L, profile.cutoff_radius)


def intertwine_residual(phi: SingularProfile, rho: SingularProfile,
                        c: float, t: float, dt: float | None = None,
                        dual: bool = False) -> float:
    """Relative defect of d/dt beta_R(phi, rho) = -beta_D(A* phi, A* rho).

    With dual=True the exchanged identity
    d/dt beta_D(phi, rho) = -beta_R(A phi, A rho) is tested instead.
    The t-derivative is a central difference with step dt
    (default min(1e-4, t/100)).
    """
    if phi.real_alpha >= -1.0 or rho.real_alpha >= -1.0:
        raise DomainError("intertwining identity needs Re(alpha) < -1")
    if dt is None:
        dt = min(1e-4, t / 100.0)
    if not 0.0 < dt < t:
        raise DomainError("need 0 < dt < t")
    robin = interval_spectrum(SpectralKind.ROBIN_INTERVAL, c)
    diri = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)

    def beta_d_shifted(p, r, s):
        # D = -d^2/dx^2 + c^2: Dirichlet sum with sin modes reweighted
        return _spectral_sum(p, r, diri, c, s)[0]

    if not dual:
        hi, _ = interval_heat_content(phi, rho, robin, t + dt)
        lo, _ = interval_heat_content(phi, rho, robin, t - dt)
        rhs = beta_d_shifted(apply_A(phi, c, True), apply_A(rho, c, True), t)
    else:
        hi = beta_d_shifted(phi, rho, t + dt)
        lo = beta_d_shifted(phi, rho, t - dt)
        rhs_val, _ = interval_heat_content(
            apply_A(phi, c, False), apply_A(rho, c, False), robin, t)
        rhs = rhs_val
    deriv = (hi - lo) / (2.0 * dt)
    return abs(deriv + rhs) / max(abs(rhs), 1e-300)


# ---------------------------------------------------------------------------
# circle

def circle_heat_content(phi_fourier, rho_fourier, t: float) -> float:
    """Heat content on the unit circle from Fourier data.

    Coefficient lists or arrays are in the basis [1, cos x, sin x,
    cos 2x, ...]; the mode k carries measure 2 pi (k = 0) or pi (k >= 1).
    """
    if t <= 0:
        raise RangeError("need t > 0")
    m = min(len(phi_fourier), len(rho_fourier))
    k = (np.arange(m) + 1) // 2
    measure = np.where(k == 0, 2.0 * math.pi, math.pi)
    return float(np.sum(np.exp(-t * k * k) * np.asarray(phi_fourier[:m])
                        * np.asarray(rho_fourier[:m]) * measure))
