"""Tests for the 1-D heat content simulators."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter

import mpmath
import numpy as np
import pytest

from singularheat.coeff import BoundaryConditionKind
from singularheat.errors import (DomainError, RangeError, TruncationError)
from singularheat import heat1d
from singularheat.asymfit import HeatContentSamples
from singularheat.heat1d import (_EPS, _gammas, _grid_error,
                                 _grid_sums, _lattice_sums, _moment_tables,
                                 _pair_table, _profile_values, _table_nodes,
                                 apply_A,
                                 circle_heat_content,
                                 halfline_heat_content, interval_heat_content,
                                 intertwine_residual)
from singularheat.profiles import (PlateauCutoff, Polynomial, Product,
                                   SingularProfile, constant,
                                   plateau_profile)

from handles import FromCallable, gauss_legendre, tanh_sinh

D = BoundaryConditionKind.DIRICHLET
R = BoundaryConditionKind.ROBIN
N = R  # sign +1: Neumann image kernel on the half-line


# ---------------------------------------------------------------------------
# half-line heat content

def test_halfline_difference_closed_form():
    # For data x^{-a1}, x^{-a2} (plateau cutoffs), the Neumann-Dirichlet
    # difference keeps only the image term, whose small-t limit is
    # 2^(1-s) pi^(-1/2) Gamma(1 - s/2) B(1-a1, 1-a2) t^((1-s)/2) with
    # s = a1 + a2 -- for a1 = 0.3, a2 = 0.4 the limit of (bN - bD) t^{-0.15}
    # equals 2^{0.3} pi^{-1/2} Gamma(0.65) B(0.7, 0.6).  The cutoff
    # corrections are O(e^{-1/(64 t)}), so the closed form also checks err.
    for a1, a2 in ((0.3, 0.4), (0.1, 0.25), (0.45, 0.5), (0.2, 0.7)):
        phi = plateau_profile(a1, 4.0, 0.5)
        rho = plateau_profile(a2, 4.0, 0.5)
        sigma = a1 + a2
        for t in (1e-6, 1e-5, 1e-4):
            bn, en = halfline_heat_content(phi, rho, N, t)
            bd, ed = halfline_heat_content(phi, rho, D, t)
            want = (2.0 ** (1.0 - sigma) / math.sqrt(math.pi)
                    * math.gamma(1.0 - sigma / 2.0)
                    * math.gamma(1.0 - a1) * math.gamma(1.0 - a2)
                    / math.gamma(2.0 - sigma)) \
                * t ** ((1.0 - sigma) / 2.0)
            assert bn - bd == pytest.approx(want, rel=1e-8), (a1, a2, t)
            assert abs((bn - bd) - want) <= en + ed, (a1, a2, t)
            assert en + ed < 1e-6


def _plateau_mp(alpha, r):
    """mpmath twin of plateau_profile(alpha, L, r) on (0, inf)."""
    def f(x):
        if x <= 0 or x >= r:
            return mpmath.mpf(0)
        u = (x - r / 2) / (r / 2)
        cut = 1 if u <= 0 else 1 - u ** 3 * (10 - 15 * u + 6 * u * u)
        return x ** -alpha * cut
    return f


def test_halfline_matches_mpmath_double_integral_near_2e_2():
    # Dirichlet, seed-7 exponents, cutoff 0.5: the reference is the
    # double integral of (G(x - y) - G(x + y)) phi(x) rho(y) over the
    # quadrant, each range split at the breakpoints r0/2, r0 and the inner
    # one also at x; at dps 15 it reads 0.31467997504497864
    a1, a2, r0, t = 0.19714982944994874, 0.2877122934811255, 0.5, 2.031e-2
    beta, err = halfline_heat_content(plateau_profile(a1, r0, r0),
                                      plateau_profile(a2, r0, r0), D, t)
    with mpmath.workdps(15):
        pm, rm = _plateau_mp(a1, r0), _plateau_mp(a2, r0)
        tm = mpmath.mpf(t)

        def kernel(z):
            return mpmath.exp(-z * z / (4 * tm))

        def inner(x):
            return mpmath.quad(lambda y: (kernel(x - y) - kernel(x + y))
                               * rm(y), sorted({0, r0 / 2, r0, x}))

        ref = float(mpmath.quad(lambda x: pm(x) * inner(x), [0, r0 / 2, r0])
                    / mpmath.sqrt(4 * mpmath.pi * tm))
    assert abs(beta - ref) <= err
    assert err <= 1e-12 * abs(beta)


def _rescaled_by_hand(phi, rho, bc, t, wall):
    """s^(1 - sigma) beta_[0, pi](t/s^2) with the far wall at wall."""
    s = wall / math.pi
    scaled = [plateau_profile(f.alpha, math.pi, f.smooth.r0 / s)
              for f in (phi, rho)]
    beta, _ = interval_heat_content(*scaled, bc, 0.0, t / (s * s))
    return s ** (1.0 - phi.alpha - rho.alpha) * beta


def test_halfline_independent_of_far_wall():
    # the far wall enters only through images e^{-(wall - r0)^2/t}, so
    # walls at 5 and 8 give the value of the per-decade wall
    phi = plateau_profile(0.3, 0.5, 0.5)
    rho = plateau_profile(0.2, 0.5, 0.5)
    for bc in (D, N):
        for t in (1e-4, 1e-2, 1e-1):
            beta, _ = halfline_heat_content(phi, rho, bc, t)
            for wall in (5.0, 8.0):
                assert _rescaled_by_hand(phi, rho, bc, t, wall) \
                    == pytest.approx(beta, rel=1e-14), (bc, t, wall)


def test_halfline_neumann_total_mass_limit():
    # alpha = 0 data: as t -> 0, beta -> int phi rho; Neumann converges
    # from where the reflected mass is retained.
    phi = plateau_profile(0.0, 4.0, 1.0)
    bn, _ = halfline_heat_content(phi, phi, N, 1e-4)
    exact = sum(tanh_sinh(lambda x: phi(x) ** 2, a, b)[0]
                for a, b in phi.pieces())
    assert bn == pytest.approx(exact, rel=1e-3)


def test_kernel_neumann_conserves_mass():
    # the Neumann image kernel integrates to 1 in x: against rho = 1 on
    # [0, 4] (a plateau of radius 8), beta_N(t) = int phi once the data
    # stays clear of x = 4
    phi = plateau_profile(0.3, 4.0, 0.5)
    one = plateau_profile(0.0, 8.0, 8.0)
    mass = sum(tanh_sinh(phi, a, b)[0] for a, b in phi.pieces())
    for t in (1e-4, 1e-2):
        bn, en = halfline_heat_content(phi, one, N, t)
        assert abs(bn - mass) <= en, t


def test_halfline_dirichlet_below_neumann():
    phi = plateau_profile(0.3, 4.0, 0.5)
    for t in (1e-3, 1e-2):
        bd, _ = halfline_heat_content(phi, phi, D, t)
        bn, _ = halfline_heat_content(phi, phi, N, t)
        assert bd < bn


def test_halfline_guards():
    phi = plateau_profile(0.3, 4.0, 0.5)
    with pytest.raises(RangeError):
        halfline_heat_content(phi, phi, D, 0.0)
    # only plateau data rescale onto the interval
    with pytest.raises(DomainError):
        halfline_heat_content(phi, SingularProfile(0.0, constant(), 4.0),
                              D, 1e-4)


_SIMULATORS = {
    "halfline": lambda t: halfline_heat_content(
        plateau_profile(0.3, 4.0, 0.5), plateau_profile(0.3, 4.0, 0.5), D, t),
    "interval": lambda t: interval_heat_content(
        plateau_profile(0.3, math.pi, 0.5),
        plateau_profile(0.3, math.pi, 0.5), R, 0.5, t),
    "circle": lambda t: circle_heat_content([1.0, 0.5], [1.0, 0.5], t),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, [1e-3, math.nan]],
                         ids=["nan", "inf", "grid-with-nan"])
@pytest.mark.parametrize("simulator", sorted(_SIMULATORS))
def test_simulators_reject_nan_and_infinite_t(simulator, t):
    with pytest.raises(RangeError, match="need finite t > 0"):
        _SIMULATORS[simulator](t)


# ---------------------------------------------------------------------------
# interval spectral sums

def _unit_profile():
    one = FromCallable(lambda x: np.ones_like(x),
                       (lambda x: np.zeros_like(x),))
    return SingularProfile(0.0, one, L=math.pi)


def test_interval_classical_dirichlet():
    # beta(t) for phi = rho = 1 on [0, pi], Dirichlet:
    # sum over odd n of 8/(pi n^2) e^{-t n^2}; the small-t expansion is
    # pi - (4/sqrt(pi)) sqrt(t) up to exponentially small corrections.
    one = _unit_profile()
    for t in (0.001, 0.01, 0.05):
        beta, err = interval_heat_content(one, one, D, 0.0, t)
        want = math.pi - 4.0 / math.sqrt(math.pi) * math.sqrt(t)
        assert beta == pytest.approx(want, abs=5e-9)


def test_interval_large_t_single_mode():
    one = _unit_profile()
    t = 5.0
    beta, _ = interval_heat_content(one, one, D, 0.0, t)
    # gamma_1 = sqrt(2/pi) * 2, higher modes are e^{-9t} suppressed
    want = math.exp(-t) * (2.0 * math.sqrt(2.0 / math.pi)) ** 2
    assert beta == pytest.approx(want, rel=1e-6)


def test_interval_err_bounds_exact_dirichlet_series():
    # constant unit data: beta(t) = sum over odd n of 8/(pi n^2) e^{-n^2 t}
    one = SingularProfile(0.0, constant(), math.pi)
    with mpmath.workdps(30):
        for t in np.geomspace(1e-4, 1e-1, 200):
            beta, err = interval_heat_content(one, one, D, 0.0, float(t))
            n_top = int(math.sqrt(80.0 / t)) + 2
            exact = mpmath.fsum(
                8 / (mpmath.pi * n * n) * mpmath.exp(-n * n * mpmath.mpf(t))
                for n in range(1, n_top, 2))
            assert abs(beta - float(exact)) <= err, t
            assert err <= 1e-10 * abs(beta), t


@pytest.mark.parametrize("alpha", (0.25, 0.4, 0.9))
def test_fourier_moments_within_err_of_closed_form(alpha):
    # int_0^pi x^{-alpha} e^{inx} dx = (-in)^(alpha-1) gamma(1-alpha, -in pi)
    # with gamma the lower incomplete gamma function
    profile = SingularProfile(alpha, constant(), math.pi)
    modes = (1, 2, 63, 64, 65, 1000, 8191, 8192)
    with mpmath.workdps(30):
        exact = {n: complex(mpmath.power(mpmath.mpc(0, -n), alpha - 1)
                            * mpmath.gammainc(1 - alpha, 0,
                                              mpmath.mpc(0, -n) * mpmath.pi))
                 for n in modes}
    for size in (64, 1024, 8192):
        S, C, err = _moment_tables((profile,), size, None)[0]
        for n in (n for n in modes if n <= size):
            assert abs(S[n] - exact[n].imag) <= err[n], (size, n)
            assert abs(C[n] - exact[n].real) <= err[n], (size, n)


@pytest.mark.parametrize("alpha", (0.95, 0.97, 0.999))
def test_fourier_moments_within_err_near_alpha_one(alpha):
    # the head is integrated in u after x = b u^p, p = 1/(1 - alpha), so
    # no mass is lost below its smallest node: err stays about 3e-12 of
    # the mass pi^(1-alpha)/(1-alpha) up to alpha 0.999 (3.3e-12 there);
    # cos(nx) - 1 removes the singularity for the mpmath reference
    profile = SingularProfile(alpha, constant(), math.pi)
    S, C, err = _moment_tables((profile,), 1024, None)[0]
    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        for n in (1, 2, 64):
            edges = mpmath.linspace(0, mpmath.pi, 2 + n // 4)
            cos = mpmath.quad(lambda x: x ** -a * (mpmath.cos(n * x) - 1),
                              edges) + mpmath.pi ** (1 - a) / (1 - a)
            sin = mpmath.quad(lambda x: x ** -a * mpmath.sin(n * x), edges)
            assert abs(C[n] - cos) <= err[n], n
            assert abs(S[n] - sin) <= err[n], n


@pytest.mark.parametrize("alphas, r, c", (
    ((0.999, 0.3), 1e-80, 0.5), ((0.999,), 1e-80, None),
    ((0.19714982944994874, 0.2877122934811255), 0.5, 0.5)),
    ids=("robin-0.999-0.3", "dirichlet-0.999", "robin-seed7"))
def test_moment_tables_never_form_the_head_singularity(alphas, r, c):
    # x = b u^p underflows to 0 on most of the head grid at alpha 0.999,
    # where x^(-alpha) would divide by zero; the head values are bounded
    # in u, and only u^(p (1 - alpha) - 1) may underflow, on purpose
    profiles = tuple(plateau_profile(a, math.pi, r) for a in alphas)
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        for size in (64, 8192):
            for S, C, err in _moment_tables(profiles, size, c):
                assert np.all(np.isfinite(S) & np.isfinite(C)
                              & np.isfinite(err))


def _check_plateau_moments(alpha, r, sizes, modes):
    # x^{-alpha} on [0, r/2] in closed form, the quintic ramp on [r/2, r]
    # by mpmath quadrature a few periods a piece
    profile = plateau_profile(alpha, math.pi, r)

    def ramp(x, n):
        u = (x - r / 2) / (r / 2)
        return x ** -alpha * (1 - u ** 3 * (10 - 15 * u + 6 * u * u)) \
            * mpmath.expj(n * x)

    modes = [n for n in modes if n <= max(sizes)]
    exact = {}
    with mpmath.workdps(30):
        for n in modes:
            head = mpmath.power(mpmath.mpc(0, -n), alpha - 1) \
                * mpmath.gammainc(1 - alpha, 0, mpmath.mpc(0, -n) * r / 2)
            edges = mpmath.linspace(r / 2, r, 2 + int(n * r / 8))
            exact[n] = complex(head + mpmath.quad(lambda x: ramp(x, n),
                                                  edges))
    # alone, and fused with a partner on the same pieces (whose mass sets
    # a different node-dropping threshold)
    partner = plateau_profile(0.5, math.pi, r)
    for size in sizes:
        for S, C, err in (_moment_tables((profile,), size, None)[0],
                          _moment_tables((profile, partner), size, None)[0]):
            for n in (n for n in modes if n <= size):
                assert abs(S[n] - exact[n].imag) <= err[n], (size, n)
                assert abs(C[n] - exact[n].real) <= err[n], (size, n)


@pytest.mark.parametrize("alpha", (0.25, 0.9))
def test_fourier_moments_within_err_on_plateau_data(alpha):
    # the benchmark's datum; this covers the lattice cells and the cells
    # cut at the breakpoints 0.25 and 0.5, which constant data barely uses
    _check_plateau_moments(alpha, 0.5, (64, 1024), (1, 2, 63, 64, 65, 1000))


def test_fourier_moments_at_edge_geometry():
    # breakpoints pi/4 and pi/2 on lattice points (zero-width cut cells),
    # and a support shorter than 10/N that the head and tail grids cover
    # whole (no lattice cells)
    for r, sizes in ((math.pi / 2, (64, 1024)), (1e-3, (8192,))):
        for size in sizes:
            (_, w, _), (cells, _, wl), _ = _table_nodes(
                (plateau_profile(0.25, math.pi, r),), size)
            assert np.all(w >= 0.0) and np.all(wl > 0.0), (r, size)
            assert (cells.size > 0) == (r > 10.0 / size), (r, size)
        _check_plateau_moments(0.25, r, sizes,
                               (1, 2, 63, 64, 65, 1000, 8191, 8192))
    with pytest.raises(DomainError):
        _moment_tables((SingularProfile(0.25, constant(), 4.0),), 64, None)


def _blocked_product(x, v, N, dtype=complex):
    """sum_j v_rj e^{i n x_j} for n = 1..N, one row per row r of v, as the
    blocked matrix product e^{i n0 x} @ (e^{i d x} v) with n = n0 + d,
    n0 a multiple of 64 and d in 1..64, over blocks of 32 nodes.  Its
    rounding is eps (M + n x_max) sum |v| over M nodes, eps that of
    dtype: the products and the phases n x."""
    d = np.arange(1, 65, dtype=float)
    n0 = np.arange(0, N, 64, dtype=float)
    v = np.asarray(v)
    out = np.zeros((n0.size, d.size * v.shape[0]), dtype)
    for lo in range(0, x.size, 32):
        xb = np.asarray(x[lo:lo + 32], np.finfo(dtype).dtype)
        vb = v[:, lo:lo + 32]
        rhs = np.exp(1j * np.outer(xb, d))[:, :, None] * vb.T[:, None, :]
        out += np.exp(1j * np.outer(n0, xb)) @ rhs.reshape(xb.size, -1)
    return out.reshape(-1, v.shape[0])[:N].T


@pytest.mark.parametrize("size", (64, 1024, 8192))
def test_lattice_fft_matches_direct_product(size):
    # the real FFTs against the blocked product over the same lattice
    # nodes and weights; plateau breakpoints 0.25 and 0.5 fall off the
    # lattice.  The bound is the FFT's rounding term plus the product's
    # own (it rounds n x, and its nodes carry pi rounded to double, which
    # alone moves it by up to 2.5 times the FFT term at N = 8192).
    profile = plateau_profile(0.25, math.pi, 0.5)
    _, (cells, xl, wl), _ = _table_nodes((profile,), size)
    u = profile(xl) * wl
    direct = _blocked_product(xl.ravel(), [u.ravel()], size)[0]
    n = np.arange(1, size + 1)
    bound = _EPS * (math.log2(2 * size) + n * math.pi / size
                    + u.size + n * xl.max()) * np.sum(np.abs(u))
    assert np.all(np.abs(_lattice_sums([u], cells, size)[0][1:] - direct)
                  <= bound)


def _check_gridding(x, v, size):
    """Assert _grid_sums within _grid_error of the blocked product in long
    double, whose own rounding term is added; return the bound per
    sum |v| of its row."""
    v = np.asarray(v)
    exact = _blocked_product(x, v, size, np.clongdouble)
    n = np.arange(1, size + 1)
    mass = np.sum(np.abs(v), axis=1)[:, None]
    ref_err = np.finfo(np.clongdouble).eps \
        * (x.size + n * np.max(x, initial=0.0)) * mass
    bound = _grid_error(x, v, size)
    gap = np.abs(_grid_sums(x, v, size) - exact)
    assert np.all(gap <= bound + ref_err), np.max(gap / bound)
    return bound / mass


@pytest.mark.parametrize("size", (64, 1024, 8192))
def test_gridding_on_seed7_nodes_within_bound(monkeypatch, size):
    # the kept direct nodes and the four rows of the benchmark's seed-7
    # Robin pair
    passes = _record_passes(monkeypatch)
    _moment_tables((plateau_profile(0.19714982944994874, math.pi, 0.5),
                    plateau_profile(0.2877122934811255, math.pi, 0.5)), size,
                   0.5)
    [(x, v, _)] = passes
    assert np.all(_check_gridding(x, v, size) <= 1e-12)


@pytest.mark.parametrize("size", (64, 8192))
def test_gridding_at_the_ends_of_the_interval(size):
    # x = 0 wraps its spread onto the end of the grid; 0 and pi are grid
    # points, and half a grid step h = pi/(2N) off them is the farthest
    # from one; rows of mixed sign
    h = math.pi / (2 * size)
    x = np.array([0.0, 0.5 * h, math.pi - 0.5 * h, math.pi])
    _check_gridding(x, [[1.0, -0.5, 2.0, 0.25], [0.0, 3.0, 0.0, -1.0]],
                    size)


def test_gridding_of_no_nodes_is_zero():
    empty = np.zeros((2, 0))
    assert np.array_equal(_grid_sums(np.zeros(0), empty, 64),
                          np.zeros((2, 64), complex))
    assert np.array_equal(_grid_error(np.zeros(0), empty, 64),
                          np.zeros((2, 64)))


def test_fourier_moment_table_memory():
    # the cold 8192-mode terms of a distinct pair, tabulated in one fused
    # pass with four rows, stay under 2 MB of numpy temporaries (a batched
    # (2N, 8) complex transform would take about 6.7 MB per profile)
    phi = plateau_profile(0.25, math.pi, 0.5)
    rho = plateau_profile(0.4, math.pi, 0.5)
    _pair_table(phi, rho, R, 0.5, 64)
    tracemalloc.start()
    try:
        _pair_table(phi, rho, R, 0.5, 8192)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


@pytest.mark.parametrize("c", (0.5, 2.0, -1.5))
def test_robin_zero_mode_moment_within_err(c):
    # row 0 of the table is int psi_0 for constant data, psi_0 =
    # z e^{cx - pi max(c, 0)} with z = sqrt(2|c|/(1 - e^{-2 pi |c|})), so
    # z (1 - e^{-|c| pi})/|c|; the head and tail rules agree to rounding
    # here, so err is mostly the rounding floor of the sums and of c x
    a = abs(c)
    with mpmath.workdps(30):
        z = mpmath.sqrt(2 * a / (1 - mpmath.exp(-2 * a * mpmath.pi)))
        exact = z * (1 - mpmath.exp(-a * mpmath.pi)) / a
    for size in (64, 8192):
        S, C, err = _moment_tables(
            (SingularProfile(0.0, constant(), math.pi),), size, c)[0]
        assert S[0] == 0.0
        assert abs(C[0] - exact) <= err[0], size
        assert err[0] <= 1e-11 * C[0], size


def test_fourier_moment_table_work_is_linear():
    # one shared node set: the profile is evaluated once per node, not
    # once per node and mode
    points = [0]

    def counted(x):
        points[0] += np.size(x)
        return np.ones_like(x)

    smooth = Product(PlateauCutoff(0.5), FromCallable(counted))
    profile = SingularProfile(0.25, smooth, math.pi, 0.5)
    _moment_tables((profile,), 8192, 0.5)
    assert 0 < points[0] <= 50000


def _record_passes(monkeypatch):
    """Wrap heat1d._grid_sums; the list collects (x, v, sums) per pass."""
    passes = []

    def recorded(x, v, N):
        sums = _grid_sums(x, v, N)
        passes.append((x, np.asarray(v), sums))
        return sums

    monkeypatch.setattr(heat1d, "_grid_sums", recorded)
    return passes


def test_fused_pass_matches_single_profile_passes(monkeypatch):
    # two profiles on the same pieces share one pass, four rows side by
    # side; each pair of rows equals its own pass over the same nodes
    passes = _record_passes(monkeypatch)
    phi = plateau_profile(0.25, math.pi, 0.5)
    rho = plateau_profile(0.9, math.pi, 0.5)
    _moment_tables((phi, rho), 1024, None)
    [(x, v, sums)] = passes
    assert v.shape == (4, x.size)
    assert np.array_equal(sums[:2], _grid_sums(x, v[:2], 1024))
    assert np.array_equal(sums[2:], _grid_sums(x, v[2:], 1024))


def test_pair_terms_on_different_pieces_match_per_profile_tables(
        monkeypatch):
    passes = _record_passes(monkeypatch)
    phi = plateau_profile(0.25, math.pi, 0.5)
    rho = plateau_profile(0.4, math.pi, 1.0)
    size = 1024
    (gg, quad, mag), lam = _pair_table(phi, rho, R, 0.5, size)
    assert [v.shape[0] for _, v, _ in passes] == [2, 2]
    gp, ep = _gammas(_moment_tables((phi,), size, 0.5)[0], R, 0.5)
    gr, er = _gammas(_moment_tables((rho,), size, 0.5)[0], R, 0.5)
    assert np.array_equal(gg, gp * gr)
    assert np.array_equal(mag, np.abs(gp * gr))
    assert np.array_equal(quad, np.abs(gp) * er + np.abs(gr) * ep + ep * er)
    n = np.arange(size + 1, dtype=float)
    assert np.array_equal(lam, np.where(n == 0, 0.0, n ** 2 + 0.25))


def test_self_pair_uses_two_rows(monkeypatch):
    passes = _record_passes(monkeypatch)
    # equal profiles built apart are one profile
    _pair_table(plateau_profile(0.25, math.pi, 0.5),
                plateau_profile(0.25, math.pi, 0.5), D, 0.0, 256)
    assert [v.shape[0] for _, v, _ in passes] == [2]


#: the benchmark's seed-7 exponents
A1, A2 = 0.19714982944994874, 0.2877122934811255


def test_spectral_sums_build_each_pair_table_once(monkeypatch):
    passes = _record_passes(monkeypatch)
    # the benchmark's seed-7 Robin grid: its smallest t = 1e-6 starts at
    # the first size with t (N^2 + c^2) >= ln(1e13), 8192, and every
    # other sample sums a slice of that one table
    phi = plateau_profile(A1, math.pi, 0.5)
    rho = plateau_profile(A2, math.pi, 0.5)
    interval_heat_content(phi, rho, R, 0.5, np.geomspace(1e-6, 1e-4, 40))
    assert [s.shape for _, _, s in passes] == [(4, 8192)]
    # the Dirichlet sweep of constant data: one table, at t = 1e-4
    del passes[:]
    one = SingularProfile(0.0, constant(), math.pi)
    interval_heat_content(one, one, D, 0.0, np.geomspace(1e-4, 1e-1, 2000))
    assert [s.shape for _, _, s in passes] == [(2, 1024)]
    # the benchmark's seed-7 half-line: one table per decade of t, so per
    # boundary condition one at t = 1e-6 and one at t = 5e-4
    for bc in (D, N):
        del passes[:]
        halfline_heat_content(plateau_profile(A1, 0.5, 0.5),
                              plateau_profile(A2, 0.5, 0.5), bc,
                              np.array([1e-6, 5e-4]))
        assert len(passes) == 2, bc


def test_slices_of_a_larger_table_are_sound():
    # rows 0..N of the seed-7 pair's 8192-mode terms differ from the
    # terms built for N by at most the sum of their propagated errors
    phi = plateau_profile(A1, math.pi, 0.5)
    rho = plateau_profile(A2, math.pi, 0.5)
    (gg, quad, _), _ = _pair_table(phi, rho, R, 0.5, 8192)
    for size in (512, 2048, 4096):
        (gg_n, quad_n, _), _ = _pair_table(phi, rho, R, 0.5, size)
        assert np.all(np.abs(gg[:size + 1] - gg_n)
                      <= quad[:size + 1] + quad_n), size
    # so beta depends on the grid of its call only within err: each
    # sample of the 40-sample grid, which slices the table of t = 1e-6,
    # against the same t summed alone on its own table
    grid = np.geomspace(1e-6, 1e-4, 40)
    run = zip(*interval_heat_content(phi, rho, R, 0.5, grid))
    for t, (beta, err) in zip(grid.tolist(), run):
        alone, alone_err = interval_heat_content(phi, rho, R, 0.5, t)
        assert abs(beta - alone) <= err + alone_err, t


def test_beta_depends_only_on_its_own_call(monkeypatch):
    # t = 1e-2 alone builds the 64-mode table of the seed-7 Robin pair
    # and t = 1e-6 the 8192-mode one; t = 1e-2 after it reads the bits
    # it read before, and no call keeps its table
    tables = []

    def recorded(*args):
        table = _pair_table(*args)
        tables.extend(weakref.ref(a) for a in table[:2])
        return table

    monkeypatch.setattr(heat1d, "_pair_table", recorded)
    phi = plateau_profile(A1, math.pi, 0.5)
    rho = plateau_profile(A2, math.pi, 0.5)
    first = interval_heat_content(phi, rho, R, 0.5, 1e-2)
    interval_heat_content(phi, rho, R, 0.5, 1e-6)
    assert interval_heat_content(phi, rho, R, 0.5, 1e-2) == first
    gc.collect()
    assert len(tables) == 6
    assert [ref() for ref in tables] == [None] * 6


def test_a_sample_that_fails_its_tail_test_doubles(monkeypatch):
    # t = 7e-3 starts at N = 64 on this Robin self pair at c = 20, but
    # there |gamma_n|^2 reaches about 150, so the tail bound is about 7
    # times 1e-13 of the sum and the sample moves to 128, which builds
    # its table; in a grid with t = 5e-3, which starts at 128, the first
    # table is already 128 and 7e-3 doubles onto a slice of it, with the
    # same bits
    sizes = []

    def recorded(*args):
        sizes.append(args[-1])
        return _pair_table(*args)

    monkeypatch.setattr(heat1d, "_pair_table", recorded)
    phi = plateau_profile(0.95, math.pi, 0.5)
    alone = interval_heat_content(phi, phi, R, 20.0, 7e-3)
    assert sizes == [64, 128]
    del sizes[:]
    beta, err = interval_heat_content(phi, phi, R, 20.0,
                                      np.array([5e-3, 7e-3]))
    assert sizes == [128]
    assert (beta[1], err[1]) == alone
    assert alone[1] < 1e-11 * alone[0]


@pytest.mark.parametrize("size", (64, 8192))
def test_dropped_direct_nodes_are_bounded_and_counted(monkeypatch, size):
    # each dropped node carries at most eps min sum |w phi| / M in every
    # row, so a row drops at most eps sum |w phi|, and err covers it
    passes = _record_passes(monkeypatch)
    profiles = (plateau_profile(0.25, math.pi, 0.5),
                plateau_profile(0.9, math.pi, 0.5))
    tables = _moment_tables(profiles, size, None)
    [(kept, v_kept, _)] = passes
    (x, w, w_coarse), _, head_grid = _table_nodes(profiles, size)
    rows = []
    for profile in profiles:
        f = _profile_values(profile, x, head_grid)
        rows += [w * f, (w - w_coarse) * f]
    # dropped = all nodes minus the kept ones, as multisets of
    # (x, rows) columns: the far ends of a grid repeat abscissae
    dropped = Counter(zip(x, *rows))
    dropped.subtract(Counter(zip(kept, *v_kept)))
    assert all(k >= 0 for k in dropped.values())
    assert kept.size < 0.75 * x.size
    gone = np.abs([col for col, k in dropped.items() for _ in range(k)])
    assert gone.shape == (x.size - kept.size, 5)
    for k, (_, _, err) in enumerate(tables):
        mass = np.sum(gone[:, 1 + 2 * k:3 + 2 * k], axis=0)
        assert np.all(mass <= _EPS * np.sum(np.abs(rows[2 * k]))), mass
        assert np.all(err[1:] >= np.sum(mass))


def test_one_grid_call_equals_float_t_calls():
    # the benchmark's seed-7 Robin grid and the Dirichlet sweep: each
    # (beta, err) of one grid call keeps its bits when the grid is
    # permuted or thinned to a grid of the same largest start size, and
    # is within the sum of both err of a float-t call, which builds its
    # own smaller table
    phi = plateau_profile(A1, math.pi, 0.5)
    rho = plateau_profile(A2, math.pi, 0.5)
    one = SingularProfile(0.0, constant(), math.pi)
    rng = np.random.default_rng(7)
    for pair, grid in (((phi, rho, R, 0.5), np.geomspace(1e-6, 1e-4, 40)),
                       ((one, one, D, 0.0), np.geomspace(1e-4, 1e-1, 2000))):
        beta, err = interval_heat_content(*pair, grid)
        assert beta.shape == err.shape == grid.shape
        for part in (rng.permutation(grid.size), np.arange(0, grid.size, 7)):
            b, e = interval_heat_content(*pair, grid[part])
            assert np.array_equal(b, beta[part]), part
            assert np.array_equal(e, err[part]), part
        for k in range(0, grid.size, 7):
            alone = interval_heat_content(*pair, float(grid[k]))
            assert all(type(v) is float for v in alone)
            assert abs(beta[k] - alone[0]) <= err[k] + alone[1], k
    # one start size (8192) for more samples than a block of 2^18
    # weights holds: the blocks do not move the bits either
    dense = np.geomspace(1e-6, 1.75e-6, 100)
    assert heat1d._BLOCK // 8193 < dense.size
    beta, err = interval_heat_content(phi, rho, R, 0.5, dense)
    assert list(zip(beta.tolist(), err.tolist())) == [
        interval_heat_content(phi, rho, R, 0.5, t) for t in dense.tolist()]


def test_spectral_and_circle_sums_call_no_blas(monkeypatch):
    # the sums combine their weights with np.einsum, which without
    # optimize calls no BLAS routine, at any N up to the 20,000-mode cap
    def refuse(*args, **kwargs):
        raise AssertionError("a BLAS routine was called")

    for name in ("dot", "vdot", "matmul", "inner"):
        monkeypatch.setattr(np, name, refuse)
    phi = plateau_profile(A1, math.pi, 0.5)
    rho = plateau_profile(A2, math.pi, 0.5)
    beta, err = interval_heat_content(phi, rho, R, 0.5,
                                      np.geomspace(1e-7, 1e-2, 12))
    assert np.all(np.isfinite(beta)) and np.all(err < 1e-8 * beta)
    data = list(np.linspace(1.0, 0.0, 5000))
    circle_heat_content(data, data, np.geomspace(1e-9, 1.0, 12))


def test_simulate_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # t = 1e-7 starts at the 20,000-mode cap, where a BLAS dot product
    # would be split across the OpenBLAS pool
    config = tmp_path / "config.json"
    config.write_text(
        '{"problem": "interval", "bc": "robin", "c": 0.5, "alpha1": %r, '
        '"alpha2": %r, "tmin": 1e-7, "tmax": 1e-7, "num": 1}' % (A1, A2),
        encoding="utf-8")
    src = os.path.dirname(os.path.dirname(heat1d.__file__))
    outputs = []
    for threads in ("1", None):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        env["PYTHONPATH"] = src
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        out = tmp_path / f"out-{threads}.csv"
        subprocess.run([sys.executable, "-m", "singularheat.cli", "simulate",
                        str(config), "--out", str(out)],
                       env=env, check=True, timeout=120)
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_interval_truncation_error_at_tiny_t(monkeypatch):
    # the sum is refused, before any table is built, exactly when even the
    # 20,000-mode start misses t N^2 >= ln(1e13), that is t < 7.4834e-8;
    # above it the sum stops at the cap, within err of the odd-mode series
    # sum 8/(pi n^2) e^{-t n^2} of constant Dirichlet data
    built = []

    def recorded(*args):
        built.append(args[-1])
        return _pair_table(*args)

    monkeypatch.setattr(heat1d, "_pair_table", recorded)
    one = _unit_profile()
    for t in (1e-12, 7.47e-8):
        with pytest.raises(TruncationError):
            interval_heat_content(one, one, D, 0.0, t)
    assert built == []
    n = np.arange(1, 60001, 2, dtype=float)
    for t in (7.485e-8, 7.49e-8):
        beta, err = interval_heat_content(one, one, D, 0.0, t)
        want = math.fsum((8.0 / (math.pi * n ** 2)
                          * np.exp(-t * n ** 2)).tolist())
        assert abs(beta - want) <= err, t
        assert err < 1e-10, t


# ---------------------------------------------------------------------------
# interval modes

def _parseval_defect(f, bc, c, n_max):
    """(|sum_{n>=0} gamma_n^2 - ||f||^2|, gamma_0^2, ||f||^2) for f on
    [0, pi], from the moments the spectral sum uses."""
    profile = SingularProfile(0.0, FromCallable(f), L=math.pi)
    zero = None if bc is D else c
    g, _ = _gammas(_moment_tables((profile,), n_max, zero)[0], bc, c)
    norm2 = gauss_legendre(lambda x: f(x) ** 2, 0.0, math.pi, n=400)
    return abs(float(np.dot(g, g)) - norm2), g[0] ** 2, norm2


def test_interval_modes_satisfy_parseval():
    # f compatible with the boundary conditions (fast coefficient decay):
    # the modes are orthonormal and complete exactly when the squared
    # coefficients add up to ||f||^2.  The Robin zero mode is required;
    # the n >= 1 family alone misses span{e^{cx}}.
    c = 0.7
    for n_max in (256, 1024):
        defect, zero, norm2 = _parseval_defect(
            lambda x: np.exp(c * x) * (1.0 + np.sin(x) ** 2), R, c, n_max)
        assert defect <= 1e-11, n_max
        assert zero > 0.1 * norm2
        defect, _, _ = _parseval_defect(lambda x: (1.0 + x) * np.sin(x),
                                        D, 0.0, n_max)
        assert defect <= 1e-11, n_max


def test_robin_zero_mode_is_stationary():
    c = 0.7
    # e^{cx} solves -u'' + c^2 u = 0, so its heat-content contribution is
    # t-independent: check via the full sum with f proportional to e^{cx}.
    z = FromCallable(lambda x: np.exp(c * x),
                     (lambda x: c * np.exp(c * x),))
    phi = SingularProfile(0.0, z, L=math.pi)
    b1, _ = interval_heat_content(phi, phi, R, c, 1.0)
    b2, _ = interval_heat_content(phi, phi, R, c, 10.0)
    want = gauss_legendre(lambda x: np.exp(2 * c * x), 0.0, math.pi, n=100)
    assert b1 == pytest.approx(want, rel=1e-10)
    assert b2 == pytest.approx(want, rel=1e-10)


def test_eigenmode_decay_rate():
    # phi = rho = phi_2^D: beta(t) = e^{-t lambda_2}, so the log-slope
    # equals -lambda_2 = -4.
    mode = FromCallable(
        lambda x: math.sqrt(2.0 / math.pi) * np.sin(2 * x),
        (lambda x: math.sqrt(2.0 / math.pi) * 2 * np.cos(2 * x),))
    phi = SingularProfile(0.0, mode, L=math.pi)
    t, dt = 0.5, 1e-4
    hi, _ = interval_heat_content(phi, phi, D, 0.0, t + dt)
    lo, _ = interval_heat_content(phi, phi, D, 0.0, t - dt)
    mid, _ = interval_heat_content(phi, phi, D, 0.0, t)
    slope = (math.log(hi) - math.log(lo)) / (2 * dt)
    assert slope == pytest.approx(-4.0, abs=1e-6)
    assert mid == pytest.approx(math.exp(-4.0 * t), rel=1e-9)
    # with c the Dirichlet modes carry D = -d^2/dx^2 + c^2
    shifted, _ = interval_heat_content(phi, phi, D, 0.5, t)
    assert shifted == pytest.approx(math.exp(-4.25 * t), rel=1e-9)


# ---------------------------------------------------------------------------
# intertwining

def _cubic_halfpower_profile():
    # x^{1.5} (pi - x)^{1.5}: vanishes at both ends faster than x, so both
    # A phi and A* phi remain admissible profiles.
    smooth = FromCallable(lambda x: (math.pi - x) ** 1.5,
                          (lambda x: -1.5 * (math.pi - x) ** 0.5,))
    return SingularProfile(-1.5, smooth, L=math.pi)


def test_apply_a_jets_and_sign():
    phi = plateau_profile(-1.5, 4.0, 0.5)
    out = apply_A(phi, 0.8, adjoint=True)
    assert out.alpha == pytest.approx(-0.5)
    # A* x^{1.5} = -1.5 x^{0.5} + 0.8 x^{1.5}: jets (-1.5, 0.8)
    j = out.smooth.derivatives(np.array([0.0]), 1)
    assert j[0][0] == pytest.approx(-1.5)
    assert j[1][0] == pytest.approx(0.8)
    # A flips the derivative contribution: leading jet +1.5
    out2 = apply_A(phi, 0.8, adjoint=False)
    assert out2.smooth(np.array([0.0]))[0] == pytest.approx(1.5)
    with pytest.raises(DomainError):
        apply_A(plateau_profile(0.3, 4.0, 0.5), 0.8, adjoint=True)


def test_apply_a_matches_direct_derivative():
    phi = _cubic_halfpower_profile()
    c = 0.5
    out = apply_A(phi, c, adjoint=True)
    h = 1e-5
    for x in (0.3, 1.1, 2.4):
        want = -(phi(x + h) - phi(x - h)) / (2 * h) + c * phi(x)
        assert float(out(x)) == pytest.approx(float(want), rel=1e-8)


def _polynomial_profile():
    # x^{1.5} (pi - x)^2, the datum of `verify intertwine`: it vanishes at
    # pi, so the dual identity has no boundary terms there
    return SingularProfile(
        -1.5, Polynomial((math.pi ** 2, -2.0 * math.pi, 1.0)), L=math.pi)


_INTERTWINE_DATA = pytest.mark.parametrize(
    "profile", [_polynomial_profile, _cubic_halfpower_profile],
    ids=["polynomial", "handle"])


def _check_intertwining(phi, c, dual):
    """Every mode n <= 64 within the two tables' err, and the identity
    through the simulator: a central difference of the flow against the
    image flow."""
    t, dt = 0.05, 1e-4
    flow, image = (D, R) if dual else (R, D)
    assert intertwine_residual(phi, phi, c, dual=dual) <= 1.0, c
    hi, _ = interval_heat_content(phi, phi, flow, c, t + dt)
    lo, _ = interval_heat_content(phi, phi, flow, c, t - dt)
    a_phi = apply_A(phi, c, not dual)
    rhs, _ = interval_heat_content(a_phi, a_phi, image, c, t)
    assert abs(-(hi - lo) / (2 * dt) - rhs) <= 1e-6 * abs(rhs), c


@_INTERTWINE_DATA
def test_intertwine_residual_robin(profile):
    for c in (0.0, 0.5, 2.0):
        _check_intertwining(profile(), c, dual=False)


@_INTERTWINE_DATA
def test_intertwine_residual_dual(profile):
    for c in (0.0, 0.5, 2.0):
        _check_intertwining(profile(), c, dual=True)


@pytest.mark.parametrize("dual", [False, True])
def test_intertwine_residual_sees_one_mode_off_by_1e9(monkeypatch, dual):
    # mode 32 of the image pair (alpha -0.5) off by 1e-9 relative: its
    # err bound is about 3e-11 of the term, so the per-mode ratio reads
    # 35 (24 dual), while a sum at t = 0.05 weights that mode by e^{-51}
    # and its relative defect reads 1.9e-16 (4.9e-16 dual)
    def perturbed(phi, rho, bc, c, N):
        cols, lam = _pair_table(phi, rho, bc, c, N)
        if phi.alpha == -0.5:
            cols[0, 32] *= 1.0 + 1e-9
        return cols, lam

    monkeypatch.setattr(heat1d, "_pair_table", perturbed)
    assert intertwine_residual(_polynomial_profile(), _polynomial_profile(),
                               0.5, dual=dual) > 1.0


def test_dual_zero_mode_of_a_phi_vanishes():
    # int (phi' + c phi) e^{cx} = [phi e^{cx}]_0^pi, which is 0 when phi
    # vanishes at both ends, so A phi has no Robin zero mode
    c = 0.5
    a_phi = apply_A(_polynomial_profile(), c, adjoint=False)
    _, C, err = _moment_tables((a_phi,), 64, c)[0]
    assert abs(C[0]) <= err[0]


def test_intertwine_guards():
    shallow = plateau_profile(-0.5, math.pi, 0.5)
    with pytest.raises(DomainError):
        intertwine_residual(shallow, shallow, 0.5)


# ---------------------------------------------------------------------------
# circle

def test_circle_constant_and_orthogonality():
    assert circle_heat_content([1.0], [1.0], 0.3) == pytest.approx(
        2.0 * math.pi, rel=1e-14)
    # cos x against the constant: orthogonal modes never mix
    assert circle_heat_content([0.0, 1.0], [1.0, 0.0], 0.3) == 0.0
    v = circle_heat_content([0.0, 1.0], [0.0, 1.0], 0.3)
    assert v == pytest.approx(math.exp(-0.3) * math.pi, rel=1e-14)
    with pytest.raises(RangeError):
        circle_heat_content([1.0], [1.0], 0.0)
    # long data of unequal lengths against the term-by-term loop
    rng = np.random.default_rng(5)
    decay = 1.0 + np.arange(1, 4001) // 2
    phi = [1.5] + list(rng.uniform(-1.0, 1.0, 4000) / decay)
    rho = [1.2] + list(rng.uniform(-1.0, 1.0, 3000) / decay[:3000])
    for t in (1e-6, 1e-3, 1.0):
        loop = sum(math.exp(-t * ((i + 1) // 2) ** 2) * phi[i] * rho[i]
                   * (2.0 * math.pi if i == 0 else math.pi)
                   for i in range(len(rho)))
        assert circle_heat_content(phi, rho, t) == pytest.approx(loop,
                                                                 rel=1e-13)


def _circle_full(phi, rho, t):
    """The circle sum over every mode, one exp per mode."""
    m = min(len(phi), len(rho))
    k = (np.arange(m) + 1) // 2
    measure = np.where(k == 0, 2.0 * math.pi, math.pi)
    return float(np.sum(np.exp(-t * k * k) * np.asarray(phi[:m])
                        * np.asarray(rho[:m]) * measure))


def test_circle_live_mode_sum_matches_the_full_sum():
    # the sum over the power-of-two prefix that covers t k^2 <= 746
    # against every mode, and one grid call against float-t calls
    rng = np.random.default_rng(11)
    for _ in range(20):
        phi, rho = ([1.0 + rng.random()] + list(
            rng.uniform(-1.0, 1.0, n - 1) / (1 + np.arange(2, n + 1) // 2))
            for n in rng.integers(1, 6001, 2))
        ts = 10.0 ** rng.uniform(-9.0, 3.0, 15)
        grid = circle_heat_content(phi, rho, ts)
        for t, got in zip(ts.tolist(), grid.tolist()):
            want = _circle_full(phi, rho, t)
            assert abs(got - want) <= 1e-13 * abs(want), t
            assert circle_heat_content(phi, rho, t) == got, t
    # e^{-t k^2} is exactly 0 for every k >= 1: only the k = 0 term stays
    phi, rho = [1.3, 0.5, -0.2, 0.7], [0.7, 0.4, 0.9]
    for t in (746.0, 1e3, 1e6):
        assert circle_heat_content(phi, rho, t) \
            == phi[0] * rho[0] * (2.0 * math.pi), t


# ---------------------------------------------------------------------------
# samples container

def test_samples_csv_round_trip():
    s = HeatContentSamples([(1e-3, 3.01, 1e-12), (1e-2, 2.7, 2e-12)])
    text = s.to_csv_text()
    assert text.splitlines()[0] == "t,beta,err"
    back = HeatContentSamples.from_csv_lines(text.splitlines())
    assert back.entries == s.entries


def test_samples_validation():
    with pytest.raises(RangeError):
        HeatContentSamples([(0.01, 1.0, 0.0), (0.001, 1.0, 0.0)])
    with pytest.raises(RangeError):
        HeatContentSamples([(-1.0, 1.0, 0.0)])
    # NaN compares false against both the ordering and the err >= 0 checks
    for row in ((math.nan, 1.0, 0.0), (0.1, math.nan, 0.0),
                (0.1, 1.0, math.nan), (0.1, 1.0, math.inf)):
        with pytest.raises(RangeError):
            HeatContentSamples([(0.001, 1.0, 0.0), row])
    with pytest.raises(RangeError):
        HeatContentSamples.from_csv_lines(["time,beta", "1,2"])
