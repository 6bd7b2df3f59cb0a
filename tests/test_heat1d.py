"""Tests for the 1-D heat content simulators."""

import math

import mpmath
import numpy as np
import pytest

from singularheat.coeff import BoundaryConditionKind
from singularheat.errors import (DomainError, RangeError, TruncationError)
from singularheat.heat1d import (HeatContentSamples, SpectralKind, _TINY,
                                 _cross_correlation, _endpoint_convolution,
                                 _fourier_moments, apply_A,
                                 circle_heat_content,
                                 halfline_heat_content, halfline_kernel,
                                 interval_heat_content, interval_spectrum,
                                 intertwine_residual)
from singularheat.profiles import (FromCallable, PlateauCutoff, Product,
                                   SingularProfile, constant,
                                   plateau_profile)
from singularheat.quadrature import gauss_legendre, tanh_sinh
from singularheat.specfun import beta_fn, gamma

D = BoundaryConditionKind.DIRICHLET
N = BoundaryConditionKind.ROBIN  # sign +1: Neumann image kernel on the half-line


# ---------------------------------------------------------------------------
# half-line kernels

def test_kernel_dirichlet_vanishes_at_wall():
    assert halfline_kernel(D, 0.0, 0.7, 0.1) == 0.0
    assert halfline_kernel(D, np.zeros(3), np.array([0.1, 1.0, 2.0]),
                           0.05) == pytest.approx(0.0, abs=0.0)


def test_kernel_neumann_flat_at_wall():
    # one-sided difference of K_N(x, 0.7; 0.1) in x near x = 0: the image
    # term cancels the direct slope, so the derivative is O(h)
    h = 1e-6
    dd = (halfline_kernel(N, 2 * h, 0.7, 0.1)
          - halfline_kernel(N, 0.0, 0.7, 0.1)) / (2 * h)
    assert abs(dd) < 1e-4


def test_kernel_neumann_conserves_mass():
    val, err = tanh_sinh(lambda x: halfline_kernel(N, x, 1.0, 0.1),
                         0.0, 10.0, tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_kernel_guards():
    with pytest.raises(RangeError):
        halfline_kernel(D, 0.5, 0.5, 0.0)
    with pytest.raises(RangeError):
        halfline_kernel(D, -0.1, 0.5, 0.1)


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
                    * gamma(1.0 - sigma / 2.0).real
                    * beta_fn(1.0 - a1, 1.0 - a2).real) \
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


def _quad_mp(fn, lo, hi, cuts):
    edges = sorted({lo, hi, *(c for c in cuts if lo < c < hi)})
    return mpmath.quad(fn, edges) if hi > lo else mpmath.mpf(0)


def test_halfline_inner_integrals_at_edge_cases():
    # F(d) and H(s) on whole arrays of outer nodes: d at a breakpoint and
    # past the support; s <= _TINY, past one support (the first piece
    # starts at lo > 0) and past both supports.  Unit data without cutoff
    # at s = L + 1e-6 puts lo = 1e-6 next to the x^(-alpha) singularity.
    phi = plateau_profile(0.3, 4.0, 0.5)
    rho = plateau_profile(0.4, 4.0, 0.5)
    pm, rm = _plateau_mp(0.3, 0.5), _plateau_mp(0.4, 0.5)
    cuts = (0.25, 0.5)
    d = np.array([0.1, 0.25, 0.4, 0.5, 0.7])
    s = np.array([0.5 * _TINY, 0.3, 0.5, 0.6, 0.9, 1.0, 1.2])
    unit = [SingularProfile(a, constant(), 4.0) for a in (0.3, 0.4)]
    unit_mp = [lambda x, a=a: x ** -a if 0 < x < 4 else mpmath.mpf(0)
               for a in (0.3, 0.4)]
    tol = 1e-11
    with mpmath.workdps(30):
        for f, g, fm, gm in ((phi, rho, pm, rm), (rho, phi, rm, pm)):
            box = [0.0]
            F = _cross_correlation(f, g, d, tol, box)
            assert np.all(F[d >= 0.5] == 0.0)
            for dk, Fk in zip(d, F):
                ref = _quad_mp(lambda y: gm(y) * fm(y + dk), 0.0, 0.5,
                               cuts + tuple(c - dk for c in cuts))
                assert abs(Fk - ref) <= box[0], (dk, Fk, ref)
        for (f, g), (fm, gm), ss, cc in (((phi, rho), (pm, rm), s, cuts),
                                         (unit, unit_mp,
                                          np.array([4.0 + 1e-6]), (4.0,))):
            box = [0.0]
            H = _endpoint_convolution(f, g, ss, tol, box)
            dead = (ss <= _TINY) | (ss >= f.support_end() + g.support_end())
            assert np.all(H[dead] == 0.0)
            for sk, Hk in zip(ss, H):
                ref = _quad_mp(lambda x: fm(x) * gm(sk - x), 0.0, sk,
                               (sk / 2,) + cc + tuple(sk - c for c in cc))
                assert abs(Hk - ref) <= box[0], (sk, Hk, ref)


def test_halfline_profile_calls_are_batched(monkeypatch):
    # the inner integrals of one outer level share one profile call per
    # segment slot instead of one per outer node and segment
    calls = [0]
    call = SingularProfile.__call__

    def counted(self, x):
        calls[0] += 1
        return call(self, x)

    monkeypatch.setattr(SingularProfile, "__call__", counted)
    phi = plateau_profile(0.3, 4.0, 0.5)
    rho = plateau_profile(0.4, 4.0, 0.5)
    halfline_heat_content(phi, rho, D, 1e-6)
    assert 0 < calls[0] <= 2000


def test_halfline_neumann_total_mass_limit():
    # alpha = 0 data: as t -> 0, beta -> int phi rho; Neumann converges
    # from where the reflected mass is retained.
    phi = plateau_profile(0.0, 4.0, 1.0)
    bn, _ = halfline_heat_content(phi, phi, N, 1e-4)
    exact = tanh_sinh(lambda x: phi(x) ** 2, 0.0, 1.0, tol=1e-12)[0]
    assert bn == pytest.approx(exact, rel=1e-3)


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
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    one = _unit_profile()
    for t in (0.001, 0.01, 0.05):
        beta, err = interval_heat_content(one, one, spec, t)
        want = math.pi - 4.0 / math.sqrt(math.pi) * math.sqrt(t)
        assert beta == pytest.approx(want, abs=5e-9)


def test_interval_large_t_single_mode():
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    one = _unit_profile()
    t = 5.0
    beta, _ = interval_heat_content(one, one, spec, t)
    # gamma_1 = sqrt(2/pi) * 2, higher modes are e^{-9t} suppressed
    want = math.exp(-t) * (2.0 * math.sqrt(2.0 / math.pi)) ** 2
    assert beta == pytest.approx(want, rel=1e-6)


def test_interval_matches_halfline_when_localized():
    # data supported in [0, 1/2] on [0, pi]: for small t the boundary at
    # pi is invisible and the interval Dirichlet/Robin(c=0 -> Neumann)
    # content matches the half-line one to exponential accuracy.
    phi = plateau_profile(0.3, math.pi, 0.5)
    rho = plateau_profile(0.2, math.pi, 0.5)
    dspec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    rspec = interval_spectrum(SpectralKind.ROBIN_INTERVAL, 0.0)
    for t in (0.001, 0.01):
        bi, _ = interval_heat_content(phi, rho, dspec, t)
        bh, _ = halfline_heat_content(phi, rho, D, t)
        assert bi == pytest.approx(bh, rel=1e-7)
        bi_n, _ = interval_heat_content(phi, rho, rspec, t)
        bh_n, _ = halfline_heat_content(phi, rho, N, t)
        assert bi_n == pytest.approx(bh_n, rel=1e-7)


def test_interval_err_bounds_exact_dirichlet_series():
    # constant unit data: beta(t) = sum over odd n of 8/(pi n^2) e^{-n^2 t}
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    one = SingularProfile(0.0, constant(), math.pi)
    with mpmath.workdps(30):
        for t in np.geomspace(1e-4, 1e-1, 200):
            beta, err = interval_heat_content(one, one, spec, float(t))
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
        S, C, err = _fourier_moments(profile, size)
        for n in (n for n in modes if n <= size):
            assert abs(S[n - 1] - exact[n].imag) <= err[n - 1], (size, n)
            assert abs(C[n - 1] - exact[n].real) <= err[n - 1], (size, n)


@pytest.mark.parametrize("alpha", (0.25, 0.9))
def test_fourier_moments_within_err_on_plateau_data(alpha):
    # the benchmark's datum: x^{-alpha} on [0, r/2] in closed form, the
    # quintic ramp on [r/2, r] by mpmath quadrature a few periods a piece;
    # this covers the Gauss panels, which constant data barely uses
    r = 0.5
    profile = plateau_profile(alpha, math.pi, r)
    modes = (1, 2, 63, 64, 65, 1000)

    def ramp(x, n):
        u = (x - r / 2) / (r / 2)
        return x ** -alpha * (1 - u ** 3 * (10 - 15 * u + 6 * u * u)) \
            * mpmath.expj(n * x)

    exact = {}
    with mpmath.workdps(30):
        for n in modes:
            head = mpmath.power(mpmath.mpc(0, -n), alpha - 1) \
                * mpmath.gammainc(1 - alpha, 0, mpmath.mpc(0, -n) * r / 2)
            edges = mpmath.linspace(r / 2, r, 2 + n // 16)
            exact[n] = complex(head + mpmath.quad(lambda x: ramp(x, n),
                                                  edges))
    for size in (64, 1024):
        S, C, err = _fourier_moments(profile, size)
        for n in (n for n in modes if n <= size):
            assert abs(S[n - 1] - exact[n].imag) <= err[n - 1], (size, n)
            assert abs(C[n - 1] - exact[n].real) <= err[n - 1], (size, n)


def test_fourier_moment_table_work_is_linear():
    # one shared node set: the profile is evaluated once per node, not
    # once per node and mode
    points = [0]

    def counted(x):
        points[0] += np.size(x)
        return np.ones_like(x)

    smooth = Product(PlateauCutoff(0.5), FromCallable(counted))
    profile = SingularProfile(0.25, smooth, math.pi, 0.5)
    _fourier_moments(profile, 8192)
    assert 0 < points[0] <= 50000


def test_interval_truncation_error_at_tiny_t():
    one = _unit_profile()
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    with pytest.raises(TruncationError):
        interval_heat_content(one, one, spec, 1e-12)


# ---------------------------------------------------------------------------
# spectral resolutions

def test_dirichlet_eigenfunction_values():
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    assert spec.eigenfunction(1, math.pi / 2) == pytest.approx(
        math.sqrt(2.0 / math.pi), rel=1e-14)
    assert spec.eigenvalue(3) == 9.0
    with pytest.raises(RangeError):
        spec.eigenfunction(0, 0.5)
    with pytest.raises(RangeError):
        interval_spectrum(SpectralKind.DIRICHLET_INTERVAL, 0.5)


def test_robin_modes_satisfy_boundary_conditions():
    c = 0.7
    spec = interval_spectrum(SpectralKind.ROBIN_INTERVAL, c)
    h = 1e-6
    for n in (0, 1, 4):
        def f(x):
            return spec.eigenfunction(n, x)
        d0 = (f(h) - f(0.0)) / h - 0.5 * (f(2 * h) - 2 * f(h) + f(0.0)) / h
        dpi = (f(math.pi) - f(math.pi - h)) / h \
            + 0.5 * (f(math.pi) - 2 * f(math.pi - h) + f(math.pi - 2 * h)) / h
        assert abs(d0 - c * f(0.0)) < 1e-6
        assert abs(-dpi + c * f(math.pi)) < 1e-6


def test_robin_modes_orthonormal_and_complete():
    c = 0.7
    spec = interval_spectrum(SpectralKind.ROBIN_INTERVAL, c)

    def inner(m, n):
        return gauss_legendre(
            lambda x: spec.eigenfunction(m, x) * spec.eigenfunction(n, x),
            0.0, math.pi, n=200)

    assert inner(3, 5) == pytest.approx(0.0, abs=1e-10)
    assert inner(0, 2) == pytest.approx(0.0, abs=1e-10)
    assert inner(0, 0) == pytest.approx(1.0, rel=1e-12)
    assert inner(4, 4) == pytest.approx(1.0, rel=1e-12)

    # Parseval for an f compatible with the boundary conditions (fast
    # coefficient decay): sum <f, phi_n>^2 -> ||f||^2.  The zero mode is
    # required; the n >= 1 family alone misses span{e^{cx}}.
    def f(x):
        return np.exp(c * x) * (1.0 + np.sin(x) ** 2)

    norm2 = gauss_legendre(lambda x: f(x) ** 2, 0.0, math.pi, n=400)
    total = 0.0
    zero_part = 0.0
    for n in range(0, 121):
        coef = gauss_legendre(lambda x: f(x) * spec.eigenfunction(n, x),
                              0.0, math.pi, n=400)
        if n == 0:
            zero_part = coef ** 2
        total += coef ** 2
    assert total == pytest.approx(norm2, abs=1e-10)
    # without the zero mode the family is measurably incomplete
    assert zero_part > 0.1 * norm2


def test_robin_zero_mode_is_stationary():
    c = 0.7
    spec = interval_spectrum(SpectralKind.ROBIN_INTERVAL, c)
    assert spec.eigenvalue(0) == 0.0
    # e^{cx} solves -u'' + c^2 u = 0, so its heat-content contribution is
    # t-independent: check via the full sum with f proportional to e^{cx}.
    z = FromCallable(lambda x: np.exp(c * x),
                     (lambda x: c * np.exp(c * x),))
    phi = SingularProfile(0.0, z, L=math.pi)
    b1, _ = interval_heat_content(phi, phi, spec, 1.0)
    b2, _ = interval_heat_content(phi, phi, spec, 10.0)
    want = gauss_legendre(lambda x: np.exp(2 * c * x), 0.0, math.pi, n=100)
    assert b1 == pytest.approx(want, rel=1e-10)
    assert b2 == pytest.approx(want, rel=1e-10)


def test_eigenmode_decay_rate():
    # phi = rho = phi_2^D: beta(t) = e^{-t lambda_2}, so the log-slope
    # equals -lambda_2 = -4.
    spec = interval_spectrum(SpectralKind.DIRICHLET_INTERVAL)
    mode = FromCallable(
        lambda x: math.sqrt(2.0 / math.pi) * np.sin(2 * x),
        (lambda x: math.sqrt(2.0 / math.pi) * 2 * np.cos(2 * x),))
    phi = SingularProfile(0.0, mode, L=math.pi)
    t, dt = 0.5, 1e-4
    hi, _ = interval_heat_content(phi, phi, spec, t + dt)
    lo, _ = interval_heat_content(phi, phi, spec, t - dt)
    mid, _ = interval_heat_content(phi, phi, spec, t)
    slope = (math.log(hi) - math.log(lo)) / (2 * dt)
    assert slope == pytest.approx(-4.0, abs=1e-6)
    assert mid == pytest.approx(math.exp(-4.0 * t), rel=1e-9)


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
    j = out.jets(1)
    assert j[0] == pytest.approx(-1.5)
    assert j[1] == pytest.approx(0.8)
    # A flips the derivative contribution: leading jet +1.5
    out2 = apply_A(phi, 0.8, adjoint=False)
    assert out2.jets(0)[0] == pytest.approx(1.5)
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


def test_intertwine_residual_robin():
    phi = _cubic_halfpower_profile()
    r = intertwine_residual(phi, phi, 0.5, 0.05, 1e-4)
    assert r < 1e-6


def test_intertwine_residual_dual():
    phi = _cubic_halfpower_profile()
    r = intertwine_residual(phi, phi, 0.5, 0.05, 1e-4, dual=True)
    assert r < 1e-6


def test_intertwine_guards():
    phi = _cubic_halfpower_profile()
    shallow = plateau_profile(-0.5, math.pi, 0.5)
    with pytest.raises(DomainError):
        intertwine_residual(shallow, shallow, 0.5, 0.05)
    with pytest.raises(DomainError):
        intertwine_residual(phi, phi, 0.5, 0.05, dt=0.1)


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


# ---------------------------------------------------------------------------
# samples container

def test_samples_csv_round_trip():
    s = HeatContentSamples("interval-dirichlet",
                           [(1e-3, 3.01, 1e-12), (1e-2, 2.7, 2e-12)])
    text = s.to_csv_text()
    assert text.splitlines()[0] == "t,beta,err"
    back = HeatContentSamples.from_csv_text(text, problem=s.problem)
    assert back.entries == s.entries


def test_samples_validation():
    with pytest.raises(RangeError):
        HeatContentSamples("p", [(0.01, 1.0, 0.0), (0.001, 1.0, 0.0)])
    with pytest.raises(RangeError):
        HeatContentSamples("p", [(-1.0, 1.0, 0.0)])
    # NaN compares false against both the ordering and the err >= 0 checks
    for row in ((math.nan, 1.0, 0.0), (0.1, math.nan, 0.0),
                (0.1, 1.0, math.nan), (0.1, 1.0, math.inf)):
        with pytest.raises(RangeError):
            HeatContentSamples("p", [(0.001, 1.0, 0.0), row])
    with pytest.raises(RangeError):
        HeatContentSamples.from_csv_text("time,beta\n1,2\n")
