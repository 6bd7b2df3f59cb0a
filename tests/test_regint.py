"""Tests for the regularized interior integrals."""

import math

import mpmath
import numpy as np
import pytest

from singularheat.errors import (DomainError, PoleError, QuadratureError,
                                 RangeError)
from singularheat.profiles import (IntertwinedFactor, PlateauCutoff,
                                   Polynomial, Product, SingularProfile,
                                   constant, plateau_profile)
from singularheat.regint import i_reg, interior_coefficients

from handles import FromCallable, d_step, tanh_sinh


def _unit():
    return SingularProfile(0.0, constant(), math.pi)


def _integrand(phi, rho):
    """(sigma, smooth, L) of x^(-alpha1 - alpha2) times the product of
    the smooth factors."""
    return (complex(phi.alpha) + complex(rho.alpha),
            Product(phi.smooth, rho.smooth), phi.L)


def test_smooth_integrand_is_plain_integral():
    one = _unit()
    ig = _integrand(one, one)
    assert i_reg(*ig) == pytest.approx(math.pi, rel=1e-13)
    # negative effective exponent: x^{0.5} * chi, compare direct quadrature
    p = plateau_profile(-0.25, math.pi, 1.0)
    ig2 = _integrand(p, p)
    direct = sum(tanh_sinh(lambda x: p(x) ** 2, a, b)[0]
                 for a, b in ((0.0, 0.5), (0.5, 1.0)))
    assert complex(i_reg(*ig2)).real == pytest.approx(direct, rel=1e-12)


def test_collar_width_independence():
    # divergent integrand r^{-1.4} chi: the regularized value must not
    # depend on where the collar is cut
    chi = PlateauCutoff(1.0)
    vals = [complex(i_reg(1.4, chi, math.pi, w)).real for w in (0.1, 0.2, 0.4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    assert vals[0] == pytest.approx(vals[2], rel=1e-10)


def test_agreement_with_direct_quadrature_when_convergent():
    p1 = plateau_profile(0.3, math.pi, 1.0)
    p2 = plateau_profile(0.4, math.pi, 1.0)
    ig = _integrand(p1, p2)
    direct = sum(tanh_sinh(lambda x: p1(x) * p2(x), a, b)[0]
                 for a, b in ((0.0, 0.5), (0.5, 1.0)))
    assert complex(i_reg(*ig)).real == pytest.approx(direct, rel=1e-11)


def test_pole_probe_bounded():
    # (1 - sigma) * i_reg stays bounded (and tends to the leading jet) as
    # sigma -> 1 along non-integer values
    for s in (0.99, 0.999, 0.9999):
        v = (1.0 - s) * complex(i_reg(s, PlateauCutoff(1.0), math.pi)).real
        assert abs(v) < 2.0
        # the O(1 - sigma) correction comes from the regular part
        assert v == pytest.approx(1.0, abs=(1.0 - s) + 1e-6)


def test_pole_error_at_integer_sigma():
    with pytest.raises(PoleError):
        i_reg(1.0, PlateauCutoff(1.0), math.pi)
    # near sigma = 2 the pole residue is the first-order jet h_1, so the
    # error fires only when that jet is nonzero
    with pytest.raises(PoleError):
        i_reg(2.0 + 1e-9, Polynomial((1.0, 1.0)), math.pi)
    i_reg(2.0 + 1e-9, PlateauCutoff(1.0), math.pi)  # h_1 = 0: no pole


def test_linearity_in_profiles():
    chi = PlateauCutoff(1.0)
    v = complex(i_reg(1.4, chi, math.pi))
    # scale via a wrapped smooth factor: 3 * chi
    three_chi = Product(Polynomial((3.0,)), chi)
    assert complex(i_reg(1.4, three_chi, math.pi)) \
        == pytest.approx(3.0 * v, rel=1e-12)


def test_guards():
    p = plateau_profile(0.3, math.pi, 1.0)
    q = plateau_profile(0.3, 2.0, 1.0)
    with pytest.raises(RangeError):
        interior_coefficients(p, q)


def test_collar_too_narrow_for_the_panels_raises():
    # past a collar narrower than the radius the panels must resolve
    # x^(-sigma) close to 0; where 8 panels and 4 disagree beyond 1e-9 of
    # sum |w f| the integral raises, and where they agree it is right
    chi = PlateauCutoff(1.0)
    default = complex(i_reg(1.4, chi, math.pi))
    with mpmath.workdps(30):
        s = mpmath.mpf(1.4)
        want = _finite_part_oracle(
            [(1, s)], lambda x: x ** -s * _ramp_deriv(2 * x - 1, 0), 1.0)
    assert abs(default - want) <= 1e-13 * abs(want)
    for collar in (0.1, 0.01):
        got = complex(i_reg(1.4, chi, math.pi, collar))
        assert abs(got - want) <= 1e-12 * abs(want), collar
    for collar in (1e-3, 1e-6):
        with pytest.raises(QuadratureError, match="Gauss panels"):
            i_reg(1.4, chi, math.pi, collar)


def test_collar_needs_exact_taylor_data():
    # a handle carries no Taylor data, so there is no closed-form collar
    with pytest.raises(DomainError):
        i_reg(0.4, FromCallable(np.cos), math.pi)
    # PlateauCutoff(1.0) is exactly 1 only on [0, 0.5]
    for width in (0.6, 0.0, -0.1):
        with pytest.raises(DomainError):
            i_reg(1.4, PlateauCutoff(1.0), math.pi, width)
    i_reg(1.4, PlateauCutoff(1.0), math.pi, 0.5)


def test_interior_coefficients_constant_data():
    one = _unit()
    betas = interior_coefficients(one, one, 0.0, 2)
    assert complex(betas[0]).real == pytest.approx(math.pi, rel=1e-13)
    assert abs(complex(betas[1])) < 1e-14
    assert abs(complex(betas[2])) < 1e-14


def test_interior_coefficients_n0_is_i_reg():
    p1 = plateau_profile(0.3, math.pi, 1.0)
    p2 = plateau_profile(0.4, math.pi, 1.0)
    b0 = interior_coefficients(p1, p2, 0.5, 0)[0]
    assert complex(b0) == pytest.approx(
        complex(i_reg(*_integrand(p1, p2))), rel=1e-13)


def test_interior_coefficients_read_c_through_c_squared():
    p1 = plateau_profile(0.3, math.pi, 0.5)
    p2 = plateau_profile(0.4, math.pi, 0.5)
    for c in (0.5, 1.3):
        assert interior_coefficients(p1, p2, -c, 3) \
            == interior_coefficients(p1, p2, c, 3)


def test_interior_coefficients_collar_independent():
    # the integrands phi^(m) * rho^(m) of beta_0..beta_3, built as
    # interior_coefficients builds them
    p1 = plateau_profile(0.3, math.pi, 1.0)
    p2 = plateau_profile(0.4, math.pi, 1.0)
    a, f, b, g = 0.3, p1.smooth, 0.4, p2.smooth
    for m in range(4):
        product = Product(f, g)
        x = i_reg(a + b, product, math.pi, 0.1)
        y = i_reg(a + b, product, math.pi, 0.4)
        assert complex(x) == pytest.approx(complex(y), rel=1e-10), m
        f, g = (IntertwinedFactor(f, a, 0.0, -1),
                IntertwinedFactor(g, b, 0.0, -1))
        a, b = a + 1.0, b + 1.0


def _taylor_oracle(f):
    """Exact Taylor data at 0 of a smooth factor, in mpmath, by the
    symbolic rule of each class: independent of the derivative lists."""
    if isinstance(f, Polynomial):
        return [mpmath.mpf(v) for v in f.coeffs]
    if isinstance(f, PlateauCutoff):
        return [mpmath.mpf(1)]
    if isinstance(f, Product):
        # Cauchy product
        a, b = _taylor_oracle(f.left), _taylor_oracle(f.right)
        return [mpmath.fsum(a[i] * b[j - i] for i in range(len(a))
                            if 0 <= j - i < len(b))
                for j in range(len(a) + len(b) - 1)]
    # IntertwinedFactor: sign (a - j) s_j + c s_(j-1)
    s = _taylor_oracle(f.s)
    at = lambda j: s[j] if 0 <= j < len(s) else mpmath.mpf(0)
    a = mpmath.mpf(f.a)
    return [f.sign * (a - j) * at(j) + mpmath.mpf(f.c) * at(j - 1)
            for j in range(len(s) + 1)]


@pytest.mark.parametrize("a1, a2, c", [(0.3, 0.4, 0.5), (0.25, 0.45, 0.0),
                                       (-0.2, 0.1, 1.3)])
def test_jets_match_exact_taylor_data(a1, a2, c):
    # taylor0() of phi^(m) * rho^(m), the integrands of
    # interior_coefficients, and of intertwined factors times rho, is one
    # derivatives pass at 0; on the plateau it must reproduce the
    # symbolic Taylor data, and the derivatives past its degree vanish
    phi = plateau_profile(a1, math.pi, 0.5)
    rho = plateau_profile(a2, math.pi, 0.5)
    poly = Polynomial((1.0, -0.5, 0.3, 0.2))
    pairs = []
    for f in (phi.smooth, Product(poly, phi.smooth)):
        a, g, b = a1, rho.smooth, a2
        for m in range(7):
            pairs.append((f, g))
            f, g = (IntertwinedFactor(f, a, 0.0, -1),
                    IntertwinedFactor(g, b, 0.0, -1))
            a, b = a + 1.0, b + 1.0
    # A and A* chains up to three deep, with c != 0
    smooth, a = Product(poly, phi.smooth), a1
    for depth in range(3):
        smooth = IntertwinedFactor(smooth, a, 0.6 + c, (-1) ** depth)
        pairs.append((smooth, rho.smooth))
        a += 1.0
    for f, g in pairs:
        product = Product(f, g)
        got = product.taylor0()
        with mpmath.workdps(30):
            want = [float(v) for v in _taylor_oracle(product)]
        assert len(got) == len(want) == product.taylor_degree() + 1
        for j, (g, w) in enumerate(zip(got, want)):
            assert g == pytest.approx(w, rel=1e-12, abs=0.0), (f, j)
        d = product.derivatives(np.array([0.0]), len(want) + 1)
        assert d[-2][0] == 0.0 and d[-1][0] == 0.0, f


#: ascending coefficients of the cutoff ramp 1 - 10u^3 + 15u^4 - 6u^5
_RAMP = (1, 0, 0, -10, 15, -6)


def _ramp_deriv(u, k):
    """k-th derivative in u of the ramp polynomial, in mpmath."""
    c = list(_RAMP)
    for _ in range(k):
        c = [i * ci for i, ci in enumerate(c)][1:]
    return mpmath.fsum(ci * u ** i for i, ci in enumerate(c))


def _profile_deriv(a, x, m, r0):
    """m-th derivative of x^(-a) chi(x), chi = PlateauCutoff(r0), at x on
    the ramp [r0/2, r0], in mpmath by Leibniz's rule."""
    u = 2 * x / r0 - 1
    return mpmath.fsum(
        math.comb(m, i) * mpmath.ff(-a, i) * x ** (-a - i)
        * _ramp_deriv(u, m - i) * (2 / mpmath.mpf(r0)) ** (m - i)
        for i in range(m + 1))


def _finite_part_oracle(plateau, ramp, r0):
    """Finite part of the integral over [0, r0] of an integrand equal to
    sum_k h_k x^(-s_k) on [0, r0/2] and to ramp(x) on [r0/2, r0]: the
    Hadamard closed form on the plateau plus mpmath.quad on the ramp."""
    e = mpmath.mpf(r0) / 2
    head = mpmath.fsum(h * e ** (1 - s) / (1 - s) for h, s in plateau)
    return complex(head + mpmath.quad(ramp, [e, r0]))


@pytest.mark.parametrize("sigma", [1.4, 2.7, 1.6 + 0.3j])
def test_i_reg_matches_finite_part_oracle(sigma):
    r0 = 1.0
    with mpmath.workdps(30):
        s = mpmath.mpmathify(sigma)
        want = _finite_part_oracle(
            [(1, s)], lambda x: x ** -s * _ramp_deriv(2 * x / r0 - 1, 0), r0)
    got = i_reg(sigma, PlateauCutoff(r0), math.pi)
    assert abs(got - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize(
    "a1, a2, n",
    [pytest.param(0.3, 0.4, n, id=str(n)) for n in range(4)]
    # sigma = 2n is an integer: a Taylor coefficient that should vanish
    # but does not would land on the collar's pole
    + [pytest.param(0.0, 0.0, n, id=f"alpha0-{n}") for n in range(4)])
def test_interior_integrand_matches_finite_part_oracle(a1, a2, n):
    # D^n phi * rho for D = -d^2/dx^2 + c^2, phi = x^(-a1) chi and
    # rho = x^(-a2) chi with chi = PlateauCutoff(1): on the plateau
    # (-d^2)^k x^(-a1) = (-1)^k (a1)_(2k) x^(-a1 - 2k); on the ramp the
    # derivatives of phi come from Leibniz's rule
    c, r0 = 0.5, 1.0
    p1 = plateau_profile(a1, math.pi, r0)
    a, smooth = a1, p1.smooth
    for _ in range(n):
        smooth = d_step(smooth, a, c)
        a += 2.0
    got = i_reg(a + a2, Product(smooth, p1.smooth), math.pi)
    with mpmath.workdps(30):
        A1, A2, C = mpmath.mpf(a1), mpmath.mpf(a2), mpmath.mpf(c)
        terms = [(math.comb(n, k) * C ** (2 * (n - k)), k)
                 for k in range(n + 1)]
        plateau = [(w * (-1) ** k * mpmath.rf(A1, 2 * k), A1 + A2 + 2 * k)
                   for w, k in terms]

        def ramp(x):
            dn = mpmath.fsum(w * (-1) ** k * _profile_deriv(A1, x, 2 * k, r0)
                             for w, k in terms)
            return dn * x ** -A2 * _ramp_deriv(2 * x / r0 - 1, 0)

        want = _finite_part_oracle(plateau, ramp, r0)
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


@pytest.mark.parametrize("c", [0.5, 1.0])
def test_pointwise_beta2_misses_the_junction_term(c):
    # the third derivative of the C^2 cutoff jumps by -60 (2/r0)^3 at
    # r0/2, so D^2 phi holds a delta there that the pointwise integral of
    # D^2 phi * rho drops; rho vanishes at r0, the other junction
    a1, a2, r0 = 0.3, 0.4, 0.5
    phi = plateau_profile(a1, math.pi, r0)
    rho = plateau_profile(a2, math.pi, r0)
    d2 = d_step(d_step(phi.smooth, a1, c), a1 + 2.0, c)
    pointwise = 0.5 * i_reg(a1 + 4.0 + a2, Product(d2, rho.smooth), math.pi)
    split = interior_coefficients(phi, rho, c, 2)[2]
    jump = 0.5 * 60 * (2 / r0) ** 3 * (r0 / 2) ** (-a1 - a2)
    assert jump == pytest.approx(5066.91, abs=0.005)
    assert complex(pointwise - split).real == pytest.approx(jump, rel=1e-10)


@pytest.mark.parametrize(
    "a1, a2, c",
    [pytest.param(0.3, 0.4, 0.5, id="c0.5"),
     pytest.param(0.3, 0.4, 1.0, id="c1"),
     # phi^(m) * rho^(m) is a square on the ramp, so it does not cancel
     pytest.param(0.0, 0.0, 0.0, id="alpha0-c0"),
     pytest.param(0.0, 0.0, 0.5, id="alpha0-c0.5"),
     # sigma = 2m is an integer: a Taylor coefficient of phi^(m) * rho^(m)
     # that should vanish but does not would land on the collar's pole
     pytest.param(-0.9, 0.9, 0.5, id="sum0")])
def test_beta2_beta3_match_finite_part_oracle(a1, a2, c):
    # beta_2 = i_reg(D phi * D rho) / 2 and
    # beta_3 = -(i_reg((D phi)' (D rho)') + c^2 i_reg(D phi * D rho)) / 6
    # for D = -d^2/dx^2 + c^2: on the plateau (D phi)^(m) is
    # -(-a1)_(m+2) x^(-a1-m-2) + c^2 (-a1)_m x^(-a1-m) (falling
    # factorials), on the ramp -phi^(m+2) + c^2 phi^(m)
    r0 = 0.5
    phi = plateau_profile(a1, math.pi, r0)
    rho = plateau_profile(a2, math.pi, r0)
    got = interior_coefficients(phi, rho, c, 3)
    assert len(got) == 4
    with mpmath.workdps(30):
        C2 = mpmath.mpf(c) ** 2

        def d_jet(a, m):
            a = mpmath.mpf(a)
            plateau = [(-mpmath.ff(-a, m + 2), a + m + 2),
                       (C2 * mpmath.ff(-a, m), a + m)]
            return plateau, lambda x: (-_profile_deriv(a, x, m + 2, r0)
                                       + C2 * _profile_deriv(a, x, m, r0))

        def pairing(m):
            (p1, f1), (p2, f2) = d_jet(a1, m), d_jet(a2, m)
            return _finite_part_oracle(
                [(h1 * h2, s1 + s2) for h1, s1 in p1 for h2, s2 in p2],
                lambda x: f1(x) * f2(x), r0)

        even, odd = pairing(0), pairing(1)
        want = [even / 2, -(odd + float(C2) * even) / 6]
    for n, w in ((2, want[0]), (3, want[1])):
        assert abs(got[n] - w) <= 1e-12 * abs(w), (n, got[n], w)
