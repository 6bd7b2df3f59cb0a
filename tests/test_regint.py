"""Tests for the regularized interior integrals."""

import math

import pytest

from singularheat.errors import DomainError, PoleError, RangeError
from singularheat.profiles import (OperatorApplied, PlateauCutoff, Polynomial,
                                   Product, SingularProfile, constant,
                                   plateau_profile)
from singularheat.quadrature import tanh_sinh
from singularheat.regint import (CollarRegularization, SingularIntegrand,
                                 default_regularization, i_reg,
                                 interior_coefficients)


def _unit():
    return SingularProfile(0.0, constant(), math.pi)


def test_smooth_integrand_is_plain_integral():
    one = _unit()
    ig = SingularIntegrand.from_profiles(one, one)
    assert i_reg(ig) == pytest.approx(math.pi, rel=1e-13)
    # negative effective exponent: x^{0.5} * chi, compare direct quadrature
    p = plateau_profile(-0.25, math.pi, 1.0)
    ig2 = SingularIntegrand.from_profiles(p, p)
    direct = sum(tanh_sinh(lambda x: p(x) ** 2, a, b, tol=1e-13)[0]
                 for a, b in ((0.0, 0.5), (0.5, 1.0)))
    assert complex(i_reg(ig2)).real == pytest.approx(direct, rel=1e-12)


def test_collar_width_independence():
    # divergent integrand r^{-1.4} chi: the regularized value must not
    # depend on where the collar is cut
    chi = PlateauCutoff(1.0)
    ig = SingularIntegrand(1.4, chi, math.pi)
    vals = [complex(i_reg(ig, CollarRegularization(w, 1))).real
            for w in (0.1, 0.2, 0.4)]
    assert vals[0] == pytest.approx(vals[1], rel=1e-10)
    assert vals[0] == pytest.approx(vals[2], rel=1e-10)


def test_agreement_with_direct_quadrature_when_convergent():
    p1 = plateau_profile(0.3, math.pi, 1.0)
    p2 = plateau_profile(0.4, math.pi, 1.0)
    ig = SingularIntegrand.from_profiles(p1, p2)
    direct = sum(tanh_sinh(lambda x: p1(x) * p2(x), a, b, tol=1e-13)[0]
                 for a, b in ((0.0, 0.5), (0.5, 1.0)))
    assert complex(i_reg(ig)).real == pytest.approx(direct, rel=1e-11)


def test_pole_probe_bounded():
    # (1 - sigma) * i_reg stays bounded (and tends to the leading jet) as
    # sigma -> 1 along non-integer values
    for s in (0.99, 0.999, 0.9999):
        ig = SingularIntegrand(s, PlateauCutoff(1.0), math.pi)
        v = (1.0 - s) * complex(i_reg(ig)).real
        assert abs(v) < 2.0
        # the O(1 - sigma) correction comes from the regular part
        assert v == pytest.approx(1.0, abs=(1.0 - s) + 1e-6)


def test_pole_error_at_integer_sigma():
    ig = SingularIntegrand(1.0, PlateauCutoff(1.0), math.pi)
    with pytest.raises(PoleError):
        i_reg(ig)
    # near sigma = 2 the pole residue is the first-order jet h_1, so the
    # error fires only when that jet is nonzero
    from singularheat.profiles import Polynomial
    ig2 = SingularIntegrand(2.0 + 1e-9, Polynomial((1.0, 1.0)), math.pi)
    with pytest.raises(PoleError):
        i_reg(ig2)
    ig3 = SingularIntegrand(2.0 + 1e-9, PlateauCutoff(1.0), math.pi)
    i_reg(ig3)  # h_1 = 0: no pole, value finite


def test_linearity_in_profiles():
    chi = PlateauCutoff(1.0)
    ig = SingularIntegrand(1.4, chi, math.pi)
    v = complex(i_reg(ig))
    scaled = SingularIntegrand(1.4, PlateauCutoff(1.0), math.pi)
    # scale via a wrapped smooth factor: 3 * chi
    from singularheat.profiles import Polynomial, Product
    ig3 = SingularIntegrand(1.4, Product(Polynomial((3.0,)), chi), math.pi)
    assert complex(i_reg(ig3)) == pytest.approx(3.0 * v, rel=1e-12)


def test_guards():
    with pytest.raises(DomainError):
        CollarRegularization(0.0, 1)
    with pytest.raises(DomainError):
        CollarRegularization(0.1, 0)
    ig = SingularIntegrand(1.4, PlateauCutoff(1.0), math.pi)
    with pytest.raises(DomainError):
        i_reg(ig, CollarRegularization(0.1, 0))
    # K too small: remainder x^{K - sigma} not integrable
    ig2 = SingularIntegrand(2.4, PlateauCutoff(1.0), math.pi)
    with pytest.raises(DomainError):
        i_reg(ig2, CollarRegularization(0.1, 1))
    p = plateau_profile(0.3, math.pi, 1.0)
    q = plateau_profile(0.3, 2.0, 1.0)
    with pytest.raises(RangeError):
        SingularIntegrand.from_profiles(p, q)


def test_default_regularization_order():
    assert default_regularization(
        SingularIntegrand(1.4, PlateauCutoff(1.0), math.pi)
    ).subtraction_order == 3
    assert default_regularization(
        SingularIntegrand(-2.0, PlateauCutoff(1.0), math.pi)
    ).subtraction_order == 1


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
        complex(i_reg(SingularIntegrand.from_profiles(p1, p2))), rel=1e-13)


def test_interior_coefficients_collar_independent():
    p1 = plateau_profile(0.3, math.pi, 1.0)
    p2 = plateau_profile(0.4, math.pi, 1.0)
    a = interior_coefficients(p1, p2, 0.5, 2, CollarRegularization(0.1, 6))
    b = interior_coefficients(p1, p2, 0.5, 2, CollarRegularization(0.4, 6))
    for x, y in zip(a, b):
        assert complex(x) == pytest.approx(complex(y), rel=1e-10)


@pytest.mark.parametrize("a1, a2, c", [(0.3, 0.4, 0.5), (0.25, 0.45, 0.0),
                                       (-0.2, 0.1, 1.3)])
def test_jets_match_exact_taylor_data(a1, a2, c):
    # the jets of D^n phi * rho at 0 come from the derivative lists; on
    # the plateau they must reproduce the exact symbolic Taylor data
    phi = plateau_profile(a1, math.pi, 0.5)
    rho = plateau_profile(a2, math.pi, 0.5)
    poly = Polynomial((1.0, -0.5, 0.3, 0.2))
    for smooth in (phi.smooth, Product(poly, phi.smooth)):
        a = a1
        for n in range(7):
            ig = SingularIntegrand(a + a2, Product(smooth, rho.smooth), math.pi)
            exact = ig.smooth.taylor0()
            jets = ig.jets(len(exact) + 1)
            for j, h in enumerate(jets):
                want = exact[j] if j < len(exact) else 0.0
                assert h == pytest.approx(want, rel=1e-12, abs=0.0), (n, j)
            smooth = OperatorApplied(smooth, a, c * c)
            a += 2.0
