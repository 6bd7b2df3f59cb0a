"""Tests for singular profiles and the smooth-factor algebra."""

import math

import numpy as np
import pytest

from singularheat.errors import DomainError, RangeError
from singularheat.profiles import (FromCallable, IntertwinedFactor,
                                   OperatorApplied, PlateauCutoff, Polynomial,
                                   Product, SingularProfile, constant,
                                   plateau_profile)


def central_diff(fn, x, k, h=1e-3):
    """Simple high-order central difference oracle for small k."""
    if k == 0:
        return fn(x)
    if k == 1:
        return (fn(x - 2 * h) - 8 * fn(x - h) + 8 * fn(x + h)
                - fn(x + 2 * h)) / (12 * h)
    if k == 2:
        return (-fn(x - 2 * h) + 16 * fn(x - h) - 30 * fn(x)
                + 16 * fn(x + h) - fn(x + 2 * h)) / (12 * h * h)
    raise ValueError(k)


def test_polynomial_eval_and_deriv():
    p = Polynomial((1.0, -2.0, 0.5, 3.0))
    x = np.array([0.0, 0.3, 1.7])
    assert p(x) == pytest.approx(1 - 2 * x + 0.5 * x ** 2 + 3 * x ** 3)
    assert p.deriv(x, 1) == pytest.approx(-2 + x + 9 * x ** 2)
    assert p.deriv(x, 2) == pytest.approx(1 + 18 * x)
    assert p.taylor0() == (1.0, -2.0, 0.5, 3.0)
    assert p.taylor_radius() == math.inf


def test_plateau_cutoff_shape():
    cut = PlateauCutoff(0.8)
    assert cut.breakpoints == (0.4, 0.8)
    x = np.array([0.0, 0.2, 0.4, 0.8, 1.5])
    assert cut(x) == pytest.approx([1.0, 1.0, 1.0, 0.0, 0.0], abs=1e-15)
    assert 0.0 < cut(np.array([0.6]))[0] < 1.0
    # C^2 across both breakpoints
    for b in cut.breakpoints:
        for k in (0, 1, 2):
            lo = cut.deriv(np.array([b - 1e-9]), k)[0]
            hi = cut.deriv(np.array([b + 1e-9]), k)[0]
            assert lo == pytest.approx(hi, abs=1e-6)
    # derivative vs central differences inside the ramp
    for k in (1, 2):
        got = cut.deriv(np.array([0.6]), k)[0]
        want = central_diff(lambda t: cut(np.array([t]))[0], 0.6, k, h=1e-4)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
    with pytest.raises(DomainError):
        PlateauCutoff(-1.0)


def test_product_combines_taylor_and_breakpoints():
    p = Product(PlateauCutoff(0.8), Polynomial((2.0, 1.0)))
    assert p.breakpoints == (0.4, 0.8)
    assert p.taylor0() == pytest.approx((2.0, 1.0))
    assert p.taylor_radius() == pytest.approx(0.4)
    x = np.array([0.1, 0.6])
    assert p(x) == pytest.approx(PlateauCutoff(0.8)(x) * (2.0 + x))
    got = p.deriv(np.array([0.6]), 2)[0]
    want = central_diff(lambda t: p(np.array([t]))[0], 0.6, 2, h=1e-4)
    assert got == pytest.approx(want, rel=1e-6)


def test_from_callable_guard():
    f = FromCallable(np.sin, (np.cos,))
    x = np.array([0.3])
    assert f(x) == pytest.approx(np.sin(x))
    assert f.deriv(x, 1) == pytest.approx(np.cos(x))
    with pytest.raises(RangeError):
        f.deriv(x, 2)
    assert f.taylor0() is None


def test_singular_profile_validation_and_pieces():
    prof = plateau_profile(0.7, L=np.pi, cutoff_radius=0.8)
    x = np.array([0.1, 0.3])
    assert prof(x) == pytest.approx(x ** -0.7)
    assert prof.support_end() == pytest.approx(0.8)
    assert prof.pieces() == [(0.0, 0.4), (0.4, 0.8)]
    assert prof.jets(2) == pytest.approx([1.0, 0.0, 0.0])
    full = SingularProfile(0.7, Polynomial((1.0, 2.0)), L=2.0)
    assert full.pieces() == [(0.0, 2.0)]
    assert full.jets(1) == pytest.approx([1.0, 2.0])
    with pytest.raises(DomainError):
        SingularProfile(1.2, constant(), L=1.0)
    with pytest.raises(DomainError):
        plateau_profile(0.3, L=1.0, cutoff_radius=2.0)
    with pytest.raises(DomainError):
        _ = SingularProfile(0.3 + 0.2j, constant(), L=1.0).real_alpha
    with pytest.raises(DomainError):
        SingularProfile(0.3 + 0.2j, constant(), L=1.0)(x)
    with pytest.raises(RangeError):
        prof.jets(5)


def test_intertwined_factor_matches_operator():
    # A* phi for A* = -d/dx + c applied to phi = x^(-a) s(x) must equal
    # x^(-(a+1)) times this smooth factor
    a, c = -0.4, 0.6
    s = Polynomial((1.0, -0.5, 0.25))
    fac = IntertwinedFactor(s, a, c, sign=+1)
    phi = lambda x: x ** -a * s(np.array([x]))[0]
    for x in (0.3, 0.9, 1.7):
        want = -central_diff(phi, x, 1, h=1e-4) + c * phi(x)
        got = x ** -(a + 1) * fac(np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-9)
    # A = d/dx + c is the sign=-1 branch
    fac2 = IntertwinedFactor(s, a, c, sign=-1)
    for x in (0.3, 1.7):
        want = central_diff(phi, x, 1, h=1e-4) + c * phi(x)
        got = x ** -(a + 1) * fac2(np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-9)
    # Taylor data consistent with the derivatives at 0
    t = fac.taylor0()
    for k in range(len(t) - 1):
        dk = fac.deriv(np.array([0.0]), k)[0] if k else fac(np.array([0.0]))[0]
        assert t[k] == pytest.approx(dk / math.factorial(k), rel=1e-12)


def test_operator_applied_matches_operator():
    # D phi for D = -d^2/dx^2 + c^2 applied to phi = x^(-a) s(x) must
    # equal x^(-(a+2)) times this smooth factor
    a, c2 = 0.35, 0.49
    s = Polynomial((1.0, 0.3, -0.2, 0.1))
    fac = OperatorApplied(s, a, c2)
    phi = lambda x: x ** -a * s(np.array([x]))[0]
    for x in (0.4, 1.1, 2.3):
        want = -central_diff(phi, x, 2, h=1e-3) + c2 * phi(x)
        got = x ** -(a + 2) * fac(np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-8)
    t = fac.taylor0()
    for k in range(3):
        dk = fac.deriv(np.array([0.0]), k)[0] if k else fac(np.array([0.0]))[0]
        assert t[k] == pytest.approx(dk / math.factorial(k), rel=1e-12, abs=1e-12)
    # derivative oracle away from 0
    got = fac.deriv(np.array([0.9]), 2)[0]
    want = central_diff(lambda x: fac(np.array([x]))[0], 0.9, 2, h=1e-3)
    assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def _recursive_deriv(f, x, k):
    """Per-order recursion with the composites' float expressions: an
    independent reference for the one-pass derivatives lists."""
    d = lambda g, j: _recursive_deriv(g, x, j)
    if isinstance(f, Product):
        if k == 0:
            return d(f.left, 0) * d(f.right, 0)
        total = 0.0
        for i in range(k + 1):
            total = total + math.comb(k, i) * d(f.left, i) * d(f.right, k - i)
        return total
    if isinstance(f, OperatorApplied):
        x = np.asarray(x, float)
        a, c2 = f.a, f.c2
        out = -a * (a + 1) * d(f.s, k)
        out = out + 2 * a * (x * d(f.s, k + 1) + k * d(f.s, k))
        for coef, u in ((-1.0, 2), (c2, 0)):
            term = x * x * d(f.s, k + u)
            if k >= 1:
                term = term + 2 * k * x * d(f.s, k - 1 + u)
            if k >= 2:
                term = term + k * (k - 1) * d(f.s, k - 2 + u)
            out = out + coef * term
        return out
    if isinstance(f, IntertwinedFactor):
        x = np.asarray(x, float)
        term = f.sign * (f.a * d(f.s, k) - (x * d(f.s, k + 1) + k * d(f.s, k)))
        if k >= 1:
            return term + f.c * (x * d(f.s, k) + k * d(f.s, k - 1))
        return term + f.c * x * d(f.s, k)
    return f.deriv(x, k) if k else f(x)


def _sine():
    # sin and its first 12 derivatives, sin(x + k pi / 2)
    return FromCallable(np.sin, tuple(
        (lambda x, k=k: np.sin(x + 0.5 * k * np.pi)) for k in range(1, 13)))


def test_derivatives_match_deriv_bitwise():
    cut, poly = PlateauCutoff(0.8), Polynomial((1.0, -0.5, 0.25, 0.1))
    nested = [
        cut, poly, _sine(),
        Product(cut, poly),
        OperatorApplied(IntertwinedFactor(Product(cut, poly), -0.3, 0.6, +1),
                        0.35, 0.49),
        Product(IntertwinedFactor(OperatorApplied(_sine(), 0.2, 0.25),
                                  0.1, -0.4, -1), Product(poly, cut)),
        IntertwinedFactor(Product(OperatorApplied(cut, 0.3, 0.0), _sine()),
                          0.15, 0.7, +1),
    ]
    x = np.array([0.0, 0.1, 0.37, 0.45, 0.6, 0.79, 1.2])
    order = 5
    for f in nested:
        got = f.derivatives(x, order)
        assert len(got) == order + 1
        assert np.asarray(f(x)).tobytes() == np.asarray(got[0]).tobytes()
        for k in range(order + 1):
            want = np.asarray(got[k], float).tobytes()
            assert np.asarray(f.deriv(x, k), float).tobytes() == want, (f, k)
            assert np.asarray(_recursive_deriv(f, x, k), float).tobytes() \
                == want, (f, k)


def test_nested_factor_calls_each_leaf_handle_once_per_order():
    # D^6 of a product, times a third factor, at order 8: a per-order
    # recursion over deriv would call these handles thousands of times
    calls = {}

    def leaf(name, rate, n):
        def handle(k):
            def h(x):
                calls[name, k] = calls.get((name, k), 0) + 1
                return rate ** k * np.exp(rate * np.asarray(x))
            return h
        return FromCallable(handle(0), tuple(handle(k) for k in range(1, n + 1)))

    f = Product(leaf("u", 0.5, 20), leaf("v", -0.3, 20))
    for _ in range(6):
        f = OperatorApplied(f, 0.35, 0.25)
    f = Product(f, leaf("w", 0.7, 8))
    f.derivatives(np.linspace(0.1, 1.0, 5), 8)
    assert len(calls) == 21 + 21 + 9
    assert max(calls.values()) == 1
