"""Tests for singular profiles and the smooth-factor algebra."""

import math
import re
import warnings

import numpy as np
import pytest
from numpy.polynomial.polynomial import polyder, polyval

from singularheat.coeff import ExponentPair
from singularheat.errors import DomainError, RangeError
from singularheat.profiles import (_RAMP, IntertwinedFactor,
                                   PlateauCutoff, Polynomial, Product,
                                   SingularProfile, SmoothFunction, constant,
                                   plateau_profile)
from singularheat.regint import i_reg

from handles import FromCallable, d_step


def _jets(smooth, order):
    """smooth^(k)(0) / k! for k = 0..order, from one derivatives pass."""
    d = smooth.derivatives(np.array([0.0]), order)
    return [d[k][0] / math.factorial(k) for k in range(order + 1)]


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
    assert p.derivatives(x, 1)[1] == pytest.approx(-2 + x + 9 * x ** 2)
    assert p.derivatives(x, 2)[2] == pytest.approx(1 + 18 * x)
    assert p.taylor0() == (1.0, -2.0, 0.5, 3.0)
    # no breakpoint: the Taylor data is exact on every collar, so a collar
    # as wide as the domain (or wider) is the closed form alone
    exact = sum(cj * 1.7 ** (j + 0.5) / (j + 0.5)
                for j, cj in enumerate(p.coeffs))
    for collar in (1.7, 5.0):
        assert i_reg(0.5, p, 1.7, collar) == pytest.approx(exact, rel=1e-14)


def test_polynomial_matches_numpy_bitwise():
    # the hand-written polyder/polyval keep numpy's operation order, also
    # past the degree, for integer coefficients, for a 0-d argument and for
    # a Python float, which is evaluated in Python floats
    x = np.array([0.0, 0.3, 1.7, 12.5])
    for coeffs in ((1.0, -2.0, 0.5, 3.0), (3, -7, 2), (-0.25,), (1e300, 3.0)):
        for order in range(len(coeffs) + 2):
            got = Polynomial(coeffs).derivatives(x, order)
            for k, g in enumerate(got):
                want = polyval(x, polyder(coeffs, k))
                assert g.tobytes() == want.tobytes(), (coeffs, k)
            for v in x.tolist():
                got = Polynomial(coeffs).derivatives(v, order)
                for k, g in enumerate(got):
                    want = polyval(np.asarray(v), polyder(coeffs, k))
                    assert type(g) is float, (coeffs, v, k)
                    assert np.asarray(g).tobytes() == want.tobytes(), \
                        (coeffs, v, k)
    got = Polynomial((1.0, -2.0, 0.5)).derivatives(np.asarray(0.7), 1)
    want = [polyval(np.asarray(0.7), polyder((1.0, -2.0, 0.5), k))
            for k in range(2)]
    assert [type(g) for g in got] == [type(w) for w in want]
    assert got == want


def test_plateau_cutoff_shape():
    cut = PlateauCutoff(0.8)
    assert cut.breakpoints == (0.4, 0.8)
    x = np.array([0.0, 0.2, 0.4, 0.8, 1.5])
    assert cut(x) == pytest.approx([1.0, 1.0, 1.0, 0.0, 0.0], abs=1e-15)
    assert 0.0 < cut(np.array([0.6]))[0] < 1.0
    # C^2 across both breakpoints
    for b in cut.breakpoints:
        for k in (0, 1, 2):
            lo = cut.derivatives(np.array([b - 1e-9]), k)[k][0]
            hi = cut.derivatives(np.array([b + 1e-9]), k)[k][0]
            assert lo == pytest.approx(hi, abs=1e-6)
    # derivative vs central differences inside the ramp
    for k in (1, 2):
        got = cut.derivatives(np.array([0.6]), k)[k][0]
        want = central_diff(lambda t: cut(np.array([t]))[0], 0.6, k, h=1e-4)
        assert got == pytest.approx(want, rel=1e-7, abs=1e-7)
    # NaN fails r0 > 0 too; the smallest double's half rounds to 0
    for r0 in (-1.0, 0.0, math.nan, 5e-324):
        with pytest.raises(DomainError, match="cutoff radius"):
            PlateauCutoff(r0)
    assert PlateauCutoff(1e-323).breakpoints == (5e-324, 1e-323)


def _cutoff_everywhere(r0, x, order):
    """PlateauCutoff.derivatives with the smoothstep evaluated at every
    point, on the ramp coordinate clipped to [0, 1], and its derivatives
    by numpy's polyder and polyval: the reference for the ramp-only
    evaluation."""
    u = (np.asarray(x, float) - 0.5 * r0) / (0.5 * r0)
    v = np.minimum(np.maximum(u, 0.0), 1.0)
    out = [1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v)]
    inside = (u > 0.0) & (u < 1.0)
    for k in range(1, order + 1):
        d = np.zeros_like(u)
        if k <= 5:
            d[inside] = (2.0 / r0) ** k * polyval(u[inside], polyder(_RAMP, k))
        out.append(d)
    return out


def test_plateau_cutoff_ramp_only_matches_everywhere_formula_bitwise():
    grid = np.array([0.0, 0.1, 0.4, 0.45, 0.6, 0.79, 0.8, 1.2, np.nan])
    cases = [(0.8, x, 6) for x in (0.0, 0.4, 0.6, 0.8, 1.2, np.nan)] \
        + [(0.8, grid, 6), (0.8, grid.reshape(3, 3), 6)]
    # where 0.5 r0 is subnormal it rounds: r0 itself maps into the ramp
    # and a point past it to u = 1 exactly.  Only f is compared there; the
    # derivative scale (2/r0)^k overflows in either form
    for r0 in (1e-310, 3e-308):
        x = r0 + np.arange(-4, 5) * np.spacing(r0)
        assert np.any((x != r0) & ((x - 0.5 * r0) / (0.5 * r0) == 1.0))
        cases.append((r0, x, 0))
    for r0, x, top in cases:
        cut = PlateauCutoff(r0)
        for order in range(top + 1):
            got, want = cut.derivatives(x, order), _cutoff_everywhere(r0, x, order)
            if isinstance(x, float):
                # a Python float is evaluated in Python floats
                want = [float(w) for w in want]
            assert len(got) == len(want) == order + 1
            for k, (g, w) in enumerate(zip(got, want)):
                assert type(g) is type(w) and np.shape(g) == np.shape(w), \
                    (r0, x, order, k)
                assert np.asarray(g).tobytes() == np.asarray(w).tobytes(), \
                    (r0, x, order, k)
    assert np.isnan(PlateauCutoff(0.8)(np.nan))


def test_plateau_cutoff_rejects_an_overflowing_derivative_scale():
    # where (2/r0)^k is not a finite double the k-th derivative on the
    # ramp raises RangeError naming the order and the radius: no
    # OverflowError, inf or nan.  The orders below it stay finite, and off
    # the ramp (the Taylor data at 0) every derivative is 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # at 2e-154, (2/r0)^2 is finite but its product with the ramp's
        # second derivative is not
        for r0, k in ((1e-310, 1), (3e-308, 2), (1e-150, 3), (2e-154, 2)):
            cut = PlateauCutoff(r0)
            for x in (0.6 * r0, np.array([0.0, 0.6 * r0, 0.75 * r0, 2 * r0])):
                with pytest.raises(RangeError, match=rf"order {k}\b.*"
                                   + re.escape(repr(r0))):
                    cut.derivatives(x, k)
                for d in cut.derivatives(x, k - 1):
                    assert np.all(np.isfinite(d)), (r0, k)
            off = cut.derivatives(np.array([0.0, 0.25 * r0, 2 * r0]), 6)
            assert not np.any(off[1:]), r0
            assert cut.taylor0() == (1.0,)


def test_product_combines_taylor_and_breakpoints():
    p = Product(PlateauCutoff(0.8), Polynomial((2.0, 1.0)))
    assert p.breakpoints == (0.4, 0.8)
    assert p.taylor0() == pytest.approx((2.0, 1.0))
    # the Taylor data is exact up to the first breakpoint, 0.4, only
    i_reg(0.5, p, 3.0, 0.4)
    with pytest.raises(DomainError):
        i_reg(0.5, p, 3.0, 0.41)
    x = np.array([0.1, 0.6])
    assert p(x) == pytest.approx(PlateauCutoff(0.8)(x) * (2.0 + x))
    got = p.derivatives(np.array([0.6]), 2)[2][0]
    want = central_diff(lambda t: p(np.array([t]))[0], 0.6, 2, h=1e-4)
    assert got == pytest.approx(want, rel=1e-6)


def test_cache_keys_are_immutable_values():
    """Equal fields make equal values with equal hashes: profiles built
    apart from one set of numbers are one value."""
    make = [lambda: plateau_profile(0.3, np.pi, 0.5),
            lambda: Product(PlateauCutoff(0.5), Polynomial((1.0, 2.0))),
            lambda: IntertwinedFactor(constant(), 0.3, 0.5, 1),
            lambda: d_step(constant(), 0.3, 0.5),
            lambda: ExponentPair(0.3, 0.4)]
    for build in make:
        a, b = build(), build()
        assert a is not b and a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
    assert plateau_profile(0.3, np.pi, 0.5) != plateau_profile(0.3, np.pi, 0.6)
    # equal fields of another type are another value
    assert Product(0.3, 0.4) != ExponentPair(0.3, 0.4)
    for value, name in ((plateau_profile(0.3, np.pi, 0.5), "alpha"),
                        (PlateauCutoff(0.5), "r0"),
                        (ExponentPair(0.3, 0.4), "alpha1")):
        with pytest.raises(AttributeError, match=name):
            setattr(value, name, 0.2)


def test_from_callable_guard():
    f = FromCallable(np.sin, (np.cos,))
    x = np.array([0.3])
    assert f(x) == pytest.approx(np.sin(x))
    assert f.derivatives(x, 1)[1] == pytest.approx(np.cos(x))
    with pytest.raises(RangeError):
        f.derivatives(x, 2)
    # a handle has no Taylor data, and says which class it is
    for read in (f.taylor_degree, f.taylor0):
        with pytest.raises(DomainError, match="FromCallable"):
            read()


def test_singular_profile_validation_and_pieces():
    prof = plateau_profile(0.7, L=np.pi, cutoff_radius=0.8)
    x = np.array([0.1, 0.3])
    assert prof(x) == pytest.approx(x ** -0.7)
    assert prof.support_end() == pytest.approx(0.8)
    assert prof.pieces() == [(0.0, 0.4), (0.4, 0.8)]
    assert _jets(prof.smooth, 2) == pytest.approx([1.0, 0.0, 0.0])
    full = SingularProfile(0.7, Polynomial((1.0, 2.0)), L=2.0)
    assert full.pieces() == [(0.0, 2.0)]
    assert _jets(full.smooth, 1) == pytest.approx([1.0, 2.0])
    with pytest.raises(DomainError):
        SingularProfile(1.2, constant(), L=1.0)
    for alpha in (math.nan, -math.inf, math.inf):
        with pytest.raises(DomainError, match="alpha"):
            SingularProfile(alpha, constant(), L=1.0)
    for L in (0.0, math.nan):
        with pytest.raises(DomainError, match="domain length"):
            SingularProfile(0.3, constant(), L=L)
    with pytest.raises(DomainError):
        plateau_profile(0.3, L=1.0, cutoff_radius=2.0)
    # a complex exponent is rejected when the profile is built
    for alpha in (0.3 + 0.2j, 0.3 + 0.0j, np.complex128(-0.5 + 1e-3j)):
        with pytest.raises(DomainError):
            SingularProfile(alpha, constant(), L=1.0)
        with pytest.raises(DomainError):
            plateau_profile(alpha, 1.0, 0.5)


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
    # Taylor data of g = (a s - x s') + c x s, expanded by hand
    assert fac.taylor0() == pytest.approx((-0.4, 1.3, -0.9, 0.15), rel=1e-12)


def test_d_chain_matches_operator():
    # D phi for D = A*A = -d^2/dx^2 + c^2 applied to phi = x^(-a) s(x)
    # must equal x^(-(a+2)) times the smooth factor of the chain
    a, c = 0.35, 0.7
    c2 = c * c
    s = Polynomial((1.0, 0.3, -0.2, 0.1))
    fac = d_step(s, a, c)
    phi = lambda x: x ** -a * s(np.array([x]))[0]
    for x in (0.4, 1.1, 2.3):
        want = -central_diff(phi, x, 2, h=1e-3) + c2 * phi(x)
        got = x ** -(a + 2) * fac(np.array([x]))[0]
        assert got == pytest.approx(want, rel=1e-5, abs=1e-8)
    # Taylor data of g = -a(a+1) s + 2a x s' - x^2 s'' + c^2 x^2 s,
    # expanded by hand
    assert fac.taylor0() == pytest.approx(
        (-0.4725, 0.06825, 0.7045, -0.29025, -0.098, 0.049), rel=1e-12)
    # derivative oracle away from 0
    got = fac.derivatives(np.array([0.9]), 2)[2][0]
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
    if isinstance(f, IntertwinedFactor):
        x = np.asarray(x, float)
        term = f.sign * (f.a * d(f.s, k) - (x * d(f.s, k + 1) + k * d(f.s, k)))
        if k >= 1:
            return term + f.c * (x * d(f.s, k) + k * d(f.s, k - 1))
        return term + f.c * x * d(f.s, k)
    return f.derivatives(x, k)[k]


def _sine():
    # sin and its first 12 derivatives, sin(x + k pi / 2)
    return FromCallable(np.sin, tuple(
        (lambda x, k=k: np.sin(x + 0.5 * k * np.pi)) for k in range(1, 13)))


def test_derivatives_match_deriv_bitwise():
    cut, poly = PlateauCutoff(0.8), Polynomial((1.0, -0.5, 0.25, 0.1))
    nested = [
        cut, poly, _sine(),
        Product(cut, poly),
        d_step(IntertwinedFactor(Product(cut, poly), -0.3, 0.6, +1),
               0.35, 0.7),
        Product(IntertwinedFactor(d_step(_sine(), 0.2, 0.5),
                                  0.1, -0.4, -1), Product(poly, cut)),
        IntertwinedFactor(Product(d_step(cut, 0.3, 0.0), _sine()),
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
            assert np.asarray(f.derivatives(x, k)[k], float).tobytes() \
                == want, (f, k)
            assert np.asarray(_recursive_deriv(f, x, k), float).tobytes() \
                == want, (f, k)


def test_nested_factor_calls_each_leaf_handle_once_per_order():
    # D^6 of a product, times a third factor, at order 8: a per-order
    # recursion would call these handles thousands of times
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
        f = d_step(f, 0.35, 0.5)
    f = Product(f, leaf("w", 0.7, 8))
    f.derivatives(np.linspace(0.1, 1.0, 5), 8)
    assert len(calls) == 21 + 21 + 9
    assert max(calls.values()) == 1


def test_every_smooth_class_reads_one_protocol_bitwise():
    # f(x) is the order-0 entry, and a higher order list starts with the
    # lower order one, for one instance of every class in the package
    cut, poly = PlateauCutoff(0.8), Polynomial((1.0, -0.5, 0.25, 0.1))
    fs = [cut, poly, _sine(), Product(cut, poly),
          d_step(Product(cut, poly), 0.35, 0.7),
          IntertwinedFactor(Product(_sine(), cut), -0.3, 0.6, +1)]
    assert {type(f) for f in fs} == set(SmoothFunction.__subclasses__())
    # Taylor data has one entry per order up to the stated degree
    for f in fs[:2] + fs[3:5]:
        assert len(f.taylor0()) == f.taylor_degree() + 1, f
    # a handle states none, and neither does a factor built on one
    for f in (fs[2], fs[5]):
        for read in (f.taylor_degree, f.taylor0):
            with pytest.raises(DomainError, match="FromCallable"):
                read()
    for x in (np.array([0.0, 0.1, 0.37, 0.4, 0.45, 0.6, 0.79, 0.8, 1.2]),
              0.6, 0.2):
        for f in fs:
            assert np.asarray(f(x)).tobytes() \
                == np.asarray(f.derivatives(x, 0)[0]).tobytes(), f
            for k in range(1, 5):
                full = f.derivatives(x, k)
                for j in range(k):
                    low = f.derivatives(x, j)
                    assert len(low) == j + 1
                    for i in range(j + 1):
                        assert np.asarray(full[i]).tobytes() \
                            == np.asarray(low[i]).tobytes(), (f, k, j, i)
