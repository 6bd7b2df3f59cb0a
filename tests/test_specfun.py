"""Tests for the gamma-function layer.

The oracle is independent of the library implementation: it shifts the
argument far to the right with the recurrence log G(z) = log G(z+N) -
sum log(z+k), then evaluates log G(z+N) with the Stirling series at
50-digit precision.  No Lanczos coefficients appear on the oracle side.
"""

import cmath
import math
import random
import struct

import mpmath
import pytest

from singularheat.errors import PoleError, RangeError
from singularheat import specfun
from singularheat.specfun import gamma_ratio, log_gamma

mpmath.mp.dps = 50

_SHIFT = 64
_BERNOULLI_TERMS = 24


def oracle_log_gamma(z):
    """Recurrence shift + Stirling series, right half-plane via reflection."""
    z = mpmath.mpc(z)
    if mpmath.re(z) < 0.5:
        return (mpmath.log(mpmath.pi) - mpmath.log(mpmath.sin(mpmath.pi * z))
                - oracle_log_gamma(1 - z))
    w = z + _SHIFT
    acc = (w - mpmath.mpf(1) / 2) * mpmath.log(w) - w \
        + mpmath.mpf(1) / 2 * mpmath.log(2 * mpmath.pi)
    for k in range(1, _BERNOULLI_TERMS + 1):
        b = mpmath.bernoulli(2 * k)
        acc += b / (2 * k * (2 * k - 1) * w ** (2 * k - 1))
    for k in range(_SHIFT):
        acc -= mpmath.log(z + k)
    return acc


def oracle_gamma(z):
    return complex(mpmath.exp(oracle_log_gamma(z)))


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def test_oracle_sanity():
    # the oracle itself must reproduce exact values before it judges anything
    assert abs(oracle_gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(oracle_gamma(5.0) - 24.0) < 1e-12
    assert abs(oracle_gamma(1.0) - 1.0) < 1e-15


def test_log_gamma_matches_oracle_on_grid():
    rng = random.Random(3141592653)
    for _ in range(300):
        z = complex(rng.uniform(-19, 19), rng.uniform(-19, 19))
        if abs(z.imag) < 0.05 and z.real < 0.5:
            continue  # stay away from the pole line
        got = cmath.exp(log_gamma(z))
        want = oracle_gamma(z)
        assert _rel(got, want) < 1e-13, f"z={z}"


def test_log_gamma_large_imaginary_part():
    # the reflection holds up to where sin(pi z) overflows, then raises
    for z in (0.4 + 150j, -0.7 + 6.5j, -40.2 - 220j):
        want = complex(oracle_log_gamma(z))
        assert _rel(log_gamma(z), want) < 1e-13, f"z={z}"
    for z in (0.3 + 800j, 0.3 - 800j, -40.2 - 230j, -3.5 + 5e4j):
        with pytest.raises(RangeError):
            log_gamma(z)


def test_log_gamma_example_point():
    z = 3.7 + 1.2j
    assert _rel(cmath.exp(log_gamma(z)), oracle_gamma(z)) < 1e-14


def test_log_gamma_real_positive_is_real():
    for x in (0.3, 1.0, 2.5, 7.75, 19.0):
        assert log_gamma(x).imag == pytest.approx(0.0, abs=1e-15)


def test_recurrence_identity():
    rng = random.Random(7)
    for _ in range(200):
        z = complex(rng.uniform(-15, 15), rng.uniform(-15, 15))
        if abs(z.imag) < 0.05:
            continue
        lhs = cmath.exp(log_gamma(z + 1))
        rhs = z * cmath.exp(log_gamma(z))
        assert _rel(lhs, rhs) < 1e-12, f"z={z}"


def test_reflection_identity():
    rng = random.Random(11)
    for _ in range(200):
        z = complex(rng.uniform(-10, 10), rng.uniform(0.1, 10))
        lhs = cmath.exp(log_gamma(z)) * cmath.exp(log_gamma(1 - z))
        rhs = cmath.pi / cmath.sin(cmath.pi * z)
        assert _rel(lhs, rhs) < 1e-12, f"z={z}"


def test_conjugation_symmetry():
    rng = random.Random(13)
    for _ in range(100):
        z = complex(rng.uniform(0.5, 15), rng.uniform(0.05, 15))
        assert _rel(log_gamma(z.conjugate()), log_gamma(z).conjugate()) < 1e-13


def test_pole_rejection():
    for z in (0.0, -1.0, -7.0, -3.0 + 1e-13j, 1e-13):
        with pytest.raises(PoleError):
            log_gamma(z)
    # nearby but outside tolerance is fine
    assert math.isfinite(log_gamma(-3.0 + 1e-6).real)


def test_gamma_ratio_cancels_overflow():
    # each factor alone overflows double precision; the ratio must not
    val = gamma_ratio([200.1], [200.0])
    want = complex(mpmath.exp(oracle_log_gamma(200.1) - oracle_log_gamma(200.0)))
    assert _rel(val, want) < 1e-12


def test_gamma_ratio_denominator_pole_gives_zero():
    assert gamma_ratio([2.5], [-3.0]) == 0.0
    assert gamma_ratio([2.5, 1.5], [0.0, 4.0]) == 0.0


def test_gamma_ratio_numerator_pole_raises():
    with pytest.raises(PoleError):
        gamma_ratio([-2.0], [3.0])


def test_beta_symmetry():
    # B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) as the coefficients form it
    rng = random.Random(17)
    for _ in range(100):
        a = complex(rng.uniform(0.05, 5), rng.uniform(-2, 2))
        b = complex(rng.uniform(0.05, 5), rng.uniform(-2, 2))
        assert gamma_ratio([a, b], [a + b]) == gamma_ratio([b, a], [b + a])


def test_beta_against_quadrature_oracle():
    # B(1-a2, 1-a1) = int_0^1 u^(-a2) (1-u)^(-a1) du, by tanh-sinh quadrature.
    # Split at 1/2 and reflect so each half is singular at 0 only, where
    # the node offsets are exact.
    from handles import tanh_sinh
    a1, a2 = 0.7, 0.6
    v1, e1 = tanh_sinh(lambda u: u ** (-a2) * (1 - u) ** (-a1), 0.0, 0.5)
    v2, e2 = tanh_sinh(lambda v: (1 - v) ** (-a2) * v ** (-a1), 0.0, 0.5)
    val = v1 + v2
    assert e1 + e2 < 1e-12 * abs(val)
    assert _rel(gamma_ratio([1 - a2, 1 - a1], [2 - a1 - a2]), val) < 1e-12


def test_gamma_half():
    assert _rel(cmath.exp(log_gamma(0.5)), math.sqrt(math.pi)) < 1e-14


def _bits(z):
    return struct.pack("dd", z.real, z.imag)


def test_log_gamma_memo_is_transparent():
    # a warm read equals a cold evaluation bit for bit; the two signed
    # zeros are separate entries, each call order reading its own branch
    plus, minus = complex(-0.7, 0.0), complex(-0.7, -0.0)
    zs = [0.5, 2.5 + 3j, -1.7 + 0.2j, -2.3, complex(-2.3, -0.0), plus, minus]
    cold = []
    for z in zs:
        specfun._log_gamma.cache_clear()
        cold.append(_bits(log_gamma(z)))
    assert log_gamma(plus).imag == pytest.approx(math.pi)
    assert log_gamma(minus).imag == pytest.approx(-math.pi)
    for order in (range(len(zs)), range(len(zs) - 1, -1, -1)):
        specfun._log_gamma.cache_clear()
        for _ in range(2):
            for i in order:
                assert _bits(log_gamma(zs[i])) == cold[i], zs[i]
    assert specfun._log_gamma.cache_info().currsize == len(zs)


def test_log_gamma_memo_keeps_no_error():
    specfun._log_gamma.cache_clear()
    for z in (-3.0, complex(math.inf, 0.0), 0.3 + 300j):
        for _ in range(2):
            with pytest.raises((PoleError, RangeError)):
                log_gamma(z)
    assert specfun._log_gamma.cache_info().currsize == 0
