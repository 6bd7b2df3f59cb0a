"""Tests for the tanh-sinh grid and the Gauss-Legendre rules."""

import math

import mpmath
import numpy as np
import pytest

from singularheat.errors import QuadratureError
from singularheat.heat1d import tanh_sinh_nodes
from singularheat.quadrature import GAUSS8

from handles import gauss_legendre, tanh_sinh


def test_power_singularity_left_endpoint():
    val, err = tanh_sinh(lambda x: x ** -0.9, 0.0, 1.0)
    assert val == pytest.approx(10.0, rel=1e-12)
    assert err < 1e-8


def test_complex_exponent():
    for alpha in (0.3 - 0.2j, 0.5 + 0.1j, 0.0):
        val, err = tanh_sinh(lambda x: x ** -alpha, 0.0, 1.0)
        assert val == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)
        assert err < 1e-8


def test_log_singularity():
    val, _ = tanh_sinh(np.log, 0.0, 1.0)
    assert val == pytest.approx(-1.0, rel=1e-12)


def test_both_endpoints_singular_by_splitting():
    # full precision is kept at the left endpoint, so integrands singular
    # at both ends are split so each half is singular at its left end only
    half, _ = tanh_sinh(lambda x: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 0.5)
    assert 2.0 * half == pytest.approx(math.pi, rel=1e-12)


def test_shifted_interval():
    val, _ = tanh_sinh(lambda x: np.exp(-x), 2.0, 5.0)
    assert val == pytest.approx(math.exp(-2) - math.exp(-5), rel=1e-12)


def test_err_bounds_smooth_integrals():
    # on smooth integrands two levels can agree bitwise (for e^{-x} the
    # level difference reads 0 with the value 6e-17 off), so err needs its
    # rounding floor
    with mpmath.workdps(30):
        cases = ((lambda x: np.exp(-x), 1 - mpmath.exp(-mpmath.pi)),
                 (lambda x: np.exp(2 * x), (mpmath.exp(2 * mpmath.pi) - 1) / 2))
        for f, exact in cases:
            val, err = tanh_sinh(f, 0.0, math.pi)
            assert abs(val - exact) <= err, (val, err)
            assert err <= 1e-12 * abs(val)


def test_rejects_empty_interval():
    for b in (1.0, 0.5):
        with pytest.raises(QuadratureError):
            tanh_sinh(lambda x: x, 1.0, b)


def test_rejects_divergent_integrand():
    with pytest.raises(QuadratureError):
        tanh_sinh(lambda x: 1.0 / x, 0.0, 1.0)


def test_calls_f_once_with_one_array():
    # the reference rule evaluates f once, on the whole grid
    calls = []

    def f(x):
        calls.append(x)
        return x ** -0.5

    tanh_sinh(f, 0.0, 2.0)
    assert len(calls) == 1
    (x,) = calls
    assert isinstance(x, np.ndarray) and x.ndim == 1
    assert x.size == tanh_sinh_nodes(0.0, 2.0)[0].size


def test_fixed_grid_matches_mpmath():
    # plain mpmath.quad of x^-0.7 cos x is 2e-10 off; cos x - 1 removes
    # the singularity and x^-0.7 integrates in closed form
    with mpmath.workdps(30):
        a = mpmath.mpf(0.7)
        want = mpmath.quad(lambda x: x ** -a * (mpmath.cos(x) - 1), [0, 2]) \
            + 2 ** (1 - a) / (1 - a)
    x, w, w_coarse = tanh_sinh_nodes(0.0, 2.0)
    fx = x ** -0.7 * np.cos(x)
    fine = np.dot(w, fx)
    coarse = np.dot(w_coarse, fx)
    assert abs(fine - want) <= 1e-14 * abs(want)
    assert abs(fine - coarse) < 1e-10
    val, err = tanh_sinh(lambda x: x ** -0.7 * np.cos(x), 0.0, 2.0)
    assert val == fine and abs(val - want) <= err


def test_fixed_grid_nodes_inside_interval():
    x, w, w_coarse = tanh_sinh_nodes(0.0, 1.0)
    assert np.all(x > 0.0) and np.all(x <= 1.0)
    assert np.all(w > 0.0)
    assert w.shape == w_coarse.shape == x.shape == (1515,)
    assert w.sum() == pytest.approx(1.0, rel=1e-10)
    # the midpoint and 757 nodes u = k/128 on each side; the rule of twice
    # the step takes the even k at twice the weight
    coarse = w_coarse != 0.0
    assert np.count_nonzero(coarse) == 757
    assert np.array_equal(w_coarse[coarse], 2.0 * w[coarse])


def test_gauss_legendre_polynomial_exact():
    val = gauss_legendre(lambda x: 3 * x ** 2, -1.0, 2.0, n=8)
    assert val == pytest.approx(9.0, rel=1e-14)
    val = gauss_legendre(np.sin, 0.0, math.pi, n=80)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_gauss8_rule_is_leggauss_bitwise():
    # the literal 8-point rule of the moment table's lattice cells and of
    # regint's panels is numpy's leggauss(8), bit for bit, and read-only:
    # tuples of Python floats
    nodes, weights = np.polynomial.legendre.leggauss(8)
    assert np.array(GAUSS8[0]).tobytes() == nodes.tobytes()
    assert np.array(GAUSS8[1]).tobytes() == weights.tobytes()
    assert type(GAUSS8) is tuple
    assert all(type(v) is float for row in GAUSS8 for v in row)
