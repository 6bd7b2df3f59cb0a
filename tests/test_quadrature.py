"""Tests for the tanh-sinh and Gauss-Legendre integrators."""

import math

import mpmath
import numpy as np
import pytest

from singularheat.errors import QuadratureError
from singularheat.quadrature import tanh_sinh_lanes, tanh_sinh_nodes

from handles import gauss_legendre


def test_power_singularity_left_endpoint():
    (val,), (err,) = tanh_sinh_lanes(lambda x, rows: x ** -0.9, 0.0, 1.0)
    assert val == pytest.approx(10.0, rel=1e-12)
    assert err < 1e-8


def test_complex_exponent():
    alpha = 0.3 - 0.2j
    (val,), _ = tanh_sinh_lanes(lambda x, rows: x ** -alpha, 0.0, 1.0)
    assert val == pytest.approx(1.0 / (1.0 - alpha), rel=1e-12)


def test_log_singularity():
    (val,), _ = tanh_sinh_lanes(lambda x, rows: np.log(x), 0.0, 1.0)
    assert val == pytest.approx(-1.0, rel=1e-12)


def test_both_endpoints_singular_by_splitting():
    # full precision is kept at the left endpoint, so integrands singular
    # at both ends are split so each half is singular at its left end only
    (half,), _ = tanh_sinh_lanes(
        lambda x, rows: 1.0 / np.sqrt(x * (1.0 - x)), 0.0, 0.5)
    assert 2.0 * half == pytest.approx(math.pi, rel=1e-12)


def test_shifted_interval():
    (val,), _ = tanh_sinh_lanes(lambda x, rows: np.exp(-x), 2.0, 5.0)
    assert val == pytest.approx(math.exp(-2) - math.exp(-5), rel=1e-12)


def test_err_bounds_smooth_integrals():
    # on smooth integrands two levels can agree bitwise (for e^{-x} the
    # level difference reads 0 with the value 6e-17 off), so err needs its
    # rounding floor
    with mpmath.workdps(30):
        cases = ((lambda x: np.exp(-x), 1 - mpmath.exp(-mpmath.pi)),
                 (lambda x: np.exp(2 * x), (mpmath.exp(2 * mpmath.pi) - 1) / 2))
        for f, exact in cases:
            (val,), (err,) = tanh_sinh_lanes(lambda x, rows: f(x), 0.0,
                                             math.pi)
            assert abs(val - exact) <= err, (val, err)
            assert err <= 1e-12 * abs(val)


def test_rejects_empty_interval():
    with pytest.raises(QuadratureError):
        tanh_sinh_lanes(lambda x, rows: x, 1.0, 1.0)


def test_rejects_divergent_integrand():
    with pytest.raises(QuadratureError):
        tanh_sinh_lanes(lambda x, rows: 1.0 / x, 0.0, 1.0, tol=1e-12)


def test_fixed_grid_matches_adaptive():
    f = lambda x: x ** -0.7 * np.cos(x)
    (want,), _ = tanh_sinh_lanes(lambda x, rows: f(x), 0.0, 2.0)
    x, w, w_coarse = tanh_sinh_nodes(0.0, 2.0, level=7)
    fine = np.dot(w, f(x))
    coarse = np.dot(w_coarse, f(x))
    assert fine == pytest.approx(want, rel=1e-12)
    assert abs(fine - coarse) < 1e-10


def test_fixed_grid_nodes_inside_interval():
    x, w, w_coarse = tanh_sinh_nodes(0.0, 1.0, level=5)
    assert np.all(x > 0.0) and np.all(x <= 1.0)
    assert np.all(w > 0.0)
    assert w.shape == w_coarse.shape == x.shape
    assert w.sum() == pytest.approx(1.0, rel=1e-10)


def test_gauss_legendre_polynomial_exact():
    val = gauss_legendre(lambda x: 3 * x ** 2, -1.0, 2.0, n=8)
    assert val == pytest.approx(9.0, rel=1e-14)
    val = gauss_legendre(np.sin, 0.0, math.pi, n=80)
    assert val == pytest.approx(2.0, rel=1e-13)


def test_lanes_match_one_lane_calls():
    # 50 lanes with their own exponent, pole distance and interval, so
    # they stop at different levels; each lane's sums use the same dot
    # kernel as its one-lane call, so value and err agree bitwise (the
    # contract is 1e-15 relative for the value and 1e-6 for err)
    K = 50
    alpha = np.linspace(0.05, 0.9, K)
    eps = np.geomspace(0.05, 1.0, K)
    a = np.where(np.arange(K) % 3 == 0, 0.0, np.linspace(0.0, 0.4, K))
    b = a + np.linspace(0.5, 3.0, K)
    running = []

    def f(x, rows):
        running.append(len(rows))
        return x ** -alpha[rows, None] \
            / (eps[rows, None] ** 2 + (x - 0.3) ** 2)

    val, err = tanh_sinh_lanes(f, a, b)
    assert val.shape == err.shape == (K,)
    assert running[0] == K and len(set(running)) > 2  # lanes retire early
    for k in range(K):
        (want,), (want_err,) = tanh_sinh_lanes(
            lambda x, rows: x ** -alpha[k] / (eps[k] ** 2 + (x - 0.3) ** 2),
            a[k], b[k])
        assert val[k] == want and err[k] == want_err, k


def test_lanes_complex_integrand():
    alpha = np.array([0.3 - 0.2j, 0.5 + 0.1j, 0.0])
    val, err = tanh_sinh_lanes(lambda x, rows: x ** -alpha[rows, None],
                               np.zeros(3), np.ones(3))
    assert val.dtype == complex
    assert np.allclose(val, 1.0 / (1.0 - alpha), rtol=1e-12, atol=0.0)
    assert np.all(err < 1e-8)


def test_lanes_reject_divergent_lane():
    p = np.array([-0.5, -1.0, 0.3])  # the 1/x lane diverges
    with pytest.raises(QuadratureError):
        tanh_sinh_lanes(lambda x, rows: x ** p[rows, None], np.zeros(3),
                        np.ones(3), tol=1e-12)


def test_lanes_reject_empty_interval():
    a = np.array([0.0, 1.0, 0.0])
    for b in ([0.0, 2.0, 3.0], [1.0, 1.0, 3.0], [1.0, 2.0, -1.0]):
        with pytest.raises(QuadratureError):
            tanh_sinh_lanes(lambda x, rows: x, a, np.array(b))


def test_lanes_zero_lanes_return_empty():
    def never(x, rows):
        raise AssertionError("integrand called with no lanes")

    val, err = tanh_sinh_lanes(never, np.empty(0), np.empty(0))
    assert val.shape == err.shape == (0,)
