"""Reference values the benchmark checks outputs against.

These are written with math.gamma and plain numpy only, so that they stay
independent of the package's own special functions (specfun, coeff, geom)
and of its simulators.
"""

from __future__ import annotations

import math

import numpy as np


def _rgamma(x: float) -> float:
    """1 / Gamma(x), exactly 0 at the poles."""
    if x <= 0.0 and x == round(x):
        return 0.0
    return 1.0 / math.gamma(x)


def base_eps(sign: int, a1: float, a2: float) -> float:
    """Order-0 boundary coefficient; sign -1 Dirichlet, +1 Robin/Neumann."""
    s = a1 + a2
    half = math.gamma(0.5 * (2.0 - s))
    term1 = sign * half * math.gamma(1.0 - a1) * math.gamma(1.0 - a2) \
        * _rgamma(2.0 - s)
    term2 = half * math.gamma(s - 1.0) * (math.gamma(1.0 - a1) * _rgamma(a2)
                                          + math.gamma(1.0 - a2) * _rgamma(a1))
    return 2.0 ** (-s) / math.sqrt(math.pi) * (term1 + term2)


def robin_eps15(a1: float, a2: float) -> float:
    """Robin constant multiplying SR * phi0 * rho0 in the j = 1 term."""
    s = a1 + a2
    return 2.0 / (2.0 - s) * (a2 * base_eps(-1, a1, a2 + 1.0)
                              + a1 * base_eps(-1, a1 + 1.0, a2))


def robin_endpoint_beta(a1: float, a2: float, c: float, j: int) -> float:
    """beta_j of one flat Robin endpoint with inward parameter SR = -c.

    Plateau data has jets (1, 0, 0) at the endpoint, so only eps0 (j = 0)
    and eps15 * SR (j = 1) survive.
    """
    if j == 0:
        return base_eps(1, a1, a2)
    if j == 1:
        return -c * robin_eps15(a1, a2)
    raise ValueError("only j = 0 and j = 1 are referenced")


def halfline_leading(a1: float, a2: float) -> float:
    """lim (beta_N - beta_D)(t) * t^((s - 1) / 2) on the half-line."""
    s = a1 + a2
    return (2.0 ** (1.0 - s) / math.sqrt(math.pi)
            * math.gamma(0.5 * (2.0 - s))
            * math.gamma(1.0 - a1) * math.gamma(1.0 - a2)
            / math.gamma(2.0 - s))


def dirichlet_constant_interval(t: np.ndarray) -> np.ndarray:
    """Heat content of unit data on (0, pi), Dirichlet: pi - 4 sqrt(t/pi).

    The neglected terms are O(exp(-pi^2 / t)), below 1e-40 for t <= 0.1.
    """
    return math.pi - 4.0 * np.sqrt(t / math.pi)


def circle_heat_content(phi: list, rho: list, t: np.ndarray) -> np.ndarray:
    """Same Fourier sum as the circle simulator, evaluated as one matmul."""
    m = min(len(phi), len(rho))
    i = np.arange(m)
    k = (i + 1) // 2
    measure = np.where(i == 0, 2.0 * math.pi, math.pi)
    coef = np.asarray(phi[:m], float) * np.asarray(rho[:m], float) * measure
    return np.exp(-np.outer(t, k * k)) @ coef
