"""Regularized interior integrals and the interior expansion coefficients.

The interior integrand x^(-sigma) * smooth(x) is generally divergent at
x = 0 once Re(sigma) >= 1.  Its regularized value is the Hadamard finite
part (Gel'fand & Shilov, Generalized Functions I, sec. I.3).  On a collar
[0, eps] where smooth equals its exact Taylor polynomial sum_j s_j x^j,
the collar piece is the closed form
sum_j s_j eps^(j + 1 - sigma) / (j + 1 - sigma); the rest [eps, L] is
integrated numerically.  The result is independent of eps, has a simple
pole at each sigma = j + 1 with s_j != 0, and reduces to the plain
integral whenever that converges.

The interior coefficients beta_n integrate D^n phi * rho by parts, for
D = -d^2/dx^2 + c^2, until phi and rho carry at most n derivatives each,
the first-order factor profiles.IntertwinedFactor with c = 0.  A C^2
plateau cutoff thus gives beta_0..beta_3 exactly, where D^n phi * rho
itself would hold a delta at each ramp junction.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coeff import DEFAULT_DELTA
from .errors import DomainError, PoleError, RangeError
from .profiles import (IntertwinedFactor, Product, SingularProfile,
                       SmoothFunction)
from .quadrature import segments, tanh_sinh


def i_reg(sigma: complex, smooth: SmoothFunction, L: float,
          collar: float | None = None) -> complex:
    """Finite part of the integral of x^(-sigma) smooth(x) over [0, L].

    sigma may be complex.  The Taylor data taylor0() is one derivatives
    pass at 0 up to taylor_degree(), exact up to the Taylor radius, the
    first breakpoint of smooth; a factor without it raises DomainError.
    The collar width eps (default half that radius, at most L) must lie
    in (0, radius]; otherwise DomainError is raised.  A closed-form term
    within DEFAULT_DELTA of a pole raises PoleError.
    """
    sigma = complex(sigma)
    taylor = smooth.taylor0()
    radius = min(smooth.breakpoints, default=math.inf)
    eps = min(0.5 * radius if collar is None else collar, L)
    if not 0.0 < eps <= radius:
        raise DomainError("need exact Taylor data on the collar [0, eps]")

    total = 0.0 + 0.0j
    # a vanishing coefficient contributes nothing and carries no pole
    # (e.g. D phi = 0 for constant data)
    for j, s in enumerate(taylor):
        if s == 0.0:
            continue
        if abs(j + 1 - sigma) < DEFAULT_DELTA:
            raise PoleError(
                f"regularized integral has a pole at sigma = {j + 1}")
        total += s * eps ** (j + 1 - sigma) / (j + 1 - sigma)

    # the plain integrand away from the collar, one call per segment
    for a, b in segments(eps, L, smooth.breakpoints):
        total += complex(tanh_sinh(lambda x: x ** (-sigma) * smooth(x),
                                   a, b)[0])
    return total


def interior_coefficients(phi: SingularProfile, rho: SingularProfile,
                          c: float = 0.0, n_max: int = 2) -> list:
    """beta_n = (-1)^n / n! * i_reg(D^n phi * rho) for D = -d^2/dx^2 + c^2,
    with the derivatives split evenly between phi and rho:

        beta_n = (-1)^n / n! * sum_m C(n, m) c^(2(n-m)) i_reg(phi^(m) rho^(m))

    (D^n expanded binomially, each (-d^2/dx^2)^m integrated by parts m
    times; for n = 2k the sum is i_reg(D^k phi * D^k rho)).  The parts add
    no boundary term for data that vanish near L: at 0 each is a power of
    the collar width, whose finite part is 0 unless i_reg meets a pole
    there.  So C^m data, whose (m+1)-th derivative jumps, define beta_n
    for n <= m + 1, where D^n phi * rho itself would hold a delta at each
    jump.  The derivatives are IntertwinedFactors with c = 0 on the
    (exponent, smooth factor) representation, so no singular function is
    ever differenced, and their Taylor data stay exact: a coefficient
    that vanishes is 0.0, not rounding noise on a collar pole.
    """
    if n_max < 0:
        raise RangeError("n_max must be nonnegative")
    if phi.L != rho.L:
        raise RangeError("profiles live on different domains")
    c2 = c * c
    out, parts = [], []
    a, f, b, g = phi.alpha, phi.smooth, rho.alpha, rho.smooth
    for n in range(n_max + 1):
        # an overflow (inf, nan or OverflowError) is rejected, not returned
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                parts.append(i_reg(a + b, Product(f, g), phi.L))
                val = sum(math.comb(n, m) * c2 ** (n - m) * parts[m]
                          for m in range(n + 1))
            except OverflowError:
                val = math.inf
        if not cmath.isfinite(val):
            raise RangeError(f"beta_{n} overflows for this c and these profiles")
        out.append((-1) ** n / math.factorial(n) * val)
        f, g = (IntertwinedFactor(f, a, 0.0, -1),
                IntertwinedFactor(g, b, 0.0, -1))
        a, b = a + 1.0, b + 1.0
    return out
