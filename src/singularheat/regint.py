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
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .coeff import DEFAULT_DELTA
from .errors import DomainError, PoleError, RangeError
from .profiles import (OperatorApplied, Product, SingularProfile,
                       SmoothFunction)
from .quadrature import segments, tanh_sinh_lanes

#: relative tolerance of the quadrature on [eps, L]
_TOL = 1e-13


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

    # the plain integrand away from the collar, one lane per segment
    a, b = np.array(segments(eps, L, smooth.breakpoints)).reshape(-1, 2).T
    vals, _ = tanh_sinh_lanes(lambda x, rows: x ** (-sigma) * smooth(x), a, b,
                              tol=_TOL, abs_tol=1e-16)
    for val in vals.tolist():
        total += val
    return total


def interior_coefficients(phi: SingularProfile, rho: SingularProfile,
                          c: float = 0.0, n_max: int = 2) -> list:
    """beta_n = (-1)^n / n! * i_reg(D^n phi * rho) for D = -d^2/dx^2 + c^2.

    D^n phi is formed symbolically on the (exponent, smooth factor)
    representation, so no singular function is ever differenced.
    """
    if n_max < 0:
        raise RangeError("n_max must be nonnegative")
    if phi.L != rho.L:
        raise RangeError("profiles live on different domains")
    out = []
    a, smooth = phi.alpha, phi.smooth
    for n in range(n_max + 1):
        # an overflow (inf, nan or OverflowError) is rejected, not returned
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                val = i_reg(a + rho.alpha, Product(smooth, rho.smooth), phi.L)
            except OverflowError:
                val = math.inf
        if not cmath.isfinite(val):
            raise RangeError(f"beta_{n} overflows for this c and these profiles")
        out.append((-1) ** n / math.factorial(n) * val)
        smooth = OperatorApplied(smooth, a, c * c)
        a = a + 2.0
    return out
