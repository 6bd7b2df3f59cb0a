"""Regularized interior integrals and the interior expansion coefficients.

The interior integrand x^(-sigma) * smooth(x) is generally divergent at
x = 0 once Re(sigma) >= 1.  The regularized value subtracts the first K
modified-Taylor terms h_j x^(j - sigma) of the integrand inside a collar
[0, eps] and adds the closed-form counterterms
h_j eps^(j + 1 - sigma) / (j + 1 - sigma); the result is independent of
the collar width, has simple poles at sigma in {1, ..., K}, and reduces
to the plain integral whenever that converges.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .coeff import DEFAULT_DELTA
from .errors import DomainError, PoleError, RangeError
from .profiles import (OperatorApplied, Product, SingularProfile,
                       SmoothFunction, taylor_jets)
from .quadrature import segments, tanh_sinh_lanes

#: default subtraction margin: remainder exponent real part > -1 + margin
_TOL = 1e-13


@dataclass(frozen=True)
class CollarRegularization:
    """Collar width and number of modified-Taylor counterterms."""

    collar_width: float
    subtraction_order: int

    def __post_init__(self):
        if self.collar_width <= 0:
            raise DomainError("collar width must be positive")
        if self.subtraction_order < 1:
            raise DomainError("need at least one counterterm")


@dataclass(frozen=True)
class SingularIntegrand:
    """x^(-sigma) * smooth(x) on [0, L]; sigma may be complex."""

    sigma: complex
    smooth: SmoothFunction
    L: float

    def __post_init__(self):
        if self.L <= 0:
            raise DomainError("domain length must be positive")
        object.__setattr__(self, "sigma", complex(self.sigma))

    def __call__(self, x):
        x = np.asarray(x, float)
        return x ** (-self.sigma) * self.smooth(x)

    def jets(self, order: int) -> list:
        """h_j = smooth^(j)(0) / j! for j = 0..order."""
        return taylor_jets(self.smooth, order)


def default_regularization(integrand: SingularIntegrand) -> CollarRegularization:
    """Smallest K giving an integrable remainder, collar inside the plateau."""
    k = max(1, math.ceil(integrand.sigma.real) + 1)
    r = integrand.smooth.taylor_radius()
    eps = min(0.5 * r if r > 0 else 0.25 * integrand.L, integrand.L)
    return CollarRegularization(eps, k)


def i_reg(integrand: SingularIntegrand,
          reg: CollarRegularization | None = None) -> complex:
    """Collar-regularized integral of x^(-sigma) smooth(x) over [0, L].

    For smooth parts with exact Taylor data on an initial plateau the
    collar piece is evaluated in closed form (no cancellation of
    smooth - Taylor at large Re(sigma)); otherwise the subtracted
    remainder is integrated numerically.  A counterterm within
    DEFAULT_DELTA of a pole raises PoleError.
    """
    if reg is None:
        reg = default_regularization(integrand)
    sigma = integrand.sigma
    k_sub = reg.subtraction_order
    if k_sub - sigma.real <= -1.0:
        # remainder exponent K - sigma must stay absolutely integrable
        raise DomainError(
            f"subtraction order {k_sub} too small for sigma = {sigma}")
    eps = min(reg.collar_width, integrand.L)
    jets = integrand.jets(k_sub - 1)

    total = 0.0 + 0.0j
    # counterterms at the singular endpoint; a vanishing jet contributes
    # nothing and carries no pole (e.g. D phi = 0 for constant data)
    for j, h in enumerate(jets):
        if h == 0.0:
            continue
        if abs(j + 1 - sigma) < DEFAULT_DELTA:
            raise PoleError(
                f"regularized integral has a pole at sigma = {j + 1}")
        total += h * eps ** (j + 1 - sigma) / (j + 1 - sigma)

    # collar: closed form on the exact-Taylor plateau, numeric elsewhere
    taylor = integrand.smooth.taylor0()
    r_exact = min(eps, integrand.smooth.taylor_radius())
    lo = 0.0
    if taylor is not None and r_exact > 0.0:
        for j in range(k_sub, len(taylor)):
            if taylor[j] == 0.0:
                continue
            if abs(j + 1 - sigma) < DEFAULT_DELTA:
                raise PoleError(
                    f"regularized integral has a pole at sigma = {j + 1}")
            total += taylor[j] * r_exact ** (j + 1 - sigma) / (j + 1 - sigma)
        lo = r_exact

    def remainder(x):
        x = np.asarray(x, float)
        t = np.zeros_like(x, dtype=complex)
        for j, h in enumerate(jets):
            t = t + h * x ** complex(j)
        return x ** (-sigma) * (integrand.smooth(x) - t)

    # the subtracted remainder on the rest of the collar, then the plain
    # integrand away from it, each as one call with a lane per segment
    cuts = integrand.smooth.breakpoints
    for fn, start, end in ((remainder, lo, eps),
                           (integrand, eps, integrand.L)):
        a, b = np.array(segments(start, end, cuts)).reshape(-1, 2).T
        vals, _ = tanh_sinh_lanes(lambda x, rows: fn(x), a, b, tol=_TOL,
                                  abs_tol=1e-16)
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
    a = phi.real_alpha  # symbolic D^n needs a real exponent
    a_rho = complex(rho.alpha)
    smooth = phi.smooth
    for n in range(n_max + 1):
        integrand = SingularIntegrand(
            complex(a) + a_rho, Product(smooth, rho.smooth), phi.L)
        # an overflow (inf, nan or OverflowError) is rejected, not returned
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                val = i_reg(integrand)
            except OverflowError:
                val = math.inf
        if not cmath.isfinite(val):
            raise RangeError(f"beta_{n} overflows for this c and these profiles")
        out.append((-1) ** n / math.factorial(n) * val)
        smooth = OperatorApplied(smooth, a, c * c)
        a = a + 2.0
    return out
