"""Test-only helpers: a plain handle with explicit derivatives, the
second-order operator D = A*A as a chain of first-order factors, a fixed
Gauss-Legendre panel as a reference rule for smooth integrands, and
tanh-sinh quadrature on the simulator's fixed grid as a reference rule
for endpoint singularities.

FromCallable has no Taylor data at 0, so it reaches the DomainError
default of SmoothFunction.taylor_degree.  The name does not match
test_*.py, so pytest imports it only through the tests that use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from singularheat.errors import QuadratureError, RangeError
from singularheat.heat1d import _EPS, tanh_sinh_nodes
from singularheat.profiles import IntertwinedFactor, SmoothFunction

#: largest level difference of tanh_sinh, relative to sum |w f|
_FAIL_REL = 1e-9


@dataclass(frozen=True)
class FromCallable(SmoothFunction):
    """Wrap a plain handle; derivatives must be supplied explicitly."""

    fn: object
    derivs: tuple = ()

    def derivatives(self, x, order: int) -> list:
        if order > len(self.derivs):
            raise RangeError(
                f"derivative order {order} not provided for this handle")
        x = np.asarray(x, float)
        return [np.asarray(h(x)) for h in (self.fn,) + self.derivs[:order]]


def d_step(s: SmoothFunction, a: float, c: float) -> IntertwinedFactor:
    """Smooth factor of D phi = A*(A phi) for phi = x^(-a) s(x), with
    D = -d^2/dx^2 + c^2, A = d/dx + c and A* = -d/dx + c."""
    return IntertwinedFactor(IntertwinedFactor(s, a, c, -1), a + 1.0, c, +1)


def gauss_legendre(f, a: float, b: float, n: int) -> float:
    """n-point Gauss-Legendre panel on [a, b] for a smooth integrand f."""
    nodes, weights = leggauss(n)
    half = 0.5 * (b - a)
    return half * float(np.dot(f(half * nodes + 0.5 * (a + b)), weights))


def tanh_sinh(f, a: float, b: float):
    """(value, err) of the integral of f over [a, b] on the fixed grid.

    f is called once, with the array of tanh_sinh_nodes(a, b), and
    returns real or complex values of that shape.  It must be analytic
    inside (a, b), so callers split at breakpoints; endpoint
    singularities are what the rule is for.  err is the level difference
    |sum (w - w_coarse) f| plus the rounding floor eps * nodes * sum |w f|,
    so it stays above 0 when the two rules agree bitwise.  Raises
    QuadratureError on an empty interval, or when the level difference
    exceeds _FAIL_REL * sum |w f|; measured against that mass, a value
    that cancels to near 0 needs no absolute floor.
    """
    if not b > a:
        raise QuadratureError(f"empty interval [{a}, {b}]")
    x, w, w_coarse = tanh_sinh_nodes(a, b)
    fx = f(x)
    value = np.dot(w, fx)
    diff = abs(np.dot(w - w_coarse, fx))
    mass = np.dot(w, np.abs(fx))
    if diff > _FAIL_REL * mass:
        raise QuadratureError(
            f"tanh_sinh did not converge on [{a}, {b}]: level difference "
            f"{diff:.3e} vs {_FAIL_REL:g} * {mass:.3e}")
    return value, diff + _EPS * x.size * mass
