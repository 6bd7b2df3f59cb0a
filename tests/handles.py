"""Test-only helpers: a plain handle with explicit derivatives, the
second-order operator D = A*A as a chain of first-order factors, and a
fixed Gauss-Legendre panel as a reference rule for smooth integrands.

FromCallable has no Taylor data at 0, so it reaches the DomainError
default of SmoothFunction.taylor_degree.  The name does not match
test_*.py, so pytest imports it only through the tests that use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from singularheat.errors import RangeError
from singularheat.profiles import IntertwinedFactor, SmoothFunction


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
