"""Test-only smooth factor: a plain handle with explicit derivatives.

It has no Taylor data at 0, so it reaches the DomainError default of
SmoothFunction.taylor_degree.  The name does not match test_*.py, so
pytest imports it only through the tests that use it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from singularheat.errors import RangeError
from singularheat.profiles import SmoothFunction


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
