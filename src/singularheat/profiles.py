"""Singular profiles r^(-alpha) * smooth(r) and a small smooth-function algebra.

The smooth factors that appear in the model problems are plateau cutoffs
(identically 1 near the boundary), polynomials, and combinations produced
by applying the first-order operators A = d/dx + c and A* = -d/dx + c
(IntertwinedFactor; with c = 0, A is the derivative, and
D = -d^2/dx^2 + c^2 is A*A, two nested factors).
Each class carries exact derivatives, its analytic breakpoints (so
quadrature can split there), and the degree of its exact Taylor
polynomial at 0 (which lets the regularized-integral collar be evaluated
in closed form).  A subclass without Taylor data inherits a
taylor_degree() that raises DomainError.

derivatives(x, order) returns [f(x), f'(x), ..., f^(order)(x)] in one
pass, and it is the only way a smooth factor is read: f(x) is
derivatives(x, 0)[0].  Every class defines it.  The composites (Product,
IntertwinedFactor) ask their factors for one list and build every order
from it, so an n-fold nested factor costs O(n) list passes rather than a
Leibniz tree exponential in n.  taylor0() is the same pass at x = 0 up
to taylor_degree(), entry k divided by k!; it is exact up to the first
breakpoint.  Those Taylor coefficients are what the boundary jets
(geom.modified_taylor_jets) and the closed-form collar (regint.i_reg)
take.

x is a Python float or a numpy array, and each formula has one copy for
both.  A float is evaluated in Python floats, so regint and the fit load
no numpy; heat1d passes arrays.  Only the array paths (PlateauCutoff's
masks and SingularProfile.__call__) import numpy, when they run.

Every smooth factor and SingularProfile is an immutable value
(coeff.Frozen): equal to another of its class with equal fields, and
hashed by them, so two profiles built from the same numbers are one
profile (heat1d tabulates a pair phi == rho once), and a field cannot
be assigned after construction.
"""

from __future__ import annotations

import math

from .coeff import Frozen
from .errors import DomainError, RangeError
from .quadrature import segments


def _poly(x, c, k: int):
    """The k-th derivative at x of sum_j c_j x^j, as numpy computes it:
    polyder's k passes c_{j-1} = j c_j (c[:1] * 0 when k >= len(c)), then
    polyval's Horner rule from c[-1] + x * 0.  c is a sequence of numbers;
    x is a float or an array."""
    c = [float(a) for a in c]
    if k >= len(c):
        c = [c[0] * 0]
    else:
        for _ in range(k):
            c = [j * a for j, a in enumerate(c[1:], 1)]
    y = c[-1] + x * 0
    for a in c[-2::-1]:
        y = a + y * x
    return y


class SmoothFunction(Frozen):
    """Base class: a piecewise-analytic function on [0, inf)."""

    #: interior points where the definition changes (quadrature splits here)
    breakpoints: tuple = ()

    def __call__(self, x):
        return self.derivatives(x, 0)[0]

    def derivatives(self, x, order: int) -> list:
        """[f(x), f'(x), ..., f^(order)(x)]; every subclass defines it."""
        raise NotImplementedError

    def taylor_degree(self) -> int:
        """Degree of the exact Taylor polynomial at 0; DomainError without
        one."""
        raise DomainError(f"{type(self).__name__} has no Taylor data at 0")

    def taylor0(self) -> tuple:
        """Exact Taylor coefficients at 0 (up to the first breakpoint):
        one derivatives pass at 0."""
        degree = self.taylor_degree()
        d = self.derivatives(0.0, degree)
        return tuple(float(d[k]) / math.factorial(k)
                     for k in range(degree + 1))


class Polynomial(SmoothFunction):
    """Polynomial with ascending coefficients."""

    def __init__(self, coeffs: tuple):
        self._freeze(coeffs=coeffs)

    def derivatives(self, x, order: int) -> list:
        return [_poly(x, self.coeffs, k) for k in range(order + 1)]

    def taylor_degree(self) -> int:
        return len(self.coeffs) - 1


def constant() -> Polynomial:
    return Polynomial((1.0,))


#: the smoothstep ramp 1 - 10u^3 + 15u^4 - 6u^5, ascending coefficients
_RAMP = (1.0, 0.0, 0.0, -10.0, 15.0, -6.0)


def _smoothstep(v):
    """The ramp 1 - 10v^3 + 15v^4 - 6v^5 at a float or an array v."""
    return 1.0 - v ** 3 * (10.0 - 15.0 * v + 6.0 * v * v)


class PlateauCutoff(SmoothFunction):
    """C^2 cutoff: 1 on [0, r0/2], quintic smoothstep down to 0 at r0.

    A number x is evaluated in Python floats and an array by masks, with
    the same ramp expressions.  Off the ramp the value is 1 up to r0/2
    and 0 past r0 (a NaN is passed through), and every derivative is 0.
    """

    def __init__(self, r0: float):
        # the ramp coordinate divides by r0/2, which rounds to 0 for
        # r0 = 5e-324, the one such positive double
        if not 0.5 * r0 > 0:
            raise DomainError("cutoff radius and its half must be positive")
        self._freeze(r0=r0)

    @property
    def breakpoints(self):
        return (0.5 * self.r0, self.r0)

    def _ramp_derivative(self, v, k: int):
        """k-th derivative in x at ramp points v, 1 <= k <= 5.

        The chain-rule scale (2/r0)^k, or the ramp values it multiplies,
        may leave the doubles for a tiny r0; the caller checks the result
        with _overflow.  Off the ramp (as for the Taylor data at 0) it is
        never formed."""
        try:
            scale = (2.0 / self.r0) ** k
        except OverflowError:
            scale = math.inf
        return scale * _poly(v, _RAMP, k)

    def _overflow(self, k: int) -> RangeError:
        return RangeError(f"cutoff derivative of order {k} "
                          f"overflows at radius {self.r0!r}")

    def derivatives(self, x, order: int) -> list:
        if isinstance(x, (int, float)):
            # map the ramp [r0/2, r0] to [0, 1]
            u = (x - 0.5 * self.r0) / (0.5 * self.r0)
            if not 0.0 < u < 1.0:
                return [u if u != u else float(u <= 0.0)] + [0.0] * order
            out = [_smoothstep(u)]
            for k in range(1, order + 1):
                d = self._ramp_derivative(u, k) if k <= 5 else 0.0
                if not math.isfinite(d):
                    raise self._overflow(k)
                out.append(d)
            return out

        import numpy as np

        u = np.asarray((np.asarray(x, float) - 0.5 * self.r0) / (0.5 * self.r0))
        inside = (u > 0.0) & (u < 1.0)
        v = u[inside]
        f = np.asarray(u <= 0.0, float)
        np.copyto(f, u, where=np.isnan(u))
        f[inside] = _smoothstep(v)
        out = [f[()]]  # a scalar for a 0-d x
        for k in range(1, order + 1):
            d = np.zeros_like(u)
            if k <= 5 and v.size:
                with np.errstate(over="ignore", invalid="ignore"):
                    d[inside] = self._ramp_derivative(v, k)
                if not np.isfinite(d).all():
                    raise self._overflow(k)
            out.append(d)
        return out

    def taylor_degree(self) -> int:
        return 0


class Product(SmoothFunction):
    def __init__(self, left: SmoothFunction, right: SmoothFunction):
        self._freeze(left=left, right=right)

    @property
    def breakpoints(self):
        return tuple(sorted(set(self.left.breakpoints) | set(self.right.breakpoints)))

    def derivatives(self, x, order: int) -> list:
        f = self.left.derivatives(x, order)
        g = self.right.derivatives(x, order)
        out = [f[0] * g[0]]
        for k in range(1, order + 1):
            total = 0.0
            for i in range(k + 1):
                total = total + math.comb(k, i) * f[i] * g[k - i]
            out.append(total)
        return out

    def taylor_degree(self) -> int:
        return self.left.taylor_degree() + self.right.taylor_degree()


def check_integrable(alpha: float) -> None:
    """Raise DomainError unless alpha is real and finite and r^(-alpha) is
    integrable at 0."""
    if isinstance(alpha, complex) or alpha >= 1.0:
        raise DomainError(f"need real alpha with Re(alpha) < 1, got {alpha}")
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")


class SingularProfile(Frozen):
    """phi(r) = r^(-alpha) * smooth(r) on [0, L].

    cutoff_radius records the support radius when the smooth factor
    vanishes identically beyond it (None when it does not vanish).
    """

    def __init__(self, alpha: float, smooth: SmoothFunction, L: float,
                 cutoff_radius: float | None = None):
        check_integrable(alpha)
        if not L > 0:
            raise DomainError("domain length must be positive")
        if cutoff_radius is not None and not 0 < cutoff_radius <= L:
            raise DomainError("cutoff radius must lie in (0, L]")
        self._freeze(alpha=alpha, smooth=smooth, L=L,
                     cutoff_radius=cutoff_radius)

    def __call__(self, x):
        import numpy as np

        x = np.asarray(x, float)
        return x ** (-self.alpha) * self.smooth(x)

    def support_end(self) -> float:
        return self.cutoff_radius if self.cutoff_radius is not None else self.L

    def pieces(self) -> list:
        """Analytic subintervals of [0, support end] for quadrature."""
        return segments(0.0, self.support_end(), self.smooth.breakpoints)


def plateau_profile(alpha: float, L: float, cutoff_radius: float) -> SingularProfile:
    """r^(-alpha) times a plateau cutoff: the canonical model datum."""
    return SingularProfile(alpha, PlateauCutoff(cutoff_radius), L, cutoff_radius)


class IntertwinedFactor(SmoothFunction):
    """Smooth factor of (A phi) or (A* phi) for phi = x^(-a) s(x).

    With A = d/dx + c and A* = -d/dx + c (sign +1 for the adjoint A*):
    the result is x^(-(a+1)) * g(x) with g = sign*(a s - x s') + c x s.
    """

    def __init__(self, s: SmoothFunction, a: float, c: float, sign: int):
        self._freeze(s=s, a=a, c=c, sign=sign)

    @property
    def breakpoints(self):
        return self.s.breakpoints

    def derivatives(self, x, order: int) -> list:
        s = self.s.derivatives(x, order + 1)
        out = []
        for k in range(order + 1):
            # k-th derivative of g via (x u)^(k) = x u^(k) + k u^(k-1)
            term = self.sign * (self.a * s[k] - (x * s[k + 1] + k * s[k]))
            if k >= 1:
                term = term + self.c * (x * s[k] + k * s[k - 1])
            else:
                term = term + self.c * x * s[k]
            out.append(term)
        return out

    def taylor_degree(self) -> int:
        return self.s.taylor_degree() + 1
