"""Singular profiles r^(-alpha) * smooth(r) and a small smooth-function algebra.

The smooth factors that appear in the model problems are plateau cutoffs
(identically 1 near the boundary), polynomials, and combinations produced
by applying first- and second-order operators.  Each class carries exact
derivatives, its analytic breakpoints (so quadrature can split there),
and, when available, exact Taylor data at 0 valid on an initial plateau
(which lets the regularized-integral collar be evaluated in closed form).

derivatives(x, order) returns [f(x), f'(x), ..., f^(order)(x)] in one
pass.  The leaves (Polynomial, PlateauCutoff, FromCallable) define
__call__ and deriv and inherit a derivatives that loops over deriv.  The
composites (Product, OperatorApplied, IntertwinedFactor) define only
derivatives: each asks its factors for one list and builds every order
from it, so an n-fold nested factor costs O(n) list passes rather than
a Leibniz tree of size ~7^n.  Their __call__ and deriv read that list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, RangeError
from .quadrature import segments


class SmoothFunction:
    """Base class: a piecewise-analytic function on [0, inf)."""

    #: interior points where the definition changes (quadrature splits here)
    breakpoints: tuple = ()

    def __call__(self, x):
        return self.derivatives(x, 0)[0]

    def deriv(self, x, k: int = 1):
        return self.derivatives(x, k)[k]

    def derivatives(self, x, order: int) -> list:
        """[f(x), f'(x), ..., f^(order)(x)]; a subclass overrides either
        this or both __call__ and deriv."""
        return [self(x)] + [self.deriv(x, k) for k in range(1, order + 1)]

    def taylor0(self):
        """Exact Taylor coefficients at 0, or None if not available."""
        return None

    def taylor_radius(self) -> float:
        """Radius on which taylor0() reproduces the function exactly."""
        return 0.0


@dataclass(frozen=True)
class Polynomial(SmoothFunction):
    """Polynomial with ascending coefficients."""

    coeffs: tuple

    def __call__(self, x):
        return np.polynomial.polynomial.polyval(np.asarray(x, float), self.coeffs)

    def deriv(self, x, k: int = 1):
        c = np.polynomial.polynomial.polyder(self.coeffs, k) if k else self.coeffs
        return np.polynomial.polynomial.polyval(np.asarray(x, float), c)

    def taylor0(self):
        return tuple(self.coeffs)

    def taylor_radius(self) -> float:
        return math.inf


def constant(value: float = 1.0) -> Polynomial:
    return Polynomial((value,))


#: k-th u-derivative of the smoothstep ramp 1 - 10u^3 + 15u^4 - 6u^5, k <= 5
_RAMP_DERIVS = tuple(np.polynomial.polynomial.polyder(
    (1.0, 0.0, 0.0, -10.0, 15.0, -6.0), k) for k in range(6))


@dataclass(frozen=True)
class PlateauCutoff(SmoothFunction):
    """C^2 cutoff: 1 on [0, r0/2], quintic smoothstep down to 0 at r0."""

    r0: float

    def __post_init__(self):
        if self.r0 <= 0:
            raise DomainError("cutoff radius must be positive")

    @property
    def breakpoints(self):
        return (0.5 * self.r0, self.r0)

    def _u(self, x):
        # map the ramp [r0/2, r0] to [0, 1]
        return (np.asarray(x, float) - 0.5 * self.r0) / (0.5 * self.r0)

    def __call__(self, x):
        u = np.minimum(np.maximum(self._u(x), 0.0), 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)

    def deriv(self, x, k: int = 1):
        if k == 0:
            return self(x)
        x = np.asarray(x, float)
        u = self._u(x)
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(x)
        if k <= 5:
            out[inside] = (2.0 / self.r0) ** k \
                * np.polynomial.polynomial.polyval(u[inside], _RAMP_DERIVS[k])
        return out

    def taylor0(self):
        return (1.0,)

    def taylor_radius(self) -> float:
        return 0.5 * self.r0


@dataclass(frozen=True)
class Product(SmoothFunction):
    left: SmoothFunction
    right: SmoothFunction

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

    def taylor0(self):
        a, b = self.left.taylor0(), self.right.taylor0()
        if a is None or b is None:
            return None
        out = [0.0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
        return tuple(out)

    def taylor_radius(self) -> float:
        return min(self.left.taylor_radius(), self.right.taylor_radius())


@dataclass(frozen=True)
class FromCallable(SmoothFunction):
    """Wrap a plain handle; derivatives must be supplied explicitly."""

    fn: object
    derivs: tuple = ()

    def __call__(self, x):
        return np.asarray(self.fn(np.asarray(x, float)))

    def deriv(self, x, k: int = 1):
        if k == 0:
            return self(x)
        if k <= len(self.derivs):
            return np.asarray(self.derivs[k - 1](np.asarray(x, float)))
        raise RangeError(f"derivative order {k} not provided for this handle")


def taylor_jets(smooth: SmoothFunction, order: int) -> list:
    """smooth^(l)(0) / l! for l = 0..order, from one derivatives pass."""
    d = smooth.derivatives(np.array([0.0]), order)
    return [complex(np.asarray(d[k])[0]) / math.factorial(k)
            for k in range(order + 1)]


def check_integrable(alpha: complex) -> None:
    """Raise DomainError unless r^(-alpha) is integrable at 0."""
    if complex(alpha).real >= 1.0:
        raise DomainError(f"need Re(alpha) < 1 for integrability, got {alpha}")


@dataclass(frozen=True)
class SingularProfile:
    """phi(r) = r^(-alpha) * smooth(r) on [0, L].

    cutoff_radius records the support radius when the smooth factor
    vanishes identically beyond it (None when it does not vanish).
    """

    alpha: complex
    smooth: SmoothFunction
    L: float
    cutoff_radius: float | None = None
    #: Re(alpha), or None when alpha is not real (resolved once)
    _real: float | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        check_integrable(self.alpha)
        if self.L <= 0:
            raise DomainError("domain length must be positive")
        if self.cutoff_radius is not None and not 0 < self.cutoff_radius <= self.L:
            raise DomainError("cutoff radius must lie in (0, L]")
        a = complex(self.alpha)
        object.__setattr__(self, "_real", None if abs(a.imag) > 1e-14 else a.real)

    @property
    def real_alpha(self) -> float:
        if self._real is None:
            raise DomainError("simulators require a real exponent")
        return self._real

    def __call__(self, x):
        x = np.asarray(x, float)
        return x ** (-self.real_alpha) * self.smooth(x)

    def support_end(self) -> float:
        return self.cutoff_radius if self.cutoff_radius is not None else self.L

    def pieces(self) -> list:
        """Analytic subintervals of [0, support end] for quadrature."""
        return segments(0.0, self.support_end(), self.smooth.breakpoints)

    def jets(self, order: int = 2) -> list:
        """Modified Taylor jets (flat connection): smooth^(l)(0) / l!."""
        if order < 0 or order > 4:
            raise RangeError("jet order must be in 0..4")
        return taylor_jets(self.smooth, order)


def plateau_profile(alpha: complex, L: float, cutoff_radius: float) -> SingularProfile:
    """r^(-alpha) times a plateau cutoff: the canonical model datum."""
    return SingularProfile(alpha, PlateauCutoff(cutoff_radius), L, cutoff_radius)


@dataclass(frozen=True)
class IntertwinedFactor(SmoothFunction):
    """Smooth factor of (A phi) or (A* phi) for phi = x^(-a) s(x).

    With A = d/dx + c and A* = -d/dx + c (sign +1 for the adjoint A*):
    the result is x^(-(a+1)) * g(x) with g = sign*(a s - x s') + c x s.
    """

    s: SmoothFunction
    a: float
    c: float
    sign: int

    @property
    def breakpoints(self):
        return self.s.breakpoints

    def derivatives(self, x, order: int) -> list:
        x = np.asarray(x, float)
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

    def taylor0(self):
        st = self.s.taylor0()
        if st is None:
            return None
        out = []
        for j in range(len(st) + 1):
            sj = st[j] if j < len(st) else 0.0
            sjm1 = st[j - 1] if 1 <= j <= len(st) else 0.0
            out.append(self.sign * (self.a - j) * sj + self.c * sjm1)
        return tuple(out)

    def taylor_radius(self) -> float:
        return self.s.taylor_radius()


@dataclass(frozen=True)
class OperatorApplied(SmoothFunction):
    """Smooth factor of D phi for phi = x^(-a) s(x), D = -d^2/dx^2 + c^2.

    D phi = x^(-(a+2)) * g(x) with
    g = -(a)(a+1) s + 2 a x s' - x^2 s'' + c^2 x^2 s.
    """

    s: SmoothFunction
    a: float
    c2: float

    @property
    def breakpoints(self):
        return self.s.breakpoints

    def derivatives(self, x, order: int) -> list:
        x = np.asarray(x, float)
        s = self.s.derivatives(x, order + 2)
        a, c2 = self.a, self.c2
        out = []
        for k in range(order + 1):
            # Leibniz on each monomial-weighted term
            g = -a * (a + 1) * s[k]
            # 2 a x s': (x u)^(k) = x u^(k) + k u^(k-1), u = s'
            g = g + 2 * a * (x * s[k + 1] + k * s[k])
            # -x^2 s'': (x^2 u)^(k) = x^2 u^(k) + 2k x u^(k-1) + k(k-1) u^(k-2)
            for coef, u_order in ((-1.0, 2), (c2, 0)):
                term = x * x * s[k + u_order]
                if k >= 1:
                    term = term + 2 * k * x * s[k - 1 + u_order]
                if k >= 2:
                    term = term + k * (k - 1) * s[k - 2 + u_order]
                g = g + coef * term
            out.append(g)
        return out

    def taylor0(self):
        st = self.s.taylor0()
        if st is None:
            return None
        a, c2 = self.a, self.c2
        out = []
        for j in range(len(st) + 2):
            sj = st[j] if j < len(st) else 0.0
            sjm2 = st[j - 2] if 2 <= j < len(st) + 2 else 0.0
            # -(a-j)(a-j+1) s_j from the power rule, plus c^2 shift by 2
            out.append(-(a - j) * (a - j + 1) * sj + c2 * sjm2)
        return tuple(out)

    def taylor_radius(self) -> float:
        return self.s.taylor_radius()
