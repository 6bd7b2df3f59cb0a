"""Singular profiles r^(-alpha) * smooth(r) and a small smooth-function algebra.

The smooth factors that appear in the model problems are plateau cutoffs
(identically 1 near the boundary), polynomials, and combinations produced
by applying first- and second-order operators.  Each class carries exact
derivatives, its analytic breakpoints (so quadrature can split there),
and, when available, exact Taylor data at 0 valid on an initial plateau
(which lets the regularized-integral collar be evaluated in closed form).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError


class SmoothFunction:
    """Base class: a piecewise-analytic function on [0, inf)."""

    #: interior points where the definition changes (quadrature splits here)
    breakpoints: tuple = ()

    def __call__(self, x):
        raise NotImplementedError

    def deriv(self, x, k: int = 1):
        raise NotImplementedError

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
        x = np.asarray(x, float)
        u = np.clip(self._u(x), 0.0, 1.0)
        return 1.0 - u ** 3 * (10.0 - 15.0 * u + 6.0 * u * u)

    def deriv(self, x, k: int = 1):
        if k == 0:
            return self(x)
        x = np.asarray(x, float)
        u = self._u(x)
        inside = (u > 0.0) & (u < 1.0)
        out = np.zeros_like(x)
        if k <= 5:
            ramp = (1.0, 0.0, 0.0, -10.0, 15.0, -6.0)  # smoothstep in u
            dk = np.polynomial.polynomial.polyder(ramp, k)
            out[inside] = (2.0 / self.r0) ** k \
                * np.polynomial.polynomial.polyval(u[inside], dk)
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

    def __call__(self, x):
        return self.left(x) * self.right(x)

    def deriv(self, x, k: int = 1):
        if k == 0:
            return self(x)
        total = 0.0
        for i in range(k + 1):
            total = total + math.comb(k, i) * self.left.deriv(x, i) \
                * self.right.deriv(x, k - i)
        return total

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

    def __post_init__(self):
        check_integrable(self.alpha)
        if self.L <= 0:
            raise DomainError("domain length must be positive")
        if self.cutoff_radius is not None and not 0 < self.cutoff_radius <= self.L:
            raise DomainError("cutoff radius must lie in (0, L]")

    @property
    def real_alpha(self) -> float:
        a = complex(self.alpha)
        if abs(a.imag) > 1e-14:
            raise DomainError("simulators require a real exponent")
        return a.real

    def __call__(self, x):
        x = np.asarray(x, float)
        return x ** (-self.real_alpha) * self.smooth(x)

    def support_end(self) -> float:
        return self.cutoff_radius if self.cutoff_radius is not None else self.L

    def pieces(self) -> list:
        """Analytic subintervals of [0, support end] for quadrature."""
        end = self.support_end()
        cuts = sorted({b for b in self.smooth.breakpoints if 0.0 < b < end})
        edges = [0.0] + cuts + [end]
        return [(edges[i], edges[i + 1]) for i in range(len(edges) - 1)]

    def jets(self, order: int = 2) -> list:
        """Modified Taylor jets (flat connection): smooth^(l)(0) / l!."""
        if order < 0 or order > 4:
            raise RangeError("jet order must be in 0..4")
        zero = np.array([0.0])
        return [complex(np.asarray(self.smooth.deriv(zero, k))[0]) / math.factorial(k)
                for k in range(order + 1)]


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

    def _parts(self, x, k):
        # k-th derivative of g via (x u)^(k) = x u^(k) + k u^(k-1)
        s_k = self.s.deriv(x, k) if k else self.s(x)
        s_k1 = self.s.deriv(x, k + 1)
        s_km1 = (self.s.deriv(x, k - 1) if k >= 2 else self.s(x)) if k >= 1 else None
        term = self.sign * (self.a * s_k - (x * s_k1 + k * s_k))
        if k >= 1:
            term = term + self.c * (x * s_k + k * s_km1)
        else:
            term = term + self.c * x * s_k
        return term

    def __call__(self, x):
        x = np.asarray(x, float)
        return self._parts(x, 0)

    def deriv(self, x, k: int = 1):
        x = np.asarray(x, float)
        return self._parts(x, k)

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

    def _g_deriv(self, x, k):
        # Leibniz on each monomial-weighted term
        a, c2 = self.a, self.c2
        out = -a * (a + 1) * (self.s.deriv(x, k) if k else self.s(x))
        # 2 a x s': (x u)^(k) = x u^(k) + k u^(k-1), u = s'
        out = out + 2 * a * (x * self.s.deriv(x, k + 1)
                             + k * (self.s.deriv(x, k) if k else self.s(x)))
        # -x^2 s'': (x^2 u)^(k) = x^2 u^(k) + 2k x u^(k-1) + k(k-1) u^(k-2)
        for coef, u_order in ((-1.0, 2), (c2, 0)):
            term = x * x * self.s.deriv(x, k + u_order)
            if k >= 1:
                term = term + 2 * k * x * self.s.deriv(x, k - 1 + u_order)
            if k >= 2:
                d = k - 2 + u_order
                term = term + k * (k - 1) * (self.s.deriv(x, d) if d else self.s(x))
            out = out + coef * term
        return out

    def __call__(self, x):
        x = np.asarray(x, float)
        return self._g_deriv(x, 0)

    def deriv(self, x, k: int = 1):
        x = np.asarray(x, float)
        return self._g_deriv(x, k)

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
