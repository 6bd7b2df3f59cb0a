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

from .coeff import DEFAULT_DELTA
from .errors import DomainError, PoleError, QuadratureError, RangeError
from .profiles import (IntertwinedFactor, Product, SingularProfile,
                       SmoothFunction)
from .quadrature import GAUSS8, segments

#: GAUSS8 panels per segment past the collar; the level check compares
#: them with half as many
_PANELS = 8
#: largest level difference, relative to sum |w f|
_FAIL_REL = 1e-9


def _panels(f, a: float, b: float, count: int) -> tuple:
    """(sum w f, sum |w f|) of the GAUSS8 rule on count panels of [a, b],
    0 < a < b, in geometric progression: each panel is as wide, relative
    to its distance from x = 0, as the others."""
    q = (b / a) ** (1.0 / count)
    edges = [a * q ** i for i in range(count)] + [b]
    value, mass = 0.0, 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        for g, w in zip(*GAUSS8):
            wf = half * w * f(mid + half * g)
            value += wf
            mass += abs(wf)
    return value, mass


def i_reg(sigma: complex, smooth: SmoothFunction, L: float,
          collar: float | None = None) -> complex:
    """Finite part of the integral of x^(-sigma) smooth(x) over [0, L].

    sigma may be complex.  The Taylor data taylor0() is one derivatives
    pass at 0 up to taylor_degree(), exact up to the Taylor radius, the
    first breakpoint of smooth; a factor without it raises DomainError.
    The collar width eps (default that radius, at most L) must lie in
    (0, radius]; otherwise DomainError is raised.  A closed-form term
    within DEFAULT_DELTA of a pole raises PoleError.

    Past the collar the integrand is analytic on each segment between
    breakpoints, and bounded away from x = 0, its nearest singularity, so
    each segment is integrated by GAUSS8 on _PANELS panels in Python
    floats (Davis and Rabinowitz, Methods of Numerical Integration, 2nd
    ed., 1984, ch. 2).  The panels grow geometrically, so each sees x = 0
    from the same relative distance and a collar narrower than the radius
    converges as fast as the ramp.  The sum is checked against the rule
    on half as many panels: QuadratureError when the two differ by more
    than _FAIL_REL sum |w f|, so a collar too narrow for the panels
    fails rather than returning a wrong value.
    """
    sigma = complex(sigma)
    radius = min(smooth.breakpoints, default=math.inf)
    eps = min(radius if collar is None else collar, L)
    if not 0.0 < eps <= radius:
        raise DomainError("need exact Taylor data on the collar [0, eps]")
    taylor = smooth.taylor0()

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

    # the plain integrand away from the collar, a real power for a real
    # sigma
    power = -sigma.real if sigma.imag == 0.0 else -sigma

    def f(x):
        return x ** power * smooth(x)

    for a, b in segments(eps, L, smooth.breakpoints):
        value, mass = _panels(f, a, b, _PANELS)
        diff = abs(value - _panels(f, a, b, _PANELS // 2)[0])
        if diff > _FAIL_REL * mass:
            raise QuadratureError(
                f"Gauss panels did not converge on [{a}, {b}]: {_PANELS} "
                f"and {_PANELS // 2} panels differ by {diff:.3e} vs "
                f"{_FAIL_REL:g} * {mass:.3e}")
        total += value
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
