"""Complex log-gamma and stable gamma ratios.

The evaluator is a Lanczos approximation (g = 607/128, Godfrey's 15
coefficients) on the right half-plane combined with the reflection
formula for Re(z) < 1/2.
Ratio evaluation works in log space so that large individual gamma values
cancel before exponentiation, and zeros coming from poles of a reciprocal
gamma factor are handled exactly.  Each process evaluates a log-gamma once
per distinct argument: the results are kept in a bounded memo keyed on
the exact bits of the argument.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Sequence
from functools import lru_cache

from .errors import PoleError, RangeError

POLE_TOL = 1e-12

# Lanczos coefficients for g = 607/128, n = 15 (Godfrey's tabulation);
# relative accuracy ~1e-15 on the right half-plane, comfortably inside
# the 1e-13 contract for |z| <= 20.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)

#: distinct arguments whose log-gamma a process keeps (`verify all` reads
#: 2,472); the least recently used one goes first
_LOG_GAMMA_MEMO = 4096


def _signs(z: complex) -> tuple:
    """Signs of the parts of z.  Beside z they key a memo on its exact
    bits: complex equality takes 0.0 == -0.0, but the two zeros pick
    opposite sides of a branch cut (log_gamma(-0.7 + 0j) is ... + pi j,
    log_gamma(-0.7 - 0j) is ... - pi j)."""
    return math.copysign(1.0, z.real), math.copysign(1.0, z.imag)


def _near_nonpositive_integer(z: complex) -> bool:
    if abs(z.imag) > POLE_TOL:
        return False
    n = round(z.real)
    return n <= 0 and abs(z.real - n) <= POLE_TOL


def _log_gamma_right(z: complex) -> complex:
    """Lanczos sum, valid for Re(z) >= 0.5.

    The series approximates Gamma(z + 1); dividing by z at the end
    recovers Gamma(z).
    """
    acc = _LANCZOS_C[0]
    for k in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[k] / (z + k)
    t = z + _LANCZOS_G + 0.5
    return (_LOG_SQRT_2PI + (z + 0.5) * cmath.log(t) - t
            + cmath.log(acc) - cmath.log(z))


def log_gamma(z: complex) -> complex:
    """Logarithm of the gamma function, principal determination.

    Raises PoleError when z is within POLE_TOL of a non-positive integer,
    and RangeError when Re z < 1/2 and sin(pi z) overflows (|Im z| > 226).
    exp(log_gamma(z)) equals Gamma(z); for real positive z the result is
    real.  The results of the last _LOG_GAMMA_MEMO distinct arguments,
    distinct to the last bit, are kept for the process; errors are not.
    """
    z = complex(z)
    return _log_gamma(z, _signs(z))


@lru_cache(maxsize=_LOG_GAMMA_MEMO)
def _log_gamma(z: complex, signs: tuple) -> complex:
    """log_gamma(z); signs, which is _signs(z), only keys the memo.

    The pole check runs once per distinct argument; gamma_ratio, which
    checks its arguments itself, repeats it only here, on a memo miss.
    """
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise RangeError(f"non-finite argument {z!r}")
    if _near_nonpositive_integer(z):
        raise PoleError(f"log_gamma pole at {z!r}")
    if z.real >= 0.5:
        return _log_gamma_right(z)
    # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
    try:
        log_sin = cmath.log(cmath.sin(cmath.pi * z))
    except OverflowError:
        raise RangeError(f"log_gamma reflection overflowed at {z!r}") from None
    return _LOG_PI - log_sin - _log_gamma_right(1.0 - z)


def gamma_ratio(numerator: Sequence[complex], denominator: Sequence[complex]) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), pole-aware.

    A pole of a denominator factor is a zero of the ratio and returns
    exactly 0. A pole of a numerator factor raises PoleError (the ratio
    genuinely diverges there, unless cancelled, which this routine does
    not attempt to detect).
    """
    for z in numerator:
        if _near_nonpositive_integer(complex(z)):
            raise PoleError(f"gamma_ratio numerator pole at {z!r}")
    for z in denominator:
        if _near_nonpositive_integer(complex(z)):
            return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    for z in numerator:
        acc += log_gamma(z)
    for z in denominator:
        acc -= log_gamma(z)
    try:
        out = cmath.exp(acc)
        if math.isfinite(out.real) and math.isfinite(out.imag):
            return out
    except OverflowError:
        pass
    raise RangeError("gamma_ratio overflowed; arguments too extreme")

