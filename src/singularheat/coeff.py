"""Closed-form boundary coefficients for the singular heat-content series.

Everything here reduces to the base coefficient eps(bc, a1, a2), a ratio
of gamma functions, through shift identities in the two exponents.  The
table builder produces the full set of universal constants that multiply
the geometric invariants in the order-(j<=2) boundary terms; independent
recursion and cross-check residuals are exposed for verification.
"""

from __future__ import annotations

import cmath
import math
from enum import Enum
from functools import lru_cache

from .errors import AdmissibilityError
from .specfun import _signs, gamma_ratio

DEFAULT_DELTA = 1e-6

#: distinct exponent pairs whose base terms a process keeps (`verify all`
#: reads 606); the least recently used one goes first
_BASE_TERMS_MEMO = 1024

_SQRT_PI = math.sqrt(math.pi)


class BoundaryConditionKind(Enum):
    DIRICHLET = "dirichlet"
    ROBIN = "robin"

    @property
    def sign(self) -> int:
        return -1 if self is BoundaryConditionKind.DIRICHLET else 1


def _integer_distance(z: complex) -> float:
    return abs(z - round(z.real)) if abs(z.imag) < 1 else abs(z.imag)


class Frozen:
    """An immutable value: equal to another of its type with the same
    fields, and hashed by them.

    __init__ validates its arguments and hands them to _freeze, which
    stores them.
    """

    def _freeze(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_values", tuple(fields.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)


class ExponentPair(Frozen):
    """Admissible pair of singularity exponents (alpha1, alpha2).

    Requires Re(alpha1) < 1, Re(alpha2) < 1, and alpha1 + alpha2 further
    than DEFAULT_DELTA from every integer.  Integer-shifted pairs keep the same
    fractional part of the sum, so shifts in the table construction stay
    admissible automatically.
    """

    def __init__(self, alpha1: complex, alpha2: complex):
        a1, a2 = complex(alpha1), complex(alpha2)
        if not all(math.isfinite(v) for v in (a1.real, a1.imag, a2.real, a2.imag)):
            raise AdmissibilityError("exponents must be finite")
        if a1.real >= 1.0 or a2.real >= 1.0:
            raise AdmissibilityError(
                f"need Re(alpha1) < 1 and Re(alpha2) < 1, got {a1}, {a2}")
        if _integer_distance(a1 + a2) <= DEFAULT_DELTA:
            raise AdmissibilityError(
                f"alpha1 + alpha2 = {a1 + a2} is within {DEFAULT_DELTA} of an integer")
        self._freeze(alpha1=alpha1, alpha2=alpha2)


def _base_eps(sign: int, a1: complex, a2: complex) -> complex:
    """Closed form for the order-0 coefficient at an arbitrary pair.

    Only the integer-distance guard on a1 + a2 applies here; this private
    form is also evaluated at exponent pairs shifted upward, where the
    public admissibility constraint Re < 1 does not hold.
    """
    pref, term1, term2 = _base_terms(a1, a2, _signs(a1) + _signs(a2))
    return pref * (sign * term1 + term2)


@lru_cache(maxsize=_BASE_TERMS_MEMO)
def _base_terms(a1: complex, a2: complex, signs: tuple) -> tuple:
    """(pref, T1, T2) with eps(sign, a1, a2) = pref (sign T1 + T2).

    The two boundary conditions differ only in the sign of T1, so both
    read one evaluation per pair and process.  signs, which is
    _signs(a1) + _signs(a2), only keys the memo on the exact bits of the
    pair, as in specfun.log_gamma.
    """
    sigma = a1 + a2
    if _integer_distance(sigma) <= DEFAULT_DELTA:
        raise AdmissibilityError(
            f"alpha1 + alpha2 = {sigma} is within {DEFAULT_DELTA} of an integer")
    pref = cmath.exp(-sigma * math.log(2.0)) / _SQRT_PI
    half = 0.5 * (2.0 - sigma)
    term1 = gamma_ratio([half, 1.0 - a1, 1.0 - a2], [2.0 - sigma])
    term2 = (gamma_ratio([half, sigma - 1.0, 1.0 - a1], [a2])
             + gamma_ratio([half, sigma - 1.0, 1.0 - a2], [a1]))
    return pref, term1, term2


_DIRICHLET_KEYS = tuple(f"eps{k}" for k in range(15))
_ROBIN_KEYS = tuple(f"eps{k}" for k in range(20))


class CoefficientTable:
    """Universal constants for the boundary terms of order j <= 2.

    Dirichlet tables carry eps0..eps14; Robin tables additionally carry
    eps15..eps19 (the constants multiplying invariants built from the
    Robin boundary operator).
    """

    def __init__(self, bc: BoundaryConditionKind, pair: ExponentPair,
                 values: dict):
        self.bc = bc
        self.pair = pair
        self.values = values

    def __getitem__(self, key: str) -> complex:
        return self.values[key]

    @property
    def keys(self) -> tuple:
        return _ROBIN_KEYS if self.bc is BoundaryConditionKind.ROBIN else _DIRICHLET_KEYS

    def to_json_dict(self) -> dict:
        out = {
            "bc": self.bc.value,
            "alpha1": _c2j(self.pair.alpha1),
            "alpha2": _c2j(self.pair.alpha2),
            "delta": DEFAULT_DELTA,
        }
        for key in self.keys:
            out[key] = _c2j(self.values[key])
        return out

def _c2j(z: complex) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _eps15_raw(a1: complex, a2: complex) -> complex:
    """(2/(2 - sigma)) (a2 eps_D(a1, a2 + 1) + a1 eps_D(a1 + 1, a2)) in
    closed form.  The Gamma(sigma) terms of the two summands cancel and
    a Gamma(-a) = -Gamma(1 - a) leaves one product, which has no pole
    at a1 = 0 or a2 = 0.
    """
    sigma = a1 + a2
    return (2.0 / (2.0 - sigma)) * cmath.exp(-sigma * math.log(2.0)) \
        / _SQRT_PI * gamma_ratio([0.5 * (1.0 - sigma), 1.0 - a1, 1.0 - a2],
                                 [1.0 - sigma])


def build_table(bc: BoundaryConditionKind, pair: ExponentPair) -> CoefficientTable:
    """Assemble the full coefficient table at an admissible pair."""
    a1, a2 = complex(pair.alpha1), complex(pair.alpha2)
    sign = bc.sign
    sigma = a1 + a2

    def eps(b1: complex, b2: complex) -> complex:
        return _base_eps(sign, b1, b2)

    v: dict[str, complex] = {}
    v["eps0"] = eps(a1, a2)
    v["eps1"] = eps(a1 - 1, a2)
    v["eps3"] = eps(a1, a2 - 1)
    v["eps4"] = eps(a1 - 2, a2)
    v["eps7"] = eps(a1, a2 - 2)
    v["eps14"] = eps(a1 - 1, a2 - 1)
    v["eps6"] = v["eps0"]
    v["eps12"] = -v["eps0"]
    v["eps13"] = 0.0 + 0.0j

    if bc is BoundaryConditionKind.ROBIN:
        v["eps15"] = _eps15_raw(a1, a2)
        v["eps17"] = _eps15_raw(a1 - 1, a2)
        v["eps18"] = _eps15_raw(a1, a2 - 1)
        v["eps2"] = -0.5 * v["eps1"] - 0.5 * v["eps3"] + 0.5 * v["eps15"]
        v["eps5"] = -0.5 * v["eps4"] - 0.5 * v["eps14"] + 0.5 * v["eps17"]
        v["eps8"] = -0.5 * v["eps14"] - 0.5 * v["eps7"] + 0.5 * v["eps18"]
        # the swap recursion at (a1 + 1, a2 + 1) turns the shifted
        # Dirichlet term 2 a1 a2 eps_D(a1 + 1, a2 + 1) into (sigma - 1) eps0,
        # so eps16 = 2 (eps0 - eps_D(a1, a2))/(3 - sigma) = 4 pref T1/(3 -
        # sigma): T1 alone, where the difference of the two bases cancels
        pref, term1, _ = _base_terms(a1, a2, _signs(a1) + _signs(a2))
        v["eps16"] = 4.0 * pref * term1 / (3.0 - sigma)
        v["eps19"] = v["eps16"] - 0.5 * v["eps17"] - 0.5 * v["eps18"]
    else:
        v["eps2"] = -0.5 * (v["eps1"] + v["eps3"])
        v["eps5"] = -0.5 * (v["eps4"] + v["eps14"])
        v["eps8"] = -0.5 * (v["eps14"] + v["eps7"])

    v["eps9"] = -0.25 * v["eps4"] + 0.5 * v["eps6"] - 0.25 * v["eps7"]
    v["eps11"] = v["eps9"]
    v["eps10"] = (-0.125 * v["eps4"] - 0.5 * v["eps5"] - 0.25 * v["eps6"]
                  - 0.125 * v["eps7"] - 0.5 * v["eps8"] - 0.25 * v["eps14"])
    if bc is BoundaryConditionKind.ROBIN:
        v["eps10"] += (-0.25 * v["eps16"] + 0.25 * v["eps17"]
                       + 0.25 * v["eps18"] + 0.5 * v["eps19"])

    table = CoefficientTable(bc, pair, {})
    table.values.update((k, complex(v[k])) for k in table.keys)
    return table


def _rel_residual(lhs: complex, rhs: complex) -> float:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    return abs(lhs - rhs) / scale


def recursion_check(bc: BoundaryConditionKind, pair: ExponentPair) -> dict:
    """Relative residuals of the three downward shift identities.

    Keys: 'shift1' (alpha1 -> alpha1 - 2), 'shift2' (alpha2 -> alpha2 - 2),
    'swap' (both exponents down by 1, boundary condition swapped).
    """
    a1, a2 = complex(pair.alpha1), complex(pair.alpha2)
    sigma = a1 + a2
    e = _base_eps(bc.sign, a1, a2)
    other = -bc.sign
    out = {}
    out["shift1"] = _rel_residual(
        _base_eps(bc.sign, a1 - 2, a2),
        2.0 * (a1 - 2.0) * (a1 - 1.0) / (3.0 - sigma) * e)
    out["shift2"] = _rel_residual(
        _base_eps(bc.sign, a1, a2 - 2),
        2.0 * (a2 - 2.0) * (a2 - 1.0) / (3.0 - sigma) * e)
    out["swap"] = _rel_residual(
        _base_eps(bc.sign, a1 - 1, a2 - 1),
        -2.0 * (a1 - 1.0) * (a2 - 1.0) / (3.0 - sigma) * _base_eps(other, a1, a2))
    return out


def closed_form_crosscheck(pair: ExponentPair) -> dict:
    """Residuals of the Robin table against independent simplified forms.

    The table is assembled through shift identities only; the reference
    values below are explicit rational-in-alpha combinations of the base
    coefficients, derived by eliminating every shifted evaluation with
    the recursion relations, so agreement is a genuine double check of
    the assembly.  The eps16 row checks the table's form
    4 pref T1 / (3 - sigma) of _base_terms against
    Gamma(1 - a1) Gamma(1 - a2) / Gamma((5 - sigma)/2), the same value by
    the Legendre duplication formula, one product of other log-gammas
    with no difference that cancels.
    """
    a1, a2 = complex(pair.alpha1), complex(pair.alpha2)
    sigma = a1 + a2
    table = build_table(BoundaryConditionKind.ROBIN, pair)
    e_r = table["eps0"]
    e_d = _base_eps(-1, a1, a2)
    quad = a1 * a1 - 2 * a1 + a2 * a2 - 2 * a2 + 1
    refs = {
        "eps9": -0.5 * quad / (3.0 - sigma) * e_r,
        "eps11": -0.5 * quad / (3.0 - sigma) * e_r,
        "eps10": (a1 * a1 + a2 * a2 - 1) / (4.0 * (3.0 - sigma)) * e_r
        - a1 * a2 / (2.0 * (3.0 - sigma)) * e_d,
        "eps19": sigma / (3.0 - sigma) * (e_r - e_d),
        "eps16": gamma_ratio([1.0 - a1, 1.0 - a2], [0.5 * (5.0 - sigma)]),
    }
    return {key: _rel_residual(table[key], ref) for key, ref in refs.items()}
