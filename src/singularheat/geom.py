"""Boundary jet/geometry data and the order-(j<=2) boundary integrands.

BoundaryPointData collects every scalar entering the boundary terms at a
single boundary point; boundary_beta contracts it against a coefficient
table.  modified_taylor_jets builds the phi/rho jets from the smooth
factor's exact derivatives at 0 and the connection algebra.
warped_invariants generates such data for the warped-product family of
model metrics, where the boundary terms are known to be independent of
the warping profile, and scaling_check verifies the weighted homogeneity
of the terms under the parabolic rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

from .coeff import BoundaryConditionKind, CoefficientTable, ExponentPair
from .errors import DegenerateInputError, RangeError
from .profiles import Polynomial, SmoothFunction, constant, taylor_jets

_TWO_PI = 2.0 * math.pi


class JetSide(Enum):
    TEMPERATURE = "temperature"
    DUAL = "dual"


@dataclass(frozen=True)
class BoundaryPointData:
    """All scalars of the boundary integrands at one boundary point.

    phi/rho hold the modified Taylor jets of orders 0..2; the curvature
    fields vanish for 1-D problems.  weight is the boundary measure the
    point carries (e.g. (2 pi)^(m-1) for a torus cross-section).
    """

    phi: tuple
    rho: tuple
    Laa: float = 0.0
    LabLab: float = 0.0
    LaaLbb: float = 0.0
    Ricmm: float = 0.0
    tau: float = 0.0
    E: float = 0.0
    SR: float = 0.0
    grad_pair: complex = 0.0
    weight: float = 1.0

    def __post_init__(self):
        if len(self.phi) != 3 or len(self.rho) != 3:
            raise RangeError("phi and rho must carry jets of orders 0, 1, 2")
        if not self.weight > 0:
            raise DegenerateInputError("weight must be positive")

    def to_json_dict(self) -> dict:
        out = {
            "phi": [[complex(v).real, complex(v).imag] for v in self.phi],
            "rho": [[complex(v).real, complex(v).imag] for v in self.rho],
            "grad_pair": [complex(self.grad_pair).real, complex(self.grad_pair).imag],
        }
        for name in ("Laa", "LabLab", "LaaLbb", "Ricmm", "tau", "E", "SR", "weight"):
            out[name] = getattr(self, name)
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BoundaryPointData":
        def as_c(v):
            return complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
        return cls(
            phi=tuple(as_c(v) for v in obj["phi"]),
            rho=tuple(as_c(v) for v in obj["rho"]),
            Laa=obj.get("Laa", 0.0), LabLab=obj.get("LabLab", 0.0),
            LaaLbb=obj.get("LaaLbb", 0.0), Ricmm=obj.get("Ricmm", 0.0),
            tau=obj.get("tau", 0.0), E=obj.get("E", 0.0), SR=obj.get("SR", 0.0),
            grad_pair=as_c(obj.get("grad_pair", 0.0)),
            weight=obj.get("weight", 1.0),
        )


@dataclass(frozen=True)
class WarpedProfile:
    """Warping data of a product-torus model metric near the boundary."""

    fprime: tuple
    fsecond: tuple
    SR0: float = 0.0
    m: int = 2

    def __post_init__(self):
        if self.m < 2:
            raise RangeError("dimension m must be >= 2")
        if len(self.fprime) != self.m - 1 or len(self.fsecond) != self.m - 1:
            raise RangeError("need m - 1 warping entries")


def modified_taylor_jets(smooth: SmoothFunction, omega_m: float,
                         order: int = 2, side: JetSide = JetSide.TEMPERATURE,
                         omega_m_derivative: float = 0.0) -> list:
    """Modified Taylor jets (1/l!) (covariant d/dr)^l smooth at r = 0.

    The covariant derivative acts as d/dr + omega_m on the temperature
    side and d/dr - omega_m on the dual side, with omega_m(r) modelled
    linearly through omega_m_derivative.  The smooth factor's Taylor
    coefficients at 0 come from its exact derivatives pass.
    """
    if order not in (0, 1, 2):
        raise RangeError("order must be 0, 1, or 2")
    sgn = 1.0 if side is JetSide.TEMPERATURE else -1.0
    w, wp = sgn * omega_m, sgn * omega_m_derivative
    t = taylor_jets(smooth, order)
    jets = [t[0]]
    if order >= 1:
        jets.append(t[1] + w * t[0])
    if order >= 2:
        jets.append(t[2] + w * t[1] + 0.5 * (wp + w * w) * t[0])
    return jets


def warped_invariants(w: WarpedProfile, a: ExponentPair) -> BoundaryPointData:
    """Boundary data of the warped-product model metric at r = 0.

    Only the 2-jets of the warping functions enter, so the smooth factor
    of rho (the product of e^{-f_a}) is represented by its exact
    quadratic Taylor polynomial.
    """
    F = float(sum(w.fprime))
    G = float(sum(w.fsecond))
    sum_sq = float(sum(v * v for v in w.fprime))
    rho_smooth = Polynomial((1.0, -F, 0.5 * (F * F - G)))
    phi_jets = modified_taylor_jets(constant(), -0.5 * F, 2,
                                    JetSide.TEMPERATURE, -0.5 * G)
    rho_jets = modified_taylor_jets(rho_smooth, -0.5 * F, 2,
                                    JetSide.DUAL, -0.5 * G)
    return BoundaryPointData(
        phi=tuple(phi_jets), rho=tuple(rho_jets),
        Laa=-F, LabLab=sum_sq, LaaLbb=F * F,
        Ricmm=-(G + sum_sq), tau=0.0,
        E=0.5 * G + 0.25 * F * F,
        SR=w.SR0 + 0.5 * F,
        grad_pair=0.0, weight=_TWO_PI ** (w.m - 1),
    )


def boundary_beta(table: CoefficientTable, data: BoundaryPointData,
                  j: int) -> complex:
    """The j-th boundary term contributed by one boundary point."""
    if j not in (0, 1, 2):
        raise RangeError("boundary term order must be 0, 1, or 2")
    robin = table.bc is BoundaryConditionKind.ROBIN
    p, r = data.phi, data.rho
    if j == 0:
        val = table["eps0"] * p[0] * r[0]
    elif j == 1:
        val = (table["eps1"] * p[1] * r[0]
               + table["eps2"] * data.Laa * p[0] * r[0]
               + table["eps3"] * p[0] * r[1])
        if robin:
            val += table["eps15"] * data.SR * p[0] * r[0]
    else:
        val = (table["eps4"] * p[2] * r[0]
               + table["eps5"] * data.Laa * p[1] * r[0]
               + table["eps6"] * data.E * p[0] * r[0]
               + table["eps7"] * p[0] * r[2]
               + table["eps8"] * data.Laa * p[0] * r[1]
               + table["eps9"] * data.Ricmm * p[0] * r[0]
               + table["eps10"] * data.LaaLbb * p[0] * r[0]
               + table["eps11"] * data.LabLab * p[0] * r[0]
               + table["eps12"] * data.grad_pair
               + table["eps13"] * data.tau * p[0] * r[0]
               + table["eps14"] * p[1] * r[1])
        if robin:
            val += (table["eps16"] * data.SR ** 2 * p[0] * r[0]
                    + table["eps17"] * data.SR * p[1] * r[0]
                    + table["eps18"] * data.SR * p[0] * r[1]
                    + table["eps19"] * data.SR * data.Laa * p[0] * r[0])
    return data.weight * val


def rescale_data(data: BoundaryPointData, a: ExponentPair,
                 c: float) -> BoundaryPointData:
    """Apply the parabolic rescaling weights to every field."""
    if not c > 0:
        raise RangeError("scaling factor must be positive")
    a1, a2 = complex(a.alpha1), complex(a.alpha2)
    phi = tuple(c ** (a1 - l) * complex(v) for l, v in enumerate(data.phi))
    rho = tuple(c ** (a2 - l) * complex(v) for l, v in enumerate(data.rho))
    return replace(
        data, phi=phi, rho=rho,
        Laa=data.Laa / c, LabLab=data.LabLab / c ** 2,
        LaaLbb=data.LaaLbb / c ** 2, Ricmm=data.Ricmm / c ** 2,
        tau=data.tau / c ** 2, E=data.E / c ** 2, SR=data.SR / c,
        grad_pair=c ** (a1 + a2 - 2) * complex(data.grad_pair),
    )


def scaling_check(table: CoefficientTable, data: BoundaryPointData,
                  c: float, j: int) -> float:
    """Residual of beta_j(scaled data) = c^(a1 + a2 - j) beta_j(data).

    Returns the relative residual; when beta_j(data) vanishes the
    absolute residual of the scaled side is returned instead.
    """
    a = table.pair
    base = boundary_beta(table, data, j)
    scaled = boundary_beta(table, rescale_data(data, a, c), j)
    factor = c ** (complex(a.alpha1) + complex(a.alpha2) - j)
    if abs(base) < 1e-300:
        return abs(scaled)
    return abs(scaled - factor * base) / abs(base)


def flat_data(phi_jets=(1.0, 0.0, 0.0), rho_jets=(1.0, 0.0, 0.0),
              SR: float = 0.0, E: float = 0.0,
              weight: float = 1.0) -> BoundaryPointData:
    """Boundary data of a flat 1-D endpoint."""
    return BoundaryPointData(phi=tuple(complex(v) for v in phi_jets),
                             rho=tuple(complex(v) for v in rho_jets),
                             SR=SR, E=E, weight=weight)
