"""Boundary jet/geometry data and the order-(j<=2) boundary integrands.

BoundaryPointData collects every scalar entering the boundary terms at a
single boundary point; boundary_beta contracts it against a coefficient
table.  modified_taylor_jets builds the phi/rho jets from the exact
Taylor coefficients of a smooth factor at 0 and the connection algebra.
warped_invariants generates such data for the warped-product family of
model metrics, where the boundary terms are known to be independent of
the warping profile, and scaling_check verifies the weighted homogeneity
of the terms under the parabolic rescaling.
"""

from __future__ import annotations

import math

from .coeff import BoundaryConditionKind, CoefficientTable, ExponentPair
from .errors import DegenerateInputError, RangeError

_TWO_PI = 2.0 * math.pi


class BoundaryPointData:
    """All scalars of the boundary integrands at one boundary point.

    phi/rho hold the modified Taylor jets of orders 0..2; the curvature
    fields vanish for 1-D problems.  weight is the boundary measure the
    point carries (e.g. (2 pi)^(m-1) for a torus cross-section).
    """

    def __init__(self, phi: tuple, rho: tuple, Laa: float = 0.0,
                 LabLab: float = 0.0, LaaLbb: float = 0.0, Ricmm: float = 0.0,
                 tau: float = 0.0, E: float = 0.0, SR: float = 0.0,
                 grad_pair: complex = 0.0, weight: float = 1.0):
        if len(phi) != 3 or len(rho) != 3:
            raise RangeError("phi and rho must carry jets of orders 0, 1, 2")
        if not weight > 0:
            raise DegenerateInputError("weight must be positive")
        self.phi, self.rho = phi, rho
        self.Laa, self.LabLab, self.LaaLbb = Laa, LabLab, LaaLbb
        self.Ricmm, self.tau, self.E, self.SR = Ricmm, tau, E, SR
        self.grad_pair, self.weight = grad_pair, weight


class WarpedProfile:
    """Warping data of a product-torus model metric near the boundary."""

    def __init__(self, fprime: tuple, fsecond: tuple, SR0: float = 0.0,
                 m: int = 2):
        if m < 2:
            raise RangeError("dimension m must be >= 2")
        if len(fprime) != m - 1 or len(fsecond) != m - 1:
            raise RangeError("need m - 1 warping entries")
        self.fprime, self.fsecond, self.SR0, self.m = fprime, fsecond, SR0, m


def modified_taylor_jets(taylor: tuple, omega_m: float,
                         omega_m_derivative: float = 0.0) -> list:
    """Modified Taylor jets (1/l!) (d/dr + omega_m)^l s at r = 0, l <= 2.

    taylor holds the exact Taylor coefficients (s(0), s'(0), s''(0)/2, ...)
    of the smooth factor s at 0; they are padded to the 2-jet.  omega_m
    is the signed connection, modelled linearly in r through
    omega_m_derivative: the dual side passes the negated connection.
    """
    t = [complex(v) for v in (*taylor, 0.0, 0.0)[:3]]
    w, wp = omega_m, omega_m_derivative
    return [t[0], t[1] + w * t[0],
            t[2] + w * t[1] + 0.5 * (wp + w * w) * t[0]]


def warped_invariants(w: WarpedProfile, a: ExponentPair) -> BoundaryPointData:
    """Boundary data of the warped-product model metric at r = 0.

    Only the 2-jets of the warping functions enter, so the smooth factor
    of rho (the product of e^{-f_a}) is given by its exact quadratic
    Taylor coefficients, and that of phi is 1.
    """
    F = float(sum(w.fprime))
    G = float(sum(w.fsecond))
    sum_sq = float(sum(v * v for v in w.fprime))
    phi_jets = modified_taylor_jets((1.0,), -0.5 * F, -0.5 * G)
    rho_jets = modified_taylor_jets((1.0, -F, 0.5 * (F * F - G)), 0.5 * F,
                                    0.5 * G)
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
    return BoundaryPointData(
        phi, rho,
        Laa=data.Laa / c, LabLab=data.LabLab / c ** 2,
        LaaLbb=data.LaaLbb / c ** 2, Ricmm=data.Ricmm / c ** 2,
        tau=data.tau / c ** 2, E=data.E / c ** 2, SR=data.SR / c,
        grad_pair=c ** (a1 + a2 - 2) * complex(data.grad_pair),
        weight=data.weight,
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


def flat_data(SR: float = 0.0) -> BoundaryPointData:
    """Boundary data of a flat 1-D endpoint with unit data jets."""
    unit = (1.0 + 0.0j, 0.0j, 0.0j)
    return BoundaryPointData(phi=unit, rho=unit, SR=SR)
