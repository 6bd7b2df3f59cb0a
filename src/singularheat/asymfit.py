"""Least-squares extraction of asymptotic coefficients from beta(t) samples.

The model class is a finite sum of real powers of t drawn from two
families: integer interior exponents n and boundary exponents
(1 + j - a1 - a2) / 2.  Fitting solves the scaled Vandermonde-type system
[t_i^{gamma_k}] c = beta_i by SVD with row weights 1 / max(|beta_i|, floor)
so that small-t rows carry equal relative weight.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import (IllConditionedError, InsufficientDataError, RangeError)
from .heat1d import HeatContentSamples

#: minimum allowed gap between fitted exponents
GAP_MIN = 0.05
#: Vandermonde-type conditioning becomes hopeless past this many terms
TERM_CAP = 6
_COND_MAX = 1e10
_WEIGHT_FLOOR = 1e-30


class AsymptoticModel:
    """Fitted finite power series sum_k c_k t^{gamma_k}."""

    def __init__(self, exponents: list, coefficients: list,
                 fit_residual: float, condition_estimate: float):
        self.exponents = exponents
        self.coefficients = coefficients
        self.fit_residual = fit_residual
        self.condition_estimate = condition_estimate

    def to_json(self) -> str:
        return json.dumps({
            "exponents": list(map(float, self.exponents)),
            "coefficients": list(map(float, self.coefficients)),
            "residual": float(self.fit_residual),
            "condition": float(self.condition_estimate),
        })

def model_exponents(a, n_int: int, j_max: int) -> list:
    """Exponent grid {n} union {(1 + j - a1 - a2) / 2}, sorted."""
    a1, a2 = a
    s = complex(a1).real + complex(a2).real
    exps = [float(n) for n in range(n_int + 1)]
    exps += [(1.0 + j - s) / 2.0 for j in range(j_max + 1)]
    return sorted(exps)


def fit(samples: HeatContentSamples, a,
        n_int: int = 2, j_max: int = 3,
        known_interior: list | None = None) -> AsymptoticModel:
    """Fit the asymptotic series to beta(t) samples.

    a is the (alpha1, alpha2) pair; it may be the classical case
    alpha1 + alpha2 = 0, where the boundary family is the half-integers.
    With known_interior supplied, the interior sum  sum_n beta_n t^n is
    subtracted exactly and only the boundary family is fitted (much
    better conditioned, since the remaining exponents are well spaced).
    """
    t = np.array([e[0] for e in samples.entries], float)
    beta = np.array([e[1] for e in samples.entries], float)
    if t.size < 2 or t.max() / t.min() < 100.0:
        raise InsufficientDataError(
            "need samples spanning at least two decades of t")

    if known_interior is not None:
        for n, bn in enumerate(known_interior):
            beta = beta - complex(bn).real * t ** n
        n_int = -1  # the interior sum is subtracted, not fitted
    exps = model_exponents(a, n_int, j_max)

    if len(exps) > TERM_CAP:
        raise RangeError(
            f"at most {TERM_CAP} simultaneous terms are solvable; got "
            f"{len(exps)} (supply known_interior or lower j_max)")
    gaps = np.diff(np.asarray(exps))
    if np.any(gaps < GAP_MIN):
        raise RangeError(f"exponent gaps below {GAP_MIN}: {exps}")
    if t.size < 2 * len(exps):
        raise InsufficientDataError(
            f"need at least {2 * len(exps)} samples for {len(exps)} terms")

    w = 1.0 / np.maximum(np.abs(beta), _WEIGHT_FLOOR)
    design = np.power.outer(t, np.asarray(exps))
    aw = design * w[:, None]
    bw = beta * w
    col = np.linalg.norm(aw, axis=0)
    col[col == 0.0] = 1.0
    aw = aw / col[None, :]
    coef, _, _, sv = np.linalg.lstsq(aw, bw, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if cond > _COND_MAX:
        raise IllConditionedError(
            f"design matrix condition {cond:.3e} exceeds {_COND_MAX:.0e}")
    coef = coef / col
    resid = float(np.sqrt(np.mean((aw @ (coef * col) - bw) ** 2)))
    return AsymptoticModel(list(map(float, exps)), list(map(float, coef)),
                           resid, cond)

