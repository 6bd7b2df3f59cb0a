"""Tests for asymptotic series fitting."""

import json
import math

import numpy as np
import pytest

from singularheat.asymfit import (AsymptoticModel, HeatContentSamples, fit,
                                  model_exponents)
from singularheat.coeff import BoundaryConditionKind
from singularheat.errors import (IllConditionedError, InsufficientDataError,
                                 RangeError)
from singularheat.heat1d import interval_heat_content
from singularheat.profiles import SingularProfile, constant

D = BoundaryConditionKind.DIRICHLET
#: geometric grid resolving gap-0.05 exponent pairs
TS = np.geomspace(1e-6, 1e-2, 40)


def _samples(ts, f):
    return HeatContentSamples([(float(t), float(f(t)), 0.0) for t in ts])


def test_synthetic_exact_recovery():
    m = fit(_samples(TS, lambda t: 2 * t ** 0.15 + 3 * t),
            (0.3, 0.4), n_int=1, j_max=0)
    got = dict(zip(m.exponents, m.coefficients))
    assert got[0.15000000000000002] == pytest.approx(2.0, abs=1e-12)
    assert got[1.0] == pytest.approx(3.0, abs=1e-12)
    assert got[0.0] == pytest.approx(0.0, abs=1e-12)
    assert m.fit_residual < 1e-12


def test_six_term_recovery_on_geometric_grid():
    # grid for (0.35, 0.35): interior {0, 1, 2}, boundary {0.15, 0.65, 1.15}
    exps = [0.0, 0.15, 0.65, 1.0, 1.15, 2.0]
    coefs = [1.3, 2.0, -1.0, 3.0, 0.5, 1.5]

    def f(t):
        return sum(c * t ** g for g, c in zip(exps, coefs))

    m = fit(_samples(TS, f), (0.35, 0.35), n_int=2, j_max=2)
    assert m.exponents == pytest.approx(exps)
    assert m.coefficients == pytest.approx(coefs, abs=1e-9)
    assert m.fit_residual < 1e-12


def test_qr_solve_matches_known_solution_within_condition():
    # six columns t^gamma on a geometric grid, data in their span to
    # rounding: QR and back substitution recover the solution y of the
    # row- and column-scaled system to cond * eps in norm (Golub and Van
    # Loan, sec. 5.3), and the Jacobi singular values of R give its
    # condition as numpy's SVD does
    exps = [0.0, 0.15, 0.65, 1.0, 1.15, 2.0]
    coefs = [1.3, 2.0, -1.0, 3.0, 0.5, 1.5]
    ts = np.geomspace(1e-6, 1e-2, 40)
    beta = sum(c * ts ** g for g, c in zip(exps, coefs))
    m = fit(_samples(ts, lambda t: sum(c * t ** g
                                       for g, c in zip(exps, coefs))),
            (0.35, 0.35), n_int=2, j_max=2)
    design = ts[:, None] ** np.asarray(exps) / np.abs(beta)[:, None]
    col = np.linalg.norm(design, axis=0)
    sv = np.linalg.svd(design / col, compute_uv=False)
    cond = sv[0] / sv[-1]
    assert 1e3 < cond < 1e6
    assert m.condition_estimate == pytest.approx(cond, rel=1e-12)
    y = np.asarray(coefs) * col
    err = np.linalg.norm(np.asarray(m.coefficients) * col - y)
    assert err <= 1e3 * cond * np.finfo(float).eps * np.linalg.norm(y)


def test_classical_halfpower_coefficient():
    one = SingularProfile(0.0, constant(), math.pi)
    entries = []
    for t in np.geomspace(1e-5, 1e-3, 25):
        b, e = interval_heat_content(one, one, D, 0.0, float(t))
        entries.append((float(t), b, e))
    s = HeatContentSamples(entries)
    m = fit(s, (0.0, 0.0), j_max=0, known_interior=[math.pi])
    assert m.coefficients[0] == pytest.approx(-4.0 / math.sqrt(math.pi),
                                              abs=1e-6)


def test_known_interior_subtraction_improves_conditioning():
    def f(t):
        return 1.3 + 0.2 * t + 2 * t ** 0.15 - t ** 0.65

    s = _samples(TS, f)
    full = fit(s, (0.3, 0.4), n_int=1, j_max=1)
    sub = fit(s, (0.3, 0.4), j_max=1, known_interior=[1.3, 0.2])
    assert sub.condition_estimate <= full.condition_estimate
    assert sub.coefficients == pytest.approx([2.0, -1.0], abs=1e-10)


def test_window_halving_stability():
    def f(t):
        return 2 * t ** 0.15 - t ** 0.65 + 0.01 * t ** 1.15

    s_full = _samples(TS, f)
    s_half = _samples(TS[TS <= 1e-3], f)
    m_full = fit(s_full, (0.3, 0.4), j_max=2, known_interior=[])
    m_half = fit(s_half, (0.3, 0.4), j_max=2, known_interior=[])
    tol = 10 * max(m_full.fit_residual, 1e-12)
    for a, b in zip(m_full.coefficients, m_half.coefficients):
        assert abs(a - b) <= max(tol, 1e-9 * abs(a))


def test_fit_guards():
    s = _samples(TS, lambda t: 2 * t ** 0.15)
    with pytest.raises(RangeError):
        fit(s, (0.3, 0.4), n_int=2, j_max=3)  # 7 terms
    narrow = _samples(np.geomspace(1e-4, 5e-4, 30), lambda t: t)
    with pytest.raises(InsufficientDataError):
        fit(narrow, (0.3, 0.4))
    few = _samples(np.geomspace(1e-6, 1e-2, 5), lambda t: t)
    with pytest.raises(InsufficientDataError):
        fit(few, (0.3, 0.4), n_int=1, j_max=2)
    # near-coincident exponents: interior n=1 vs boundary j=1 at sum ~ 0
    with pytest.raises(RangeError):
        fit(s, (0.01, 0.01), n_int=1, j_max=1)


def test_ill_conditioned_error(monkeypatch):
    # within the gap and term-count guards the scaled design stays around
    # condition 1e4-1e5, so the threshold path is exercised directly
    import singularheat.asymfit as af
    ts = np.geomspace(1e-3, 0.101, 40)
    s = _samples(ts, lambda t: t ** 0.051 + t ** 0.551)
    m = fit(s, (0.449, 0.449), n_int=2, j_max=2)
    assert m.condition_estimate > 1e3
    monkeypatch.setattr(af, "_COND_MAX", 1e3)
    with pytest.raises(IllConditionedError):
        fit(s, (0.449, 0.449), n_int=2, j_max=2)


def test_overflowing_design_or_data_is_ill_conditioned():
    # t^gamma past the doubles, or a subtracted interior term past them,
    # is a numeric failure, never a NaN in the model
    ts = np.geomspace(1e-3, 1e3, 20)
    s = _samples(ts, lambda t: 1.0 + t ** 0.5)
    with pytest.raises(IllConditionedError, match="overflow"):
        fit(s, (-3000.0, 0.4), n_int=1, j_max=1)
    huge = _samples(np.geomspace(1e100, 1e106, 20), lambda t: 1.0)
    with pytest.raises(IllConditionedError, match="overflow"):
        fit(huge, (0.3, 0.4), j_max=0, known_interior=[1.0, 1.0, 1.0, 1.0])


def test_model_exponents_and_serialization():
    exps = model_exponents((0.3, 0.4), 1, 1)
    assert exps == pytest.approx([0.0, 0.15, 0.65, 1.0])
    m = AsymptoticModel([0.15, 1.0], [2.0, 3.0], 1e-13, 5.0)
    obj = json.loads(m.to_json())
    assert set(obj) == {"exponents", "coefficients", "residual", "condition"}
    assert obj["exponents"] == m.exponents
    assert obj["coefficients"] == m.coefficients


def test_classical_deficit_log_slope():
    # pi - beta(t) ~ (4 / sqrt(pi)) t^(1/2): the log-log slope is 1/2
    one = SingularProfile(0.0, constant(), math.pi)
    ts = np.geomspace(1e-5, 1e-3, 15)
    deficit = [math.pi - interval_heat_content(one, one, D, 0.0, float(t))[0]
               for t in ts]
    slope, _ = np.polyfit(np.log(ts), np.log(deficit), 1)
    assert slope == pytest.approx(0.5, abs=1e-3)
