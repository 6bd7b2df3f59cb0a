"""Tests for the coefficient engine."""

import json
import math
import random
import struct

import mpmath
import pytest

from singularheat import coeff, specfun
from singularheat.coeff import (BoundaryConditionKind, DEFAULT_DELTA,
                                ExponentPair, build_table,
                                closed_form_crosscheck, recursion_check)
from singularheat.asymfit import model_exponents
from singularheat.errors import AdmissibilityError

D = BoundaryConditionKind.DIRICHLET
R = BoundaryConditionKind.ROBIN


def base_eps(bc, pair):
    """The leading coefficient eps(bc, alpha1, alpha2)."""
    return build_table(bc, pair)["eps0"]


def _random_pair(rng, complex_ok=True):
    while True:
        a1 = complex(rng.uniform(-3, 0.9),
                     rng.uniform(-1, 1) if complex_ok else 0.0)
        a2 = complex(rng.uniform(-3, 0.9),
                     rng.uniform(-1, 1) if complex_ok else 0.0)
        try:
            return ExponentPair(a1, a2)
        except AdmissibilityError:
            continue


def test_admissibility_rejections():
    with pytest.raises(AdmissibilityError):
        ExponentPair(1.2, 0.3)          # Re(alpha1) >= 1
    with pytest.raises(AdmissibilityError):
        ExponentPair(0.3, 0.7)          # sum is an integer
    with pytest.raises(AdmissibilityError):
        ExponentPair(0.3, 0.7 + 1e-8)   # sum within default delta of 1
    ExponentPair(0.3, 0.7 + 1e-4)       # outside delta: fine


def test_swap_symmetry_of_base():
    pair = ExponentPair(0.3, 0.4)
    swapped = ExponentPair(0.4, 0.3)
    for bc in (D, R):
        assert base_eps(bc, pair) == pytest.approx(base_eps(bc, swapped),
                                                   rel=1e-14)


def test_neumann_minus_dirichlet_closed_form():
    # the difference of the two signs isolates twice the first term of the
    # closed form, which also equals the half-line image-kernel integral
    pair = ExponentPair(0.3, 0.4)
    diff = base_eps(R, pair) - base_eps(D, pair)
    want = (2.0 * 2.0 ** (-0.7) / math.sqrt(math.pi) * math.gamma(0.65)
            * math.gamma(0.7) * math.gamma(0.6) / math.gamma(1.3))
    assert abs(diff - want) < 1e-13 * abs(want)


def test_classical_limit_of_dirichlet_base():
    # as both exponents -> 0 the Dirichlet coefficient approaches -2/sqrt(pi),
    # the classical flat heat-content slope per boundary point
    val = base_eps(D, ExponentPair(1e-5, 1.5e-5))
    assert abs(val - (-2.0 / math.sqrt(math.pi))) < 1e-3


def test_recursion_residuals_random_sweep():
    rng = random.Random(3141592653)
    for _ in range(100):
        pair = _random_pair(rng)
        for bc in (D, R):
            res = recursion_check(bc, pair)
            for name, r in res.items():
                assert r <= 1e-10, f"{name} residual {r} at {pair}"


def test_recursion_example_points():
    for r in recursion_check(D, ExponentPair(0.3, 0.4)).values():
        assert r <= 1e-10
    for r in recursion_check(R, ExponentPair(0.3 + 0.2j, 0.4 - 0.1j)).values():
        assert r <= 1e-10


def test_crosscheck_residuals():
    for pair in (ExponentPair(0.3, 0.4), ExponentPair(0.25, 0.5),
                 ExponentPair(-0.7, 0.2), ExponentPair(0.1 + 0.3j, 0.2 - 0.2j)):
        res = closed_form_crosscheck(pair)
        assert set(res) == {"eps9", "eps10", "eps11", "eps16", "eps19"}
        for name, r in res.items():
            assert r <= 1e-10, f"{name} residual {r} at {pair}"


def test_crosscheck_random_sweep():
    rng = random.Random(271828)
    for _ in range(50):
        pair = _random_pair(rng)
        for name, r in closed_form_crosscheck(pair).items():
            assert r <= 1e-10, f"{name} residual {r} at {pair}"


@pytest.mark.parametrize("a1, a2", (
    # the pairs with the largest residual of `verify crosscheck` at seeds
    # 241 and 1703, where 2 (eps0 - eps_D)/(3 - sigma) lost 1.1e-13 and
    # 3.7e-13 to the cancellation of the two bases
    (-0.47773953928310986 + 0.7655087920744681j,
     -2.5240090310468455 - 0.767291711111479j),
    (-2.8907415673731087 + 0.6743834518154719j,
     -2.108706842645023 - 0.6747399394244968j)))
def test_eps16_matches_mpmath(a1, a2):
    # eps16 = 4 pref T1/(3 - sigma), with pref T1 = Gamma((2 - sigma)/2)
    # Gamma(1 - a1) Gamma(1 - a2) / (2^sigma sqrt(pi) Gamma(2 - sigma))
    value = build_table(R, ExponentPair(a1, a2))["eps16"]
    with mpmath.workdps(40):
        b1, b2 = mpmath.mpc(a1), mpmath.mpc(a2)
        sigma = b1 + b2
        want = complex(
            4 * mpmath.gamma((2 - sigma) / 2) * mpmath.gamma(1 - b1)
            * mpmath.gamma(1 - b2) / (mpmath.power(2, sigma)
                                      * mpmath.sqrt(mpmath.pi)
                                      * mpmath.gamma(2 - sigma) * (3 - sigma)))
    assert abs(value - want) <= 1e-14 * abs(want)


def test_build_table_evaluates_each_shifted_base_once(monkeypatch):
    # six shifted pairs eps0..eps14, each read back wherever eps5 and
    # eps8 need it; Robin adds none, since eps16 reads the base terms of
    # eps0 and the eps15-type constants are one gamma product each
    calls = []
    base = coeff._base_eps

    def counted(*args):
        calls.append(args)
        return base(*args)

    monkeypatch.setattr(coeff, "_base_eps", counted)
    pair = ExponentPair(0.3 + 0.1j, -0.45)
    for bc, want in ((R, 6), (D, 6)):
        calls.clear()
        build_table(bc, pair)
        assert len(calls) == want, bc


def _table_bits(table):
    return [struct.pack("dd", v.real, v.imag) for v in table.values.values()]


def _clear_memos():
    coeff._base_terms.cache_clear()
    specfun._log_gamma.cache_clear()


def test_base_terms_memo_is_transparent():
    # tables built warm, after the other boundary condition and the other
    # pairs were read, equal cold ones bit for bit.  The real pairs reach
    # the reflection branch through Gamma(a1 - 2) and the like; the last
    # pair equals the one before it but for the sign of a zero, which
    # moves the tables' imaginary parts, so it keys its own entry
    pairs = [ExponentPair(0.3 + 0.1j, -0.45), ExponentPair(0.3, -0.45),
             ExponentPair(-0.7, 0.4), ExponentPair(complex(-0.7, -0.0), 0.4)]
    cold = {}
    for i, pair in enumerate(pairs):
        for bc in (R, D):
            _clear_memos()
            cold[bc, i] = _table_bits(build_table(bc, pair))
    assert cold[R, 2] != cold[R, 3] and cold[D, 2] != cold[D, 3]
    for first, second in ((R, D), (D, R)):
        _clear_memos()
        for i in [0, 1, 2, 3, 3, 2, 1, 0]:
            for bc in (first, second):
                assert _table_bits(build_table(bc, pairs[i])) \
                    == cold[bc, i], (bc, pairs[i])


def _mp_base(sign, a1, a2):
    """eps(bc, a1, a2) in mpmath, the two-term closed form of _base_eps."""
    s = a1 + a2
    g = mpmath.gamma
    return 2 ** (-s) / mpmath.sqrt(mpmath.pi) * g((2 - s) / 2) * (
        sign * g(1 - a1) * g(1 - a2) * mpmath.rgamma(2 - s)
        + g(s - 1) * (g(1 - a1) * mpmath.rgamma(a2)
                      + g(1 - a2) * mpmath.rgamma(a1)))


@pytest.mark.parametrize("a1, a2", [(0, 0.3), (0.3, 0), (0, -1.5),
                                    (0, 0.2 + 0.3j)])
def test_robin_constants_at_a_zero_exponent(a1, a2):
    # the shift forms of eps15 and eps16 have a removable singularity at
    # a zero exponent: compare with their mpmath limit, the zero replaced
    # by 1e-40
    with mpmath.workdps(40):
        b1, b2 = (mpmath.mpmathify(v) if v else mpmath.mpf("1e-40")
                  for v in (a1, a2))
        s = b1 + b2
        eps15 = 2 / (2 - s) * (b2 * _mp_base(-1, b1, b2 + 1)
                               + b1 * _mp_base(-1, b1 + 1, b2))
        eps16 = (-2 * _mp_base(-1, b1, b2)
                 + 2 * b1 * b2 * _mp_base(-1, b1 + 1, b2 + 1)) / (3 - s) \
            + _mp_base(1, b1, b2)
        want = {"eps15": complex(eps15), "eps16": complex(eps16)}
    table = build_table(R, ExponentPair(a1, a2))
    for key, w in want.items():
        assert abs(table[key] - w) <= 1e-13 * abs(w), key


def test_table_identities():
    pair = ExponentPair(0.3, 0.4)
    for bc in (D, R):
        t = build_table(bc, pair)
        assert t["eps6"] == t["eps0"]
        assert t["eps12"] == -t["eps0"]
        assert t["eps13"] == 0
        assert t["eps9"] == t["eps11"]
    td = build_table(D, pair)
    assert "eps15" not in td.values
    # Dirichlet eps2 equals the Theorem form -(eps1 + eps3)/2
    assert td["eps2"] == pytest.approx(-0.5 * (td["eps1"] + td["eps3"]), rel=1e-14)


def test_eps19_simplified_form():
    # eps19 reduces to (a1 + a2)/(3 - a1 - a2) times the difference of the
    # Robin and Dirichlet base coefficients
    pair = ExponentPair(0.3, 0.4)
    t = build_table(R, pair)
    want = (0.7 / 2.3) * (base_eps(R, pair) - base_eps(D, pair))
    assert abs(t["eps19"] - want) <= 1e-12 * abs(want)


def test_table_swap_duality():
    rng = random.Random(99)
    for _ in range(25):
        pair = _random_pair(rng)
        swapped = ExponentPair(pair.alpha2, pair.alpha1)
        for bc in (D, R):
            t = build_table(bc, pair)
            s = build_table(bc, swapped)
            swaps = {"eps1": "eps3", "eps4": "eps7", "eps5": "eps8"}
            fixed = ["eps0", "eps2", "eps6", "eps9", "eps10", "eps11",
                     "eps12", "eps13", "eps14"]
            if bc is R:
                swaps["eps17"] = "eps18"
                fixed += ["eps15", "eps16", "eps19"]
            for k, v in swaps.items():
                scale = max(abs(t[k]), 1e-30)
                assert abs(t[k] - s[v]) <= 1e-12 * scale
                assert abs(t[v] - s[k]) <= 1e-12 * max(abs(t[v]), 1e-30)
            for k in fixed:
                assert abs(t[k] - s[k]) <= 1e-12 * max(abs(t[k]), 1e-30)


def test_meromorphy_probe_sum_to_one():
    # eps0 has a simple pole at alpha1 + alpha2 = 1: the product with
    # (alpha1 + alpha2 - 1) must stay bounded approaching it off-integer
    vals = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        pair = ExponentPair(0.3, 0.7 - eps + 1e-7j)
        vals.append(abs((pair.alpha1 + pair.alpha2 - 1.0)
                        * base_eps(D, pair)))
    assert max(vals) < 10 * min(vals)
    assert all(math.isfinite(v) for v in vals)


def test_json_round_trip():
    pair = ExponentPair(0.3 + 0.1j, 0.4)
    for bc in (D, R):
        t = build_table(bc, pair)
        obj = json.loads(json.dumps(t.to_json_dict()))
        assert obj["bc"] == bc.value
        for k in t.keys:
            assert complex(*obj[k]) == t[k]
        assert obj["alpha1"] == [0.3, 0.1]
        for key in obj:
            if key.startswith("eps"):
                assert isinstance(obj[key], list) and len(obj[key]) == 2


def test_exponent_grid():
    grid = model_exponents((0.3, 0.4), 1, 2)
    assert grid == pytest.approx([0.0, 0.15, 0.65, 1.0, 1.15])
