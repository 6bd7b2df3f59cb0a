"""Tests for boundary data, jets, warped invariants, and scaling."""

import json
import math
import random

import numpy as np
import pytest

from singularheat.cli import _suite_warped
from singularheat.coeff import BoundaryConditionKind, ExponentPair, build_table
from singularheat.errors import RangeError
from singularheat.geom import (BoundaryPointData, JetSide, WarpedProfile,
                               boundary_beta, flat_data, modified_taylor_jets,
                               rescale_data, scaling_check, warped_invariants)
from singularheat.profiles import FromCallable, constant

D = BoundaryConditionKind.DIRICHLET
R = BoundaryConditionKind.ROBIN


def test_jets_constant_profile():
    jets = modified_taylor_jets(constant(), 0.0, order=2)
    assert jets == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)


def test_jets_connection_only():
    # smooth factor 1, omega(r) = -F/2 - (F'/2) r on the temperature side:
    # expanding (1/2)(d/dr + omega)^2 gives (1, -F/2, F^2/8 - F'/4)
    F, Fp = 0.8, -0.3
    jets = modified_taylor_jets(constant(), -0.5 * F, order=2,
                                omega_m_derivative=-0.5 * Fp)
    want = [1.0, -0.5 * F, 0.125 * F * F - 0.25 * Fp]
    assert jets == pytest.approx(want, abs=1e-15)


def test_jets_exponential_dual_side():
    # rho side of a warped metric: smooth factor e^{-u}, omega = -u'/2,
    # dual connection d/dr - omega; exact jets (1, -u'(0), (u'^2 - u'')/2
    # combined with the connection algebra)
    F, G = 0.7, -0.4
    s = lambda r: np.exp(-(F * r + 0.5 * G * r * r))
    s1 = lambda r: -(F + G * r) * s(r)
    s2 = lambda r: ((F + G * r) ** 2 - G) * s(r)
    jets = modified_taylor_jets(FromCallable(s, (s1, s2)), -0.5 * F, order=2,
                                side=JetSide.DUAL, omega_m_derivative=-0.5 * G)
    assert jets[0] == pytest.approx(1.0, abs=1e-15)
    assert jets[1] == pytest.approx(-0.5 * F, abs=1e-15)
    assert jets[2] == pytest.approx(0.125 * F * F - 0.25 * G, abs=1e-15)


def test_jets_stencil_domain_guard():
    with pytest.raises(RangeError):
        modified_taylor_jets(constant(), 0.0, order=3)


def test_warped_invariants_fields():
    w = WarpedProfile(fprime=(0.3,), fsecond=(-0.1,), SR0=0.0, m=2)
    a = ExponentPair(0.3, 0.4)
    d = warped_invariants(w, a)
    assert d.Laa == pytest.approx(-0.3)
    assert d.Ricmm == pytest.approx(0.01)
    assert d.E == pytest.approx(-0.05 + 0.0225)
    assert d.phi[1] == pytest.approx(-0.15, abs=1e-12)
    assert d.weight == pytest.approx(2 * math.pi)
    w3 = WarpedProfile(fprime=(0.2, -0.2), fsecond=(0.0, 0.0), m=3)
    d3 = warped_invariants(w3, a)
    assert d3.Laa == pytest.approx(0.0, abs=1e-15)
    assert d3.LabLab == pytest.approx(0.08)
    assert d3.LaaLbb == pytest.approx(0.0, abs=1e-15)
    # both jet triples are exact: (1, -F/2, F^2/8 - G/4) on either side
    rng = random.Random(2718)
    for _ in range(50):
        m = rng.randint(2, 5)
        w = WarpedProfile(
            fprime=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            fsecond=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            SR0=rng.uniform(-1, 1), m=m)
        F, G = sum(w.fprime), sum(w.fsecond)
        want = [1.0, -0.5 * F, 0.125 * F * F - 0.25 * G]
        d = warped_invariants(w, a)
        assert list(d.phi) == pytest.approx(want, abs=1e-15), w
        assert list(d.rho) == pytest.approx(want, abs=1e-15), w
    for seed in (3141592653, 12345):
        assert _suite_warped(seed)["warped"][0] <= 1e-13


def test_flat_trivial_cases():
    a = ExponentPair(0.3, 0.4)
    for bc in (D, R):
        t = build_table(bc, a)
        data = flat_data()
        assert boundary_beta(t, data, 0) == t["eps0"]
    t = build_table(R, a)
    assert boundary_beta(t, flat_data(SR=0.7), 1) == pytest.approx(
        0.7 * t["eps15"], rel=1e-14)
    with pytest.raises(RangeError):
        boundary_beta(t, flat_data(), 3)


def test_warped_independence_sweep():
    # the boundary terms of the warped family must equal the flat interval
    # values (per unit boundary measure) for any warping profile
    rng = random.Random(3141592653)
    a = ExponentPair(0.3, 0.4)
    tables = {bc: build_table(bc, a) for bc in (D, R)}
    for _ in range(50):
        m = rng.randint(2, 5)
        w = WarpedProfile(
            fprime=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            fsecond=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            SR0=rng.uniform(-1, 1), m=m)
        data = warped_invariants(w, a)
        flat = flat_data(SR=w.SR0)
        for bc in (D, R):
            t = tables[bc]
            for j in (0, 1, 2):
                got = boundary_beta(t, data, j) / data.weight
                want = boundary_beta(t, flat, j)
                scale = max(abs(want), 1.0)
                assert abs(got - want) <= 1e-10 * scale, (bc, j, w)


def test_index_shift_consistency():
    # data with vanishing order-0 temperature jet evaluated at level j
    # equals the level j-1 evaluation at (alpha1 - 1, alpha2) of the
    # index-shifted data
    a = ExponentPair(0.3, 0.4)
    down = ExponentPair(0.3 - 1.0, 0.4)
    rng = random.Random(12345)
    for bc in (D, R):
        t = build_table(bc, a)
        td = build_table(bc, down)
        for _ in range(20):
            phi = (0.0, complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                   complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            rho = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                        for _ in range(3))
            common = dict(Laa=rng.uniform(-1, 1), SR=rng.uniform(-1, 1))
            data = BoundaryPointData(phi=phi, rho=rho, **common)
            shifted = BoundaryPointData(phi=(phi[1], phi[2], 0.0), rho=rho,
                                        **common)
            for j in (1, 2):
                lhs = boundary_beta(t, data, j)
                rhs = boundary_beta(td, shifted, j - 1)
                assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0), (bc, j)


def test_scaling_check_sweep():
    rng = random.Random(271828)
    a = ExponentPair(0.3, 0.4)
    for bc in (D, R):
        t = build_table(bc, a)
        for _ in range(20):
            data = BoundaryPointData(
                phi=tuple(complex(rng.uniform(-1, 1)) for _ in range(3)),
                rho=tuple(complex(rng.uniform(-1, 1)) for _ in range(3)),
                Laa=rng.uniform(-1, 1), LabLab=rng.uniform(0, 1),
                LaaLbb=rng.uniform(0, 1), Ricmm=rng.uniform(-1, 1),
                tau=rng.uniform(-1, 1), E=rng.uniform(-1, 1),
                SR=rng.uniform(-1, 1), grad_pair=rng.uniform(-1, 1))
            for c in (0.5, 2.0, 10.0):
                for j in (0, 1, 2):
                    assert scaling_check(t, data, c, j) <= 1e-10, (bc, c, j)


def test_scaling_trivial_cases():
    a = ExponentPair(0.3, 0.4)
    t = build_table(D, a)
    data = flat_data()
    assert scaling_check(t, data, 1.0, 0) == 0.0
    assert scaling_check(t, data, 3.7, 0) <= 1e-14


def test_swap_duality_of_boundary_beta():
    # exchanging (alpha1, phi-jets) with (alpha2, rho-jets) leaves the
    # boundary terms invariant
    rng = random.Random(777)
    a = ExponentPair(0.3, 0.4)
    b = ExponentPair(0.4, 0.3)
    for bc in (D, R):
        ta, tb = build_table(bc, a), build_table(bc, b)
        for _ in range(10):
            phi = tuple(complex(rng.uniform(-1, 1)) for _ in range(3))
            rho = tuple(complex(rng.uniform(-1, 1)) for _ in range(3))
            extra = dict(Laa=rng.uniform(-1, 1), SR=rng.uniform(-1, 1),
                         E=rng.uniform(-1, 1))
            d1 = BoundaryPointData(phi=phi, rho=rho, **extra)
            d2 = BoundaryPointData(phi=rho, rho=phi, **extra)
            for j in (0, 1, 2):
                v1, v2 = boundary_beta(ta, d1, j), boundary_beta(tb, d2, j)
                assert abs(v1 - v2) <= 1e-12 * max(abs(v1), 1.0)


def test_boundary_data_json_round_trip():
    data = BoundaryPointData(phi=(1.0, 0.5 + 0.1j, 0.0), rho=(1.0, 0.0, -0.2),
                             Laa=0.3, SR=-0.5, E=0.1, grad_pair=0.2 + 0.3j,
                             weight=2.0)
    blob = json.dumps(data.to_json_dict())
    back = BoundaryPointData.from_json_dict(json.loads(blob))
    assert back == BoundaryPointData(
        phi=tuple(complex(v) for v in data.phi),
        rho=tuple(complex(v) for v in data.rho),
        Laa=0.3, SR=-0.5, E=0.1, grad_pair=complex(0.2, 0.3), weight=2.0)
    obj = json.loads(blob)
    assert obj["phi"][1] == [0.5, 0.1]


def test_rescale_data_weights():
    a = ExponentPair(0.3, 0.4)
    data = flat_data(SR=1.0)
    scaled = rescale_data(data, a, 2.0)
    assert scaled.SR == pytest.approx(0.5)
    assert scaled.phi[0] == pytest.approx(2.0 ** 0.3)
    assert scaled.rho[1] == pytest.approx(0.0)
