"""End-to-end checks tying the simulators to the closed-form predictions.

Each test exercises one headline guarantee of the package: the classical
interval expansion, the half-line leading coefficient, the algebraic
identities of the coefficient tables, the warped-product reduction, the
intertwining of Dirichlet and Robin flows, the full fit pipeline, and the
stability of the regularized interior integrals.
"""

import math
import random
import time

import numpy as np

from singularheat import cli
from singularheat.coeff import BoundaryConditionKind, ExponentPair, build_table
from singularheat.geom import BoundaryPointData, boundary_beta
from singularheat.heat1d import halfline_heat_content, interval_heat_content
from singularheat.profiles import SingularProfile, constant, plateau_profile
from singularheat.regint import interior_coefficients
from singularheat.asymfit import HeatContentSamples, fit

D = BoundaryConditionKind.DIRICHLET
R = BoundaryConditionKind.ROBIN

SEED = 3141592653


def check_suite(name, tolerances):
    """Run the verify suite name at SEED: it reports these tolerances, and
    every residual meets its own."""
    checks = cli._SUITES[name](SEED)
    assert {key: tol for key, (_, tol) in checks.items()} == tolerances
    for key, (residual, tol) in checks.items():
        assert residual <= tol, (key, residual)


def test_classical_interval_expansion():
    # constant unit data on (0, pi): beta(t) = pi - 4 sqrt(t/pi) up to
    # exponentially small corrections
    start = time.monotonic()
    phi = SingularProfile(0.0, constant(), math.pi)
    for t in (0.001, 0.01, 0.05):
        beta, _ = interval_heat_content(phi, phi, D, 0.0, t)
        expected = math.pi - 4.0 * math.sqrt(t / math.pi)
        assert abs(beta - expected) <= 1e-9, t
    assert time.monotonic() - start < 5.0


def test_halfline_leading_coefficient():
    # the Neumann-minus-Dirichlet heat content isolates the leading
    # boundary term; its closed form is a gamma-function product
    start = time.monotonic()
    a1, a2 = 0.3, 0.4
    s = a1 + a2
    phi = plateau_profile(a1, 4.0, 0.5)
    rho = plateau_profile(a2, 4.0, 0.5)
    t = 1e-5
    bn, _ = halfline_heat_content(phi, rho, R, t)
    bd, _ = halfline_heat_content(phi, rho, D, t)
    got = (bn - bd) * t ** ((s - 1.0) / 2.0)
    want = (2.0 ** (1.0 - s) / math.sqrt(math.pi)
            * math.gamma((2.0 - s) / 2.0)
            * math.gamma(1.0 - a1) * math.gamma(1.0 - a2)
            / math.gamma(2.0 - s))
    assert abs(got - want) <= 1e-4 * abs(want)
    assert time.monotonic() - start < 30.0


def test_recursion_identities_random_sweep():
    start = time.monotonic()
    check_suite("recursions", {"recursions": 1e-10})
    assert time.monotonic() - start < 1.0


def test_closed_form_crosscheck_random_sweep():
    check_suite("crosscheck", {"crosscheck": 1e-10})


def test_warped_profile_independence():
    # the boundary coefficients of a warped product depend only on the
    # cross-section volume and the boundary Robin parameter; the worst
    # residual over 4,004 seeds was 4.9e-15, and the tolerance is the
    # smallest power of ten at least 100 times that
    check_suite("warped", {"warped": 1e-12})


def test_scaling_homogeneity():
    # the same rule: the worst residual over 4,004 seeds was 3.3e-13
    check_suite("scaling", {"scaling": 1e-10})


def test_intertwining_residuals():
    # A = d/dx + c maps the Robin flow to the Dirichlet flow; compare
    # lambda_n times each Robin term with the Dirichlet term of A* phi,
    # mode by mode for n <= 64.  The rows are ratios of the largest
    # defect to the two tables' propagated err, so 1 is the bound itself:
    # err is 2.7e-14 of the mode-1 term (1.8e-14 dual) and 2.9e-11 of
    # the mode-32 term, so an error of 1e-9 in mode 32 reads 35
    start = time.monotonic()
    check_suite("intertwine", {"intertwine": 1.0, "intertwine-dual": 1.0})
    assert time.monotonic() - start < 10.0


def test_end_to_end_robin_coefficient_recovery():
    # simulate the Robin interval problem with singular data, subtract
    # the regularized interior series, and recover the leading boundary
    # coefficients and the leading exponent from the samples alone
    start = time.monotonic()
    c = 0.5
    a = ExponentPair(0.3, 0.4)
    phi = plateau_profile(0.3, math.pi, 0.5)
    rho = plateau_profile(0.4, math.pi, 0.5)
    known = [complex(v).real
             for v in interior_coefficients(phi, rho, c, 3)]
    # the main grid feeds the least-squares fit; the handful of extra
    # smaller times sharpens the log-log slope probe
    ts = np.unique(np.concatenate([np.geomspace(5e-7, 1e-6, 5),
                                   np.geomspace(1e-6, 1e-4, 40)]))
    entries = [(float(t),) + interval_heat_content(phi, rho, R, c, float(t))
               for t in ts]

    samples = HeatContentSamples([e for e in entries if e[0] >= 1e-6])
    model = fit(samples, (0.3, 0.4), j_max=3, known_interior=known)
    # data vanishes away from x = 0, so only that endpoint contributes;
    # its inward Robin parameter is -c, and D = -d^2/dx^2 + c^2 has the
    # potential E = -c^2, which the third term reads
    table = build_table(R, a)
    unit = (1.0 + 0.0j, 0.0j, 0.0j)
    data = BoundaryPointData(phi=unit, rho=unit, SR=-c, E=-c * c)
    for j, tol in ((0, 1e-6), (1, 1e-3), (2, 2e-2)):
        want = boundary_beta(table, data, j).real
        exponent = (1.0 + j - 0.7) / 2.0
        k = min(range(len(model.exponents)),
                key=lambda i: abs(model.exponents[i] - exponent))
        got = model.coefficients[k]
        assert abs(got - want) <= tol * abs(want), j

    probe = [(t, known[0] - b) for t, b, _ in entries if 5e-7 <= t <= 5e-6]
    slope, _ = np.polyfit(*np.log(probe).T, 1)
    assert abs(slope - 0.15) <= 1e-3
    assert time.monotonic() - start < 60.0


def test_regularized_integral_stability():
    # collar independence, and the exact finite part on approach to the
    # simple pole at sigma = 1
    check_suite("regint", {"regint-collar": 1e-13,
                           "regint-pole-probe": 1e-13})


def test_index_shift_identity():
    # dropping a vanishing leading temperature jet is the same as
    # lowering alpha1 by one and shifting the jets down
    a = ExponentPair(0.3, 0.4)
    down = ExponentPair(0.3 - 1.0, 0.4)
    rng = random.Random(SEED)
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
