"""End-to-end tests of the singular-heat command line interface."""

import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from singularheat import cli, coeff, regint, specfun
from singularheat.asymfit import HeatContentSamples, fit
from singularheat.cli import ProblemConfig, main
from singularheat.profiles import plateau_profile
from singularheat.regint import interior_coefficients


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def _read_samples(path):
    return HeatContentSamples.from_csv_lines(path.read_text().splitlines())


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# coeffs

def test_coeffs_robin_table(capsys):
    code, out, _ = run(capsys, ["coeffs", "--alpha1", "0.3",
                                "--alpha2", "0.4", "--bc", "robin"])
    assert code == 0
    obj = json.loads(out)
    assert obj["bc"] == "robin"
    assert obj["alpha1"] == [0.3, 0.0]
    # this entry of the Robin family vanishes identically
    assert obj["eps13"] == [0.0, 0.0]
    assert all(f"eps{k}" in obj for k in range(20))


def test_coeffs_robin_accepts_a_zero_exponent(capsys):
    # the non-singular temperature alpha1 = 0 is admissible for Robin too
    code, out, _ = run(capsys, ["coeffs", "--alpha1", "0",
                                "--alpha2", "0.3", "--bc", "robin"])
    assert code == 0
    obj = json.loads(out)
    assert all(map(math.isfinite, obj["eps15"] + obj["eps16"]))


def test_coeffs_dirichlet_complex_pair(capsys):
    code, out, _ = run(capsys, ["coeffs", "--alpha1", "0.3,0.2",
                                "--alpha2", "0.1,-0.4"])
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha1"] == [0.3, 0.2]
    assert obj["alpha2"] == [0.1, -0.4]
    assert all(f"eps{k}" in obj for k in range(15))
    # sin(pi z) overflows in the reflection of log_gamma
    code, _, err = run(capsys, ["coeffs", "--alpha1", "0.3,800",
                                "--alpha2", "0.4"])
    assert code == 2
    assert "error:" in err


def test_coeffs_integer_exponent_sum_rejected(capsys):
    # an integer exponent sum, a gamma ratio that overflows, and a value
    # that is not a number
    for alpha2 in ("0.5", "-400", "abc"):
        code, _, err = run(capsys, ["coeffs", "--alpha1", "0.5",
                                    "--alpha2", alpha2])
        assert code == 2, alpha2
        assert "error:" in err


@pytest.mark.parametrize("argv", [
    ["coeffs", "--alpha1", "-2.5,0.3", "--alpha2", "0.4"],
    ["coeffs", "--alpha1", "-1e-3", "--alpha2", "0.4", "--bc", "robin"],
    ["coeffs", "--alpha1", "0.3", "--alpha2", "-1.5e0,-0.2"],
    ["fit", "{samples}", "--alpha1", "-1e-3", "--alpha2", "0.4"],
    ["fit", "{samples}", "--alpha1", "0.3", "--alpha2", "0.4",
     "--c", "-5e-1", "--subtract-interior"],
])
def test_negative_option_value_in_space_form(capsys, tmp_path, argv):
    # argparse reads '-1e-3' and '-2.5,0.3' as flags unless they are joined
    # to their option with '='; both forms must give the same output
    argv = [a.replace("{samples}", str(_plateau_samples(tmp_path)))
            for a in argv]
    k = next(i for i, a in enumerate(argv)
             if a.startswith("-") and not a.startswith("--"))
    joined = argv[:k - 1] + [argv[k - 1] + "=" + argv[k]] + argv[k + 1:]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert (code, out, err) == run(capsys, joined)


def test_option_flag_is_not_an_option_value(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["coeffs", "--alpha1", "--bc", "--alpha2", "0.4"])
    assert exc_info.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# simulate

def test_simulate_classical_interval_value(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "interval", "bc": "dirichlet", "cutoff": None,
        "tmin": 0.01, "tmax": 0.01, "num": 1,
    })
    out_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(out_path)])
    assert code == 0
    samples = _read_samples(out_path)
    (t, beta, err), = samples.entries
    assert t == 0.01
    # constant unit data: beta(t) = pi - 4 sqrt(t/pi) up to exponentially
    # small corrections
    assert abs(beta - (math.pi - 4.0 * math.sqrt(t / math.pi))) < 1e-9


def test_simulate_halfline_monotone_decreasing(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "halfline", "bc": "dirichlet",
        "alpha1": 0.3, "alpha2": 0.4,
        "tmin": 1e-3, "tmax": 1e-2, "num": 4,
    })
    out_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(out_path)])
    assert code == 0
    samples = _read_samples(out_path)
    betas = [b for _, b, _ in samples.entries]
    assert len(betas) == 4
    # an absorbing wall only ever removes heat
    assert all(b1 > b2 for b1, b2 in zip(betas, betas[1:]))


def test_simulate_circle_product(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "circle-product",
        "phi_fourier": [1.0, 0.5], "rho_fourier": [1.0, 0.25],
        "tmin": 1e-3, "tmax": 1e-1, "num": 3,
    })
    out_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(out_path)])
    assert code == 0
    samples = _read_samples(out_path)
    assert len(samples.entries) == 3
    assert all(np.isfinite(b) for _, b, _ in samples.entries)


def test_simulate_missing_config_file(capsys, tmp_path):
    # a path that does not exist, and one that is a directory
    for path in (tmp_path / "nope.json", tmp_path):
        code, _, err = run(capsys, ["simulate", str(path),
                                    "--out", str(tmp_path / "out.csv")])
        assert code == 2, path
        assert "error:" in err


def test_simulate_invalid_config(capsys, tmp_path):
    grid = {"tmin": 1e-3, "tmax": 1e-3, "num": 1}
    interval = {"problem": "interval", **grid}
    halfline = {"problem": "halfline", **grid}
    circle = {"problem": "circle-product", "phi_fourier": [1.0],
              "rho_fourier": [1.0], **grid}
    nan = float("nan")
    for obj in ({"problem": "moebius"},
                # the warped kind was removed from simulate
                {"problem": "warped",
                 "warp": {"fprime": [0.1], "fsecond": [0.2]}},
                # a misspelt key must not silently fall back to a default
                {**interval, "cuttoff": 0.3},
                {**interval, "tolerances": {"interval": 1e-6}},
                # the half-line kernels are Dirichlet or Neumann only
                {**halfline, "bc": "robin", "c": 0.5},
                # constant data has no finite heat content on the half-line
                {**halfline, "cutoff": None},
                # a cutoff whose half rounds to 0 has no plateau
                {**interval, "cutoff": 5e-324},
                {**interval, "bc": "robin", "c": 0.5, "cutoff": 5e-324},
                {**halfline, "cutoff": 5e-324},
                # a Dirichlet interval has no use for c
                {**interval, "bc": "dirichlet", "c": 2},
                # fields a problem does not read must keep their default
                {**circle, "bc": "robin", "c": 3, "alpha1": 5},
                {**interval, "phi_fourier": [1.0]},
                {**interval, "tolerances": {"halfline": 1e-6}},
                # one sample cannot honour a wider range
                {**interval, "tmax": 0.5},
                # values that do not fit the field's type
                {**interval, "tmax": 1e-2, "num": 2.7},
                {**interval, "num": True},
                # more samples than the documented cap of 10^6
                {**interval, "tmax": 1e-2, "num": 2 ** 62},
                {**interval, "tmax": 1e-2, "num": 10 ** 400},
                {**interval, "alpha1": "0.3"},
                {**interval, "alpha1": None},
                {**interval, "alpha1": False},
                {**halfline, "alpha1": nan},
                {**interval, "alpha1": nan},
                {**interval, "bc": "robin", "c": nan},
                {**interval, "tmax": float("inf")},
                {**halfline, "tolerances": {"halfline": -1}},
                {**circle, "phi_fourier": ["a"]},
                [1, 2],
                {"tmin": 1e-3}):
        cfg = write_config(tmp_path, obj)
        code, _, err = run(capsys, ["simulate", cfg,
                                    "--out", str(tmp_path / "out.csv")])
        assert code == 2, obj
        assert err.startswith("error:") and err.count("\n") == 1, err
    assert not (tmp_path / "out.csv").exists()


def test_benchmark_configs_accepted(monkeypatch):
    """Every config the benchmark harness writes passes the typed check."""
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parent.parent / "perfbench"))
    import bench_workloads
    shapes = set()
    for name in bench_workloads.WORKLOADS:
        for smoke in (False, True):
            for obj in bench_workloads.build(name, 7, smoke).inputs.values():
                cfg = ProblemConfig(json.loads(json.dumps(obj)))
                shapes.add((cfg.problem, cfg.bc, cfg.cutoff is None,
                            bool(cfg.tolerances)))
    # half-line Dirichlet and Neumann, with and without the smoke
    # tolerance; Robin interval; the Dirichlet sweep; circle
    assert len(shapes) == 7, shapes


def test_internal_value_error_is_not_invalid_input(monkeypatch, tmp_path):
    def broken(cfg):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "simulate", broken)
    cfg = write_config(tmp_path, {"problem": "interval"})
    with pytest.raises(ValueError, match="internal bug"):
        main(["simulate", cfg, "--out", str(tmp_path / "out.csv")])


def test_simulate_inadmissible_exponent(capsys, tmp_path):
    cfg = write_config(tmp_path, {"problem": "halfline", "alpha1": 1.5})
    code, _, _ = run(capsys, ["simulate", cfg,
                              "--out", str(tmp_path / "out.csv")])
    assert code == 2


#: a Robin interval whose tail grid sits at subnormal x, where
#: x^(-0.999) overflows, so its first sample is not finite
SUBNORMAL_CUTOFF = {"problem": "interval", "bc": "robin", "c": 0.5,
                    "alpha1": 0.999, "alpha2": 0.3, "cutoff": 1e-320,
                    "tmin": 1e-4, "tmax": 1e-2, "num": 2}


def test_simulate_truncation_failure_exits_3(capsys, tmp_path):
    cases = [
        ({"problem": "interval", "bc": "dirichlet", "cutoff": None,
          "tmin": 1e-12, "tmax": 1e-12, "num": 1}, "error:"),
        (SUBNORMAL_CUTOFF, "interval sample at t = 0.0001 is not finite"),
    ]
    for obj, message in cases:
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, ["simulate", cfg, "--out", str(out)])
        assert code == 3, obj
        assert message in err and "Warning" not in err, err
        assert not out.exists(), obj


def _plateau_mass(alpha, r0):
    """int_0^r0 x^(-alpha) P(x/r0) dx = r0^(1-alpha) int_0^1 u^(-alpha)
    P(u) du for the plateau P: 1 up to 1/2, the quintic ramp to 0 at 1."""
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        ramp = mpmath.quad(
            lambda u: u ** -a * (1 - (2 * u - 1) ** 3
                                 * (10 - 15 * (2 * u - 1)
                                    + 6 * (2 * u - 1) ** 2)), [0.5, 1])
        inner = mpmath.mpf(0.5) ** (1 - a) / (1 - a) + ramp
        return float(mpmath.power(mpmath.mpf(r0), 1 - a) * inner)


def test_simulate_tiny_cutoff_returns_its_corner_value(capsys, tmp_path):
    # data within 1e-80 of the corner (1e-300 on the half-line) see only
    # the kernel there: Dirichlet gives 0, and the Robin half-line kernel
    # of D = -d^2/dx^2 + c^2 at the corner is
    # K(0, 0; t) = e^{-c^2 t}/sqrt(pi t) - c erfc(c sqrt(t)) (Carslaw and
    # Jaeger), so beta = m_phi m_rho K(0, 0; t) for the plateau masses m
    tiny = {"alpha1": 0.3, "alpha2": 0.4, "cutoff": 1e-80,
            "tmin": 1e-4, "tmax": 1e-2, "num": 2}
    cases = [
        ({"problem": "interval", "bc": "dirichlet", **tiny}, None),
        ({"problem": "halfline", "bc": "dirichlet", "alpha1": 0.9,
          "alpha2": 0.9, "cutoff": 1e-300, "tmin": 1e-4, "tmax": 1e-2,
          "num": 2}, None),
        ({"problem": "interval", "bc": "robin", "c": 0.5, **tiny}, 0.5),
    ]
    out = tmp_path / "out.csv"
    for obj, c in cases:
        code, _, err = run(capsys, ["simulate", write_config(tmp_path, obj),
                                    "--out", str(out)])
        assert code == 0, (obj, err)
        entries = _read_samples(out).entries
        assert len(entries) == 2, obj
        for t, beta, e in entries:
            assert math.isfinite(beta) and math.isfinite(e), (obj, t)
            want = 0.0
            if c is not None:
                want = _plateau_mass(obj["alpha1"], obj["cutoff"]) \
                    * _plateau_mass(obj["alpha2"], obj["cutoff"]) \
                    * (math.exp(-c * c * t) / math.sqrt(math.pi * t)
                       - c * math.erfc(c * math.sqrt(t)))
            assert abs(beta - want) <= e, (obj, t, beta, want, e)


@pytest.mark.parametrize("alpha", (0.3, 0.9, 0.95, 0.97, 0.99, 0.999))
def test_simulate_neumann_interval_conserves_mass_near_alpha_one(
        capsys, tmp_path, alpha):
    # against rho = 1 the Neumann flow conserves int phi = pi^(1-a)/(1-a);
    # the head integrated in u after x = b u^p loses no mass below its
    # smallest node, so beta is right to rounding up to alpha 0.999,
    # although gamma_n(rho) = 0 for n >= 1 and the sum runs on past the
    # sizes where its tail bound would already stop
    obj = {"problem": "interval", "bc": "robin", "c": 0.0, "alpha1": alpha,
           "alpha2": 0.0, "cutoff": None, "tmin": 1e-4, "tmax": 1e-1,
           "num": 4}
    out = tmp_path / "out.csv"
    code, _, err = run(capsys, ["simulate", write_config(tmp_path, obj),
                                "--out", str(out)])
    assert code == 0, err
    mass = math.pi ** (1.0 - alpha) / (1.0 - alpha)
    for t, beta, e in _read_samples(out).entries:
        assert abs(beta - mass) <= e, t
        assert abs(beta - mass) <= 1e-15 * mass, t


def test_simulate_robin_interval_at_large_c(capsys, tmp_path):
    # the stationary mode is weighted by e^{c(x - pi)} <= 1, so a large c
    # is valid input, and the tail bound's factor e^{-t c^2} lets the sum
    # stop when the data see only that mode (c = 1e6 at cutoff 0.5 would
    # otherwise run into the mode cap at small t)
    out = tmp_path / "out.csv"

    def simulate(obj):
        code, _, err = run(capsys, ["simulate", write_config(tmp_path, obj),
                                    "--out", str(out)])
        assert code == 0, (obj, err)
        return _read_samples(out).entries

    robin = {"problem": "interval", "bc": "robin", "alpha1": 0.3,
             "alpha2": 0.4}
    for c in (150.0, 1e6):
        for cutoff in (0.5, None):
            simulate({**robin, "c": c, "cutoff": cutoff})
    # at t = 1 only the mode n = 0 is left: beta is
    # (z int x^(-a1) e^{c(x - pi)}) (z int x^(-a2) e^{c(x - pi)}) with
    # z = sqrt(2c/(1 - e^{-2 pi c}))
    for c in (100.0, 150.0):
        (_, beta, e), = simulate({**robin, "c": c, "cutoff": None,
                                  "tmin": 1.0, "tmax": 1.0, "num": 1})
        with mpmath.workdps(30):
            z = mpmath.sqrt(2 * c / (1 - mpmath.exp(-2 * c * mpmath.pi)))
            ref = 1
            for a in (0.3, 0.4):
                ref *= z * mpmath.quad(
                    lambda x: x ** -a * mpmath.exp(c * (x - mpmath.pi)),
                    [0, 1, mpmath.pi - 0.2, mpmath.pi])
        assert abs(beta - float(ref)) <= e, c


def test_simulate_halfline_limits_exit_3(capsys, tmp_path):
    halfline = {"problem": "halfline", "alpha1": 0.3, "alpha2": 0.4,
                "cutoff": 0.5}
    cases = [
        # tolerances.halfline bounds err/|beta| of every sample
        ({**halfline, "tmin": 1e-4, "tmax": 1e-2, "num": 2,
          "tolerances": {"halfline": 1e-20}},
         "halfline sample at t = 0.0001 has err "),
        # the interval's mode cap needs t >= 7.6e-9 wall^2, the wall at
        # about the cutoff radius for such t; the message names the
        # caller's t, not the rescaled one
        ({**halfline, "bc": "robin", "tmin": 1.5e-9, "tmax": 1.5e-9,
          "num": 1}, "needed more than 20000 modes at t = 1.5e-09"),
    ]
    for obj, message in cases:
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "out.csv"
        code, _, err = run(capsys, ["simulate", cfg, "--out", str(out)])
        assert code == 3, obj
        assert message in err, err
        assert not out.exists(), obj
    # just above the limit the sample runs
    cfg = write_config(tmp_path, {**halfline, "tmin": 2e-9, "tmax": 2e-9,
                                  "num": 1})
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(out)])
    assert code == 0


def test_simulate_halfline_over_eight_decades(capsys, tmp_path):
    # one far wall per decade of t keeps every sample within the mode cap
    cfg = write_config(tmp_path, {
        "problem": "halfline", "bc": "dirichlet", "alpha1": 0.3,
        "alpha2": 0.4, "cutoff": 0.5, "tmin": 1e-6, "tmax": 1e2,
        "num": 40})
    out = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(out)])
    assert code == 0
    entries = _read_samples(out).entries
    assert len(entries) == 40
    assert all(0.0 < err < 1e-11 * beta for _, beta, err in entries)


# ---------------------------------------------------------------------------
# fit

def test_fit_classical_pipeline(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "interval", "bc": "dirichlet", "cutoff": None,
        "tmin": 1e-4, "tmax": 1e-2, "num": 20,
    })
    csv_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(csv_path)])
    assert code == 0
    code, out, _ = run(capsys, ["fit", str(csv_path),
                                "--alpha1", "0", "--alpha2", "0",
                                "--interior-terms", "1",
                                "--boundary-terms", "1"])
    assert code == 0
    model = json.loads(out)
    assert model["exponents"] == [0.0, 0.5]
    coeffs = model["coefficients"]
    assert abs(coeffs[0] - math.pi) < 1e-8
    assert abs(coeffs[1] - (-4.0 / math.sqrt(math.pi))) < 1e-6
    # a non-integrable exponent, whatever the other one
    code, _, err = run(capsys, ["fit", str(csv_path),
                                "--alpha1", "1.5", "--alpha2", "0",
                                "--interior-terms", "1",
                                "--boundary-terms", "1"])
    assert code == 2
    assert "Re(alpha) < 1" in err
    # --c is read only with --subtract-interior
    code, _, err = run(capsys, ["fit", str(csv_path),
                                "--alpha1", "0", "--alpha2", "0",
                                "--c", "0.5", "--interior-terms", "1",
                                "--boundary-terms", "1"])
    assert code == 2
    assert "error:" in err


def test_fit_rejects_empty_model(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    csv_path.write_text("t,beta,err\n0.001,1.0,0.0\n0.01,1.0,0.0\n")
    code, _, err = run(capsys, ["fit", str(csv_path),
                                "--alpha1", "0.3", "--alpha2", "0.4",
                                "--interior-terms", "0",
                                "--boundary-terms", "0"])
    assert code == 2
    assert "no model" in err


def _plateau_samples(tmp_path):
    """Forty finite samples spanning two decades of t."""
    t = np.geomspace(1e-6, 1e-4, 40)
    beta = 2.4 - 1.2 * t ** 0.15 - 1.6 * t ** 0.65
    text = "t,beta,err\n" + "".join(f"{a!r},{b!r},0.0\n"
                                     for a, b in zip(t.tolist(), beta.tolist()))
    path = tmp_path / "samples.csv"
    path.write_text(text)
    return path


def test_fit_term_counts(capsys, tmp_path):
    csv_path = _plateau_samples(tmp_path)
    base = ["fit", str(csv_path), "--alpha1", "0.3", "--alpha2", "0.4"]
    # a negative count is rejected, not read as 0
    for counts in (("-3", "2"), ("-1", "2"), ("2", "-1"), ("2", "-3")):
        code, _, err = run(capsys, base + ["--interior-terms", counts[0],
                                           "--boundary-terms", counts[1]])
        assert code == 2, counts
        assert err.startswith("error:") and err.count("\n") == 1, err
    # --subtract-interior with no boundary term leaves nothing to fit
    code, _, err = run(capsys, base + ["--subtract-interior",
                                       "--interior-terms", "2",
                                       "--boundary-terms", "0"])
    assert code == 2
    assert err == "error: no model: need at least one term to fit\n", err
    # a count past the term cap is rejected before any exponent is built
    for option in ("--boundary-terms", "--interior-terms"):
        code, out, err = run(capsys, base + [option, str(10 ** 18)])
        assert code == 2, option
        assert out == "" and "at most 6 simultaneous terms" in err, err
    # --interior-terms N subtracts exactly beta_0..beta_{N-1}
    samples = _read_samples(csv_path)
    phi = plateau_profile(0.3, math.pi, 0.5)
    rho = plateau_profile(0.4, math.pi, 0.5)
    betas = [complex(v).real
             for v in interior_coefficients(phi, rho, 0.5, 2)]
    outs = []
    for n in (0, 1, 3):
        code, out, _ = run(capsys, base + ["--c", "0.5", "--subtract-interior",
                                           "--interior-terms", str(n),
                                           "--boundary-terms", "2"])
        assert code == 0, n
        want = fit(samples, (0.3, 0.4), j_max=1, known_interior=betas[:n])
        assert out == want.to_json() + "\n", n
        outs.append(out)
    assert len(set(outs)) == 3


def test_fit_interior_overflow_exits_2(capsys, tmp_path):
    csv_path = _plateau_samples(tmp_path)
    base = ["fit", str(csv_path), "--alpha1", "0.3", "--alpha2", "0.4",
            "--interior-terms", "4", "--boundary-terms", "4",
            "--subtract-interior"]
    # c^2 overflows; a tiny cutoff overflows the ramp derivatives, and
    # the smallest one leaves no plateau: r0/2 rounds to 0
    for extra in (["--c", "1e200"], ["--cutoff", "1e-300"],
                  ["--cutoff", "5e-324"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, base + extra)
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_fit_unconverged_interior_quadrature_exits_3(capsys, tmp_path,
                                                     monkeypatch):
    # one panel against two misses the level check on the ramp: a
    # numeric failure, not invalid input and not a silently wrong value
    monkeypatch.setattr(regint, "_PANELS", 2)
    code, out, err = run(capsys, ["fit", str(_plateau_samples(tmp_path)),
                                  "--alpha1", "0.3", "--alpha2", "0.4",
                                  "--c", "0.5", "--subtract-interior",
                                  "--interior-terms", "4"])
    assert code == 3
    assert out == ""
    assert err.startswith("error: Gauss panels did not converge"), err


def test_fit_subtracts_at_most_four_interior_terms(capsys, tmp_path):
    # the C^2 plateau data define beta_n only for n <= 3
    csv_path = _plateau_samples(tmp_path)
    code, out, err = run(capsys, ["fit", str(csv_path), "--alpha1", "0.3",
                                  "--alpha2", "0.4", "--subtract-interior",
                                  "--interior-terms", "5"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1, err


def test_fit_subtracts_four_interior_terms_at_alpha_zero(capsys, tmp_path):
    # the Dirichlet endpoint of plateau data at alpha = (0, 0) gives the
    # boundary term -2 t^(1/2) / sqrt(pi)
    cfg = write_config(tmp_path, {"problem": "interval", "bc": "dirichlet",
                                  "tmin": 1e-6, "tmax": 1e-4, "num": 40})
    csv_path = tmp_path / "samples.csv"
    code, _, _ = run(capsys, ["simulate", cfg, "--out", str(csv_path)])
    assert code == 0
    code, out, err = run(capsys, ["fit", str(csv_path), "--alpha1", "0",
                                  "--alpha2", "0", "--interior-terms", "4",
                                  "--subtract-interior"])
    assert code == 0, err
    model = json.loads(out)
    assert model["exponents"][0] == 0.5
    assert abs(model["coefficients"][0] + 2.0 / math.sqrt(math.pi)) <= 1e-6


def test_fit_reads_a_padded_csv_as_the_plain_one(capsys, tmp_path):
    # surrounding blank and whitespace-only lines, blank lines between
    # rows and a header with spaces read as the plain file
    rows = [f"{t!r},{2.0 - 1.5 * t ** 0.5 + t!r},0.0"
            for t in (1e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1)]
    outputs = []
    for text in ("t,beta,err\n" + "\n".join(rows) + "\n",
                 "\n \t\n  t,beta,err \n" + "\n\n".join(rows) + "\n \n\n"):
        csv_path = tmp_path / "samples.csv"
        csv_path.write_text(text)
        code, out, err = run(capsys, ["fit", str(csv_path), "--alpha1", "0",
                                      "--alpha2", "0", "--interior-terms",
                                      "1", "--boundary-terms", "2"])
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_fit_rejects_malformed_csv(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    for text in ("time;value\n0.001;1.0\n",
                 "t,beta,err\n0.001,1.0,0.0\nnan,1.0,0.0\n0.1,1.0,0.0\n",
                 "t,beta,err\n1,2\n",
                 # a whitespace-only line between rows is a malformed row
                 "t,beta,err\n0.001,1.0,0.0\n \n0.1,1.0,0.0\n"):
        csv_path.write_text(text)
        code, _, _ = run(capsys, ["fit", str(csv_path),
                                  "--alpha1", "0.3", "--alpha2", "0.4"])
        assert code == 2


# ---------------------------------------------------------------------------
# verify

def test_verify_recursions(capsys):
    code, out, _ = run(capsys, ["verify", "recursions"])
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["pass"] is True
    assert report["checks"]["recursions"]["residual"] <= 1e-10


@pytest.mark.parametrize("seed", (241, 1703))
def test_verify_crosscheck_passes_where_the_swap_reference_cancelled(
        capsys, seed):
    # at these seeds the swap recursion at (a1 - 1, a2 - 1) plus
    # 2 eps0/(3 - sigma), two large terms that cancel near an integer
    # sigma, is 1.8e-10 and 2.4e-10 off eps16; its reference
    # Gamma(1 - a1) Gamma(1 - a2)/Gamma((5 - sigma)/2) subtracts nothing
    code, out, _ = run(capsys, ["verify", "crosscheck", "--seed", str(seed)])
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["pass"] is True
    assert report["checks"]["crosscheck"]["residual"] <= 1e-12


def test_verify_all_evaluates_each_gamma_quantity_once(monkeypatch, capsys):
    # the suites read 2,472 distinct log-gamma arguments and 606 distinct
    # exponent pairs (23,436 and 1,826 reads); each is evaluated once
    lanczos = []
    right = specfun._log_gamma_right
    monkeypatch.setattr(specfun, "_log_gamma_right",
                        lambda z: lanczos.append(z) or right(z))
    coeff._base_terms.cache_clear()
    specfun._log_gamma.cache_clear()
    code, out, _ = run(capsys, ["verify", "all", "--seed", "2795742288"])
    assert code == 0 and json.loads(out.strip().splitlines()[-1])["pass"]
    assert len(lanczos) == 2472
    assert coeff._base_terms.cache_info().misses == 606


def test_verify_scaling_deterministic(capsys):
    code1, out1, _ = run(capsys, ["verify", "scaling"])
    code2, out2, _ = run(capsys, ["verify", "scaling"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_warped_with_seed(capsys):
    code, out, _ = run(capsys, ["verify", "warped", "--seed", "12345"])
    assert code == 0
    report = json.loads(out.strip().splitlines()[-1])
    assert report["seed"] == 12345
    assert report["pass"] is True


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["verify", "banach"])
    assert exc_info.value.code == 2


# ---------------------------------------------------------------------------
# program entry

ROOT = Path(__file__).resolve().parent.parent


def _entry_names():
    """The cli function that [project.scripts] singular-heat names, and
    the one that the __main__ guard of cli passes to sys.exit.

    pyproject.toml is read with a regular expression, not tomllib, which
    Python 3.10 lacks.
    """
    toml = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.search(r"^\[project\.scripts\]$(.*?)(?=^\[|\Z)", toml,
                        re.M | re.S).group(1)
    script = re.search(r'^singular-heat\s*=\s*"singularheat\.cli:(\w+)"$',
                       scripts, re.M).group(1)
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    guard, = [node for node in tree.body if isinstance(node, ast.If)
              and ast.unparse(node.test) == "__name__ == '__main__'"]
    call, = [node for node in ast.walk(guard) if isinstance(node, ast.Call)
             and ast.unparse(node.func) == "sys.exit"]
    return script, call.args[0].func.id


def test_program_entry_matches_in_process_main(capsys, tmp_path):
    script, guarded = _entry_names()
    assert script == guarded
    rejected = write_config(tmp_path, {"problem": "interval", "tmin": -1.0},
                            "rejected.json")
    subnormal = write_config(tmp_path, SUBNORMAL_CUTOFF, "subnormal.json")
    out_csv = str(tmp_path / "out.csv")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    for argv, want in (
            (["coeffs", "--alpha1", "0.3", "--alpha2", "0.4"], 0),
            (["simulate", rejected, "--out", out_csv], 2),
            (["simulate", subnormal, "--out", out_csv], 3)):
        proc = subprocess.run([sys.executable, "-m", "singularheat.cli",
                               *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True)
        code, out, _ = run(capsys, argv)
        assert code == want, argv
        assert (proc.returncode, proc.stdout) == (code, out), argv
    assert not (tmp_path / "out.csv").exists()


def test_simulate_output_does_not_depend_on_earlier_runs(capsys, tmp_path):
    # the seed-7 Robin pair at five points in 1e-3..1e-2, run in process
    # before and after the benchmark's 40-point grid of the same pair,
    # whose t = 1e-6 builds an 8192-mode table: both runs write the
    # bytes of a fresh process
    pair = {"problem": "interval", "bc": "robin", "c": 0.5,
            "alpha1": 0.19714982944994874, "alpha2": 0.2877122934811255,
            "cutoff": 0.5}
    a = write_config(tmp_path, {**pair, "tmin": 1e-3, "tmax": 1e-2,
                                "num": 5}, "a.json")
    b = write_config(tmp_path, {**pair, "tmin": 1e-6, "tmax": 1e-4,
                                "num": 40}, "b.json")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    fresh = tmp_path / "fresh.csv"
    proc = subprocess.run([sys.executable, "-m", "singularheat.cli",
                           "simulate", a, "--out", str(fresh)],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    runs = []
    for k, config in enumerate((a, b, a)):
        out = tmp_path / f"run{k}.csv"
        assert run(capsys, ["simulate", config, "--out", str(out)])[0] == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[2] == fresh.read_bytes()


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs 2 cores")
def test_simulate_output_does_not_depend_on_blas_threads(tmp_path):
    # the seed-7 Robin grid, cut to 20 samples: its t = 1e-6 end sums
    # tables of N >= 2048, whose 8N lattice values exceed the size from
    # which OpenBLAS splits a dot product across its pool
    config = write_config(tmp_path, {
        "problem": "interval", "bc": "robin", "c": 0.5,
        "alpha1": 0.19714982944994874, "alpha2": 0.2877122934811255,
        "cutoff": 0.5, "tmin": 1e-6, "tmax": 1e-4, "num": 20})
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}.csv"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
               "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-m", "singularheat.cli",
                               "simulate", config, "--out", str(out)],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_only_the_program_entry_freezes_the_collector(capsys, monkeypatch):
    script, _ = _entry_names()
    argv = ["coeffs", "--alpha1", "0.3", "--alpha2", "0.4"]
    assert gc.get_freeze_count() == 0
    assert main(argv) == 0
    assert gc.get_freeze_count() == 0
    monkeypatch.setattr(sys, "argv", ["singular-heat", *argv])
    try:
        assert getattr(cli, script)() == 0
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["bc"] \
        == "dirichlet"
