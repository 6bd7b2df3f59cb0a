"""End-to-end tests of the singular-heat command line interface."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from singularheat import cli
from singularheat.asymfit import fit
from singularheat.cli import ProblemConfig, main
from singularheat.heat1d import HeatContentSamples
from singularheat.profiles import plateau_profile
from singularheat.regint import interior_coefficients


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


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
    samples = HeatContentSamples.from_csv_text(out_path.read_text())
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
    samples = HeatContentSamples.from_csv_text(out_path.read_text())
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
    samples = HeatContentSamples.from_csv_text(out_path.read_text())
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
                # a Dirichlet interval has no use for c
                {**interval, "bc": "dirichlet", "c": 2},
                # fields a problem does not read must keep their default
                {**circle, "bc": "robin", "c": 3, "alpha1": 5},
                {**interval, "phi_fourier": [1.0]},
                {**interval, "tolerances": {"halfline": 1e-6}},
                # values that do not fit the field's type
                {**interval, "tmax": 1e-2, "num": 2.7},
                {**interval, "num": True},
                {**interval, "alpha1": "0.3"},
                {**interval, "alpha1": None},
                {**interval, "alpha1": False},
                {**halfline, "alpha1": nan},
                {**interval, "alpha1": nan},
                {**interval, "bc": "robin", "c": nan},
                # e^{cx} of the Robin stationary mode overflows
                {**interval, "bc": "robin", "c": 1e6},
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
                cfg = ProblemConfig.from_json_dict(json.loads(json.dumps(obj)))
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


def test_simulate_truncation_failure_exits_3(capsys, tmp_path):
    cfg = write_config(tmp_path, {
        "problem": "interval", "bc": "dirichlet", "cutoff": None,
        "tmin": 1e-12, "tmax": 1e-12, "num": 1,
    })
    code, _, err = run(capsys, ["simulate", cfg,
                                "--out", str(tmp_path / "out.csv")])
    assert code == 3
    assert "error:" in err


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
    # --interior-terms N subtracts exactly beta_0..beta_{N-1}
    samples = HeatContentSamples.from_csv_text(csv_path.read_text())
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
    # c^2 overflows; a tiny cutoff overflows the ramp derivatives
    for extra in (["--c", "1e200"], ["--cutoff", "1e-300"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, base + extra)
        assert code == 2, extra
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1, err


def test_fit_rejects_malformed_csv(capsys, tmp_path):
    csv_path = tmp_path / "samples.csv"
    for text in ("time;value\n0.001;1.0\n",
                 "t,beta,err\n0.001,1.0,0.0\nnan,1.0,0.0\n0.1,1.0,0.0\n",
                 "t,beta,err\n1,2\n"):
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
