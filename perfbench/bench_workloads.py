"""The benchmark's workloads: CLI steps generated from a seed, and gates.

Every workload draws the same seed-derived values in the same order:
alpha1 in [0.1, 0.4], alpha2 in [0.25, 0.5], the verify seeds and the
circle Fourier data.  Each workload exists to load different layers:

- halfline: Dirichlet and Neumann half-line simulate runs.  This is the
  nested adaptive quadrature path (tanh_sinh, gauss_legendre, profile
  evaluations) and never touches the moment table, the spectral sum,
  specfun or fit.
- interval: the paper's pipeline, Robin interval simulate -> fit with the
  regularized interior series subtracted -> coeffs.  Almost all the time
  is the cold Fourier-moment table of the first small-t call, which every
  fresh process pays, plus regint inside fit.
- checks: many small calls.  verify all (log_gamma dominated), coeffs for
  both boundary conditions, a dense warm Dirichlet interval sweep (the
  spectral sum on a small table) and a circle run with long Fourier lists.

Each gate uses the tolerance of the matching test in tests/ and never a
looser one.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

import numpy as np

import closed_form

#: inward Robin parameter of the interval workload
ROBIN_C = 0.5
#: verify seeds per checks iteration
VERIFY_SEEDS = 3


@dataclass
class Step:
    """One singular-heat invocation; simulate writes `rows` samples to csv."""

    name: str
    args: list
    csv: str | None = None
    rows: int = 0

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Workload:
    name: str
    inputs: dict                 # file name -> JSON config object
    steps: list
    params: dict = field(default_factory=dict)


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def draw(seed: int) -> dict:
    """The seed-derived values, drawn in a fixed order for every workload."""
    rng = random.Random(seed)
    a1 = rng.uniform(0.1, 0.4)
    a2 = rng.uniform(0.25, 0.5)
    verify_seeds = [rng.randrange(2 ** 32) for _ in range(VERIFY_SEEDS)]
    modes = 4001
    phi = [1.0 + rng.random()] + [rng.uniform(-1.0, 1.0) / (1 + (i + 1) // 2)
                                  for i in range(1, modes)]
    rho = [1.0 + rng.random()] + [rng.uniform(-1.0, 1.0) / (1 + (i + 1) // 2)
                                  for i in range(1, modes)]
    return {"alpha1": a1, "alpha2": a2, "verify_seeds": verify_seeds,
            "phi_fourier": phi, "rho_fourier": rho}


def _halfline(d: dict, smoke: bool) -> Workload:
    grid = ({"tmin": 1e-5, "tmax": 1e-5, "num": 1,
             "tolerances": {"halfline": 1e-6}} if smoke
            else {"tmin": 1e-6, "tmax": 5e-4, "num": 2})
    base = {"problem": "halfline", "alpha1": d["alpha1"],
            "alpha2": d["alpha2"], "cutoff": 0.5, **grid}
    inputs = {"halfline-dirichlet.json": {**base, "bc": "dirichlet"},
              "halfline-neumann.json": {**base, "bc": "robin", "c": 0.0}}
    steps = [Step(f"simulate-{bc}",
                  ["simulate", f"{{inputs}}/halfline-{bc}.json",
                   "--out", f"halfline-{bc}.csv"], f"halfline-{bc}.csv",
                  grid["num"])
             for bc in ("dirichlet", "neumann")]
    return Workload("halfline", inputs, steps)


def _interval(d: dict, smoke: bool) -> Workload:
    # the smallest smoke grid whose fit still meets both gates
    grid = ({"tmin": 2e-6, "tmax": 2.1e-4, "num": 20} if smoke
            else {"tmin": 1e-6, "tmax": 1e-4, "num": 40})
    cfg = {"problem": "interval", "bc": "robin", "alpha1": d["alpha1"],
           "alpha2": d["alpha2"], "c": ROBIN_C, "cutoff": 0.5, **grid}
    a1, a2 = repr(d["alpha1"]), repr(d["alpha2"])
    steps = [
        Step("simulate-robin", ["simulate", "{inputs}/interval-robin.json",
                                "--out", "interval-robin.csv"],
             "interval-robin.csv", grid["num"]),
        Step("fit", ["fit", "interval-robin.csv", "--alpha1", a1,
                     "--alpha2", a2, "--c", repr(ROBIN_C),
                     "--interior-terms", "4", "--boundary-terms", "4",
                     "--subtract-interior"]),
        Step("coeffs-robin", ["coeffs", "--alpha1", a1, "--alpha2", a2,
                              "--bc", "robin"]),
    ]
    return Workload("interval", {"interval-robin.json": cfg}, steps)


def _checks(d: dict, smoke: bool) -> Workload:
    a1, a2 = repr(d["alpha1"]), repr(d["alpha2"])
    sweep = {"problem": "interval", "bc": "dirichlet", "alpha1": 0.0,
             "alpha2": 0.0, "cutoff": None, "tmin": 1e-4, "tmax": 1e-1,
             "num": 50 if smoke else 2000}
    modes = 101 if smoke else len(d["phi_fourier"])
    circle = {"problem": "circle-product",
              "phi_fourier": d["phi_fourier"][:modes],
              "rho_fourier": d["rho_fourier"][:modes],
              "tmin": 1e-6, "tmax": 1.0, "num": 20 if smoke else 800}
    seeds = d["verify_seeds"][:1] if smoke else d["verify_seeds"]
    steps = [Step(f"verify-{s}", ["verify", "all", "--seed", str(s)])
             for s in seeds]
    steps += [Step(f"coeffs-{bc}", ["coeffs", "--alpha1", a1, "--alpha2", a2,
                                    "--bc", bc])
              for bc in ("dirichlet", "robin")]
    steps += [Step("simulate-sweep", ["simulate", "{inputs}/sweep.json",
                                      "--out", "sweep.csv"], "sweep.csv",
                   sweep["num"]),
              Step("simulate-circle", ["simulate", "{inputs}/circle.json",
                                       "--out", "circle.csv"], "circle.csv",
                   circle["num"])]
    return Workload("checks", {"sweep.json": sweep, "circle.json": circle},
                    steps)


WORKLOADS = {"halfline": _halfline, "interval": _interval, "checks": _checks}


def build(name: str, seed: int, smoke: bool = False) -> Workload:
    d = draw(seed)
    wl = WORKLOADS[name](d, smoke)
    wl.params = {"alpha1": d["alpha1"], "alpha2": d["alpha2"]}
    return wl


# ---------------------------------------------------------------------------
# gates

def parse_csv(text: str | None) -> np.ndarray:
    """t,beta,err rows as an (n, 3) array; raises ValueError if malformed."""
    lines = (text or "").strip().splitlines()
    if not lines or lines[0] != "t,beta,err":
        raise ValueError("missing t,beta,err header")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != 3 or not rows.size:
        raise ValueError("no t,beta,err rows")
    return rows


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def _rel(got: float, want: float) -> float:
    return abs(got - want) / abs(want)


def _coeffs_checks(name: str, stdout: str, a1: float, a2: float,
                   bc: str) -> list:
    """eps0 (and eps15 for Robin) against math.gamma closed forms, 1e-13."""
    table = last_json(stdout)
    want = {"eps0": closed_form.base_eps(1 if bc == "robin" else -1, a1, a2)}
    if bc == "robin":
        want["eps15"] = closed_form.robin_eps15(a1, a2)
    worst = max(_rel(table[k][0], v) for k, v in want.items())
    return [Check(f"{name}.closed-form", worst <= 1e-13,
                  f"max rel err {worst:.2e} <= 1e-13")]


def check_outputs(wl: Workload, out: dict) -> tuple:
    """Gate one pass of wl.  out maps step name -> (stdout, csv text).

    Returns (checks, err_cover): err_cover is (rows where |beta - ref| <=
    err, rows with an independent per-row reference), or (0, 0).
    """
    a1, a2 = wl.params["alpha1"], wl.params["alpha2"]
    checks = []
    cover = (0, 0)
    try:
        for step in wl.steps:
            if step.csv is not None:
                rows = len(parse_csv(out[step.name][1]))
                checks.append(Check(f"{step.name}.rows", rows == step.rows,
                                    f"{rows} rows, config asks {step.rows}"))
        if wl.name == "halfline":
            d = parse_csv(out["simulate-dirichlet"][1])
            n = parse_csv(out["simulate-neumann"][1])
            if d.shape != n.shape or np.any(d[:, 0] != n[:, 0]):
                raise ValueError("Dirichlet and Neumann grids differ")
            s = a1 + a2
            got = (n[:, 1] - d[:, 1]) * d[:, 0] ** ((s - 1.0) / 2.0)
            worst = max(_rel(g, closed_form.halfline_leading(a1, a2))
                        for g in got)
            checks.append(Check("halfline.leading-coefficient",
                                worst <= 1e-4, f"max rel err {worst:.2e}"))
        elif wl.name == "interval":
            model = last_json(out["fit"][0])
            for j, tol in ((0, 1e-2), (1, 5e-2)):
                exponent = (1.0 + j - a1 - a2) / 2.0
                k = min(range(len(model["exponents"])),
                        key=lambda i: abs(model["exponents"][i] - exponent))
                want = closed_form.robin_endpoint_beta(a1, a2, ROBIN_C, j)
                err = _rel(model["coefficients"][k], want)
                checks.append(Check(f"fit.beta{j}", err <= tol,
                                    f"rel err {err:.2e} <= {tol:g}"))
            checks += _coeffs_checks("coeffs-robin", out["coeffs-robin"][0],
                                     a1, a2, "robin")
        else:
            for step in wl.steps:
                if step.command == "verify":
                    passed = last_json(out[step.name][0]).get("pass") is True
                    checks.append(Check(f"{step.name}.pass", passed,
                                        "suite reports pass"))
            for bc in ("dirichlet", "robin"):
                checks += _coeffs_checks(f"coeffs-{bc}", out[f"coeffs-{bc}"][0],
                                         a1, a2, bc)
            sweep = parse_csv(out["simulate-sweep"][1])
            dev = np.abs(sweep[:, 1]
                         - closed_form.dirichlet_constant_interval(sweep[:, 0]))
            checks.append(Check("sweep.classical", bool(dev.max() <= 1e-9),
                                f"max abs err {dev.max():.2e} <= 1e-9"))
            cover = (int(np.sum(dev <= sweep[:, 2])), len(dev))
            circle = parse_csv(out["simulate-circle"][1])
            cfg = wl.inputs["circle.json"]
            ref = closed_form.circle_heat_content(
                cfg["phi_fourier"], cfg["rho_fourier"], circle[:, 0])
            rel = np.max(np.abs(circle[:, 1] - ref) / np.abs(ref))
            checks.append(Check("circle.fourier-sum", bool(rel <= 1e-12),
                                f"max rel err {rel:.2e} <= 1e-12"))
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        checks.append(Check(f"{wl.name}.outputs-readable", False,
                            f"{type(exc).__name__}: {exc}"))
    return checks, cover
