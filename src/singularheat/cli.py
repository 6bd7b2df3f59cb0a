"""Command-line interface: coefficient tables, simulations, fits, checks.

Exit codes: 0 success, 1 uncaught internal error (with a traceback),
2 invalid input or configuration, 3 numerical failure (quadrature,
truncation, conditioning), 4 verification failure.  All randomized checks
run from a fixed documented seed (3141592653, overridable with --seed) and
outputs are byte-deterministic.

Only the closed-form modules (coeff, errors, geom) are imported here at
the top.  The other modules are imported inside the functions that run
them (simulate, cmd_fit, the intertwine and regint suites).  Only
simulate and the intertwine suite load numpy, through the simulator
heat1d: coeffs, fit, --help, a rejected config and the recursions,
crosscheck, warped, scaling and regint suites start without it.  No
class of the package is a dataclass, so an import compiles no generated
methods, and these commands load neither dataclasses nor inspect.

`python -m singularheat.cli` and the singular-heat script enter through
run(), which freezes the garbage collector after main() so that the
process does not walk every object it made at exit.  main(argv) is the
in-process entry for tests and tools; it never freezes.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import re
import sys

from .coeff import (BoundaryConditionKind, ExponentPair,
                    build_table, closed_form_crosscheck, recursion_check)
from .errors import (AdmissibilityError, DegenerateInputError, DomainError,
                     IllConditionedError, InsufficientDataError, PoleError,
                     QuadratureError, RangeError, TruncationError)
from .geom import (BoundaryPointData, WarpedProfile, boundary_beta,
                   flat_data, scaling_check, warped_invariants)

DEFAULT_SEED = 3141592653

_EXIT_INPUT = 2
_EXIT_NUMERIC = 3
_EXIT_VERIFY = 4

_INPUT_ERRORS = (AdmissibilityError, RangeError, DomainError,
                 DegenerateInputError, InsufficientDataError, PoleError,
                 FileNotFoundError, IsADirectoryError, json.JSONDecodeError,
                 UnicodeDecodeError)
_NUMERIC_ERRORS = (QuadratureError, TruncationError, IllConditionedError)


def _parse_complex(text: str) -> complex:
    """'re' or 're,im' -> complex."""
    try:
        return complex(*map(float, text.split(",", 2)))
    except (TypeError, ValueError):
        raise RangeError(f"cannot parse complex value from {text!r}") from None


# ---------------------------------------------------------------------------
# problem configuration

#: the fields each problem reads besides problem, tmin, tmax and num; any
#: other field must keep its default
_READS = {
    "halfline": ("bc", "alpha1", "alpha2", "cutoff", "tolerances"),
    "interval": ("bc", "alpha1", "alpha2", "c", "cutoff"),
    "circle-product": ("phi_fourier", "rho_fourier"),
}


def _finite(v) -> bool:
    """A finite int or float; JSON true/false are not numbers here."""
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


#: JSON type -> (check on a JSON value, what it asks for)
_JSON_TYPES = {
    "str": (lambda v: isinstance(v, str), "a string"),
    "float": (_finite, "a finite number"),
    "float | None": (lambda v: v is None or _finite(v), "a number or null"),
    "int": (lambda v: type(v) is int, "an integer"),
    "list": (lambda v: isinstance(v, list) and all(map(_finite, v)),
             "a list of finite numbers"),
    "dict": (lambda v: isinstance(v, dict) and set(v) <= {"halfline"}
             and all(_finite(x) and x > 0 for x in v.values()),
             'an object {"halfline": tolerance > 0}'),
}


#: the most samples one simulate run takes; a larger num is rejected
#: before any grid is allocated
_MAX_NUM = 10 ** 6

#: each ProblemConfig field: its JSON type (a key of _JSON_TYPES) and its
#: default (problem has none)
_FIELDS = {
    "problem": ("str", None),
    "bc": ("str", "dirichlet"),
    "alpha1": ("float", 0.0),
    "alpha2": ("float", 0.0),
    "c": ("float", 0.0),
    "cutoff": ("float | None", 0.5),
    "tmin": ("float", 1e-6),
    "tmax": ("float", 1e-2),
    "num": ("int", 40),
    "phi_fourier": ("list", []),
    "rho_fourier": ("list", []),
    "tolerances": ("dict", {}),
}


class ProblemConfig:
    """Validated simulation request, from a parsed JSON config object.

    Each JSON value is checked against the JSON type of its field, and a
    missing field takes its default from _FIELDS.  cutoff is the
    plateau-cutoff radius; None (interval only) means constant-1 data.
    """

    def __init__(self, obj):
        if not isinstance(obj, dict) or "problem" not in obj:
            raise RangeError("a config is a JSON object with a 'problem' key")
        for name, value in obj.items():
            if name not in _FIELDS:
                raise RangeError(f"unknown config key {name!r}")
            check, want = _JSON_TYPES[_FIELDS[name][0]]
            if not check(value):
                raise RangeError(f"{name} must be {want}")
        if obj["problem"] not in _READS:
            raise RangeError(f"problem must be one of {tuple(_READS)}")
        reads = _READS[obj["problem"]] + ("problem", "tmin", "tmax", "num")
        for name, (kind, default) in _FIELDS.items():
            value = obj.get(name, default)
            if name not in reads and value != default:
                raise RangeError(f"{obj['problem']} does not read {name}")
            setattr(self, name, float(value)
                    if type(value) is int and kind != "int" else value)
        if self.bc not in ("dirichlet", "robin"):
            raise RangeError("bc must be 'dirichlet' or 'robin'")
        if self.tmin <= 0 or self.tmax < self.tmin:
            raise RangeError("need 0 < tmin <= tmax")
        if self.num > 1 and self.tmax == self.tmin:
            raise RangeError("a multi-point grid needs tmin < tmax")
        if self.num == 1 and self.tmax != self.tmin:
            raise RangeError("a single sample needs tmin == tmax")
        if not 1 <= self.num <= _MAX_NUM:
            raise RangeError(f"num must be in [1, {_MAX_NUM}]")
        if self.problem == "interval" and self.bc == "dirichlet" \
                and self.c != 0.0:
            raise RangeError("nonzero c requires the Robin interval kind")
        if self.problem == "halfline" and self.cutoff is None:
            raise RangeError("halfline needs a cutoff: constant data has "
                             "infinite heat content on the half-line")
        if self.problem == "circle-product" and (
                not self.phi_fourier or not self.rho_fourier):
            raise RangeError(
                "circle-product needs phi_fourier and rho_fourier")


def simulate(cfg: ProblemConfig) -> HeatContentSamples:
    """Run the configured model problem over its geometric t-grid, the
    whole grid in one call of its simulator."""
    import numpy as np

    from .asymfit import HeatContentSamples
    from .heat1d import (circle_heat_content, halfline_heat_content,
                         interval_heat_content)
    from .profiles import SingularProfile, constant, plateau_profile

    bc = BoundaryConditionKind(cfg.bc)

    def make_profile(alpha: float, L: float) -> SingularProfile:
        if cfg.cutoff is None:
            return SingularProfile(alpha, constant(), L)
        return plateau_profile(alpha, L, cfg.cutoff)

    ts = np.geomspace(cfg.tmin, cfg.tmax, cfg.num)
    # x^(-alpha) overflows at the subnormal nodes of a tail grid (a cutoff
    # near 1e-320); the sample it spoils is a numeric failure, not invalid
    # input
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if cfg.problem == "halfline":
            betas, errs = halfline_heat_content(
                make_profile(cfg.alpha1, cfg.cutoff),
                make_profile(cfg.alpha2, cfg.cutoff), bc, ts)
        elif cfg.problem == "interval":
            betas, errs = interval_heat_content(
                make_profile(cfg.alpha1, math.pi),
                make_profile(cfg.alpha2, math.pi), bc, cfg.c, ts)
        else:
            betas = circle_heat_content(np.asarray(cfg.phi_fourier, float),
                                        np.asarray(cfg.rho_fourier, float),
                                        ts)
            errs = np.zeros(ts.size)
    entries = list(zip(ts.tolist(), betas.tolist(), errs.tolist()))
    rel_tol = cfg.tolerances.get("halfline", math.inf)
    for t, beta, err in entries:
        if not (math.isfinite(beta) and math.isfinite(err)):
            raise QuadratureError(
                f"{cfg.problem} sample at t = {t!r} is not finite")
        if err > rel_tol * abs(beta):
            raise QuadratureError(
                f"{cfg.problem} sample at t = {t!r} has err {err:.3g} "
                f"above {rel_tol:g} |beta|")
    return HeatContentSamples(entries)


# ---------------------------------------------------------------------------
# commands

def cmd_coeffs(args) -> int:
    pair = ExponentPair(_parse_complex(args.alpha1),
                        _parse_complex(args.alpha2))
    table = build_table(BoundaryConditionKind(args.bc), pair)
    print(json.dumps(table.to_json_dict()))
    return 0


def cmd_simulate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        cfg = ProblemConfig(json.load(fh))
    samples = simulate(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(samples.to_csv_text())
    return 0


def cmd_fit(args) -> int:
    from .asymfit import HeatContentSamples, fit
    from .profiles import check_integrable, plateau_profile
    from .regint import interior_coefficients

    with open(args.samples, "r", encoding="utf-8") as fh:
        samples = HeatContentSamples.from_csv_lines(fh)
    n_terms = args.interior_terms
    j_terms = args.boundary_terms
    if min(n_terms, j_terms) < 0:
        raise RangeError("--interior-terms and --boundary-terms must be >= 0")
    if args.subtract_interior and n_terms > 4:
        raise RangeError("--subtract-interior takes at most 4 interior "
                         "terms: C^2 plateau data define beta_n for n <= 3")
    if j_terms + (0 if args.subtract_interior else n_terms) < 1:
        raise RangeError("no model: need at least one term to fit")
    if not all(map(_finite, (args.alpha1, args.alpha2, args.c, args.cutoff))):
        raise RangeError("--alpha1, --alpha2, --c and --cutoff must be finite")
    if not args.subtract_interior and (args.c, args.cutoff) != (0.0, 0.5):
        raise RangeError("--c and --cutoff need --subtract-interior")
    check_integrable(args.alpha1)
    check_integrable(args.alpha2)
    known = None
    if args.subtract_interior:
        phi = plateau_profile(args.alpha1, math.pi, args.cutoff)
        rho = plateau_profile(args.alpha2, math.pi, args.cutoff)
        known = [complex(v).real for v in interior_coefficients(
            phi, rho, args.c, n_terms - 1)] if n_terms else []
    model = fit(samples, (args.alpha1, args.alpha2),
                n_int=n_terms - 1, j_max=j_terms - 1,
                known_interior=known)
    print(model.to_json())
    return 0


# ---------------------------------------------------------------------------
# verification suites

def _random_pair(rng: random.Random) -> ExponentPair:
    while True:
        a1 = complex(rng.uniform(-3, 0.9), rng.uniform(-1, 1))
        a2 = complex(rng.uniform(-3, 0.9), rng.uniform(-1, 1))
        try:
            return ExponentPair(a1, a2)
        except AdmissibilityError:
            continue


def _suite_recursions(seed: int) -> dict:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        pair = _random_pair(rng)
        for bc in BoundaryConditionKind:
            worst = max(worst, *recursion_check(bc, pair).values())
    return {"recursions": (worst, 1e-10)}


def _suite_crosscheck(seed: int) -> dict:
    rng = random.Random(seed)
    worst = 0.0
    for _ in range(100):
        pair = _random_pair(rng)
        worst = max(worst, *closed_form_crosscheck(pair).values())
    return {"crosscheck": (worst, 1e-10)}


def _suite_intertwine(seed: int) -> dict:
    from .heat1d import intertwine_residual
    from .profiles import Polynomial, SingularProfile

    # x^1.5 (pi - x)^2 vanishes at pi, so the dual identity has no
    # boundary terms there
    smooth = Polynomial((math.pi ** 2, -2.0 * math.pi, 1.0))
    phi = SingularProfile(-1.5, smooth, L=math.pi)
    return {
        "intertwine": (intertwine_residual(phi, phi, 0.5), 1.0),
        "intertwine-dual": (intertwine_residual(phi, phi, 0.5, dual=True),
                            1.0),
    }


def _suite_warped(seed: int) -> dict:
    rng = random.Random(seed)
    a = ExponentPair(0.3, 0.4)
    tables = {bc: build_table(bc, a) for bc in BoundaryConditionKind}
    worst = 0.0
    for _ in range(50):
        m = rng.randint(2, 5)
        w = WarpedProfile(
            fprime=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            fsecond=tuple(rng.uniform(-1, 1) for _ in range(m - 1)),
            SR0=rng.uniform(-1, 1), m=m)
        data = warped_invariants(w, a)
        flat = flat_data(SR=w.SR0)
        for bc, table in tables.items():
            for j in (0, 1, 2):
                got = boundary_beta(table, data, j) / data.weight
                want = boundary_beta(table, flat, j)
                worst = max(worst,
                            abs(got - want) / max(abs(want), 1.0))
    return {"warped": (worst, 1e-12)}


def _suite_scaling(seed: int) -> dict:
    rng = random.Random(seed)
    a = ExponentPair(0.3, 0.4)
    worst = 0.0
    for bc in BoundaryConditionKind:
        table = build_table(bc, a)
        for _ in range(20):
            data = BoundaryPointData(
                phi=tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(3)),
                rho=tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                          for _ in range(3)),
                Laa=rng.uniform(-1, 1), LabLab=rng.uniform(0, 1),
                LaaLbb=rng.uniform(0, 1), Ricmm=rng.uniform(-1, 1),
                tau=rng.uniform(-1, 1), E=rng.uniform(-1, 1),
                SR=rng.uniform(-1, 1), grad_pair=rng.uniform(-1, 1))
            for c in (0.5, 2.0, 10.0):
                for j in (0, 1, 2):
                    worst = max(worst, scaling_check(table, data, c, j))
    return {"scaling": (worst, 1e-10)}


#: the ramp of PlateauCutoff(1), 1 - 10 u^3 + 15 u^4 - 6 u^5 at u = 2x - 1,
#: as sum_k _RAMP_X[k] x^k
_RAMP_X = (32.0, -240.0, 720.0, -1040.0, 720.0, -192.0)


def _suite_regint(seed: int) -> dict:
    """Collar independence of i_reg, and i_reg near its pole at s = 1
    against the exact finite part for PlateauCutoff(1) on [0, pi],
    0.5^(1-s)/(1-s) + sum_k c_k (1 - 0.5^(k+1-s))/(k+1-s) with c_k the
    coefficients _RAMP_X of the ramp on [0.5, 1].  Both are fixed
    inputs, so the seed is not read."""
    from .profiles import PlateauCutoff
    from .regint import i_reg

    vals = [complex(i_reg(1.4, PlateauCutoff(1.0), math.pi, wd)).real
            for wd in (0.1, 0.4)]
    collar = abs(vals[0] - vals[1]) / max(abs(vals[0]), 1e-300)
    probe = 0.0
    for s in (0.99, 0.999, 0.9999):
        exact = 0.5 ** (1.0 - s) / (1.0 - s) + sum(
            c * (1.0 - 0.5 ** (k + 1 - s)) / (k + 1 - s)
            for k, c in enumerate(_RAMP_X))
        v = complex(i_reg(s, PlateauCutoff(1.0), math.pi)).real
        probe = max(probe, abs(v - exact) / abs(exact))
    return {"regint-collar": (collar, 1e-13),
            "regint-pole-probe": (probe, 1e-13)}


_SUITES = {
    "recursions": _suite_recursions,
    "crosscheck": _suite_crosscheck,
    "intertwine": _suite_intertwine,
    "warped": _suite_warped,
    "scaling": _suite_scaling,
    "regint": _suite_regint,
}


def cmd_verify(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks = {}
    for name in names:
        checks.update(_SUITES[name](args.seed))
    ok = True
    for name, (residual, tol) in checks.items():
        passed = residual <= tol
        ok = ok and passed
        print(f"{name}: residual {residual:.3e} (tolerance {tol:.0e}) "
              f"{'ok' if passed else 'FAIL'}")
    print(json.dumps({
        "suite": args.suite, "seed": args.seed,
        "checks": {k: {"residual": float(r), "tolerance": float(t)}
                   for k, (r, t) in checks.items()},
        "pass": ok,
    }))
    return 0 if ok else _EXIT_VERIFY


# ---------------------------------------------------------------------------
# entry point

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="singular-heat",
        description="Boundary coefficients and model-problem simulators "
                    "for small-time heat content with singular data.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("coeffs", help="print a coefficient table as JSON")
    pc.add_argument("--alpha1", required=True,
                    help="temperature exponent, 're' or 're,im'")
    pc.add_argument("--alpha2", required=True,
                    help="specific-heat exponent, 're' or 're,im'")
    pc.add_argument("--bc", choices=("dirichlet", "robin"),
                    default="dirichlet")
    pc.set_defaults(func=cmd_coeffs)

    ps = sub.add_parser("simulate", help="run a model problem to CSV")
    ps.add_argument("config", help="path to a problem config JSON file")
    ps.add_argument("--out", required=True, help="output CSV path")
    ps.set_defaults(func=cmd_simulate)

    pf = sub.add_parser("fit", help="fit the asymptotic series to samples")
    pf.add_argument("samples", help="path to a t,beta,err CSV file")
    pf.add_argument("--alpha1", type=float, required=True)
    pf.add_argument("--alpha2", type=float, required=True)
    pf.add_argument("--c", type=float, default=0.0)
    pf.add_argument("--cutoff", type=float, default=0.5)
    pf.add_argument("--interior-terms", type=int, default=2,
                    help="number of integer-exponent terms (at most 4 "
                         "with --subtract-interior)")
    pf.add_argument("--boundary-terms", type=int, default=2,
                    help="number of boundary-family terms")
    pf.add_argument("--subtract-interior", action="store_true",
                    help="subtract regularized interior integrals "
                         "instead of fitting the integer exponents")
    pf.set_defaults(func=cmd_fit)

    pv = sub.add_parser("verify", help="run invariant suites")
    pv.add_argument("suite", choices=tuple(_SUITES) + ("all",))
    pv.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pv.set_defaults(func=cmd_verify)
    return p


#: options that take a number, and a value of theirs that argparse would
#: read as a flag: '-1e-3' or '-2.5,0.3'
_NUMBER_OPTIONS = ("--alpha1", "--alpha2", "--c", "--cutoff")
_NEGATIVE = re.compile(r"-[\d.]")


def _join_negative_values(argv: list) -> list:
    """'--alpha1 -1e-3' -> '--alpha1=-1e-3', which argparse reads."""
    out = []
    for arg in argv:
        if out and out[-1] in _NUMBER_OPTIONS and _NEGATIVE.match(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_join_negative_values(argv))
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


def run() -> int:
    """Program entry of `python -m singularheat.cli` and of the
    singular-heat script: main() on sys.argv, then gc.freeze().

    The freeze moves every live object into the collector's permanent
    generation, so the collection at interpreter exit skips the objects
    the command made, which the exit frees anyway.  The process ends
    right after, so no later collection is lost; atexit handlers and the
    flush of stdout and stderr still run.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
