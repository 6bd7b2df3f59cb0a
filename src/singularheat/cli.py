"""Command-line interface: coefficient tables, simulations, fits, checks.

Exit codes: 0 success, 2 invalid input or configuration, 3 numerical
failure (quadrature, truncation, conditioning), 4 verification failure.
All randomized checks run from a fixed documented seed (3141592653,
overridable with --seed) and outputs are byte-deterministic.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .asymfit import fit
from .coeff import (BoundaryConditionKind, ExponentPair,
                    build_table, closed_form_crosscheck, recursion_check)
from .errors import (AdmissibilityError, DegenerateInputError, DomainError,
                     IllConditionedError, InsufficientDataError, PoleError,
                     QuadratureError, RangeError, TruncationError)
from .geom import (BoundaryPointData, WarpedProfile, boundary_beta,
                   flat_data, scaling_check, warped_invariants)
from .heat1d import (HeatContentSamples, SpectralKind, circle_heat_content,
                     halfline_heat_content, intertwine_residual,
                     interval_heat_content, interval_spectrum)
from .profiles import (FromCallable, SingularProfile, check_integrable,
                       constant, plateau_profile)
from .regint import (CollarRegularization, SingularIntegrand, i_reg,
                     interior_coefficients)

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


#: ProblemConfig annotation -> (check on a JSON value, what it asks for)
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


@dataclass
class ProblemConfig:
    """Validated simulation request (parsed from a JSON file)."""

    problem: str
    bc: str = "dirichlet"
    alpha1: float = 0.0
    alpha2: float = 0.0
    c: float = 0.0
    #: plateau-cutoff radius; None means constant-1 data on the whole domain
    cutoff: float | None = 0.5
    tmin: float = 1e-6
    tmax: float = 1e-2
    num: int = 40
    phi_fourier: list = field(default_factory=list)
    rho_fourier: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.problem not in _READS:
            raise RangeError(f"problem must be one of {tuple(_READS)}")
        reads = _READS[self.problem] + ("problem", "tmin", "tmax", "num")
        for f in fields(self):
            default = (f.default if f.default_factory is MISSING
                       else f.default_factory())
            if f.name not in reads and getattr(self, f.name) != default:
                raise RangeError(f"{self.problem} does not read {f.name}")
        if self.bc not in ("dirichlet", "robin"):
            raise RangeError("bc must be 'dirichlet' or 'robin'")
        if self.tmin <= 0 or self.tmax < self.tmin:
            raise RangeError("need 0 < tmin <= tmax")
        if self.num > 1 and self.tmax == self.tmin:
            raise RangeError("a multi-point grid needs tmin < tmax")
        if self.num < 1:
            raise RangeError("need at least one sample")
        if self.problem == "circle-product" and (
                not self.phi_fourier or not self.rho_fourier):
            raise RangeError(
                "circle-product needs phi_fourier and rho_fourier")

    @classmethod
    def from_json_dict(cls, obj) -> "ProblemConfig":
        """Check each JSON value against the annotation of its field."""
        if not isinstance(obj, dict) or "problem" not in obj:
            raise RangeError("a config is a JSON object with a 'problem' key")
        kinds = {f.name: f.type for f in fields(cls)}
        for name, value in obj.items():
            if name not in kinds:
                raise RangeError(f"unknown config key {name!r}")
            check, want = _JSON_TYPES[kinds[name]]
            if not check(value):
                raise RangeError(f"{name} must be {want}")
        return cls(**{k: float(v) if type(v) is int and kinds[k] != "int"
                      else v for k, v in obj.items()})


def _time_grid(cfg: ProblemConfig) -> list:
    if cfg.num == 1:
        return [cfg.tmin]
    return [float(v) for v in np.geomspace(cfg.tmin, cfg.tmax, cfg.num)]


def simulate(cfg: ProblemConfig) -> HeatContentSamples:
    """Run the configured model problem over its geometric t-grid."""
    ts = _time_grid(cfg)

    def make_profile(alpha: float, L: float) -> SingularProfile:
        if cfg.cutoff is None:
            return SingularProfile(alpha, constant(), L)
        return plateau_profile(alpha, L, cfg.cutoff)

    if cfg.problem == "halfline":
        bc = BoundaryConditionKind(cfg.bc)
        L = max(4.0, 2.0 * (cfg.cutoff or 2.0))
        phi = make_profile(cfg.alpha1, L)
        rho = make_profile(cfg.alpha2, L)
        tol = float(cfg.tolerances.get("halfline", 1e-9))

        def one(t):
            return halfline_heat_content(phi, rho, bc, t, tol=tol)
    elif cfg.problem == "interval":
        spec = interval_spectrum(SpectralKind(f"{cfg.bc}-interval"), cfg.c)
        phi = make_profile(cfg.alpha1, math.pi)
        rho = make_profile(cfg.alpha2, math.pi)

        def one(t):
            return interval_heat_content(phi, rho, spec, t)
    else:
        def one(t):
            return circle_heat_content(cfg.phi_fourier, cfg.rho_fourier,
                                       t), 0.0

    entries = [(t, *one(t)) for t in ts]
    return HeatContentSamples(problem=cfg.problem, entries=entries)


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
        cfg = ProblemConfig.from_json_dict(json.load(fh))
    samples = simulate(cfg)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(samples.to_csv_text())
    return 0


def cmd_fit(args) -> int:
    with open(args.samples, "r", encoding="utf-8") as fh:
        samples = HeatContentSamples.from_csv_text(fh.read())
    n_terms = args.interior_terms
    j_terms = args.boundary_terms
    if min(n_terms, j_terms) < 0:
        raise RangeError("--interior-terms and --boundary-terms must be >= 0")
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
    smooth = FromCallable(lambda x: (math.pi - x) ** 1.5,
                          (lambda x: -1.5 * (math.pi - x) ** 0.5,))
    phi = SingularProfile(-1.5, smooth, L=math.pi)
    return {
        "intertwine": (intertwine_residual(phi, phi, 0.5, 0.05), 1e-6),
        "intertwine-dual": (
            intertwine_residual(phi, phi, 0.5, 0.05, dual=True), 1e-6),
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
    return {"warped": (worst, 1e-10)}


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


def _suite_regint(seed: int) -> dict:
    from .profiles import PlateauCutoff
    ig = SingularIntegrand(1.4, PlateauCutoff(1.0), math.pi)
    vals = [complex(i_reg(ig, CollarRegularization(wd, 2))).real
            for wd in (0.1, 0.4)]
    collar = abs(vals[0] - vals[1]) / max(abs(vals[0]), 1e-300)
    probe = 0.0
    for s in (0.99, 0.999, 0.9999):
        igp = SingularIntegrand(s, PlateauCutoff(1.0), math.pi)
        v = (1.0 - s) * complex(i_reg(igp)).real
        probe = max(probe, abs(v - 1.0))
    return {"regint-collar": (collar, 1e-10),
            "regint-pole-probe": (probe, 2e-2)}


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
                    help="number of integer-exponent terms")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _NUMERIC_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
