"""The closed-form route stands apart from the simulated one.

The boundary terms are computed in closed form (specfun -> coeff -> geom)
and checked against heat content simulated with numpy (profiles ->
heat1d) and fitted (regint -> asymfit).  The check means something only
while the closed-form modules load neither numpy nor the simulator, so a
fresh interpreter imports them, or runs the commands built on them alone,
and lists what came with them.  The fit holds at most six columns and
integrates on a few hundred points, so it runs in Python floats and a
fit process never pays for importing numpy.  Each command is a fresh
process that pays for every import, so the package defines no
dataclasses: the closed-form commands load neither dataclasses nor
inspect (which dataclasses imports), and the simulator loads neither
dataclasses nor numpy.polynomial, nor numpy.ma, which numpy imports
lazily on the first call of np.unique and the like.  The last test names every
process-global cache of the package, so a new one has to be declared
there, finds no module-level empty container that could hide one, and
no cached function without parameters, which is a constant.
"""

import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_LIST_MODULES = """
import sys
print(" ".join(sorted(name for name in sys.modules
                      if name in ("dataclasses", "inspect", "numpy")
                      or name.startswith(("numpy.", "singularheat.")))))
"""

_IMPORT_CLOSED_FORM = """
import singularheat.specfun, singularheat.coeff, singularheat.geom
"""

_RUN_COMMANDS = """
import contextlib, io, json, sys
from singularheat import cli
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
print(" ".join(map(str, codes)))
"""

CLOSED_FORM = ["singularheat.coeff", "singularheat.errors",
               "singularheat.geom", "singularheat.specfun"]


def _run(code: str, *args: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-c", code + _LIST_MODULES,
                           *args], env=env, capture_output=True, text=True,
                          check=True).stdout.splitlines()


def test_closed_form_route_loads_no_numpy_or_simulator():
    assert _run(_IMPORT_CLOSED_FORM)[-1].split() == CLOSED_FORM


def test_closed_form_commands_load_no_numpy_or_simulator(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": "interval", "tmin": -1.0}),
                      encoding="utf-8")
    commands = [
        ["coeffs", "--alpha1", "0.3", "--alpha2", "0.4"],
        ["coeffs", "--alpha1", "0.3", "--alpha2", "0.4", "--bc", "robin"],
        ["verify", "recursions"],
        ["verify", "crosscheck"],
        ["verify", "warped"],
        ["verify", "scaling"],
        ["simulate", str(config), "--out", str(tmp_path / "out.csv")],
    ]
    codes, modules = _run(_RUN_COMMANDS, json.dumps(commands))
    assert codes.split() == ["0"] * 6 + ["2"]
    assert modules.split() == sorted(CLOSED_FORM + ["singularheat.cli"])
    assert not (tmp_path / "out.csv").exists()


def test_fit_and_regint_load_no_numpy(tmp_path):
    samples = tmp_path / "samples.csv"
    samples.write_text("t,beta,err\n" + "".join(
        f"{t!r},{1.0 + 2.0 * t ** 0.15 - t ** 0.65!r},0\n"
        for t in (10.0 ** (-6 + 0.25 * i) for i in range(17))),
        encoding="utf-8")
    commands = [
        ["fit", str(samples), "--alpha1", "0.3", "--alpha2", "0.4"],
        ["fit", str(samples), "--alpha1", "0.3", "--alpha2", "0.4",
         "--c", "0.5", "--interior-terms", "4", "--boundary-terms", "2",
         "--subtract-interior"],
        ["verify", "regint"],
    ]
    codes, modules = _run(_RUN_COMMANDS, json.dumps(commands))
    assert codes.split() == ["0"] * 3
    assert not [m for m in modules.split()
                if m == "numpy" or m.startswith("numpy.")]
    assert {"singularheat.asymfit", "singularheat.regint"} \
        <= set(modules.split())
    assert "singularheat.heat1d" not in modules.split()


def test_simulator_builds_no_dataclasses(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"problem": "interval", "bc": "robin",
                                  "c": 0.5, "tmin": 1e-3, "tmax": 1e-2,
                                  "num": 3}), encoding="utf-8")
    commands = [["simulate", str(config), "--out", str(tmp_path / "o.csv")]]
    codes, modules = _run(_RUN_COMMANDS, json.dumps(commands))
    assert codes.split() == ["0"]
    assert "singularheat.heat1d" in modules.split()
    assert "dataclasses" not in modules.split()
    # numpy.polynomial costs milliseconds to import; the 8-point Gauss
    # rule is written out and the polynomials are evaluated by hand
    assert not [m for m in modules.split()
                if m.startswith("numpy.polynomial")]


def test_simulator_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs 12-15 ms to import, and numpy loads it lazily on the
    # first call of np.unique and friends; numpy.matrixlib is not it
    configs = {
        "interval": {"problem": "interval", "bc": "robin", "c": 0.5,
                     "alpha1": 0.3, "alpha2": 0.4, "tmin": 1e-5,
                     "tmax": 1e-3, "num": 12},
        "halfline": {"problem": "halfline", "alpha1": 0.3, "alpha2": 0.4,
                     "tmin": 1e-4, "tmax": 1e-3, "num": 2},
        "circle": {"problem": "circle-product",
                   "phi_fourier": [1.0, 0.5, 0.2],
                   "rho_fourier": [1.0, 0.1], "tmin": 1e-3, "tmax": 1.0,
                   "num": 5},
    }
    commands = []
    for name, obj in configs.items():
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(obj), encoding="utf-8")
        commands.append(["simulate", str(config),
                         "--out", str(tmp_path / f"{name}.csv")])
    commands += [["fit", str(tmp_path / "interval.csv"),
                  "--alpha1", "0.3", "--alpha2", "0.4"],
                 ["verify", "all"]]
    codes, modules = _run(_RUN_COMMANDS, json.dumps(commands))
    assert codes.split() == ["0"] * 5
    assert not [m for m in modules.split()
                if m == "numpy.ma" or m.startswith("numpy.ma.")]


def _is_empty_container(node) -> bool:
    """{} or [], or a call of dict(), list() or set() without arguments,
    or of defaultdict(...)."""
    if isinstance(node, (ast.Dict, ast.List)):
        return not (node.keys if isinstance(node, ast.Dict) else node.elts)
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return name == "defaultdict" or (
        name in ("dict", "list", "set") and not node.args
        and not node.keywords)


def _assigns_empty_container(stmt) -> bool:
    """Whether stmt assigns an empty container, alone or in a tuple."""
    if not isinstance(stmt, (ast.Assign, ast.AnnAssign)) or stmt.value is None:
        return False
    values = stmt.value.elts if isinstance(stmt.value, ast.Tuple) \
        else [stmt.value]
    return any(map(_is_empty_container, values))


def _empty_module_containers() -> list:
    """(file, line) of each module-level assignment of an empty container
    in the package."""
    return [(path.name, stmt.lineno)
            for path in sorted((SRC / "singularheat").glob("*.py"))
            for stmt in ast.parse(path.read_text(encoding="utf-8")).body
            if _assigns_empty_container(stmt)]


def _is_parameterless_cache(node) -> bool:
    """Whether node defines a function that takes no parameters under
    lru_cache or cache, called or not, bare or as an attribute."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return False
    args = node.args
    if args.posonlyargs or args.args or args.vararg or args.kwonlyargs \
            or args.kwarg:
        return False
    for deco in node.decorator_list:
        func = deco.func if isinstance(deco, ast.Call) else deco
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name in ("lru_cache", "cache"):
            return True
    return False


def _parameterless_caches() -> list:
    """(file, line) of each cached function without parameters, at any
    depth, in the package."""
    return [(path.name, node.lineno)
            for path in sorted((SRC / "singularheat").glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if _is_parameterless_cache(node)]


def test_every_cache_is_declared():
    # each process-global cache must earn its keep, so a new one has to be
    # named here; the source count also catches one outside module scope
    caches = set()
    decorated = 0
    for path in sorted((SRC / "singularheat").glob("*.py")):
        module = importlib.import_module(f"singularheat.{path.stem}")
        # a from-import of a cached callable names its home module
        caches |= {value.__module__.removeprefix("singularheat.") + "."
                   + value.__qualname__
                   for value in vars(module).values()
                   if hasattr(value, "cache_clear")}
        decorated += len(re.findall(r"\blru_cache\(|@(?:functools\.)?cache\b",
                                    path.read_text(encoding="utf-8")))
    assert caches == {"specfun._log_gamma", "coeff._base_terms"}
    assert decorated == len(caches)
    # a cached function without parameters is a constant: build it at
    # import instead
    assert _parameterless_caches() == []
    for source, constant in (
            ("@lru_cache(maxsize=1)\ndef _grid(): pass", True),
            ("@functools.lru_cache\ndef _grid(): pass", True),
            ("@cache\nasync def _grid(): pass", True),
            ("@lru_cache(maxsize=8)\ndef _terms(a, b): pass", False),
            ("@functools.cache\ndef _terms(*, a): pass", False),
            ("@cache\ndef _terms(*args): pass", False),
            ("def _grid(): pass", False),
            ("@staticmethod\ndef _grid(): pass", False)):
        node = ast.parse(source).body[0]
        assert _is_parameterless_cache(node) is constant, source
    # nor can a cache come back as a plain container filled at run time;
    # the check sees each form of one
    assert _empty_module_containers() == []
    for source, empty in (("_memo = {}", True), ("_seen = []", True),
                          ("_a, _b = 0, dict()", True),
                          ("_pool: list = list()", True),
                          ("_s = set()", True),
                          ("_d = collections.defaultdict(list)", True),
                          ("_x = {1: 2}", False), ("_y = [0]", False),
                          ("_z = set((1,))", False),
                          ("_w = dict(a=1)", False), ("_v: list", False)):
        stmt = ast.parse(source).body[0]
        assert _assigns_empty_container(stmt) is empty, source
