"""Run one singular-heat command in this process with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS.json -- <singular-heat arguments>

Each public function listed below is wrapped wherever a module of the
package binds it (the modules use from-imports, so heat1d.tanh_sinh and
regint.tanh_sinh are separate names for one function), and
SingularProfile.__call__ is wrapped on the class.  A name that a later
version of the package no longer binds is skipped, and its metrics read
0.  Spans are kept in memory and written to SPANS.json when the command
ends, together with the time the package import took.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time

#: (defining module, function, span name)
FUNCTIONS = (
    ("singularheat.quadrature", "tanh_sinh", "quadrature.tanh_sinh"),
    ("singularheat.quadrature", "gauss_legendre",
     "quadrature.gauss_legendre"),
    ("singularheat.quadrature", "tanh_sinh_nodes",
     "quadrature.tanh_sinh_nodes"),
    ("singularheat.heat1d", "halfline_heat_content", "heat1d.halfline"),
    ("singularheat.heat1d", "interval_heat_content", "heat1d.interval"),
    ("singularheat.heat1d", "circle_heat_content", "heat1d.circle"),
    ("singularheat.heat1d", "intertwine_residual",
     "heat1d.intertwine_residual"),
    ("singularheat.regint", "i_reg", "regint.i_reg"),
    ("singularheat.regint", "interior_coefficients",
     "regint.interior_coefficients"),
    ("singularheat.asymfit", "fit", "asymfit.fit"),
    ("singularheat.specfun", "log_gamma", "specfun.log_gamma"),
    ("singularheat.specfun", "gamma_ratio", "specfun.gamma_ratio"),
    ("singularheat.coeff", "build_table", "coeff.build_table"),
    ("singularheat.geom", "boundary_beta", "geom.boundary_beta"),
)


def _count_integrand(args, box):
    """tanh_sinh(f, a, b, ...): count the points f is evaluated at."""
    f = args[0]

    def counted(x):
        box[0] += getattr(x, "size", 1)
        return f(x)
    return (counted,) + tuple(args[1:])


def _count_points(args, box):
    """SingularProfile.__call__(self, x): count the evaluation points."""
    box[0] += getattr(args[1], "size", 1)
    return args


PREPARE = {"quadrature.tanh_sinh": _count_integrand,
           "profiles.eval": _count_points}


class Tracer:
    """Spans (id, parent, name, t0, t1, n, failed) with per-thread parents.

    simulate maps samples over a thread pool, so each thread keeps its own
    stack of open spans; a span opened on a pool thread has parent -1.
    """

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name: str):
        spans, ids, stack_of = self.spans, self._ids, self._stack
        prepare = PREPARE.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else -1
            box = [0]
            if prepare is not None and args:
                args = prepare(args, box)
            stack.append(sid)
            failed = 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                failed = 0
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, box[0], failed))
        return wrapper

    def install(self) -> list:
        """Wrap every binding of the listed functions; return the sites."""
        package = [m for key, m in list(sys.modules.items())
                   if key == "singularheat" or key.startswith("singularheat.")]
        sites = []
        for modname, attr, name in FUNCTIONS:
            mod = sys.modules.get(modname)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None:
                continue
            wrapped = self.wrap(orig, name)
            for m in package:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        sites.append(f"{m.__name__}.{key}")
        profiles = sys.modules.get("singularheat.profiles")
        cls = getattr(profiles, "SingularProfile", None)
        if cls is not None and "__call__" in vars(cls):
            cls.__call__ = self.wrap(vars(cls)["__call__"], "profiles.eval")
            sites.append("singularheat.profiles.SingularProfile.__call__")
        return sites


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS.json -- <singular-heat args>",
              file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    t0 = time.perf_counter()
    import singularheat.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    sites = tracer.install()
    code = 1
    try:
        code = tracer.wrap(cli.main, "cli.main")(cli_args)
    finally:
        names = sorted({s[2] for s in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "exit": code, "sites": sites,
                       "names": names,
                       "spans": [(s[0], s[1], index[s[2]]) + s[3:]
                                 for s in tracer.spans]}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
