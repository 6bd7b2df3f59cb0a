"""End-to-end and per-layer benchmark of the singular-heat command line.

Run from the repository root:

    python3 perfbench/run.py --workload interval --seed 7 --seconds 15 --trace 0

Each workload (see bench_workloads.py) is a fixed list of singular-heat
invocations, each a fresh `python -m singularheat.cli` process with
SINGULAR_HEAT_THREADS = min(nproc, 4), the shipped default capped at the
core count.  Set-up writes the inputs, byte-compiles the package and
imports it once; it never warms the moment table, which users pay on
every invocation.  With --trace 0 the workload repeats while the next
repetition still fits in --seconds (at least once) and the end-to-end
metrics are medians over repetitions.  With --trace 1 the workload runs
once untraced, once with every CLI step under traced_cli.py, and its
simulate steps once more at one thread; the per-layer metrics come from
those three passes.  --smoke shrinks every grid so that all steps and
gates run in seconds.

Every pass is gated (bench_workloads.check_outputs) and fingerprinted
(sha256 of each CSV and stdout JSON); the last line of stdout is the
result object, the lines before it a readable summary and the
fingerprint record, which is also written to .perfbench_runs/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import bench_stats
import bench_workloads

HERE = Path(__file__).resolve().parent
TRACED_CLI = HERE / "traced_cli.py"
SETUP_REPS = 5
#: a run must end within 180 s; no child may outlive this
RUN_LIMIT_S = 170.0
CLI_COMMANDS = ("simulate", "fit", "verify", "coeffs")


@dataclass
class StepResult:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    csv: str | None
    spans_path: Path | None = None


@dataclass
class Pass:
    wall_s: float
    steps: dict          # step name -> StepResult
    dir: Path

    def outputs(self) -> dict:
        return {k: (r.stdout, r.csv) for k, r in self.steps.items()}

    def fingerprints(self) -> dict:
        out = {}
        for name, r in self.steps.items():
            fp = {"exit": r.exit_code}
            lines = r.stdout.strip().splitlines()
            if lines:
                fp["stdout_json"] = _sha(lines[-1])
            if r.csv is not None:
                fp["csv"] = _sha(r.csv)
            out[name] = fp
        return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    def __init__(self, root: Path, work: Path, threads: int, deadline: float):
        self.root = root
        self.work = work
        self.threads = threads
        self.deadline = deadline
        self.inputs = work / "inputs"

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["SINGULAR_HEAT_THREADS"] = str(threads)
        return env

    def child(self, argv: list, cwd: Path, tag: str, threads: int):
        """Run one process; (wall, cpu, peak RSS from wait4, exit, stdout)."""
        timeout = max(1.0, self.deadline - time.perf_counter())
        with open(cwd / f"{tag}.out", "wb") as out, \
                open(cwd / f"{tag}.err", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env(threads),
                                    stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = (cwd / f"{tag}.out").read_text(encoding="utf-8",
                                                 errors="replace")
        return (wall, usage.ru_utime + usage.ru_stime,
                usage.ru_maxrss / 1024.0, proc.returncode, stdout)

    def setup(self, wl) -> float:
        """Write the inputs, byte-compile and import the package once."""
        t0 = time.perf_counter()
        if self.inputs.exists():
            shutil.rmtree(self.inputs)
        self.inputs.mkdir(parents=True)
        for name, obj in wl.inputs.items():
            (self.inputs / name).write_text(json.dumps(obj), encoding="utf-8")
        code = ("import compileall, sys\n"
                "ok = compileall.compile_dir(sys.argv[1], force=True, "
                "quiet=1)\n"
                "import singularheat.cli\n"
                "sys.exit(0 if ok else 1)\n")
        _, _, _, rc, _ = self.child(
            [sys.executable, "-c", code,
             str(self.root / "src" / "singularheat")],
            self.inputs, "setup", self.threads)
        if rc != 0:
            raise SystemExit(f"set-up failed (exit {rc}), see "
                             f"{self.inputs / 'setup.err'}")
        return time.perf_counter() - t0

    def run_pass(self, wl, tag: str, traced: bool = False,
                 threads: int | None = None, only=None) -> Pass:
        """Run the workload's steps in order, each in a fresh process."""
        threads = self.threads if threads is None else threads
        cwd = self.work / tag
        if cwd.exists():
            shutil.rmtree(cwd)
        cwd.mkdir(parents=True)
        steps = {}
        t0 = time.perf_counter()
        for step in wl.steps:
            if only is not None and step.command != only:
                continue
            args = [a.replace("{inputs}", str(self.inputs))
                    for a in step.args]
            spans = cwd / f"{step.name}.spans.json" if traced else None
            argv = ([sys.executable, str(TRACED_CLI), str(spans), "--"]
                    if traced else [sys.executable, "-m", "singularheat.cli"])
            wall, cpu, rss, rc, stdout = self.child(
                argv + args, cwd, step.name, threads)
            csv = None
            if step.csv is not None and (cwd / step.csv).exists():
                csv = (cwd / step.csv).read_text(encoding="utf-8")
            steps[step.name] = StepResult(wall, cpu, rss, rc, stdout, csv,
                                          spans)
        return Pass(time.perf_counter() - t0, steps, cwd)


class Tally:
    """Attempted and failed steps and checks, with the failures listed."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.cover = (0, 0)

    def _count(self, label: str, ok: bool, detail: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{label}: {detail}")

    def gate(self, p: Pass, label: str, reference: dict | None = None):
        for name, r in p.steps.items():
            self._count(f"{label}/{name}", r.exit_code == 0,
                        f"exit code {r.exit_code}")
        if len(p.steps) == len(self.wl.steps):
            checks, cover = bench_workloads.check_outputs(self.wl,
                                                          p.outputs())
            for c in checks:
                self._count(f"{label}/{c.name}", c.ok, c.detail)
            self.cover = cover
        if reference is not None:
            # outputs are byte-deterministic: every pass must match the first
            fps = p.fingerprints()
            for name, fp in fps.items():
                self._count(f"{label}/{name}.fingerprint",
                            fp == reference.get(name),
                            "differs from the first pass")


def simulate_stats(p: Pass, wl) -> tuple:
    """(simulate seconds, beta(t) rows written) over the simulate steps."""
    secs = rows = 0
    for step in wl.steps:
        r = p.steps.get(step.name)
        if step.command == "simulate" and r is not None:
            secs += r.wall_s
            rows += max(0, len((r.csv or "").strip().splitlines()) - 1)
    return secs, rows


def load_spans(path: Path) -> tuple:
    obj = json.loads(path.read_text(encoding="utf-8"))
    names = obj["names"]
    spans = [(s[0], s[1], names[s[2]]) + tuple(s[3:]) for s in obj["spans"]]
    return spans, obj["import_s"]


def end_to_end(passes: list, setups: list, wl) -> tuple:
    """(metrics, the per-repetition values each metric summarizes)."""
    rates = []
    for p in passes:
        secs, rows = simulate_stats(p, wl)
        rates.append(rows / secs if secs > 0 else 0.0)
    samples = {
        "setup_s": setups,
        "wall_s": [p.wall_s for p in passes],
        "samples_per_s": rates,
        "peak_rss_mb": [max(r.rss_mb for r in p.steps.values())
                        for p in passes],
    }
    metrics = {k: bench_stats.median(v) for k, v in samples.items()}
    metrics["peak_rss_mb"] = max(samples["peak_rss_mb"])
    return metrics, samples


def per_layer(wl, untraced: Pass, traced: Pass, one_thread: Pass,
              cover: tuple) -> dict:
    processes, import_s = [], 0.0
    for r in traced.steps.values():
        if r.spans_path is not None and r.spans_path.exists():
            spans, imp = load_spans(r.spans_path)
            processes.append(spans)
            import_s += imp
            r.spans_path.unlink()
    out = bench_stats.span_metrics(processes)
    out["cli.import_s"] = import_s
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}_s"] = sum(untraced.steps[s.name].wall_s
                                  for s in wl.steps if s.command == cmd
                                  and s.name in untraced.steps)
    out["cli.cpu_s"] = sum(r.cpu_s for r in untraced.steps.values())
    out["cli.simulate_1thread_s"] = sum(r.wall_s for r in
                                        one_thread.steps.values())
    out["trace.overhead_ratio"] = traced.wall_s / untraced.wall_s
    out["heat1d.err_cover"], out["heat1d.err_checked"] = cover
    return out


def _terminate(signum, frame):
    # unwinds through Runner.child, which kills and reaps the running step
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(bench_workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny grids, one repetition: a self-test")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _terminate)
    start = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "singularheat" / "cli.py").is_file():
        print("perfbench: run from the repository root; "
              "src/singularheat/cli.py not found", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    threads = min(os.cpu_count() or 1, 4)
    work = root / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}"
        + ("-smoke" if args.smoke else ""))
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(root, work, threads, start + RUN_LIMIT_S)
    wl = bench_workloads.build(args.workload, args.seed, args.smoke)
    tally = Tally(wl)

    setups = [runner.setup(wl)
              for _ in range(1 if args.smoke else SETUP_REPS)]
    if args.trace == 0:
        passes = []
        t0 = time.perf_counter()
        while True:
            p = runner.run_pass(wl, f"pass{len(passes)}")
            tally.gate(p, f"pass{len(passes)}",
                       passes[0].fingerprints() if passes else None)
            passes.append(p)
            typical = bench_stats.median([q.wall_s for q in passes])
            elapsed = time.perf_counter() - t0
            if (args.smoke or elapsed + typical > args.seconds
                    or time.perf_counter() + 1.5 * typical
                    > start + RUN_LIMIT_S):
                break
        metrics, samples = end_to_end(passes, setups, wl)
        specs = spec["end_to_end"]
        first = passes[0]
    else:
        first = runner.run_pass(wl, "untraced")
        tally.gate(first, "untraced")
        reference = first.fingerprints()
        traced = runner.run_pass(wl, "traced", traced=True)
        tally.gate(traced, "traced", reference)
        one = runner.run_pass(wl, "one-thread", threads=1, only="simulate")
        tally.gate(one, "one-thread", reference)
        metrics = per_layer(wl, first, traced, one, tally.cover)
        passes = [first, traced, one]
        specs = spec["per_layer"]
        samples = {}

    missing = [m["name"] for m in specs if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not computed: {missing}")
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "threads": threads, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "params": wl.params, "fingerprints": first.fingerprints(),
        "step_wall_s": [{k: r.wall_s for k, r in p.steps.items()}
                        for p in passes],
    }
    (work / "record.json").write_text(json.dumps(record, indent=1),
                                      encoding="utf-8")
    for p in passes[1:]:
        shutil.rmtree(p.dir)     # the first pass's outputs are kept

    print(f"perfbench {wl.name} seed {args.seed} trace {args.trace}: "
          f"alpha1 {wl.params['alpha1']:.6f} alpha2 "
          f"{wl.params['alpha2']:.6f}, SINGULAR_HEAT_THREADS={threads}")
    for m in specs:
        line = f"  {m['name']:36s} {metrics[m['name']]:>14.6g} {m['unit']:6s}"
        values = samples.get(m["name"])
        if values:
            q1, q3 = bench_stats.quartiles(values)
            line += f" (n={len(values)}, quartiles {q1:.6g} .. {q3:.6g})"
        print(line)
    if args.trace == 0:
        for step in wl.steps:
            walls = [p.steps[step.name].wall_s for p in passes
                     if step.name in p.steps]
            print(f"    step {step.name:32s} {bench_stats.median(walls):>14.6g} "
                  f"s      (n={len(walls)})")
    frac = tally.failed / tally.attempted
    print(f"  {'failed_frac':36s} {frac:>14.6g} 1      "
          f"({tally.failed} of {tally.attempted} steps and checks)")
    if args.trace:
        cover, rows = tally.cover
        print(f"  err column covers the reference on {cover} of {rows} "
              f"checked rows")
    for f in tally.failures:
        print(f"  FAILED {f}")
    print("fingerprints " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
