"""Spread and drift of end-to-end metrics over repeated benchmark runs.

    python3 perfbench/spread.py FIRST.jsonl [SECOND.jsonl]

Each file holds result lines (the last stdout line of run.py), one run
per line, typically one workload over ten seeds.  For every end-to-end
metric of BENCHMARK.json this prints the median, the quartiles and their
distance as a share of the median (the spread), next to the metric's
bound.  Given a second file it also prints how far the second median is
worse than the first, as a share of the first.  Exit code 1 when a spread
(setup_s excepted) or a worsening exceeds its bound.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import bench_stats

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    runs = [json.loads(line) for line in Path(path).read_text().splitlines()
            if line.strip()]
    bad = sum(1 for r in runs if not r["correct"])
    print(f"{path}: {len(runs)} runs, {bad} not correct")
    names = runs[0]["metrics"]
    return {k: [r["metrics"][k]["value"] for r in runs] for k in names}


def main(argv) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    sets = [load(p) for p in argv]
    ok = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        first = sets[0][name]
        q1, q3 = bench_stats.quartiles(first)
        spread = bench_stats.relative_spread(first)
        line = (f"  {name:14s} median {bench_stats.median(first):12.6g} "
                f"quartiles {q1:.6g} .. {q3:.6g} spread {spread:.3f} "
                f"(bound {bound})")
        if name != "setup_s" and spread > bound:
            ok = False
            line += " SPREAD TOO WIDE"
        if len(sets) == 2:
            a = bench_stats.median(first)
            b = bench_stats.median(sets[1][name])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            line += f", second median worse by {worse:+.3f}"
            if worse > bound:
                ok = False
                line += " REGRESSED"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
