"""Self-tests of the benchmark harness: statistics, spans, metric names."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import bench_stats
import closed_form
import traced_cli

ROOT = Path(__file__).resolve().parent.parent


def span(sid, parent, name, t0, t1, n=0, failed=0):
    return (sid, parent, name, t0, t1, n, failed)


def test_median_and_quartiles_match_statistics():
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0, 6.0, 5.5, 3.5]
    assert bench_stats.median(values) == statistics.median(values)
    q = statistics.quantiles(values, n=4)
    assert bench_stats.quartiles(values) == (q[0], q[2])
    assert bench_stats.relative_spread(values) == pytest.approx(
        (q[2] - q[0]) / statistics.median(values))
    assert bench_stats.quartiles([2.5]) == (2.5, 2.5)


def test_covered_merges_overlaps_and_clips():
    assert bench_stats.covered(0.0, 10.0, []) == 0.0
    assert bench_stats.covered(0.0, 10.0, [(1, 3), (2, 4), (9, 12)]) == 4.0
    assert bench_stats.covered(5.0, 6.0, [(0, 1), (7, 8)]) == 0.0


def test_self_time_is_duration_minus_child_coverage():
    spans = [span(0, -1, "a", 0.0, 10.0),
             span(1, 0, "b", 1.0, 3.0),
             span(2, 0, "b", 2.0, 4.0),     # overlaps its sibling
             span(3, 1, "c", 1.5, 2.5),     # grandchild: counts for b only
             span(4, -1, "b", 20.0, 21.0)]  # another thread's root
    self_s = bench_stats.self_times(spans)
    assert self_s[0] == pytest.approx(7.0)
    assert self_s[1] == pytest.approx(1.0)
    assert self_s[3] == pytest.approx(1.0)
    assert self_s[4] == pytest.approx(1.0)


def test_span_metrics_first_call_warm_median_and_absent_layers():
    proc1 = [span(0, -1, "heat1d.interval", 0.0, 5.0),
             span(1, -1, "heat1d.interval", 5.0, 5.25),
             span(2, -1, "heat1d.interval", 6.0, 6.5),
             span(3, 0, "quadrature.tanh_sinh", 1.0, 2.0, n=100, failed=1)]
    proc2 = [span(0, -1, "heat1d.interval", 0.0, 2.0),
             span(1, -1, "heat1d.interval", 3.0, 3.75)]
    m = bench_stats.span_metrics([proc1, proc2])
    assert m["heat1d.interval.calls"] == 5
    assert m["heat1d.interval.first_call_s"] == pytest.approx(7.0)
    assert m["heat1d.interval.warm_call_s"] == pytest.approx(0.5)
    assert m["quadrature.tanh_sinh.nodes"] == 100
    assert m["quadrature.tanh_sinh.failed"] == 1
    assert m["quadrature.tanh_sinh.self_s"] == pytest.approx(1.0)
    assert m["heat1d.halfline.calls"] == 0
    assert set(m) == set(bench_stats.SPAN_METRICS)


def test_tracer_keeps_parents_per_thread_and_counts_nodes():
    tracer = traced_cli.Tracer()
    quad = tracer.wrap(lambda f, a, b: float(np.sum(f(np.linspace(a, b, 7)))),
                       "quadrature.tanh_sinh")
    outer = tracer.wrap(lambda: quad(lambda x: x, 0.0, 1.0), "outer")
    outer()
    worker = threading.Thread(target=lambda: quad(np.sin, 0.0, 1.0))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s[2], []).append(s)
    (o,) = by_name["outer"]
    nested, threaded = sorted(by_name["quadrature.tanh_sinh"],
                              key=lambda s: s[3])
    assert nested[1] == o[0] and o[1] == -1
    assert threaded[1] == -1          # a pool thread starts a new stack
    assert nested[5] == threaded[5] == 7


def test_tracer_marks_failed_calls():
    tracer = traced_cli.Tracer()

    def boom():
        raise RuntimeError("no convergence")
    with pytest.raises(RuntimeError):
        tracer.wrap(boom, "quadrature.tanh_sinh")()
    assert tracer.spans[0][6] == 1


def test_references_agree_with_loop_forms():
    t = np.geomspace(1e-4, 1e-1, 7)
    phi, rho = [1.5, 0.3, -0.2, 0.1], [1.2, -0.4, 0.25, 0.05]
    loop = [sum(np.exp(-tt * ((i + 1) // 2) ** 2) * phi[i] * rho[i]
                * (2 * np.pi if i == 0 else np.pi) for i in range(4))
            for tt in t]
    np.testing.assert_allclose(
        closed_form.circle_heat_content(phi, rho, t), loop, rtol=1e-14)
    # Neumann minus Dirichlet leading term is twice the first closed-form term
    a1, a2 = 0.3, 0.4
    diff = closed_form.base_eps(1, a1, a2) - closed_form.base_eps(-1, a1, a2)
    assert diff == pytest.approx(closed_form.halfline_leading(a1, a2),
                                 rel=1e-13)


def test_benchmark_json_names_every_computed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"] for m in spec["per_layer"]}
    extra = {"cli.import_s", "cli.simulate_s", "cli.fit_s", "cli.verify_s",
             "cli.coeffs_s", "cli.cpu_s", "cli.simulate_1thread_s",
             "trace.overhead_ratio", "heat1d.err_cover", "heat1d.err_checked"}
    assert per_layer == set(bench_stats.SPAN_METRICS) | extra
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "samples_per_s", "peak_rss_mb"}


def test_smoke_checks_workload_traced():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "checks",
         "--seed", "5", "--seconds", "1", "--trace", "1", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    assert result["metrics"]["specfun.log_gamma.calls"]["value"] > 0
    assert result["metrics"]["heat1d.err_checked"]["value"] == 50
