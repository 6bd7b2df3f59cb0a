"""Order statistics and span aggregation for the benchmark.

A span is one call into a layer, recorded by traced_cli.py as
(id, parent, name, t0, t1, n, failed): parent is the id of the enclosing
span on the same thread (-1 for none), n counts work items (integrand
points for tanh_sinh, evaluation points for profiles), failed marks a
call that raised.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

ID, PARENT, NAME, T0, T1, N, FAILED = range(7)


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple:
    """(q1, q3) as statistics.quantiles(values, n=4) gives them."""
    values = list(values)
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, q3 = quartiles(values)
    return (q3 - q1) / abs(median(values))


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of the given intervals."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """span id -> duration minus the part its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[T0], s[T1]))
    return {s[ID]: (s[T1] - s[T0]) - covered(s[T0], s[T1], children[s[ID]])
            for s in spans}


def layer_totals(processes) -> dict:
    """Per span name: calls, n, failed, inclusive and self seconds.

    processes is a list of span lists, one per traced CLI process (span
    ids are unique only within a process).  Also records, per name, the
    duration of the first call each process started ("first") and the
    durations of all later calls ("later").
    """
    out = defaultdict(lambda: {"calls": 0, "n": 0, "failed": 0,
                               "incl_s": 0.0, "self_s": 0.0,
                               "first": [], "later": []})
    for spans in processes:
        self_s = self_times(spans)
        seen = set()
        for s in sorted(spans, key=lambda s: s[T0]):
            agg = out[s[NAME]]
            agg["calls"] += 1
            agg["n"] += s[N]
            agg["failed"] += s[FAILED]
            agg["incl_s"] += s[T1] - s[T0]
            agg["self_s"] += self_s[s[ID]]
            if s[NAME] in seen:
                agg["later"].append(s[T1] - s[T0])
            else:
                seen.add(s[NAME])
                agg["first"].append(s[T1] - s[T0])
    return out


#: per-layer metric -> (span name, statistic); the statistics are
#: calls / n / failed (sums), self_s / incl_s (summed seconds), first_s
#: (summed duration of each process's first call: the cold moment table)
#: and later_median_s (median duration of the warm calls).
SPAN_METRICS = {
    "quadrature.tanh_sinh.calls": ("quadrature.tanh_sinh", "calls"),
    "quadrature.tanh_sinh.nodes": ("quadrature.tanh_sinh", "n"),
    "quadrature.tanh_sinh.self_s": ("quadrature.tanh_sinh", "self_s"),
    "quadrature.tanh_sinh.failed": ("quadrature.tanh_sinh", "failed"),
    "quadrature.gauss_legendre.calls": ("quadrature.gauss_legendre", "calls"),
    "quadrature.gauss_legendre.self_s": ("quadrature.gauss_legendre",
                                         "self_s"),
    "quadrature.tanh_sinh_nodes.calls": ("quadrature.tanh_sinh_nodes",
                                         "calls"),
    "quadrature.tanh_sinh_nodes.self_s": ("quadrature.tanh_sinh_nodes",
                                          "self_s"),
    "profiles.eval.calls": ("profiles.eval", "calls"),
    "profiles.eval.points": ("profiles.eval", "n"),
    "profiles.eval.self_s": ("profiles.eval", "self_s"),
    "heat1d.halfline.calls": ("heat1d.halfline", "calls"),
    "heat1d.halfline.self_s": ("heat1d.halfline", "self_s"),
    "heat1d.interval.first_call_s": ("heat1d.interval", "first_s"),
    "heat1d.interval.calls": ("heat1d.interval", "calls"),
    "heat1d.interval.warm_call_s": ("heat1d.interval", "later_median_s"),
    "heat1d.circle.calls": ("heat1d.circle", "calls"),
    "heat1d.circle.s": ("heat1d.circle", "incl_s"),
    "heat1d.intertwine_residual.s": ("heat1d.intertwine_residual", "incl_s"),
    "regint.i_reg.calls": ("regint.i_reg", "calls"),
    "regint.i_reg.s": ("regint.i_reg", "incl_s"),
    "regint.interior_coefficients.s": ("regint.interior_coefficients",
                                       "incl_s"),
    "asymfit.fit.calls": ("asymfit.fit", "calls"),
    "asymfit.fit.s": ("asymfit.fit", "incl_s"),
    "specfun.log_gamma.calls": ("specfun.log_gamma", "calls"),
    "specfun.log_gamma.self_s": ("specfun.log_gamma", "self_s"),
    "specfun.gamma_ratio.calls": ("specfun.gamma_ratio", "calls"),
    "specfun.gamma_ratio.self_s": ("specfun.gamma_ratio", "self_s"),
    "coeff.build_table.calls": ("coeff.build_table", "calls"),
    "coeff.build_table.s": ("coeff.build_table", "incl_s"),
    "geom.boundary_beta.calls": ("geom.boundary_beta", "calls"),
    "geom.boundary_beta.s": ("geom.boundary_beta", "incl_s"),
}


def span_metrics(processes) -> dict:
    """Every SPAN_METRICS value; a layer the workload never calls reads 0."""
    totals = layer_totals(processes)
    out = {}
    for metric, (name, stat) in SPAN_METRICS.items():
        agg = totals.get(name)
        if agg is None:
            out[metric] = 0
        elif stat == "first_s":
            out[metric] = sum(agg["first"])
        elif stat == "later_median_s":
            out[metric] = median(agg["later"]) if agg["later"] else 0.0
        else:
            out[metric] = agg[stat]
    return out
