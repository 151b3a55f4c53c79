"""Per-layer metrics from traced requests: self times, counts, ratios.

Each metric names the end-to-end metric and workload it should move, so a
change that claims a gain on one layer can be checked against the trace.
A `_s` metric is the summed self time of that span over one traced pass:
its duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import statistics

# (metric, unit, better, span or counter it reads, what it should move)
PER_LAYER = [
    ("counting.kernel_s", "s", "lower", "counting.kernel",
     "wall_s on cold-surfaces and cold-curves; none on warm-algebra"),
    ("counting.kernel_calls", "count", "lower", "calls:counting.kernel",
     "wall_s on cold-surfaces and cold-curves"),
    ("counting.slices", "count", "lower", "count:counting.slices",
     "wall_s on cold-surfaces and cold-curves"),
    ("counting.enumerate_calls", "count", "lower", "count:counting.enumerate_calls",
     "wall_s on cold-surfaces and cold-curves"),
    ("counting.tables_s", "s", "lower", "counting.tables",
     "wall_s and peak_rss_mb on cold-curves; small on cold-surfaces"),
    ("counting.table_entries", "count", "lower", "count:counting.table_entries",
     "wall_s and peak_rss_mb on cold-curves"),
    ("counting.charts_s", "s", "lower", "counting.charts",
     "wall_s on cold-curves; no change on cold-surfaces"),
    ("ffield.extend_s", "s", "lower", "ffield.extend",
     "wall_s on cold-curves; no change on cold-surfaces"),
    ("counting.levels_counted", "count", "lower", "calls:counting.points",
     "wall_s on cold-curves (8 levels today); no change on cold-surfaces"),
    ("counting.levels_cached", "count", "higher", "count:cache.hits",
     "request_p50_s on warm-algebra"),
    ("counting.tower_calls", "count", "lower", "calls:counting.tower",
     "wall_s on cold-curves; no change on cold-surfaces"),
    ("cache.load_s", "s", "lower", "cache.load", "request_p50_s on warm-algebra"),
    ("cache.put_s", "s", "lower", "cache.put", "wall_s on the cold workloads"),
    ("cache.hits", "count", "higher", "count:cache.hits", "request_p50_s on warm-algebra"),
    ("cache.misses", "count", "lower", "count:cache.misses", "wall_s on the cold workloads"),
    ("cache.hit_ratio", "ratio", "higher", "ratio:cache", "request_p50_s on warm-algebra"),
    ("polysys.smooth_s", "s", "lower", "polysys.smooth", "request_p50_s on warm-algebra"),
    ("polysys.dimdeg_s", "s", "lower", "polysys.dimdeg", "request_p50_s on warm-algebra"),
    ("zeta.reconstruct_s", "s", "lower", "zeta.reconstruct",
     "wall_s and request_p50_s on warm-algebra"),
    ("zeta.fe_check_s", "s", "lower", "zeta.fe_check",
     "wall_s and request_p50_s on warm-algebra"),
    ("weil.certify_s", "s", "lower", "weil.certify", "wall_s and request_p50_s on warm-algebra"),
    ("weil.certify_calls", "count", "lower", "calls:weil.certify",
     "wall_s and request_p50_s on warm-algebra"),
    ("weil.classify_s", "s", "lower", "weil.classify",
     "wall_s and request_p50_s on warm-algebra"),
    ("weil.classify_calls", "count", "lower", "calls:weil.classify",
     "request_p50_s on warm-algebra (more than one per request repeats the work)"),
    ("intfactor.factor_s", "s", "lower", "intfactor.factor",
     "wall_s and request_p50_s on warm-algebra"),
    ("lattice.certificate_s", "s", "lower", "lattice.certificate", "request_p50_s on warm-algebra"),
    ("lattice.build_s", "s", "lower", "lattice.build", "request_p50_s on warm-algebra"),
    ("galmod.torsion_s", "s", "lower", "galmod.torsion", "request_p50_s on warm-algebra"),
    ("galmod.rank_bounds_s", "s", "lower", "galmod.rank_bounds", "request_p50_s on warm-algebra"),
    ("dovetail.run_s", "s", "lower", "dovetail.run", "request_p50_s on warm-algebra"),
    ("cli.startup_s", "s", "lower", "startup",
     "request_p50_s on warm-algebra (median over requests, spawn to cli.main)"),
    ("trace.overhead_s", "s", "lower", "overhead",
     "none: traced pass wall time minus untraced pass wall time"),
]


def covered(start, end, intervals):
    """Length of [start, end] covered by the union of `intervals`."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted((max(lo, start), min(hi, end)) for lo, hi in intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of each span in a list of [name, start, end, parent]."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    return [end - start - covered(start, end, kids)
            for (name, start, end, _), kids in zip(spans, children)]


def span_table(traces):
    """{span name: [calls, inclusive seconds, self seconds]} over all traces."""
    table = {}
    for tr in traces:
        for (name, start, end, _), own in zip(tr["spans"], self_times(tr["spans"])):
            row = table.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start
            row[2] += own
    return table


def per_layer_metrics(traces, overhead_s):
    """Every PER_LAYER metric for one traced pass (one trace per request)."""
    table = span_table(traces)
    counts, calls = {}, {}
    for tr in traces:
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tr["calls"].items():
            calls[k] = calls.get(k, 0) + v
    out = {}
    for name, unit, _better, source, _moves in PER_LAYER:
        kind, _, key = source.rpartition(":")
        if kind == "calls":
            value = calls.get(key, 0)
        elif kind == "count":
            value = counts.get(key, 0)
        elif source == "ratio:cache":
            looked_up = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
            value = counts.get("cache.hits", 0) / looked_up if looked_up else 0.0
        elif source == "startup":
            value = statistics.median(tr["startup_s"] for tr in traces) if traces else 0.0
        elif source == "overhead":
            value = overhead_s
        else:
            value = table.get(source, [0, 0.0, 0.0])[2]
        out[name] = {"value": value, "unit": unit}
    return out
