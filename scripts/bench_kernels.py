#!/usr/bin/env python3
"""Benchmark the counting paths: the chart path on the compiled kernel and
on the pure-Python fallback, and, for a hypersurface whose variables fall
into two or more blocks, the count over cyclotomic classes (also where
`count_points` leaves a block of nvars - 1 variables to the charts, as for
the elliptic curve over F_4).

Each case is counted by every path, and the counts #X(F_{q^n}) must agree.
The table prints timings: the field tables of F_{q^n}, the embedding of the
base field into them (`counting.kernel.embedding`) and the counting.  The
class path reads the tables of the last kernel timed (the compiled one when
it is built).  The pure kernel is skipped where the
charts hold more than PURE_SLICES slices.  Last come the compiled kernel's
tables alone on the large levels of TABLES, after the search for their
primitive modulus (`ffield.level_field`).

The "request path" section comes first: in process, the median of
REQUEST_RUNS runs of what every request on one of the benchmark's
varieties does before counting (parse, `dimension_degree` and
`smoothness_check`).  The "refused towers" section follows: for each
variety of REFUSED, the time until `count_tower`, on no cache and the
levels of the smooth hypersurface's `zeta.hypersurface_budget`, raises
BudgetExceededError, and the level it names.  Usage:

    python scripts/bench_kernels.py [--heavy]
"""

import argparse
import statistics
import time

from picardkit.counting import (
    BACKEND,
    BudgetExceededError,
    count_charts,
    count_tower,
    kernel_py,
    separable_blocks,
)
from picardkit.counting.charts import compile_charts
from picardkit.counting.classes import count_separable
from picardkit.counting.kernel import embedding
from picardkit.ffield import level_field, make_field
from picardkit.polysys import HomIdeal, dimension_degree, poly_from_str, smoothness_check
from picardkit.zeta import hypersurface_budget

try:
    from picardkit.counting import _ckernel
except ImportError:
    _ckernel = None


CUBIC_THREEFOLD = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"  # charts with 3 prefix coordinates
PURE_SLICES = 10**6

# (label, p, e, nvars, generators, n): the variety over F_{p^e}, counted
# over F_{p^(e*n)}; all but the elliptic curves over F_5 and the quartic
# over F_2 separate
CASES = [
    ("quadric/F_3, n=3", 3, 1, 4, ["x0*x3 - x1*x2"], 3),
    ("cubic surface/F_2, n=4", 2, 1, 4, ["x0^3 + x1^3 + x2^3 + x3^3"], 4),
    ("elliptic curve/F_5, n=5", 5, 1, 3, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], 5),
    ("elliptic curve/F_4, n=8", 2, 2, 3, ["x1^2*x2 + x1*x2^2 + x0^3"], 8),
    ("cubic threefold/F_2, n=5", 2, 1, 5, [CUBIC_THREEFOLD], 5),
    ("Fermat quartic/F_3, n=8", 3, 1, 4, ["x0^4 + x1^4 + x2^4 + x3^4"], 8),
]

# (p, k): levels F_{p^k} whose tables alone are timed
TABLES = [(5, 10), (2, 22), (3, 14)]

# (label, p, e, nvars, generator): the benchmark workloads' varieties
REQUEST_PATH = [
    ("K3/F_2", 2, 1, 4, "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"),
    ("Klein quartic/F_2", 2, 1, 3, "x0^3*x1 + x1^3*x2 + x2^3*x0"),
    ("elliptic curve/F_4", 2, 2, 3, "x1^2*x2 + x1*x2^2 + x0^3"),
    ("cubic surface/F_4", 2, 2, 4, "x0^3 + x1^3 + x2^3 + g^2*x3^3"),
]
REQUEST_RUNS = 40

# (label, p, nvars, degree, generator): smooth hypersurfaces over F_p whose
# towers the default budget refuses at n = 8
REFUSED = [
    ("Klein-type quartic/F_3", 3, 4, 4, "x0^3*x1 + x1^3*x2 + x2^3*x3 + x3^3*x0"),
    ("K3/F_3", 3, 4, 4, "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"),
    ("cubic fourfold/F_2", 2, 6, 3,
     "x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x0"),
]

HEAVY = [
    ("elliptic curve/F_5, n=7", 5, 1, 3, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], 7),
    ("quartic/F_2, n=8", 2, 1, 4, ["x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"], 8),
    ("cubic threefold/F_2, n=6", 2, 1, 5, [CUBIC_THREEFOLD], 6),
]


def bench_request_path():
    print(f"request path, backend {BACKEND}: parse + dimension_degree + smoothness_check,"
          f" median of {REQUEST_RUNS}")
    for label, p, e, nvars, text in REQUEST_PATH:
        field = make_field(p, e)
        times = []
        for _ in range(REQUEST_RUNS):
            t0 = time.perf_counter()
            ideal = HomIdeal([poly_from_str(text, nvars, field)])
            dimension_degree(ideal)
            smooth = smoothness_check(ideal)
            times.append(time.perf_counter() - t0)
        assert smooth, f"{label} fails the smoothness check"
        print(f"  {label:<20} {statistics.median(times) * 1e3:>7.3f} ms")


def bench_refused():
    print(f"\nrefused towers, backend {BACKEND}: time until count_tower refuses, no cache")
    for label, p, nvars, degree, text in REFUSED:
        ideal = HomIdeal([poly_from_str(text, nvars, make_field(p, 1))])
        n_max = hypersurface_budget(degree, nvars - 1, p).levels
        t0 = time.perf_counter()
        try:
            count_tower(ideal, n_max)
        except BudgetExceededError as err:
            print(f"  {label:<24} {(time.perf_counter() - t0) * 1e3:>10.2f} ms  {err}")
        else:
            raise AssertionError(f"{label}: the tower to n={n_max} was not refused")


def bench_case(label, p, e, nvars, gens, n, backends):
    field = make_field(p, e)
    ideal = HomIdeal([poly_from_str(g, nvars, field) for g in gens])
    ext = level_field(p, e * n)
    charts = compile_charts(ideal)
    slices = sum(ext.q**c.nprefix for c in charts if c.nfree and c.gen_terms)
    rows = []
    tables = None
    for name, mod in backends:
        if mod is kernel_py and slices > PURE_SLICES:
            rows.append((name, None, None, None, None))
            continue
        t0 = time.perf_counter()
        tables = mod.build_tables(ext.p, ext.e, ext.modulus)
        t_tables = time.perf_counter() - t0
        t0 = time.perf_counter()
        image = embedding(field, tables)
        t_embed = time.perf_counter() - t0
        t0 = time.perf_counter()
        total = count_charts(charts, p, image, mod, tables, 1)
        rows.append((name, total, t_embed, t_tables, time.perf_counter() - t0))
    blocks = separable_blocks(ideal)
    if blocks:
        if tables is None:
            tables = kernel_py.build_tables(ext.p, ext.e, ext.modulus)
        t0 = time.perf_counter()
        image = embedding(field, tables)
        t_embed = time.perf_counter() - t0
        t0 = time.perf_counter()
        total = count_separable(blocks, nvars, image, tables)
        rows.append(("classes", total, t_embed, None, time.perf_counter() - t0))
    counts = {r[1] for r in rows if r[1] is not None}
    assert len(counts) == 1, f"counting paths disagree on {label}: {rows}"
    print(f"\n{label}  (#X = {counts.pop()}, {slices} chart slices)")
    print(f"  {'path':<8} {'embedding':>10} {'tables':>10} {'counting':>10} {'speedup':>9}")
    base = next(r[4] for r in rows if r[4] is not None)
    for name, total, t_embed, t_tables, t_count in rows:
        if total is None:
            print(f"  {name:<8} {'skipped: more than PURE_SLICES slices':>42}")
            continue
        tables_col = f"{t_tables:>9.3f}s" if t_tables is not None else f"{'shared':>10}"
        speed = base / t_count if t_count else float("inf")
        print(f"  {name:<8} {t_embed:>9.4f}s {tables_col} {t_count:>9.3f}s {speed:>8.1f}x")


def bench_tables(p, k):
    t0 = time.perf_counter()
    level_field.cache_clear()
    level = level_field(p, k)
    t_search = time.perf_counter() - t0
    t0 = time.perf_counter()
    _ckernel.build_tables(p, k, level.modulus)
    t_tables = time.perf_counter() - t0
    print(f"  F_{{{p}^{k}}}  {t_search * 1e3:>8.2f} ms {t_tables:>9.3f}s")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--heavy", action="store_true", help="include larger cases")
    args = parser.parse_args()
    bench_request_path()
    bench_refused()
    backends = [("pure", kernel_py)]
    if _ckernel is not None:
        backends.append(("c", _ckernel))
    else:
        print("compiled kernel not built; benchmarking the pure backend only")
    for case in CASES + (HEAVY if args.heavy else []):
        bench_case(*case, backends)
    if _ckernel is not None:
        print("\ntables only, compiled kernel")
        print(f"  {'level':<8} {'modulus':>11} {'tables':>10}")
        for p, k in TABLES:
            bench_tables(p, k)


if __name__ == "__main__":
    main()
