#!/usr/bin/env python3
"""Benchmark the compiled counting kernel against the pure-Python fallback.

Runs identical chart workloads through both backends and prints a table
with counts (which must agree) and timings: building the extension field
with its embedding of the base field (`extend`, shared by both backends),
the field tables and the chart counting.  Usage:

    python scripts/bench_kernels.py [--heavy]
"""

import argparse
import time

from picardkit.counting import kernel_py
from picardkit.counting.charts import compile_charts
from picardkit.counting.kernel import trace_mask
from picardkit.ffield import extend, make_field
from picardkit.polysys import HomIdeal, poly_from_str

try:
    from picardkit.counting import _ckernel
except ImportError:
    _ckernel = None


CUBIC_THREEFOLD = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"  # charts with 3 prefix coordinates

# (label, p, e, nvars, generators, n): the variety over F_{p^e}, counted
# over F_{p^(e*n)}
CASES = [
    ("quadric/F_3, n=3", 3, 1, 4, ["x0*x3 - x1*x2"], 3),
    ("cubic surface/F_2, n=4", 2, 1, 4, ["x0^3 + x1^3 + x2^3 + x3^3"], 4),
    ("elliptic curve/F_5, n=5", 5, 1, 3, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], 5),
    ("elliptic curve/F_4, n=8", 2, 2, 3, ["x1^2*x2 + x1*x2^2 + x0^3"], 8),
    ("cubic threefold/F_2, n=5", 2, 1, 5, [CUBIC_THREEFOLD], 5),
]

HEAVY = [
    ("elliptic curve/F_5, n=7", 5, 1, 3, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], 7),
    ("quartic/F_2, n=8", 2, 1, 4, ["x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"], 8),
    ("cubic threefold/F_2, n=6", 2, 1, 5, [CUBIC_THREEFOLD], 6),
]


def bench_case(label, p, e, nvars, gens, n, backends):
    field = make_field(p, e)
    ideal = HomIdeal([poly_from_str(g, nvars, field) for g in gens])
    t0 = time.perf_counter()
    emb = extend(field, n)
    t_extend = time.perf_counter() - t0
    ext = emb.ext
    charts = compile_charts(ideal, emb, ext.to_index)
    tmask = trace_mask(ext)
    rows = []
    for name, mod in backends:
        t0 = time.perf_counter()
        tables = mod.build_tables(ext.p, ext.e, ext.modulus)
        t_tables = time.perf_counter() - t0
        total = 0
        t0 = time.perf_counter()
        for chart in charts:
            if chart.nfree == 0 or not chart.gen_terms:
                continue
            lo, hi = (0, 1) if chart.nprefix == 0 else (0, ext.q)
            total += mod.count_chart(
                ext.q, ext.p, tmask, *tables, chart.gen_terms, chart.nprefix, 1, lo, hi
            )
        t_count = time.perf_counter() - t0
        rows.append((name, total, t_tables, t_count))
    counts = {r[1] for r in rows}
    assert len(counts) == 1, f"backends disagree on {label}: {rows}"
    print(f"\n{label}  (count over affine charts: {rows[0][1]})")
    print(f"  {'backend':<8} {'extend':>10} {'tables':>10} {'counting':>10} {'speedup':>9}")
    base = rows[0][3]
    for name, _, t_tables, t_count in rows:
        speed = base / t_count if t_count else float("inf")
        print(
            f"  {name:<8} {t_extend:>9.3f}s {t_tables:>9.3f}s {t_count:>9.3f}s {speed:>8.1f}x"
        )


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--heavy", action="store_true", help="include larger cases")
    args = parser.parse_args()
    backends = [("pure", kernel_py)]
    if _ckernel is not None:
        backends.append(("c", _ckernel))
    else:
        print("compiled kernel not built; benchmarking the pure backend only")
    for case in CASES + (HEAVY if args.heavy else []):
        bench_case(*case, backends)


if __name__ == "__main__":
    main()
