"""Benchmark set-up in a fresh interpreter: import picardkit, write the
workload's input files and fill the warm count cache.

    python3 perfbench/prepare.py --workload warm-algebra --seed 1 --out DIR

Writes DIR/inputs/*.json and, for the warm workload, DIR/counts.ndjson
through the program's own variety_hash and CountCache.put.  Counts that are
cheap to brute-force are computed here by the oracle; the expensive ones are
frozen in workloads.py.  Prints one JSON line with the active backend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import oracle
import picardkit.cli  # noqa: F401 - import every module a request uses
import workloads
from picardkit.counting import BACKEND, CountCache, variety_hash
from picardkit.ffield import make_field
from picardkit.polysys import HomIdeal, poly_from_str


def warm_cache(plan, path):
    """Put every warm count into the cache file at `path`."""
    cache = CountCache(path)
    varieties = workloads.varieties(plan)
    for name, counts in plan["warm"]:
        v = varieties[name]
        if isinstance(counts, int):
            counts = [oracle.projective_count(v["poly"], v["nvars"], v["p"], v["e"], n)
                      for n in range(1, counts + 1)]
        field = make_field(v["p"], v["e"])
        ideal = HomIdeal([poly_from_str(g, v["nvars"], field) for g in v["spec"]["generators"]])
        digest = variety_hash(ideal)
        for n, count in enumerate(counts, start=1):
            cache.put(digest, n, count)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    plan = workloads.plan(args.workload, args.seed)
    inputs = os.path.join(args.out, "inputs")
    os.makedirs(inputs, exist_ok=True)
    for name, obj in plan["inputs"].items():
        with open(os.path.join(inputs, name), "w", encoding="utf-8") as fh:
            json.dump(obj, fh)
    if plan["warm"]:
        warm_cache(plan, os.path.join(args.out, "counts.ndjson"))
    print(json.dumps({"backend": BACKEND}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
