"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BEFORE.txt AFTER.txt

Each file holds the stdout of one or more run.py invocations.  Every result
line must follow its STAMP line.  For each workload and metric the medians
of the two sets are compared.  When the two sets ran different kernel
backends, every row is flagged "backend differs" and no change is reported,
because a backend switch is not a speed change of the code.
"""

from __future__ import annotations

import json
import statistics
import sys


def parse(lines):
    """[(stamp, result)] from run.py output lines."""
    runs, stamp = [], None
    for line in lines:
        line = line.strip()
        if line.startswith("STAMP "):
            stamp = json.loads(line[len("STAMP "):])
        elif line.startswith("{") and stamp is not None:
            result = json.loads(line)
            if "metrics" in result:
                runs.append((stamp, result))
                stamp = None
    return runs


def _medians(runs):
    values = {}
    for stamp, result in runs:
        for name, m in result["metrics"].items():
            values.setdefault((stamp["workload"], name), []).append(m["value"])
    return {k: statistics.median(v) for k, v in values.items()}


def compare(before, after):
    """Rows {workload, metric, before, after, change, flag}."""
    backends = ({s["backend"] for s, _ in before}, {s["backend"] for s, _ in after})
    flag = "backend differs" if backends[0] != backends[1] else None
    a, b = _medians(before), _medians(after)
    rows = []
    for key in sorted(a.keys() & b.keys()):
        change = None
        if flag is None and a[key]:
            change = b[key] / a[key] - 1
        rows.append({"workload": key[0], "metric": key[1], "before": a[key],
                     "after": b[key], "change": change, "flag": flag})
    return rows


def main(argv):
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            sets.append(parse(fh))
    for r in compare(*sets):
        change = r["flag"] or ("n/a" if r["change"] is None else f"{r['change']:+.1%}")
        print(f"{r['workload']:14s} {r['metric']:26s} {r['before']:12.6g} {r['after']:12.6g}  {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
