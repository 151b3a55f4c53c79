"""picardkit benchmark: fixed workloads through the CLI, outputs checked.

    python3 perfbench/run.py --workload cold-curves --seed 1 --seconds 20 --trace 0

Each request is one fresh `python -m picardkit.cli` process with --threads 1,
sent in a closed loop by one client: the next request starts when the
previous one has exited.  A pass sends the workload's whole request list;
one untimed warm-up pass comes first; then timed passes repeat while the
next one is expected to end within --seconds (at least one).  The metrics
are medians over the timed passes and their requests.  Every output, the
warm-up's too, is checked by oracle.py, which does not use picardkit.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the warm-up, one
untraced pass and one traced pass (each request under tracer.py) and prints
the per-layer metrics, a span table with self times, and the tracing
overhead.  The last
line of stdout is the result JSON; the line before it, starting with STAMP,
records backend, threads, cores, Python version, commit and seed.

The host's CPU speed changes by up to 1.7x for stretches of seconds to
minutes, with other tenants' load.  So the run stays on one CPU, a short
fixed pure-Python probe runs before and after every request and set-up, and
the end-to-end times are reported at the reference speed: each measured time
is multiplied by PROBE_REF_S over the mean of the two probes beside it.  The
times as measured are printed beside them.  Per-layer times are as measured.

Set-up builds the package with the repository's own build (setup.py
build_ext --inplace, a no-op while there is no compiled kernel to build),
then imports it in a fresh interpreter to write the inputs and fill the warm
cache; it is timed SETUP_REPS times and setup_s is the median.  Requests
still running DEADLINE_S after the run started are killed and fail.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5
THREADS = 1
# seconds that probe_s() takes on the reference machine, a 2-vCPU KVM guest
# on an Intel Xeon (Sapphire Rapids) host, in its usual (slower) regime
PROBE_REF_S = 0.0090
# a run must end within 180 s: requests still running at this many seconds
# after the run started are killed and count as failed
DEADLINE_S = 165


def _probe_work():
    acc, seen = 0, {}
    for i in range(36000):
        acc = (acc * 31 + i) % 1000003
        seen[acc & 1023] = i
    return acc + len(seen)


def probe_s():
    """Seconds for a fixed piece of pure-Python work: median of 3 tries.

    The host's CPU speed changes by up to 1.7x for stretches of seconds to
    minutes (other tenants).  A probe next to each request measures the
    speed the request ran at, so its times can be rescaled to the reference
    speed PROBE_REF_S stands for."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        _probe_work()
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def pin_to_one_cpu():
    """Run this process and its requests on one CPU, so that each probe
    measures the CPU the next request runs on."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("PICARDKIT_CACHE", None)
    return env


def build():
    """The repository's own build; compiled extensions land in src/."""
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode:
        raise SystemExit(f"build failed:\n{proc.stdout}{proc.stderr}")


def setup(plan, out):
    """One timed set-up: build, then prepare.py in a fresh interpreter.

    Returns (seconds, seconds at the reference speed, prepare.py's info)."""
    before = probe_s()
    start = time.monotonic()
    build()
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", plan["workload"],
         "--seed", str(plan["seed"]), "--out", str(out)],
        env=_env(), capture_output=True, text=True,
    )
    elapsed = time.monotonic() - start
    if proc.returncode:
        raise SystemExit(f"set-up failed:\n{proc.stdout}{proc.stderr}")
    speed = PROBE_REF_S / ((before + probe_s()) / 2)
    return elapsed, elapsed * speed, json.loads(proc.stdout.strip().splitlines()[-1])


def request_argv(req, inputs, cache_file, warm):
    argv = [str(inputs / a["input"]) if isinstance(a, dict) else a for a in req["argv"]]
    argv += ["--cache-dir", str(cache_file), "--threads", str(THREADS)]
    if warm:
        # every count must come from the cache: a miss fails fast (exit 3)
        # instead of turning the warm workload into a cold one
        argv += ["--eval-budget", "1"]
    return argv


def spawn(cmd, out_dir, rid, deadline):
    """Run one request; wall time from spawn to exit, rusage from wait4.

    The process is killed if it is still running at `deadline` (a
    time.monotonic() value)."""
    with open(out_dir / f"{rid}.out", "wb") as out, open(out_dir / f"{rid}.err", "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=_env(), cwd=ROOT)
        killer = threading.Timer(max(deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "id": rid,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
    }


def run_pass(plan, inputs, warm_cache, pass_dir, traced, deadline):
    """Send every request once; returns (pass wall seconds, records).

    A probe runs before the first request and after each one; a request's
    `speed` is PROBE_REF_S over the mean of the probes on either side."""
    pass_dir.mkdir(parents=True)
    warm = bool(plan["warm"])
    records = []
    probe = probe_s()
    for req in plan["requests"]:
        rid = req["id"]
        cache_file = warm_cache if warm else pass_dir / f"{rid}-cache" / "counts.ndjson"
        before = cache_file.stat().st_size if warm else None
        argv = request_argv(req, inputs, cache_file, warm)
        if traced:
            spans = pass_dir / f"{rid}.spans.json"
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), rid,
                   repr(time.monotonic()), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "picardkit.cli", *argv]
        rec = spawn(cmd, pass_dir, rid, deadline)
        rec["cache_grew"] = warm and cache_file.stat().st_size != before
        rec["traced"] = traced
        after = probe_s()
        rec["speed"] = PROBE_REF_S / ((probe + after) / 2)
        probe = after
        records.append(rec)
    # the pass's wall time is its requests' spawn-to-exit times, so that the
    # probes between them do not count
    wall = sum(r["wall"] for r in records)
    for rec in records:
        rec["stdout"] = (pass_dir / f"{rec['id']}.out").read_text()
        rec["stderr"] = (pass_dir / f"{rec['id']}.err").read_text()[-400:]
        spans = pass_dir / f"{rec['id']}.spans.json"
        rec["trace"] = json.loads(spans.read_text()) if spans.is_file() else None
    return wall, records


# -- oracle checks ------------------------------------------------------------------

def brute_counts(plan):
    """{variety name: [N_1, N_2]} by the oracle's brute-force count."""
    return {
        name: [oracle.projective_count(v["poly"], v["nvars"], v["p"], v["e"], n) for n in (1, 2)]
        for name, v in workloads.varieties(plan).items()
    }


def _check_variety(report, v, brute, errors):
    counts = report["counts"]["values"]
    if report["counts"]["q"] != v["p"] ** v["e"]:
        errors.append("wrong base field size")
    for n, expected in enumerate(brute, start=1):
        if len(counts) < n or counts[n - 1] != expected:
            errors.append(f"N_{n} differs from the brute-force count")
    frozen = v["frozen"]
    if "counts" in frozen and counts != frozen["counts"][: len(counts)]:
        errors.append("counts differ from the frozen counts")
    z = report["zeta"]
    if oracle.counts_from_zeta(z["num"], z["den"], len(counts)) != counts:
        errors.append("zeta does not re-expand to the reported counts")
    if "num" in frozen and z["num"] != frozen["num"]:
        errors.append("zeta numerator differs from the frozen value")
    if "betti" in report and report["betti"] != oracle.hypersurface_betti(v["dim"], v["degree"]):
        errors.append("Betti numbers differ from the smooth-hypersurface formula")
    if "v_mu" in frozen and "tateBound" in report and report["tateBound"]["vMu"] != frozen["v_mu"]:
        errors.append("dim V_mu differs from the frozen value")


def check(req, rec, brute):
    """Oracle errors for one request (empty when the output is right)."""
    if rec["exit"] != 0:
        return [f"exit code {rec['exit']}: {rec['stderr'].strip()[-200:]}"]
    if rec.get("traced") and rec["trace"] is None:
        return ["traced request wrote no spans"]
    if rec["cache_grew"]:
        return ["count cache miss on the warm workload"]
    try:
        report = json.loads(rec["stdout"])
    except ValueError:
        return ["stdout is not one JSON report"]
    c, errors = req["check"], []
    try:
        if c["kind"] in ("hypersurface", "rank"):
            _check_variety(report, c["variety"], brute[c["variety"]["name"]], errors)
        if c["kind"] == "rank":
            rank = report["rank"]
            if rank["status"] != "halted" or rank["rankNumXsep"] != c["rank"]:
                errors.append("rank pipeline did not halt at the frozen rank")
            if report["tateBound"]["vMu"] != c["v_mu"]:
                errors.append("dim V_mu differs from the frozen value")
        elif c["kind"] == "torsion":
            t = report["torsion"]
            if not t["exact"] or t["invariantFactorExponents"] != c["exponents"]:
                errors.append("torsion differs from the planted exponents")
        elif c["kind"] == "galois":
            if report["rankBounds"]["value"] != c["value"]:
                errors.append("rank bound differs from the planted rank")
        elif c["kind"] == "dovetail":
            d = report["dovetail"]
            if d["results"] != oracle.dovetail_demo_results():
                errors.append("dovetail results differ from the searched values")
            if d["totalQuanta"] != sum(e["quanta"] for e in d["events"]):
                errors.append("dovetail quanta do not add up")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        errors.append(f"malformed report: {type(exc).__name__}: {exc}")
    return errors


# -- reporting -------------------------------------------------------------------


def source_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".pyx", ".c", ".h"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    for name in ("setup.py", "pyproject.toml"):
        if (ROOT / name).is_file():
            h.update((ROOT / name).read_bytes())
    return h.hexdigest()[:16]


def commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def end_to_end(passes, setups, rescale=True):
    """The end-to-end metrics; times at the reference CPU speed unless
    `rescale` is false.  `setups` holds (seconds, rescaled seconds) pairs."""
    records = [r for _, recs in passes for r in recs]
    failed = sum(1 for r in records if r["errors"])
    k = (lambda r: r["speed"]) if rescale else (lambda r: 1.0)
    return {
        "wall_s": statistics.median(sum(r["wall"] * k(r) for r in recs) for _, recs in passes),
        "cpu_s": statistics.median(sum(r["cpu"] * k(r) for r in recs) for _, recs in passes),
        "request_p50_s": statistics.median(r["wall"] * k(r) for r in records),
        "peak_rss_mb": max(r["rss_mb"] for r in records),
        "success_frac": (len(records) - failed) / len(records),
        "setup_s": statistics.median(t[1] if rescale else t[0] for t in setups),
    }


UNITS = {"wall_s": "s", "cpu_s": "s", "request_p50_s": "s", "peak_rss_mb": "MB",
         "success_frac": "ratio", "setup_s": "s"}


def print_span_table(traces):
    table = layers.span_table(traces)
    print(f"{'span':24s} {'calls':>7s} {'incl_s':>10s} {'self_s':>10s}")
    for name, (calls, incl, own) in sorted(table.items(), key=lambda kv: -kv[1][2]):
        print(f"{name:24s} {calls:7d} {incl:10.4f} {own:10.4f}")
    main_s = sum(tr["main"][1] - tr["main"][0] for tr in traces)
    print(f"{'cli.main (all spans)':24s} {len(traces):7d} {main_s:10.4f}")
    install = sum(tr["install_s"] for tr in traces)
    print(f"wrapper install, summed over requests: {install:.4f} s")
    missing = sorted({m for tr in traces for m in tr["missing"]})
    if missing:
        print("targets not found (their metrics read 0): " + ", ".join(missing))


def main(argv=None):
    ap = argparse.ArgumentParser(description="picardkit benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "picardkit" / "cli.py").is_file():
        print(f"no picardkit sources under {ROOT}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    pin_to_one_cpu()
    plan = workloads.plan(args.workload, args.seed)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setups, info = [], None
        for k in range(SETUP_REPS):
            *times, info = setup(plan, work / f"setup{k}")
            setups.append(times)
        prepared = work / f"setup{SETUP_REPS - 1}"
        inputs, warm_cache = prepared / "inputs", prepared / "counts.ndjson"

        # one untimed pass first, so that timed passes start warm (page
        # cache, bytecode); its outputs are checked like the others
        warmup = run_pass(plan, inputs, warm_cache, work / "warmup", False, deadline)
        passes = []
        start = time.monotonic()
        while True:
            passes.append(run_pass(plan, inputs, warm_cache, work / f"pass{len(passes)}",
                                   False, deadline))
            # start another pass only if a typical one ends within --seconds
            typical = statistics.median(w for w, _ in passes)
            if args.trace or time.monotonic() - start + typical > args.seconds:
                break
        traced = None
        if args.trace:
            traced = run_pass(plan, inputs, warm_cache, work / "traced", True, deadline)
        by_id = {req["id"]: req for req in plan["requests"]}
        brute = brute_counts(plan)
        checked = [warmup, *passes] + ([traced] if traced else [])
        for _, recs in checked:
            for rec in recs:
                rec["errors"] = check(by_id[rec["id"]], rec, brute)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for rec in warmup[1]:
        rec["kind"] = "warmup"
    every = [r for _, recs in checked for r in recs]
    for rec in every:
        kind = rec.get("kind") or ("traced" if rec["traced"] else "plain")
        print(f"request {rec['id']:12s} {kind:6s} "
              f"wall {rec['wall']:8.3f} s  cpu {rec['cpu']:8.3f} s  rss {rec['rss_mb']:6.1f} MB  "
              f"speed {rec['speed']:.3f}")
        for err in rec["errors"]:
            print(f"FAILED {rec['id']}: {err}")
    e2e = end_to_end(passes, setups)
    raw = end_to_end(passes, setups, rescale=False)
    n_req = sum(len(recs) for _, recs in passes)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} pass(es), "
          f"{n_req} requests, request_p50_s over {n_req} samples")
    print(f"  {'metric':16s} {'reference speed':>16s} {'as measured':>12s}")
    for name, value in e2e.items():
        print(f"  {name:16s} {value:16.4f} {raw[name]:12.4f} {UNITS[name]}")
    if traced:
        traces = [r["trace"] for r in traced[1] if r["trace"]]
        print_span_table(traces)
        overhead = traced[0] - passes[0][0]
        print(f"tracing overhead: {overhead:.4f} s on an untraced pass of {passes[0][0]:.4f} s")
        metrics = layers.per_layer_metrics(traces, overhead)
        for name, unit, _b, _s, moves in layers.PER_LAYER:
            print(f"  {name:26s} {metrics[name]['value']:>14.6g} {unit:6s} -> {moves}")
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    stamp = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
             "backend": info["backend"], "threads": THREADS, "nproc": os.cpu_count(),
             "python": platform.python_version(), "commit": commit(),
             "source_sha256": source_digest()}
    print("STAMP " + json.dumps(stamp, sort_keys=True))
    failed = sum(1 for r in every if r["errors"])
    print(json.dumps({"correct": failed == 0, "attempted": len(every),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
