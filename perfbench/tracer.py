"""Traced CLI request: wrap picardkit's public functions, then run cli.main.

    python3 perfbench/tracer.py SPANS_OUT REQUEST_ID SPAWNED -- <picardkit args>

SPAWNED is the parent's time.monotonic() just before it spawned this process
(CLOCK_MONOTONIC is shared by all processes on Linux).  The runner replaces
each target function, wherever a picardkit module binds it by name, with a
wrapper that records a span (name, start, end, parent) and, for some
targets, work counts.  Spans stay in memory and are written to SPANS_OUT as
JSON when the request ends.  Nothing inside the program is modified on disk.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time

# (span name, module, attribute); the kernel module is whichever backend
# picardkit selected, so a compiled kernel is traced the same way
TARGETS = [
    ("counting.tower", "picardkit.counting", "count_tower"),
    ("counting.points", "picardkit.counting", "count_points"),
    ("counting.charts", "picardkit.counting", "compile_charts"),
    ("counting.tables", "<backend>", "build_tables"),
    ("counting.kernel", "<backend>", "count_chart"),
    ("ffield.extend", "picardkit.ffield", "extend"),
    ("cache.load", "picardkit.counting.cache", "CountCache.__init__"),
    ("cache.get", "picardkit.counting.cache", "CountCache.get"),
    ("cache.put", "picardkit.counting.cache", "CountCache.put"),
    ("polysys.smooth", "picardkit.polysys", "smoothness_check"),
    ("polysys.dimdeg", "picardkit.polysys", "dimension_degree"),
    ("zeta.reconstruct", "picardkit.zeta", "reconstruct"),
    ("zeta.reconstruct", "picardkit.zeta", "reconstruct_surface"),
    ("zeta.fe_check", "picardkit.zeta", "functional_equation_check"),
    ("weil.certify", "picardkit.weil", "certify_root_modulus"),
    ("weil.classify", "picardkit.weil", "classify_weights"),
    ("intfactor.factor", "picardkit.intfactor", "factor_int_poly"),
    ("lattice.certificate", "picardkit.lattice", "independence_certificate"),
    ("lattice.build", "picardkit.lattice", "build_n"),
    ("galmod.torsion", "picardkit.galmod", "torsion_from_sizes"),
    ("galmod.rank_bounds", "picardkit.galmod", "rank_upper_bounds"),
    ("dovetail.run", "picardkit.dovetail", "run_geometric"),
]


def kernel_slices(Q, nprefix, lo, hi):
    """Univariate slices one count_chart call resolves: the outer prefix
    coordinate runs over [lo, hi), the other nprefix - 1 over all of F_Q;
    a chart with no prefix coordinate is a single slice."""
    if nprefix == 0:
        return 1
    return (hi - lo) * Q ** (nprefix - 1)


def _probe_kernel(counts, args, result):
    # count_chart(Q, p, tmask, exp, log, zech, gen_terms, nprefix, use_gcd, lo, hi)
    Q, nprefix, use_gcd, lo, hi = args[0], args[7], args[8], args[9], args[10]
    counts["counting.slices"] += kernel_slices(Q, nprefix, lo, hi)
    if not use_gcd:
        counts["counting.enumerate_calls"] += 1


def _probe_tables(counts, args, result):
    counts["counting.table_entries"] += args[0] ** args[1]


def _probe_cache_get(counts, args, result):
    counts["cache.hits" if result is not None else "cache.misses"] += 1


PROBES = {
    "counting.kernel": _probe_kernel,
    "counting.tables": _probe_tables,
    "cache.get": _probe_cache_get,
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.calls = {}
        self.counts = {
            "counting.slices": 0,
            "counting.enumerate_calls": 0,
            "counting.table_entries": 0,
            "cache.hits": 0,
            "cache.misses": 0,
        }
        self._local = threading.local()

    def wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, calls, counts, local = self.spans, self.calls, self.counts, self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            calls[name] = calls.get(name, 0) + 1
            if probe:
                probe(counts, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target; returns the targets that could not be found."""
        from picardkit.counting.kernel import backend_module

        missing = []
        for name, modname, attr in TARGETS:
            mod = backend_module() if modname == "<backend>" else importlib.import_module(modname)
            owner_name, _, fn_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            orig = getattr(owner, fn_name, None)
            if orig is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapped = self.wrap(name, orig)
            if owner_name:
                setattr(owner, fn_name, wrapped)
                continue
            # rebind every module-level name for this function, e.g. cli's
            # `from .counting import count_tower`
            for m in list(sys.modules.values()):
                if getattr(m, "__name__", "").startswith("picardkit"):
                    for k, v in list(vars(m).items()):
                        if v is orig:
                            setattr(m, k, wrapped)
        return missing


def main(argv):
    spans_out, request_id, spawned = argv[0], argv[1], float(argv[2])
    cli_argv = argv[4:] if argv[3:4] == ["--"] else argv[3:]
    import picardkit.cli as cli

    tracer = Tracer()
    t0 = time.perf_counter()
    missing = tracer.install()
    install_s = time.perf_counter() - t0
    main_entry = time.monotonic()
    start = time.perf_counter()
    try:
        code = cli.main(cli_argv)
    finally:
        end = time.perf_counter()
        sys.stdout.flush()
        with open(spans_out, "w", encoding="utf-8") as fh:
            json.dump({
                "request": request_id,
                "startup_s": main_entry - spawned,
                "install_s": install_s,
                "main": [start, end],
                "spans": tracer.spans,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "missing": missing,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
