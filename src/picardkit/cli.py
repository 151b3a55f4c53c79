"""Command-line surface: one JSON report per invocation on stdout.

Subcommands: count, zeta, betti, tate-bound, rank, torsion, galois-rank,
dovetail.  stdout carries exactly one machine-readable JSON report (or an
NDJSON trace for `dovetail --trace-file -`); progress heartbeats go to
stderr.  Exit codes: 0 success, 2 invalid input, 3 budget exceeded,
4 undecided / still running, 5 internal inconsistency in the inputs
(no matching zeta function, unclassifiable factors, inconsistent tables),
1 unexpected error.

Start-up is most of a warm request, so this module imports only the
standard library; each subcommand imports the picardkit modules it uses.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNDECIDED = 4
EXIT_INCONSISTENT = 5

SCHEMA = "picardkit-report/1"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _load_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}", EXIT_INVALID_INPUT) from None
    except ValueError as exc:
        raise CliError(f"bad JSON in {path}: {exc}", EXIT_INVALID_INPUT) from None


def _variety_from_spec(obj):
    from .ffield import FieldError, make_field
    from .polysys import HomIdeal, PolyError, poly_from_str

    try:
        fieldspec = obj["field"]
        p, e = int(fieldspec["p"]), int(fieldspec.get("e", 1))
        ambient = int(obj["ambientDim"])
        gens = obj.get("generators", [])
        flags = obj.get("flags", {})
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed variety spec: {exc}", EXIT_INVALID_INPUT) from None
    try:
        field = make_field(p, e)
        polys = [poly_from_str(g, ambient + 1, field) for g in gens]
        ideal = HomIdeal(polys)
        if not polys:
            ideal = ideal.with_ambient(ambient + 1, field)
    except (FieldError, PolyError) as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    return ideal, flags


def _cache_from_args(args):
    from .counting import CountCache, default_cache

    if getattr(args, "cache_dir", None):
        path = args.cache_dir
        if os.path.isdir(path) or not os.path.splitext(path)[1]:
            path = os.path.join(path, "counts.ndjson")
        return CountCache(path)
    return default_cache()


def _eval_budget(args):
    """--eval-budget, or counting's default when it was not given."""
    from .counting import DEFAULT_BUDGET

    return DEFAULT_BUDGET if args.eval_budget is None else args.eval_budget


def _budget_descriptor(flags, args, ambient):
    budget = args.budget if args.budget is not None else flags.get("budget")
    if budget is not None:
        try:
            budget = int(budget)
        except (TypeError, ValueError):
            budget = 0
        if budget < 2:
            raise CliError("budget must be an integer of at least 2", EXIT_INVALID_INPUT)
        return {"budget": budget}
    degree = flags.get("hypersurfaceDegree")
    if degree is None:
        return {}
    if type(degree) is not int or degree < 1:
        raise CliError("hypersurfaceDegree must be an integer of at least 1", EXIT_INVALID_INPUT)
    return {"hypersurface_degree": degree, "ambient_dim": ambient}


def _validate_counts(series, betti=None):
    try:
        series.validate(betti)
    except ValueError as exc:
        raise CliError(f"invalid counts: {exc}", EXIT_INCONSISTENT) from None


def _budget_error(exc):
    """Exit 3 for a counting.BudgetExceededError, saying which limit (work
    or memory) the next level hit and how far the tower got."""
    done = len(exc.completed.counts) if exc.completed else 0
    return CliError(f"{exc} (largest completed n = {done})", EXIT_BUDGET)


def _check_smooth(ideal, flags):
    from .polysys import smoothness_check

    if flags.get("assumeSmooth"):
        return None
    smooth = smoothness_check(ideal)
    if not smooth:
        raise CliError("variety fails the smoothness check", EXIT_INVALID_INPUT)
    return True


def _zeta_pipeline(ideal, flags, args, report):
    """Counts, the zeta function and its factorization; returns
    (z, factored) with factored as weil.factor_zeta gives it."""
    from . import weil, zeta as zeta_mod
    from .counting import BudgetExceededError, count_tower
    from .polysys import dimension_degree

    ambient = ideal.nvars - 1
    desc = _budget_descriptor(flags, args, ambient)
    dim, degree = dimension_degree(ideal)
    if dim < 0:
        raise CliError("the ideal cuts out the empty scheme", EXIT_INVALID_INPUT)
    if not 0 <= getattr(args, "p", 0) <= dim:
        raise CliError("codimension out of range", EXIT_INVALID_INPUT)
    if "hypersurface_degree" in desc and (
        len(ideal.generators) != 1 or (dim, degree) != (ambient - 1, desc["hypersurface_degree"])
    ):
        raise CliError("hypersurfaceDegree does not match the ideal", EXIT_INVALID_INPUT)
    report["variety"] = {"dim": dim, "degree": degree, "ambientDim": ambient}
    _check_smooth(ideal, flags)
    cache = _cache_from_args(args)
    q = ideal.domain.q
    progress = getattr(args, "progress", False)

    try:
        budget = zeta_mod.betti_budget(desc)
        n_max = budget.levels
        while True:
            counts = count_tower(
                ideal, n_max, cache=cache, budget=_eval_budget(args),
                threads=args.threads, progress=progress,
            )
            _validate_counts(counts, budget.betti)
            try:
                z = zeta_mod.reconstruct(counts, budget, dim=dim)
                break
            except zeta_mod.AmbiguousSignError as exc:
                # deepen one level at a time (the cache keeps the earlier
                # levels free) up to D counts, which fix every coefficient of
                # the unknown factor; the sign is never guessed
                if n_max >= budget.unknown_degree:
                    report["zeta"] = {
                        "ambiguous": True,
                        "candidates": [c.to_json() for c in exc.candidates],
                    }
                    raise CliError(str(exc), EXIT_UNDECIDED) from None
                n_max += 1
    except BudgetExceededError as exc:
        raise _budget_error(exc) from None
    except zeta_mod.MissingBudgetError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    except zeta_mod.ZetaError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    holds, sign = zeta_mod.functional_equation_check(z)
    if not holds:
        raise CliError("functional equation fails: corrupted counts", EXIT_INCONSISTENT)
    report["counts"] = {"q": q, "values": counts.counts}
    report["zeta"] = z.to_json()
    report["zeta"]["functionalEquationSign"] = sign
    factored = weil.factor_zeta(z)
    report["zeta"]["factored"] = {
        side: {
            "content": content,
            "factors": [{"poly": f, "multiplicity": m} for f, m in factors],
        }
        for side, (content, factors) in factored.items()
    }
    return z, factored


def _report_base(command, args, inputs):
    return {
        "schema": SCHEMA,
        "command": command,
        "inputs": inputs,
    }


def _emit(report, args, started):
    if not getattr(args, "no_timing", False):
        report["timing"] = {"seconds": round(time.time() - started, 6)}
    json.dump(report, sys.stdout, sort_keys=True, indent=2)
    sys.stdout.write("\n")


# -- subcommand drivers -------------------------------------------------------


def cmd_count(args):
    from .counting import BudgetExceededError, count_tower, variety_hash

    started = time.time()
    spec = _load_json(args.spec)
    ideal, flags = _variety_from_spec(spec)
    report = _report_base("count", args, {"digest": variety_hash(ideal)})
    cache = _cache_from_args(args)
    try:
        series = count_tower(
            ideal, args.n, cache=cache, budget=_eval_budget(args),
            threads=args.threads, progress=args.progress,
        )
    except BudgetExceededError as exc:
        raise _budget_error(exc) from None
    _validate_counts(series)
    report["counts"] = {"q": series.q, "values": series.counts}
    _emit(report, args, started)
    return EXIT_OK


def cmd_zeta(args):
    from .counting import variety_hash

    started = time.time()
    spec = _load_json(args.spec)
    ideal, flags = _variety_from_spec(spec)
    report = _report_base("zeta", args, {"digest": variety_hash(ideal)})
    _zeta_pipeline(ideal, flags, args, report)
    _emit(report, args, started)
    return EXIT_OK


def cmd_betti(args):
    from . import weil
    from .counting import variety_hash

    started = time.time()
    spec = _load_json(args.spec)
    ideal, flags = _variety_from_spec(spec)
    report = _report_base("betti", args, {"digest": variety_hash(ideal)})
    z, factored = _zeta_pipeline(ideal, flags, args, report)
    try:
        report["betti"] = weil.betti_numbers(z, weil.classify_weights(z, factored))
    except weil.UnclassifiableFactorError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    _emit(report, args, started)
    return EXIT_OK


def cmd_tate(args):
    from . import weil
    from .counting import variety_hash

    started = time.time()
    spec = _load_json(args.spec)
    ideal, flags = _variety_from_spec(spec)
    report = _report_base("tate-bound", args, {"digest": variety_hash(ideal)})
    z, factored = _zeta_pipeline(ideal, flags, args, report)
    try:
        pieces = weil.classify_weights(z, factored)
        report["betti"] = weil.betti_numbers(z, pieces)
    except weil.UnclassifiableFactorError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    bound = weil.dim_v_mu(z, pieces, args.p)
    report["tateBound"] = bound.to_json()
    _emit(report, args, started)
    return EXIT_OK


def _int_row(row):
    """A list of JSON integers, as given: 1.5, true and "1" are rejected,
    not truncated to 1."""
    if not isinstance(row, list) or any(type(x) is not int for x in row):
        raise ValueError(f"not a list of integers: {row!r}")
    return row


def _parse_action(obj, k):
    gens = []
    for g in obj.get("generators", []):
        if g and isinstance(g[0], list):
            mat = [_int_row(row) for row in g]
            if len(mat) != k or any(len(row) != k for row in mat):
                raise ValueError(f"action generator is not {k}x{k}")
        else:
            perm = _int_row(g)
            if sorted(perm) != list(range(k)):
                raise CliError("permutation generator is not a permutation", EXIT_INVALID_INPUT)
            mat = [[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)]
        gens.append(mat)
    relations = [_int_row(word) for word in obj.get("relations", [])]
    if any(not 0 < abs(i) <= len(gens) for word in relations for i in word):
        raise ValueError("relation words use signed 1-based generator indices")
    return gens, relations


def cmd_rank(args):
    from . import lattice, weil
    from .counting import variety_hash

    started = time.time()
    spec = _load_json(args.spec)
    cycles = _load_json(args.cycles)
    ideal, flags = _variety_from_spec(spec)
    try:
        k = len(cycles["basisCycles"])
        pairings = [_int_row(row) for row in cycles["pairings"]]
        candidates = [
            (cand.get("name", "?"), _int_row(cand["pairingVector"]))
            for cand in cycles.get("candidates", [])
        ]
        action, relations = _parse_action(cycles.get("action", {}), k)
        if any(len(row) != k for row in pairings) or any(len(v) != k for _, v in candidates):
            raise ValueError(f"pairing vectors must have length {k}, one entry per basis cycle")
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed cycles file: {exc}", EXIT_INVALID_INPUT) from None
    digest = variety_hash(ideal)
    report = _report_base("rank", args, {"digest": digest})
    z, factored = _zeta_pipeline(ideal, flags, args, report)
    try:
        bound = weil.dim_v_mu(z, weil.classify_weights(z, factored), args.p)
    except weil.UnclassifiableFactorError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    report["tateBound"] = bound.to_json()
    v_mu = bound.v_mu

    algo = lattice.AlgorithmB(
        v_mu=v_mu,
        p=args.p,
        inputs_digest=digest,
        checkpoint_path=args.checkpoint,
    )
    try:
        rank, rows, cols, det = lattice.independence_certificate(pairings)
        cert = lattice.RankCertificate(
            "lower",
            rank,
            {
                "minor": [[pairings[i][j] for j in cols] for i in rows],
                "rows": rows,
                "cols": cols,
                "det": det,
                "labels": [cycles.get("cycleNames", [f"z{i}" for i in range(len(pairings))])[i] for i in rows]
                if rank
                else [],
            },
        )
        algo.offer(cert)
    except lattice.CertificateInvalidError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    report["rank"] = {
        "upperBound": v_mu,
        "bestLower": algo.best,
        "status": algo.status(),
    }
    if algo.halted:
        rho = algo.result()
        report["rank"]["rankNumXsep"] = rho
        try:
            lat, class_map = lattice.build_n(pairings, action, rho, relations=relations)
            report["rank"]["rankNumX"] = lattice.invariants_rank(lat)
            verdicts = [
                {"name": name, "coords": class_map(vector)} for name, vector in candidates
            ]
            if verdicts:
                report["rank"]["candidates"] = verdicts
        except lattice.RankMismatchError as exc:
            raise CliError(str(exc), EXIT_INCONSISTENT) from None
        except lattice.LatticeError as exc:
            raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    _emit(report, args, started)
    return EXIT_OK if algo.halted else EXIT_UNDECIDED


def cmd_torsion(args):
    from . import galmod

    started = time.time()
    obj = _load_json(args.table)
    try:
        table = galmod.SizeTable.from_json(obj)
    except (KeyError, TypeError) as exc:
        raise CliError(f"malformed size table: {exc}", EXIT_INVALID_INPUT) from None
    report = _report_base("torsion", args, {"ell": table.ell, "degree": args.degree})
    try:
        res = galmod.torsion_from_sizes(table, args.degree)
    except galmod.InconsistentTableError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    except galmod.GalmodError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    report["torsion"] = {
        "exact": res.exact,
        "invariantFactorExponents": res.exponents,
        "rByLevel": {str(k): v for k, v in res.r_by_level.items()},
    }
    if not res.exact:
        report["torsion"]["exponentAtLeast"] = res.exponent_at_least
    _emit(report, args, started)
    return EXIT_OK if res.exact else EXIT_UNDECIDED


def cmd_galois_rank(args):
    from . import galmod

    started = time.time()
    obj = _load_json(args.family)
    try:
        t = int(obj["t"])
        modules = [galmod.FiniteLModule.from_json(m) for m in obj["modules"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed module family: {exc}", EXIT_INVALID_INPUT) from None
    except galmod.GalmodError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    report = _report_base("galois-rank", args, {"t": t, "modules": len(modules)})
    try:
        bounds = galmod.rank_upper_bounds(
            modules, t, check_hypothesis=not obj.get("skipHypothesisCheck", False)
        )
    except galmod.HypothesisViolationError as exc:
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    report["rankBounds"] = {
        "perLevel": [{"n": n, "u": u} for n, u in bounds.per_level],
        "runningMin": bounds.running_min,
        "value": bounds.value,
    }
    _emit(report, args, started)
    return EXIT_OK


def cmd_dovetail(args):
    from .dovetail import IntegerSearchTask, PlantedTask, export_trace, run_geometric

    started = time.time()
    if not args.demo:
        raise CliError("only --demo mode is implemented", EXIT_INVALID_INPUT)
    tasks = [
        IntegerSearchTask(lambda m: m * m % 91 == 81),
        PlantedTask(0),
        IntegerSearchTask(lambda m: m % 23 == 17),
        PlantedTask(9, "planted"),
    ]
    res = run_geometric(tasks, max_rounds=args.rounds)
    report = _report_base("dovetail", args, {"tasks": len(tasks)})
    report["dovetail"] = {
        "rounds": res.rounds,
        "totalQuanta": res.total_quanta,
        "results": {str(k): v for k, v in res.results.items()},
        "events": [e.to_json() for e in res.events],
    }
    if args.trace_file:
        if args.trace_file == "-":
            export_trace(res.events, sys.stdout)
        else:
            with open(args.trace_file, "w", encoding="utf-8") as fh:
                export_trace(res.events, fh)
    if args.trace_file != "-":
        _emit(report, args, started)
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _add_common(p):
    p.add_argument("--cache-dir", help="directory (or file) for the point-count cache")
    p.add_argument("--threads", type=int, default=1, help="worker threads for counting")
    p.add_argument("--budget", type=int, help="override the Betti-sum budget B")
    p.add_argument(
        "--eval-budget",
        type=int,
        help="evaluation work budget per count (default 2^34)",
    )
    p.add_argument("--no-timing", action="store_true", help="omit timing for byte-stable output")
    p.add_argument("--progress", action="store_true", help="heartbeat lines on stderr")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="picardkit",
        description="Exact zeta functions over finite fields and cycle-rank bounds.",
        epilog=(
            "exit codes: 0 ok, 2 invalid input, 3 budget exceeded, "
            "4 undecided/still-running, 5 inconsistent inputs, 1 unexpected error"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="point counts N_1..N_n")
    p.add_argument("spec", help="variety spec JSON")
    p.add_argument("-n", type=int, required=True, help="largest extension degree")
    _add_common(p)
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("zeta", help="exact zeta function")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(fn=cmd_zeta)

    p = sub.add_parser("betti", help="Betti numbers from the zeta function")
    p.add_argument("spec")
    _add_common(p)
    p.set_defaults(fn=cmd_betti)

    p = sub.add_parser("tate-bound", help="dim V_mu upper bound for codimension p")
    p.add_argument("spec")
    p.add_argument("-p", type=int, default=1, help="codimension (default 1)")
    _add_common(p)
    p.set_defaults(fn=cmd_tate)

    p = sub.add_parser("rank", help="bounded rank pipeline from cycle data")
    p.add_argument("--zeta", dest="spec", required=True, help="variety spec JSON")
    p.add_argument("--cycles", required=True, help="cycle pairing data JSON")
    p.add_argument("-p", type=int, default=1)
    p.add_argument("--checkpoint", help="resumable state file")
    _add_common(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("torsion", help="torsion recovery from a size table")
    p.add_argument("table", help="size table JSON")
    p.add_argument("-i", "--degree", type=int, required=True, help="cohomological degree")
    _add_common(p)
    p.set_defaults(fn=cmd_torsion)

    p = sub.add_parser("galois-rank", help="rank upper bounds from a module family")
    p.add_argument("family", help="module family JSON")
    _add_common(p)
    p.set_defaults(fn=cmd_galois_rank)

    p = sub.add_parser("dovetail", help="fair interleaving demo / trace export")
    p.add_argument("--demo", action="store_true")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--trace-file", help="NDJSON event trace ('-' for stdout)")
    _add_common(p)
    p.set_defaults(fn=cmd_dovetail)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"picardkit: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"picardkit: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


if __name__ == "__main__":
    sys.exit(main())
