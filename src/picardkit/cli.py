"""Command-line surface: one JSON report per invocation on stdout.

Subcommands: count, zeta, betti, tate-bound, rank, torsion, galois-rank,
dovetail.  stdout carries exactly one machine-readable JSON report (or an
NDJSON trace for `dovetail --trace-file -`): each subcommand returns its
report, and `main` alone adds its `timing` and writes it.  Progress
heartbeats go to stderr.  Exit codes: 0 success, 2 invalid input, 3 budget
exceeded, 4 undecided / still running, 5 internal inconsistency in the
inputs (no matching zeta function, unclassifiable factors, inconsistent
tables), 1 unexpected error.

`run()` is the process entry point (`python -m picardkit`, `python -m
picardkit.cli`, the `picardkit` script): the process exits right after
flushing its report.  Embedders call `main(argv)`, which returns the exit
code.

Start-up is most of a warm request, so this module imports only the
standard library; each subcommand imports the picardkit modules it uses.
"""

import json
import os
import sys
import time
from types import SimpleNamespace

from . import DEFAULT_BUDGET

EXIT_OK = 0
EXIT_UNEXPECTED = 1
EXIT_INVALID_INPUT = 2
EXIT_BUDGET = 3
EXIT_UNDECIDED = 4
EXIT_INCONSISTENT = 5

SCHEMA = "picardkit-report/1"
# the most quanta a dovetail schedule may spend, about 4 s at 0.12 us each
DOVETAIL_QUANTA = 2**25


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
    except (RecursionError, ValueError) as exc:
        raise CliError(f"bad JSON in {path}: {exc}", EXIT_INVALID_INPUT) from None


def _check_writable(path):
    """Exit 2 before any work when the file at `path` could not be written:
    its directory is missing or read-only, or the path is a directory or a
    read-only file."""
    directory = os.path.dirname(path) or "."
    if not os.path.isdir(directory):
        reason = f"no directory {directory}"
    elif not os.access(directory, os.W_OK):
        reason = f"directory {directory} is not writable"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif os.path.exists(path) and not os.access(path, os.W_OK):
        reason = "it is not writable"
    else:
        return
    raise CliError(f"cannot write {path}: {reason}", EXIT_INVALID_INPUT)


def _parsed(kind, parse, *args):
    """The checked record parse(*args) returns.  Each input kind has one
    parser: specs and cycles files here, size tables and module families in
    galmod, checkpoints in lattice.  Malformed input exits 2 here alone,
    before any work, as `malformed <kind>: <what is wrong>`."""
    try:
        return parse(*args)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise CliError(f"malformed {kind}: {exc}", EXIT_INVALID_INPUT) from None


def _variety_from_spec(obj, budget=None):
    """(ideal, flags) of a variety spec, both checked, for every command.
    All-zero generators give the zero ideal, as an empty list does.  flags
    holds the user budget B (`budget`, the --budget value, else the flag),
    `hypersurfaceDegree` and `assumeSmooth`.  A base field or ambient space
    that level 1 could never be counted over exits 3 before it is built."""
    from .counting import BudgetExceededError, check_base_field
    from .ffield import make_field
    from .polysys import HomIdeal, poly_from_str

    fieldspec = obj["field"]
    p, e, ambient = fieldspec["p"], fieldspec.get("e", 1), obj["ambientDim"]
    # JSON integers and booleans: 2.9, true and "2" are rejected, not
    # truncated or parsed, and "no", "false", 0 and 1 are not booleans
    if any(type(x) is not int for x in (p, e, ambient)):
        raise ValueError("field.p, field.e and ambientDim must be integers")
    if ambient < 0:
        raise ValueError("ambientDim must be at least 0")
    gens = obj.get("generators", [])
    if not isinstance(gens, list) or any(type(g) is not str for g in gens):
        raise ValueError(f"generators must be a list of strings: {gens!r}")
    flags = obj.get("flags", {})
    if not isinstance(flags, dict):
        raise ValueError(f"flags must be a JSON object: {flags!r}")
    if budget is None:
        budget = flags.get("budget")
    if budget is not None and (type(budget) is not int or budget < 2):
        raise ValueError("budget must be an integer of at least 2")
    degree = flags.get("hypersurfaceDegree")
    if degree is not None and (type(degree) is not int or degree < 1):
        raise ValueError("hypersurfaceDegree must be an integer of at least 1")
    assume_smooth = flags.get("assumeSmooth", False)
    if type(assume_smooth) is not bool:
        raise ValueError("assumeSmooth must be true or false")
    try:
        check_base_field(p, e, ambient + 1)
    except BudgetExceededError as exc:
        raise _budget_error(exc) from None
    field = make_field(p, e)
    try:
        ideal = HomIdeal([poly_from_str(g, ambient + 1, field) for g in gens], ambient + 1, field)
    except ValueError as exc:  # PolyError, or an exponent of too many digits
        raise ValueError(f"generators: {exc}") from None
    flags = SimpleNamespace(budget=budget, degree=degree, assume_smooth=assume_smooth)
    return ideal, flags


def _cycles_from_json(obj):
    """The checked record of a cycles file: `pairings` rows and candidates'
    `pairingVector`s of one JSON integer per basis cycle; action generators
    (permutations, or matrices that lattice.GLattice checks k x k and
    invertible over Z) and relation words, verified on the basis cycles;
    one name per pairings row; and the file's JSON, for the checkpoint."""
    from .exactla import json_ints
    from .lattice import GLattice

    basis = obj["basisCycles"]
    if not isinstance(basis, list):
        raise ValueError(f"basisCycles must be a list: {basis!r}")
    k = len(basis)
    pairings = [json_ints(row, "pairings rows") for row in obj["pairings"]]
    candidates = [
        (cand.get("name", "?"), json_ints(cand["pairingVector"], "pairingVector"))
        for cand in obj.get("candidates", [])
    ]
    action = obj.get("action", {})
    gens = []
    for g in action.get("generators", []):
        if g and isinstance(g[0], list):
            gens.append([json_ints(row, "action matrix rows") for row in g])
            continue
        perm = json_ints(g, "permutation generators")
        if sorted(perm) != list(range(k)):
            raise ValueError("permutation generator is not a permutation")
        gens.append([[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)])
    relations = [json_ints(word, "relation words") for word in action.get("relations", [])]
    if any(not 0 < abs(i) <= len(gens) for word in relations for i in word):
        raise ValueError("relation words use signed 1-based generator indices")
    GLattice(k, gens, relations)
    if any(len(row) != k for row in pairings) or any(len(v) != k for _, v in candidates):
        raise ValueError(f"pairing vectors must have length {k}, one entry per basis cycle")
    names = obj.get("cycleNames", [f"z{i}" for i in range(len(pairings))])
    if not isinstance(names, list) or [type(x) for x in names] != [str] * len(pairings):
        raise ValueError("cycleNames must be a list of strings, one per pairings row")
    return SimpleNamespace(contents=obj, pairings=pairings, candidates=candidates, action=gens,
                           names=names)


def _budget_descriptor(flags, ideal):
    """The zeta.DegreeBudget record of a spec's checked flags: a user budget
    B, else the record of a smooth hypersurface of degree
    `hypersurfaceDegree`; a spec with neither is invalid input."""
    from .zeta import DegreeBudget, hypersurface_budget

    if flags.budget is not None:
        return DegreeBudget(flags.budget)
    if flags.degree is None:
        raise CliError("no budget: supply one, or a hypersurface degree plus ambient dimension",
                       EXIT_INVALID_INPUT)
    if ideal.nvars < 2:  # P^0 holds no hypersurface
        raise CliError("hypersurfaceDegree does not match the ideal", EXIT_INVALID_INPUT)
    return hypersurface_budget(flags.degree, ideal.nvars - 1, ideal.domain.q)


def _budget_error(exc):
    """Exit 3 for a counting.BudgetExceededError, saying which limit (work
    or memory) a level hit and how many leading levels the cache holds."""
    return CliError(f"{exc} (largest completed n = {exc.completed})", EXIT_BUDGET)


def _counts(ideal, n, args, cache, betti=None):
    """The CountSeries of levels 1..n, from `cache` and counting under the
    request's limits, validated before use (exit 5 when it fails)."""
    from .counting import BudgetExceededError, count_tower

    try:
        series = count_tower(ideal, n, cache=cache, threads=args.threads, progress=args.progress,
                             budget=args.eval_budget or DEFAULT_BUDGET)
    except BudgetExceededError as exc:
        raise _budget_error(exc) from None
    except OSError as exc:  # the cache file is the only file a tower writes
        raise CliError(f"cannot write {cache.path}: {exc.strerror or exc}",
                       EXIT_INVALID_INPUT) from None
    try:
        series.validate(betti)
    except ValueError as exc:
        raise CliError(f"invalid counts: {exc}", EXIT_INCONSISTENT) from None
    return series


def _zeta_pipeline(ideal, flags, args, report, connected=False):
    """Counts, the zeta function and its factorization; returns
    (z, factored) with factored as weil.factor_zeta gives it.  With
    `connected`, a record whose b_0 or b_2d is not 1 (a variety that is not
    geometrically connected) is invalid input, found before counting."""
    from . import weil, zeta as zeta_mod
    from .counting import default_cache
    from .polysys import dimension_degree, smoothness_check

    ambient = ideal.nvars - 1
    budget = _budget_descriptor(flags, ideal)
    dim, degree = dimension_degree(ideal)
    if dim < 0:
        raise CliError("the ideal cuts out the empty scheme", EXIT_INVALID_INPUT)
    if not 0 <= getattr(args, "p", 0) <= dim:
        raise CliError("codimension out of range", EXIT_INVALID_INPUT)
    if budget.betti is not None and (
        len(ideal.generators) != 1 or (dim, degree) != (ambient - 1, flags.degree)
    ):
        raise CliError("hypersurfaceDegree does not match the ideal", EXIT_INVALID_INPUT)
    report["variety"] = {"dim": dim, "degree": degree, "ambientDim": ambient}
    if not flags.assume_smooth and not smoothness_check(ideal):
        raise CliError("variety fails the smoothness check", EXIT_INVALID_INPUT)
    if connected and budget.betti is not None and (budget.betti[0], budget.betti[-1]) != (1, 1):
        raise CliError("b_0 and b_2d must equal 1", EXIT_INVALID_INPUT)
    # the Pade route's `upoly.from_power_sums` forms O(M^2) products of
    # numbers of up to M N log2(q) bits from its M = 2B counts over P^N,
    # charged one unit per bit of each product
    M, eval_budget = budget.levels, args.eval_budget or DEFAULT_BUDGET
    if budget.betti is None and M**3 * max(ambient, 1) * ideal.domain.q.bit_length() > eval_budget:
        raise CliError(f"estimated reconstruction work exceeds budget {eval_budget}", EXIT_BUDGET)
    cache = default_cache(args.cache_dir)

    try:
        n_max = budget.levels
        while True:
            counts = _counts(ideal, n_max, args, cache, budget.betti)
            try:
                z = zeta_mod.reconstruct(counts, budget, dim=dim)
                break
            except zeta_mod.AmbiguousSignError as exc:
                # deepen one level at a time (the cache keeps the earlier
                # levels free) up to D counts, which fix every coefficient of
                # the unknown factor; the sign is never guessed
                if n_max >= budget.unknown_degree:
                    raise CliError(str(exc), EXIT_UNDECIDED) from None
                n_max += 1
    except zeta_mod.ZetaError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    holds, sign = zeta_mod.functional_equation_check(z)
    if not holds:
        raise CliError("functional equation fails: corrupted counts", EXIT_INCONSISTENT)
    report["counts"] = {"q": ideal.domain.q, "values": counts.counts}
    report["zeta"] = z.to_json()
    report["zeta"]["functionalEquationSign"] = sign
    factored = weil.factor_zeta(z)
    report["zeta"]["factored"] = {
        side: {
            "content": factored[side][0],
            "factors": [{"poly": f, "multiplicity": m} for f, m in factored[side][1]],
        }
        for side in ("num", "den")
    }
    return z, factored


def _report_base(command, inputs):
    return {"schema": SCHEMA, "command": command, "inputs": inputs}


def _spec_request(args):
    """(ideal, flags, report base) of a command that reads one variety spec."""
    from .counting import variety_hash

    ideal, flags = _parsed("variety spec", _variety_from_spec, _load_json(args.spec), args.budget)
    return ideal, flags, _report_base(args.command, {"digest": variety_hash(ideal)})


# -- subcommand drivers -------------------------------------------------------
# each reads only checked records and returns (report, exit code); the
# report is None when the command has written stdout itself


def cmd_count(args):
    from .counting import default_cache

    ideal, _, report = _spec_request(args)
    series = _counts(ideal, args.n, args, default_cache(args.cache_dir))
    report["counts"] = {"q": series.q, "values": series.counts}
    return report, EXIT_OK


def cmd_zeta(args):
    ideal, flags, report = _spec_request(args)
    _zeta_pipeline(ideal, flags, args, report)
    return report, EXIT_OK


def cmd_betti(args):
    """`betti`, and `tate-bound`, which adds the bound in codimension -p."""
    from . import weil

    ideal, flags, report = _spec_request(args)
    z, factored = _zeta_pipeline(ideal, flags, args, report, connected=True)
    try:
        pieces = weil.classify_weights(z, factored)
        report["betti"] = weil.betti_numbers(z, pieces)
    except weil.UnclassifiableFactorError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    if args.command == "tate-bound":
        report["tateBound"] = weil.dim_v_mu(z, pieces, args.p).to_json()
    return report, EXIT_OK


def cmd_rank(args):
    from . import lattice, weil
    from .counting import sha256

    if args.checkpoint:
        _check_writable(args.checkpoint)
    ideal, flags, report = _spec_request(args)
    cycles = _parsed("cycles file", _cycles_from_json, _load_json(args.cycles))
    # a checkpoint holds a bound for one variety, cycles file and codimension;
    # one written for other inputs is rejected before anything is counted
    inputs = {"variety": report["inputs"]["digest"], "cycles": cycles.contents, "p": args.p}
    inputs_digest = sha256(json.dumps(inputs, sort_keys=True).encode()).hexdigest()
    best = _parsed("checkpoint", lattice.read_checkpoint, args.checkpoint, inputs_digest)
    z, factored = _zeta_pipeline(ideal, flags, args, report)
    try:
        bound = weil.dim_v_mu(z, weil.classify_weights(z, factored), args.p)
    except weil.UnclassifiableFactorError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    report["tateBound"] = bound.to_json()
    v_mu = bound.v_mu

    if best > v_mu:  # read_checkpoint refused a negative bound
        raise CliError(f"checkpoint bound {best} is outside 0..{v_mu}", EXIT_INVALID_INPUT)
    pairings = cycles.pairings
    rank, rows, cols, det = lattice.independence_certificate(pairings)
    if rank > v_mu:
        raise CliError(f"lower bound {rank} exceeds the upper bound {v_mu}", EXIT_INCONSISTENT)
    if rank > best:
        best = rank
        if args.checkpoint:
            witness = {"minor": [[pairings[i][j] for j in cols] for i in rows], "rows": rows,
                       "cols": cols, "det": det, "labels": [cycles.names[i] for i in rows]}
            lattice.write_checkpoint(args.checkpoint, inputs_digest, v_mu, args.p, best, witness)
    # Algorithm B halts when the exhibited cycles' rank meets the upper bound
    halted = best == v_mu
    report["rank"] = {"upperBound": v_mu, "bestLower": best,
                      "status": "halted" if halted else "running"}
    if halted:
        report["rank"]["rankNumXsep"] = v_mu
        try:
            # the relations hold on the lattice model, since they hold on the basis cycles
            lat, class_map = lattice.build_n(pairings, cycles.action, v_mu)
            report["rank"]["rankNumX"] = lattice.fixed_rank(lat)
            verdicts = [{"name": name, "coords": class_map(vector)}
                        for name, vector in cycles.candidates]
            if verdicts:
                report["rank"]["candidates"] = verdicts
        except lattice.RankMismatchError as exc:
            raise CliError(str(exc), EXIT_INCONSISTENT) from None
        except lattice.LatticeError as exc:
            raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    return report, EXIT_OK if halted else EXIT_UNDECIDED


def cmd_torsion(args):
    from . import galmod

    table = _parsed("size table", galmod.SizeTable.from_json, _load_json(args.table))
    report = _report_base("torsion", {"ell": table.ell, "degree": args.degree})
    try:
        res = galmod.torsion_from_sizes(table, args.degree)
    except galmod.InconsistentTableError as exc:
        raise CliError(str(exc), EXIT_INCONSISTENT) from None
    except galmod.GalmodError as exc:  # -i outside the table's degrees
        raise CliError(str(exc), EXIT_INVALID_INPUT) from None
    report["torsion"] = {
        "exact": res.exact,
        "invariantFactorExponents": res.exponents,
        "rByLevel": {str(k): v for k, v in res.r_by_level.items()},
    }
    if not res.exact:
        report["torsion"]["exponentAtLeast"] = res.exponent_at_least
    return report, EXIT_OK if res.exact else EXIT_UNDECIDED


def cmd_galois_rank(args):
    from . import galmod

    family = _load_json(args.family)
    modules, t, check = _parsed("module family", galmod.family_from_json, family)
    report = _report_base("galois-rank", {"t": t, "modules": len(modules)})
    bounds = galmod.rank_upper_bounds(modules, t, check_hypothesis=check)
    report["rankBounds"] = {
        "perLevel": [{"n": n, "u": u} for n, u in bounds.per_level],
        "runningMin": bounds.running_min,
        "value": bounds.value,
    }
    return report, EXIT_OK


def cmd_dovetail(args):
    from .dovetail import (
        IntegerSearchTask, PlantedTask, export_trace, run_geometric, worst_case_quanta,
    )

    if not args.demo:
        raise CliError("only --demo mode is implemented", EXIT_INVALID_INPUT)
    if args.trace_file and args.trace_file != "-":
        _check_writable(args.trace_file)
    tasks = [
        IntegerSearchTask(lambda m: m * m % 91 == 81),
        PlantedTask(0),
        IntegerSearchTask(lambda m: m % 23 == 17),
        PlantedTask(9, "planted"),
    ]
    # the schedule may spend DOVETAIL_QUANTA quanta even if no task halts
    # (round r alone gives task 1 2^(r-1)); --eval-budget caps counting
    # work, so the warm `dovetail --demo --eval-budget 1` still runs
    if (args.rounds > DOVETAIL_QUANTA.bit_length()
            or worst_case_quanta(len(tasks), args.rounds) > DOVETAIL_QUANTA):
        raise CliError(f"the schedule's worst-case quanta exceed {DOVETAIL_QUANTA}", EXIT_BUDGET)
    res = run_geometric(tasks, max_rounds=args.rounds)
    report = _report_base("dovetail", {"tasks": len(tasks)})
    report["dovetail"] = {
        "rounds": res.rounds,
        "totalQuanta": res.total_quanta,
        "results": {str(k): v for k, v in res.results.items()},
        "events": [e.to_json() for e in res.events],
    }
    if args.trace_file == "-":
        export_trace(res.events, sys.stdout)
        return None, EXIT_OK
    if args.trace_file:
        with open(args.trace_file, "w", encoding="utf-8") as fh:
            export_trace(res.events, fh)
    return report, EXIT_OK


# -- argument parsing ----------------------------------------------------------

# One table drives parsing and help.  An option is (flags, dest, type, default,
# help): type str, int or AT_LEAST_1 takes one value and None makes a flag;
# default REQUIRED makes the option required.  Accepted forms: `--long value`,
# `--long=value` and `-x value`.
REQUIRED, AT_LEAST_1 = object(), "an integer of at least 1"
SPEC, P_OPT = [("spec", "variety spec JSON")], ("-p", "p", int, 1, "codimension, default 1")
COMMON = [
    ("--cache-dir", "cache_dir", str, None, "directory (or file) for the point-count cache"),
    ("--threads", "threads", AT_LEAST_1, 1, "worker threads for counting"),
    ("--budget", "budget", int, None, "override the Betti-sum budget B"),
    ("--eval-budget", "eval_budget", AT_LEAST_1, None,
     "work budget per count and Pade reconstruction, default 2^34"),
    ("--no-timing", "no_timing", None, False, "omit timing for byte-stable output"),
    ("--progress", "progress", None, False, "heartbeat lines on stderr"),
]
COMMANDS = {  # name: (driver, help, positionals as (dest, help), options besides COMMON)
    "count": (cmd_count, "point counts N_1..N_n", SPEC,
              [("-n", "n", AT_LEAST_1, REQUIRED, "largest extension degree")]),
    "zeta": (cmd_zeta, "exact zeta function", SPEC, []),
    "betti": (cmd_betti, "Betti numbers from the zeta function", SPEC, []),
    "tate-bound": (cmd_betti, "dim V_mu upper bound for codimension p", SPEC, [P_OPT]),
    "rank": (cmd_rank, "bounded rank pipeline from cycle data", [], [
        ("--zeta", "spec", str, REQUIRED, "variety spec JSON"),
        ("--cycles", "cycles", str, REQUIRED, "cycle pairing data JSON"),
        P_OPT, ("--checkpoint", "checkpoint", str, None, "resumable state file")]),
    "torsion": (cmd_torsion, "torsion recovery from a size table", [("table", "size table JSON")],
                [("-i --degree", "degree", int, REQUIRED, "cohomological degree")]),
    "galois-rank": (cmd_galois_rank, "rank upper bounds from a module family",
                    [("family", "module family JSON")], []),
    "dovetail": (cmd_dovetail, "fair interleaving demo / trace export", [], [
        ("--demo", "demo", None, False, "run the demo tasks"),
        ("--rounds", "rounds", AT_LEAST_1, 10, "scheduling rounds, default 10"),
        ("--trace-file", "trace_file", str, None, "NDJSON event trace ('-' for stdout)")]),
}


def _help(name):
    """Help lines: usage, description, a row per command or option, exit codes."""
    usage, text = "COMMAND ...", "Exact zeta functions over finite fields and cycle-rank bounds."
    rows = [(cmd, entry[1]) for cmd, entry in COMMANDS.items()]
    if name in COMMANDS:
        _, text, rows, options = COMMANDS[name]
        required = [f"{o[0].split()[0]} {o[1].upper()}" for o in options if o[3] is REQUIRED]
        usage = " ".join([name] + [dest for dest, _ in rows] + required + ["[options]"])
        rows = rows + [(", ".join(o[0].split()) + f" {o[1].upper()}" * (o[2] is not None),
                        o[4] + f" ({o[2]})" * (o[2] is AT_LEAST_1)) for o in options + COMMON]
    rows.append(("-h, --help", "show this help and exit"))
    return [f"usage: picardkit {usage}", "", text, ""] + [f"  {a:<25} {b}" for a, b in rows] + [
        "", "exit codes: 0 ok, 2 invalid input, 3 budget exceeded, 4 undecided/still-running, "
        "5 inconsistent inputs, 1 unexpected error"]


def parse_args(argv):
    """The namespace a command's driver reads, or None once help is printed;
    a usage error raises CliError (exit 2) with the usage line."""
    name = argv[0] if argv else None

    def fail(message):
        raise CliError(f"{message}\n{_help(name)[0]}", EXIT_INVALID_INPUT)

    if name not in COMMANDS and name not in ("-h", "--help"):
        fail(f"unknown command {name!r}" if name else "a command is required")
    if {"-h", "--help"} & set(argv):
        return print("\n".join(_help(name)))
    fn, _, positionals, options = COMMANDS[name]
    table = {flag: opt for opt in options + COMMON for flag in opt[0].split()}
    args = SimpleNamespace(command=name, fn=fn)
    vars(args).update((o[1], None if o[3] is REQUIRED else o[3]) for o in options + COMMON)
    words, rest = [], iter(argv[1:])
    for word in rest:
        if word == "-" or word[:1] != "-":
            words.append(word)
            continue
        flag, eq, value = word.partition("=") if word[:2] == "--" else (word, "", "")
        _, dest, kind, _, _ = table.get(flag, (None,) * 5)
        if dest is None or kind is None and eq:
            fail(f"unrecognized argument {word!r}")
        if not eq and kind is not None:
            value = next(rest, None)
            if value is None or value != "-" and value[:1] == "-" and not value[1:].isdecimal():
                fail(f"argument {flag} expects a value")
        if kind is int or kind is AT_LEAST_1:
            try:  # int() refuses more digits than sys.get_int_max_str_digits()
                number = int(value) if value.removeprefix("-").isdecimal() else None
            except ValueError:
                number = None
            if number is None or kind is AT_LEAST_1 and number < 1:
                shown = value if len(value) <= 40 else value[:20] + "..."
                fail(f"argument {flag} expects {'an integer' if kind is int else kind}: {shown!r}")
            value = number
        setattr(args, dest, True if kind is None else value)
    if len(words) != len(positionals):
        fail(f"{name} takes {len(positionals)} positional argument(s), got {len(words)}")
    vars(args).update(zip([dest for dest, _ in positionals], words))
    missing = [o[0].split()[0] for o in options if o[3] is REQUIRED and getattr(args, o[1]) is None]
    if missing:
        fail(f"the following options are required: {', '.join(missing)}")
    return args


def main(argv=None):
    """Run one command and write its report, with `timing` unless
    --no-timing; returns the exit code."""
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if args is None:
            return EXIT_OK
        started = time.perf_counter()
        report, code = args.fn(args)
        if report is not None:
            if not args.no_timing:
                report["timing"] = {"seconds": round(time.perf_counter() - started, 6)}
            json.dump(report, sys.stdout, sort_keys=True, indent=2)
            sys.stdout.write("\n")
        return code
    except CliError as exc:
        print(f"picardkit: {exc}", file=sys.stderr)
        return exc.code
    except Exception as exc:  # noqa: BLE001 - last-resort mapping to exit code
        print(f"picardkit: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_UNEXPECTED


def run():
    """The process entry point: main(), then flush and os._exit(code)."""
    code = main()
    # os._exit skips teardown (final gc, module clean-up, atexit), which no result
    # needs: files are written in `with` blocks (CountCache.put flushes first, and
    # closing releases its flock), counting joins its worker threads before it
    # returns, and no atexit handler is registered
    try:
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except Exception as exc:  # noqa: BLE001 - the report did not reach its reader
        code = EXIT_UNEXPECTED
        print(f"picardkit: unexpected error: {type(exc).__name__}: {exc}", file=sys.stderr)
    finally:
        os._exit(code)


if __name__ == "__main__":
    run()
