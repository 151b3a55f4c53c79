"""A seeded fuzzer over the five input kinds: variety specs, cycles files,
size tables, module families and argv.

Each case takes a valid input of its kind and changes it one to three
times, or draws a random JSON value instead.  It writes the result and runs
one request in process through `cli.main`, with `--threads 1`, a small
`--eval-budget` and a cache under tmp_path.  Every request must exit 0, 2,
3, 4 or 5 within 2 s.  On exit 2, stdout must be empty and
`counting.count_points` must never have been called.

An argv case takes a valid request of one of the eight commands and changes
its option values one to three times: integers of more digits than int()
converts, negative and non-numeric values, `--opt=value` forms, missing
values, dropped flags and unknown flags.  `--eval-budget` never leaves the
request and never rises above the fuzzer's budget, `--threads` never parses
to more than 4 and `--cache-dir` is never changed, so no draw asks for
unbounded work, threads or files outside tmp_path.

Rank requests read a spec and a cycles file, and write the checkpoint.
Every check of a cycles file, its lattice model included, comes before
counting; only the comparison of the lower bound with the upper one needs
the zeta step.  So every other cycles case runs against a cache that holds
the quadric's counts, and the rest run from an empty cache under
`--eval-budget 1`, where anything counted exits 3.  About one cycles case
in four passes every other check, but its action moves the lattice its pairings
span or a candidate lies outside that lattice: it must exit 2.

A failing case prints its kind, input JSON and argv, so that it can be run
again verbatim.  The seed and the case counts are fixed.
"""

import json
import random
import signal
import time

from picardkit import counting
from picardkit.cli import main
from picardkit.galmod import size_table_from_profile

SEED = 20261020
CASES = {"spec": 900, "cycles": 600, "table": 300, "family": 300, "argv": 400}
EVAL_BUDGET = "4000"
CASE_SECONDS = 2.0

QUADRIC_F3 = {"field": {"p": 3}, "ambientDim": 3, "generators": ["x0*x3 - x1*x2"],
              "flags": {"hypersurfaceDegree": 2}}
SPECS = [
    {"field": {"p": 2}, "ambientDim": 2, "generators": ["x0*x2 + x1^2"],
     "flags": {"hypersurfaceDegree": 2}},
    {"field": {"p": 5, "e": 1}, "ambientDim": 2, "generators": ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"],
     "flags": {"hypersurfaceDegree": 3}},
    QUADRIC_F3,
    {"field": {"p": 2, "e": 2}, "ambientDim": 1, "generators": ["x0^2 + g*x0*x1 + x1^2"],
     "flags": {"budget": 2, "assumeSmooth": True}},
    {"field": {"p": 2}, "ambientDim": 2, "generators": [], "flags": {"budget": 3}},
    {"field": {"p": 7}, "ambientDim": 1, "generators": ["x0^3 - 2*x1^3"],
     "flags": {"hypersurfaceDegree": 3, "assumeSmooth": False}},
]
SPEC_COMMANDS = [["count", "-n", "1"], ["count", "-n", "2"], ["zeta"], ["betti"],
                 ["tate-bound", "-p", "0"], ["tate-bound", "-p", "1"]]
# the two rulings of the quadric over F_3, swapped by the action
CYCLES = {"basisCycles": ["A", "B"], "pairings": [[0, 1], [1, 0]],
          "action": {"generators": [[1, 0]], "relations": [[1, 1]]},
          "candidates": [{"name": "hyperplane", "pairingVector": [1, 1]}],
          "cycleNames": ["C", "D"]}
# one ruling: lower bound 1 below the upper bound 2
ONE_RULING = {"basisCycles": ["A", "B"], "pairings": [[1, 0]]}
TABLE = size_table_from_profile(3, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4).to_json()
FAMILIES = [
    {"ell": 5, "t": 0, "modules": [
        {"ell": 5, "n": 1, "invariantFactors": [1, 1], "actions": [[[1, 0], [0, 1]]]},
        {"ell": 5, "n": 2, "invariantFactors": [2, 2], "actions": [[[1, 0], [0, 1]]]}]},
    {"t": 0, "skipHypothesisCheck": True, "modules": [
        {"ell": 3, "n": 2, "invariantFactors": [2, 1], "actions": [[[1, 3], [0, 2]]]}]},
]

KEYS = ["field", "p", "e", "ambientDim", "generators", "flags", "budget",
        "hypersurfaceDegree", "assumeSmooth", "basisCycles", "pairings", "action",
        "relations", "candidates", "pairingVector", "cycleNames", "name", "ell", "betti",
        "sizes", "i", "n", "log_ell_size", "t", "modules", "invariantFactors", "actions",
        "skipHypothesisCheck"]
ATOMS = [0, 1, -1, 2, 3, 4, 5, 7, 9, 64, 2**31, 10**20, 2**64 + 1, 10**40, -(10**9),
         1.5, 2.0, -0.0, True, False, None, "", "x", "1", "x0", "0", [], {}, [1], [[1]],
         {"p": 2}]
POLY_CHARS = "x0123456789^*+-/g "

# valid requests, before the options every argv case carries; names in
# braces are paths under tmp_path: input files, and the checkpoint rank saves
ARGVS = [
    ["count", "{quadric}", "-n", "2"],
    ["zeta", "{p2}"],
    ["betti", "{quadric}"],
    ["tate-bound", "{quadric}", "-p", "1"],
    ["rank", "--zeta", "{quadric}", "--cycles", "{one_ruling}", "-p", "1",
     "--checkpoint", "{state}"],
    ["torsion", "{table}", "-i", "2"],
    ["galois-rank", "{family}"],
    ["dovetail", "--demo", "--rounds", "8"],
]
HUGE = "9" * 5000  # more digits than int() converts
INTEGERS = ["0", "1", "2", "3", "-1", "-12", "64", "4000", "1" + "0" * 4299, HUGE, "-" + HUGE,
            "x", "", "1.5", "2e3", "+5", "1_000", "0x10", "\u0663"]
VALUES = {
    "-n": INTEGERS, "-p": INTEGERS, "-i": INTEGERS, "--rounds": INTEGERS, "--budget": INTEGERS,
    "--threads": ["0", "-1", "1", "2", "4", "x", "", "1.5", HUGE, "-" + HUGE],
    "--eval-budget": ["0", "-1", "1", "16", "863", EVAL_BUDGET, "x", "", "1.5", HUGE,
                      "-" + HUGE],
}
# no stray word is a value: after a flag that takes one, each is a usage error
STRAYS = ["--frobnicate", "-z", "--no-timing=1", "--demo", "--progress", "-n", "-p", "--degree",
          "--budget", "--rounds", "--help=1"]


def random_json(rng, depth=0):
    roll = rng.random()
    if depth > 2 or roll < 0.5:
        return rng.choice(ATOMS)
    if roll < 0.75:
        return [random_json(rng, depth + 1) for _ in range(rng.randrange(4))]
    return {rng.choice(KEYS): random_json(rng, depth + 1) for _ in range(rng.randrange(4))}


def mutate_node(value, rng):
    """value with one random change of its own."""
    roll = rng.random()
    if roll < 0.3:
        return rng.choice(ATOMS)
    if type(value) is int:
        return rng.choice([value + 1, value - 1, -value, value * 1000, 0])
    if isinstance(value, str):
        chars = list(value)
        k = rng.randrange(len(chars) + 1)
        op = rng.randrange(3)
        if op == 0 or not chars:
            chars.insert(k, rng.choice(POLY_CHARS))
        elif op == 1:
            del chars[min(k, len(chars) - 1)]
        else:
            chars[min(k, len(chars) - 1)] = rng.choice(POLY_CHARS)
        return "".join(chars)
    if isinstance(value, list):
        out = list(value)
        op = rng.randrange(4)
        if op == 0 and out:
            del out[rng.randrange(len(out))]
        elif op == 1 and out:
            out.insert(rng.randrange(len(out) + 1), rng.choice(out))
        elif op == 2:
            out.append(random_json(rng, 1))
        else:
            out.reverse()
        return out
    if isinstance(value, dict):
        out = dict(value)
        if out and rng.random() < 0.5:
            del out[rng.choice(sorted(out))]
        else:
            out[rng.choice(KEYS)] = random_json(rng, 1)
        return out
    return random_json(rng)


def mutate(value, rng):
    """value with one random change somewhere inside it."""
    if isinstance(value, (list, dict)) and value and rng.random() < 0.7:
        out = list(value) if isinstance(value, list) else dict(value)
        key = rng.randrange(len(out)) if isinstance(out, list) else rng.choice(sorted(out))
        out[key] = mutate(out[key], rng)
        return out
    return mutate_node(value, rng)


def draw(base, rng):
    if rng.random() < 0.1:
        return random_json(rng)
    value = json.loads(json.dumps(base))
    for _ in range(rng.randrange(1, 4)):
        value = mutate(value, rng)
    return value


def off_lattice(rng):
    """A cycles file that passes every check but the lattice model's.  Its
    pairings span the coordinate lattice of a proper subset S of the k basis
    cycles.  Then either an action generator moves some cycle of S off it (a
    permutation that does not map S to itself, or the shear sending e_i to
    e_i - e_j for i in S and j not in S), or a candidate pairs with a cycle
    outside S."""
    k = rng.randint(2, 4)
    span = sorted(rng.sample(range(k), rng.randint(1, k - 1)))
    rest = [j for j in range(k) if j not in span]
    units = [[int(i == j) for j in range(k)] for i in range(k)]
    pairings = [[rng.choice([-2, -1, 1, 3]) * x for x in units[i]] for i in span]
    pairings += [[rng.randint(-2, 2) if j in span else 0 for j in range(k)]
                 for _ in range(rng.randrange(2))]
    obj = {"basisCycles": [f"Y{j}" for j in range(k)], "pairings": pairings}
    roll = rng.randrange(3)
    if roll == 0:
        perm = list(range(k))
        while sorted(perm[i] for i in span) == span:
            rng.shuffle(perm)
        obj["action"] = {"generators": [perm]}
    elif roll == 1:
        shear = [list(row) for row in units]
        shear[rng.choice(span)][rng.choice(rest)] = 1
        obj["action"] = {"generators": [shear]}
    else:
        vector = [rng.randint(-2, 2) for _ in range(k)]
        vector[rng.choice(rest)] = rng.choice([-1, 1, 2])
        obj["candidates"] = [{"name": "off", "pairingVector": vector}]
    return obj


def draw_argv(base, rng):
    """base with one to three changes to its options."""
    argv = list(base)
    for _ in range(rng.randrange(1, 4)):
        flags = [i for i, w in enumerate(argv) if w in VALUES]
        valued = [i for i in flags
                  if i + 1 < len(argv) and argv[i + 1] not in VALUES and argv[i + 1] not in STRAYS]
        op = rng.randrange(7)
        if op < 3 and valued:  # a new value
            i = rng.choice(valued)
            argv[i + 1] = rng.choice(VALUES[argv[i]])
        elif op == 3 and valued:  # the --opt=value form
            i = rng.choice(valued)
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        elif op == 4 and valued:  # a missing value
            del argv[rng.choice(valued) + 1]
        elif op == 5 and flags:  # a flag dropped, its value left
            i = rng.choice(flags)
            if argv[i] != "--eval-budget":
                del argv[i]
        else:  # an unknown or misplaced flag
            argv.insert(rng.randrange(len(argv) + 1), rng.choice(STRAYS))
    return argv


def _timeout(signum, frame):
    raise TimeoutError(f"a case ran longer than {CASE_SECONDS} s")


def test_fuzzed_inputs_exit_with_documented_codes(tmp_path, capsys, monkeypatch):
    # a relative path that a draw makes lands in tmp_path
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PICARDKIT_CACHE", raising=False)
    calls = []
    real_count_points = counting.count_points

    def recorded(*args, **kwargs):
        calls.append(args)
        return real_count_points(*args, **kwargs)

    monkeypatch.setattr(counting, "count_points", recorded)

    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    def request(argv):
        code = main(argv)
        return code, capsys.readouterr()

    # the quadric's counts in the warm cache
    warm = str(tmp_path / "warm")
    quadric = write("quadric.json", QUADRIC_F3)
    one_ruling = write("one-ruling.json", ONE_RULING)
    rank_head = ["rank", "--zeta", quadric]
    assert request(rank_head + ["--cycles", one_ruling, "--cache-dir", warm,
                                "--threads", "1"])[0] == 4
    files = {"quadric": quadric, "one_ruling": one_ruling,
             "p2": write("p2.json", SPECS[4]), "table": write("sizes.json", TABLE),
             "family": write("family-0.json", FAMILIES[0])}

    rng = random.Random(SEED)
    previous = signal.signal(signal.SIGALRM, _timeout)
    try:
        for kind, count in CASES.items():
            for case in range(count):
                if kind == "spec":
                    obj = draw(rng.choice(SPECS), rng)
                    path = write("spec.json", obj)
                    name, *rest = rng.choice(SPEC_COMMANDS)
                    argv = [name, path, *rest, "--eval-budget", EVAL_BUDGET,
                            "--cache-dir", str(tmp_path / f"cache{case}")]
                elif kind == "cycles":
                    planted = rng.random() < 0.25
                    obj = off_lattice(rng) if planted else draw(CYCLES, rng)
                    argv = rank_head + ["--cycles", write("cycles.json", obj)]
                elif kind == "argv":
                    files["state"] = str(tmp_path / f"state{case}.json")
                    obj = rng.choice(ARGVS) + ["--threads", "1", "--eval-budget", EVAL_BUDGET]
                    obj = draw_argv([w.format(**files) for w in obj], rng)
                    argv = obj + ["--cache-dir", str(tmp_path / f"argv{case}")]
                elif kind == "table":
                    obj = draw(TABLE, rng)
                    argv = ["torsion", write("table.json", obj), "-i", str(rng.randrange(-1, 6))]
                else:
                    obj = draw(rng.choice(FAMILIES), rng)
                    argv = ["galois-rank", write("family.json", obj)]
                if kind == "cycles":
                    if case % 2 == 0:
                        argv += ["--cache-dir", warm]
                    else:
                        argv += ["--eval-budget", "1",
                                 "--cache-dir", str(tmp_path / f"{kind}{case}")]
                if kind != "argv":
                    argv += ["--threads", "1"]
                argv += ["--no-timing"]
                replay = f"kind {kind}, case {case}\ninput {json.dumps(obj)}\nargv {argv}"
                del calls[:]
                started = time.perf_counter()
                signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
                try:
                    code, captured = request(argv)
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = time.perf_counter() - started
                assert code in (0, 2, 3, 4, 5), f"{replay}\nexit {code}: {captured.err}"
                if kind == "cycles" and planted:
                    assert code == 2, f"{replay}\nexit {code}: {captured.err}"
                assert elapsed < CASE_SECONDS, f"{replay}\ntook {elapsed:.2f} s"
                if code == 2:
                    assert captured.out == "", replay
                    assert not calls, f"{replay}\ncounted before exit 2: {captured.err}"
    finally:
        signal.signal(signal.SIGALRM, previous)

