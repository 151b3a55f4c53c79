import json
import os
import re
import shutil
import subprocess
import sys
import sysconfig
import time
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from picardkit.cli import main, run
from picardkit.galmod import size_table_from_profile
from picardkit.upoly import mul

from conftest import source_env, zeta_from_report


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def p2_spec(tmp_path, q=2):
    return write_json(
        tmp_path / "p2.json",
        {
            "field": {"p": q, "e": 1},
            "ambientDim": 2,
            "generators": [],
            "flags": {"budget": 3, "assumeSmooth": True},
        },
    )


def quadric_spec(tmp_path, p=2):
    eq = "x0*x3 + x1*x2" if p == 2 else "x0*x3 - x1*x2"
    return write_json(
        tmp_path / "quadric.json",
        {
            "field": {"p": p, "e": 1},
            "ambientDim": 3,
            "generators": [eq],
            "flags": {"hypersurfaceDegree": 2},
        },
    )


def joined_quadric_spec(tmp_path, p=2):
    """A smooth quadric surface whose variables form one block (x0 x1 joins
    the blocks {x0, x3} and {x1, x2}), so the charts count it, on worker
    threads when --threads asks for them."""
    eq = "x0*x3 + x1*x2 + x0*x1" if p == 2 else "x0*x3 - x1*x2 + x0*x1"
    return write_json(
        tmp_path / "joined-quadric.json",
        {
            "field": {"p": p, "e": 1},
            "ambientDim": 3,
            "generators": [eq],
            "flags": {"hypersurfaceDegree": 2},
        },
    )


def elliptic_spec(tmp_path):
    return write_json(
        tmp_path / "ell.json",
        {
            "field": {"p": 5, "e": 1},
            "ambientDim": 2,
            "generators": ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"],
            "flags": {"hypersurfaceDegree": 3},
        },
    )


def test_zeta_p2(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "zeta", p2_spec(tmp_path), "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "picardkit-report/1"
    assert report["zeta"]["num"] == [1]
    assert report["zeta"]["den"] == mul(mul([1, -1], [1, -2]), [1, -4])


def test_zeta_deterministic_output(tmp_path, capsys):
    spec = p2_spec(tmp_path)
    _, out1, _ = run_cli(capsys, "zeta", spec, "--no-timing")
    _, out2, _ = run_cli(capsys, "zeta", spec, "--no-timing")
    assert out1 == out2


def test_count_quadric(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "count", quadric_spec(tmp_path), "-n", "3", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"] == [(2**n + 1) ** 2 for n in (1, 2, 3)]


def test_count_uses_cache(tmp_path, capsys):
    spec = quadric_spec(tmp_path)
    cache = str(tmp_path / "cachedir")
    code1, out1, _ = run_cli(capsys, "count", spec, "-n", "2", "--cache-dir", cache, "--no-timing")
    code2, out2, _ = run_cli(capsys, "count", spec, "-n", "2", "--cache-dir", cache, "--no-timing")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cache_env_and_flag_name_the_same_file(tmp_path, capsys, monkeypatch):
    # a path without an extension is a directory holding counts.ndjson, by
    # either spelling; the second run reads levels 1 and 2 from the first
    from picardkit import counting

    counted = []
    count_points = counting.count_points

    def recording(ideal, n, **kwargs):
        counted.append(n)
        return count_points(ideal, n, **kwargs)

    monkeypatch.setattr(counting, "count_points", recording)
    spec = quadric_spec(tmp_path)
    store = tmp_path / "d" / "store"
    monkeypatch.setenv("PICARDKIT_CACHE", str(store))
    assert run_cli(capsys, "count", spec, "-n", "2", "--no-timing")[0] == 0
    monkeypatch.delenv("PICARDKIT_CACHE")
    code, out, _ = run_cli(capsys, "count", spec, "-n", "3", "--cache-dir", str(store), "--no-timing")
    assert code == 0
    assert json.loads(out)["counts"]["values"] == [(2**n + 1) ** 2 for n in (1, 2, 3)]
    assert counted == [1, 2, 3]
    lines = (store / "counts.ndjson").read_text().splitlines()
    assert [json.loads(line)["n"] for line in lines] == [1, 2, 3]


def test_cache_path_naming_an_existing_file_is_that_file(tmp_path, capsys):
    # a cache file without an extension, as PICARDKIT_CACHE used to write
    # one, is read and appended to, not taken for a directory
    spec = quadric_spec(tmp_path)
    store = tmp_path / "store"
    assert run_cli(capsys, "count", spec, "-n", "2", "--cache-dir", f"{store}.ndjson")[0] == 0
    (tmp_path / "store.ndjson").rename(store)
    assert run_cli(capsys, "count", spec, "-n", "3", "--cache-dir", str(store))[0] == 0
    assert [json.loads(line)["n"] for line in store.read_text().splitlines()] == [1, 2, 3]


def test_zeta_quadric_surface_reduction(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "zeta", quadric_spec(tmp_path), "--no-timing")
    assert code == 0
    report = json.loads(out)
    p2 = mul([1, -2], [1, -2])
    assert report["zeta"]["den"] == mul(mul([1, -1], p2), [1, -4])
    assert len(report["counts"]["values"]) == 1  # one count suffices for b2 = 2


def test_betti_elliptic(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "betti", elliptic_spec(tmp_path), "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 2, 1]


def test_tate_bound_quadric(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "tate-bound", quadric_spec(tmp_path), "-p", "1", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["tateBound"]["vMu"] == 2
    assert report["betti"] == [1, 0, 2, 0, 1]


def test_rank_quadric_halts(tmp_path, capsys):
    cycles = write_json(
        tmp_path / "cycles.json",
        {
            "basisCycles": ["ruling-a", "ruling-b"],
            "pairings": [[1, 0], [0, 1]],
            "action": {"generators": [], "relations": []},
            "candidates": [{"name": "hyperplane", "pairingVector": [1, 1]}],
        },
    )
    code, out, _ = run_cli(
        capsys, "rank", "--zeta", quadric_spec(tmp_path), "--cycles", cycles, "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rank"]["status"] == "halted"
    assert report["rank"]["rankNumXsep"] == 2
    assert report["rank"]["rankNumX"] == 2
    assert report["rank"]["candidates"][0]["coords"] is not None


def test_rank_undecided_exit_code(tmp_path, capsys):
    cycles = write_json(
        tmp_path / "cycles.json",
        {
            "basisCycles": ["ruling-a", "ruling-b"],
            "pairings": [[1, 0]],
            "action": {"generators": []},
        },
    )
    code, out, _ = run_cli(
        capsys, "rank", "--zeta", quadric_spec(tmp_path), "--cycles", cycles, "--no-timing"
    )
    assert code == 4
    report = json.loads(out)
    assert report["rank"]["status"] == "running"
    assert report["rank"]["bestLower"] == 1


def test_rank_checkpoint_written(tmp_path, capsys):
    cycles = write_json(
        tmp_path / "c.json",
        {"basisCycles": ["a", "b"], "pairings": [[1, 0]], "action": {"generators": []}},
    )
    ckpt = tmp_path / "state.json"
    code, _, _ = run_cli(
        capsys,
        "rank", "--zeta", quadric_spec(tmp_path), "--cycles", cycles,
        "--checkpoint", str(ckpt), "--no-timing",
    )
    assert code == 4
    state = json.loads(ckpt.read_text())
    assert state["best"] == 1


def _rank_with_checkpoint(capsys, tmp_path, pairings, ckpt, *extra):
    cycles = write_json(
        tmp_path / "c.json",
        {"basisCycles": ["a", "b"], "pairings": pairings, "action": {"generators": []}},
    )
    return run_cli(
        capsys,
        "rank", "--zeta", quadric_spec(tmp_path, p=3), "--cycles", cycles,
        "--checkpoint", str(ckpt), "--cache-dir", str(tmp_path / "cache"), "--no-timing",
        *extra,
    )


def test_rank_checkpoint_resumes_only_its_own_inputs(tmp_path, capsys):
    ckpt = tmp_path / "state.json"
    code, _, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0], [0, 1]], ckpt)
    assert code == 0
    # the state of other cycles must not stand in for this file's bound: at
    # best 2 it would assert rank 2 against a pairing rank of 1
    code, out, err = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert (code, out) == (2, "")
    assert "checkpoint belongs to different inputs" in err
    # the same inputs resume
    ckpt.unlink()
    for _ in range(2):
        code, out, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
        assert code == 4
        assert json.loads(out)["rank"]["bestLower"] == 1
    # the codimension is part of the inputs too
    code, _, err = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt, "-p", "2")
    assert code == 2
    assert "checkpoint belongs to different inputs" in err


@pytest.mark.parametrize(
    "state",
    [
        '{"inputsDigest": "0000", "best": 1, "bestCertificate": null}',
        "not json",
        '{"inputsDigest": "0000"}',
        "[1]",
        '{"best": 1, "bestCertificate": {"kind": "lower"}}',
    ],
)
def test_bad_checkpoint_rejected_before_counting(tmp_path, capsys, state):
    # an empty cache with a one-unit evaluation budget exits 3 as soon as
    # anything is counted
    ckpt = tmp_path / "state.json"
    ckpt.write_text(state)
    code, out, err = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt, "--eval-budget", "1")
    assert (code, out) == (2, "")
    assert "checkpoint" in err
    assert ckpt.read_text() == state


def test_checkpoint_bound_above_upper_bound_rejected(tmp_path, capsys):
    # a bound above the upper one cannot come from these inputs' run; the
    # upper bound is known only after counting, so the file is read first
    # and checked against it then, and it is left as it was
    ckpt = tmp_path / "state.json"
    code, _, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert code == 4
    state = json.loads(ckpt.read_text())
    state["best"] = 99
    ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()
    code, out, err = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert (code, out) == (2, "")
    assert "checkpoint bound 99 is outside 0..2" in err
    assert ckpt.read_bytes() == before


def test_negative_checkpoint_bound_rejected_before_counting(tmp_path, capsys):
    # no run can save a negative bound, so it is refused as the file is
    # read: with the counts cached, and from an empty cache under a one-unit
    # evaluation budget, which exits 3 as soon as anything is counted
    ckpt = tmp_path / "state.json"
    code, _, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert code == 4
    state = json.loads(ckpt.read_text())
    state["best"] = -1
    ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()
    for cached in (True, False):
        if not cached:
            shutil.rmtree(tmp_path / "cache")
        code, out, err = _rank_with_checkpoint(
            capsys, tmp_path, [[1, 0]], ckpt, "--eval-budget", "1"
        )
        assert (code, out) == (2, "")
        assert "checkpoint bound -1 is negative" in err
        assert ckpt.read_bytes() == before
    assert not (tmp_path / "cache").exists()


def test_rank_reads_its_checkpoint_once(tmp_path, capsys, monkeypatch):
    import builtins

    ckpt = tmp_path / "state.json"
    _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    reads, real_open = [], builtins.open

    def counting_open(file, mode="r", *args, **kwargs):
        if str(file) == str(ckpt) and "r" in mode:
            reads.append(mode)
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    code, _, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert (code, reads) == (4, ["r"])


def test_rank_checkpoint_bound_is_monotone(tmp_path, capsys):
    # the cubic surface over F_2 has upper bound 7 at p = 1; one cycle of
    # rank 1 against a saved bound of 3 reports 3 and leaves the file alone
    ckpt = tmp_path / "state.json"
    argv = [
        "rank", "--zeta", cubic_f2_spec(tmp_path), "--checkpoint", str(ckpt),
        "--cache-dir", str(tmp_path / "cache"), "--no-timing", "--cycles",
        write_json(tmp_path / "c.json", {"basisCycles": ["a", "b"], "pairings": [[1, 0]]}),
    ]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 4
    state = json.loads(ckpt.read_text())
    for saved, expected in [(3, 3), (0, 1)]:
        state["best"] = saved
        ckpt.write_text(json.dumps(state))
        before = ckpt.read_bytes()
        code, out, _ = run_cli(capsys, *argv)
        assert code == 4
        assert json.loads(out)["rank"] == {"upperBound": 7, "bestLower": expected,
                                           "status": "running"}
        assert json.loads(ckpt.read_text())["best"] == expected
        # a lower bound is written only when it is above the saved one
        assert (ckpt.read_bytes() == before) == (saved >= 1)
    # a lower bound above the upper one (7 classes, 1 at p = 2) is
    # inconsistent, and no checkpoint is written for it
    ckpt.unlink()
    argv[-1] = write_json(tmp_path / "c.json", {"basisCycles": ["a", "b"],
                                                "pairings": [[1, 0], [0, 1]]})
    code, out, err = run_cli(capsys, *argv, "-p", "2")
    assert (code, out) == (5, "")
    assert "lower bound 2 exceeds the upper bound 1" in err
    assert not ckpt.exists()


def test_unwritable_checkpoint_rejected_before_counting(tmp_path, capsys):
    # an empty cache with a one-unit evaluation budget exits 3 as soon as
    # anything is counted, so exit 2 shows that nothing was
    for ckpt, reason in [(tmp_path / "missing" / "ck.json", "no directory"),
                         (tmp_path, "it is a directory")]:
        code, out, err = _rank_with_checkpoint(
            capsys, tmp_path, [[1, 0]], ckpt, "--eval-budget", "1"
        )
        assert (code, out) == (2, "")
        assert f"cannot write {ckpt}: {reason}" in err
    assert not (tmp_path / "missing").exists()
    assert not (tmp_path / "cache").exists()


def test_failed_checkpoint_write_keeps_the_previous_one(tmp_path, capsys, monkeypatch):
    from picardkit import lattice

    ckpt = tmp_path / "state.json"
    code, _, _ = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    assert code == 4
    # a saved bound of 0 makes the next run write its bound of 1
    state = json.loads(ckpt.read_text())
    state["best"] = 0
    ckpt.write_text(json.dumps(state))
    before = ckpt.read_bytes()

    def dump_then_fail(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:10])
        raise OSError("No space left on device")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    code, out, err = _rank_with_checkpoint(capsys, tmp_path, [[1, 0]], ckpt)
    monkeypatch.undo()
    assert (code, out) == (1, "")
    assert "No space left on device" in err
    assert ckpt.read_bytes() == before
    assert lattice.read_checkpoint(str(ckpt), state["inputsDigest"]) == 0
    # the temporary file is gone
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "c.json", "cache", "quadric.json", "state.json"
    ]


def test_torsion_command(tmp_path, capsys):
    table = size_table_from_profile(3, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4)
    path = write_json(tmp_path / "table.json", table.to_json())
    code, out, _ = run_cli(capsys, "torsion", path, "-i", "2", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["torsion"]["exact"] is True
    assert report["torsion"]["invariantFactorExponents"] == [2, 1]


def test_torsion_partial_exit_code(tmp_path, capsys):
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], [[], [], [9], [], []], 3)
    path = write_json(tmp_path / "table.json", table.to_json())
    code, out, _ = run_cli(capsys, "torsion", path, "-i", "2", "--no-timing")
    assert code == 4


def test_galois_rank_command(tmp_path, capsys):
    modules = []
    for n in (1, 2, 3):
        modules.append(
            {
                "ell": 5,
                "n": n,
                "invariantFactors": [n, n],
                "actions": [[[1, 0], [0, 1]]],
            }
        )
    path = write_json(tmp_path / "family.json", {"ell": 5, "t": 0, "modules": modules})
    code, out, _ = run_cli(capsys, "galois-rank", path, "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["rankBounds"]["value"] == 2


def test_dovetail_demo(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--rounds", "8", "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["dovetail"]["events"]
    assert report["dovetail"]["results"]


def test_dovetail_trace_stdout(capsys):
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--rounds", "6", "--trace-file", "-")
    assert code == 0
    for line in out.strip().splitlines():
        rec = json.loads(line)
        assert "taskId" in rec


def test_dovetail_unwritable_trace_file_rejected_before_scheduling(
    tmp_path, capsys, monkeypatch
):
    from picardkit import dovetail

    scheduled = []
    monkeypatch.setattr(dovetail, "run_geometric", lambda *a, **k: scheduled.append(1))
    trace = tmp_path / "missing" / "t.ndjson"
    code, out, err = run_cli(
        capsys, "dovetail", "--demo", "--trace-file", str(trace), "--eval-budget", "1"
    )
    assert (code, out) == (2, "")
    assert f"cannot write {trace}: no directory" in err
    assert not scheduled and not trace.parent.exists()


def test_dovetail_trace_file_written(tmp_path, capsys):
    trace = tmp_path / "t.ndjson"
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--rounds", "6", "--trace-file",
                           str(trace), "--no-timing")
    assert code == 0
    assert json.loads(out)["dovetail"]["events"]
    assert all("taskId" in json.loads(line) for line in trace.read_text().splitlines())


# every event of the demo through round 10: (round, task, quanta, status[, result])
DEMO_EVENTS = [
    (1, 1, 1, "running"), (2, 1, 2, "running"), (2, 2, 1, "running"),
    (3, 1, 4, "running"), (3, 2, 2, "running"), (3, 3, 1, "running"),
    (4, 1, 2, "halted", 9), (4, 2, 4, "running"), (4, 3, 2, "running"), (4, 4, 1, "running"),
    (5, 2, 8, "running"), (5, 3, 4, "running"), (5, 4, 2, "running"),
    (6, 2, 16, "running"), (6, 3, 8, "running"), (6, 4, 4, "running"),
    (7, 2, 32, "running"), (7, 3, 2, "halted", 17), (7, 4, 2, "halted", "planted"),
    (8, 2, 64, "running"), (9, 2, 128, "running"), (10, 2, 256, "running"),
]


@pytest.mark.parametrize("rounds, total, results", [
    (1, 1, {}),
    (6, 62, {"1": 9}),
    (10, 546, {"1": 9, "3": 17, "4": "planted"}),
])
def test_dovetail_demo_report_and_trace_are_pinned(capsys, rounds, total, results):
    events = []
    for ev in DEMO_EVENTS:
        if ev[0] <= rounds:
            rec = {"round": ev[0], "taskId": ev[1], "quanta": ev[2], "status": ev[3]}
            events.append(rec | ({"result": ev[4]} if len(ev) > 4 else {}))
    report = {
        "command": "dovetail",
        "dovetail": {"events": events, "results": results, "rounds": rounds, "totalQuanta": total},
        "inputs": {"tasks": 4},
        "schema": "picardkit-report/1",
    }
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--rounds", str(rounds), "--no-timing")
    assert code == 0
    assert out == json.dumps(report, sort_keys=True, indent=2) + "\n"
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--rounds", str(rounds), "--trace-file", "-")
    assert code == 0
    assert out == "".join(json.dumps(e, sort_keys=True) + "\n" for e in events)


@pytest.mark.parametrize("rounds", ["60", "34", "25", "9" * 4000])
def test_dovetail_schedule_beyond_the_budget_exits_3_before_running(capsys, monkeypatch, rounds):
    # task 2 of the demo never halts, so each round doubles the quanta:
    # --rounds 24 took 1.0 s and --rounds 60 would never end.  25 rounds
    # may spend 2^25 + 2^24 + 2^23 + 2^22 - 4 quanta, more than 2^25
    from picardkit import dovetail

    monkeypatch.setattr(dovetail, "run_geometric", lambda *_: pytest.fail("the schedule ran"))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "dovetail", "--demo", "--rounds", rounds, "--no-timing")
    assert (code, out) == (3, "")
    assert time.perf_counter() - started < 1
    assert "worst-case quanta exceed 33554432" in err


@pytest.mark.parametrize("budget, code", [(1915, 3), (1916, 0)])
def test_dovetail_schedule_is_charged_its_worst_case(capsys, monkeypatch, budget, code):
    # the demo's 10 rounds may spend 1,916 quanta if no task halts: 2^r - 1
    # in each of rounds 1-4, then 15 * 2^(r-4); it spends 546
    from picardkit import cli

    monkeypatch.setattr(cli, "DOVETAIL_QUANTA", budget)
    assert run_cli(capsys, "dovetail", "--demo", "--no-timing")[0] == code


def test_dovetail_demo_ignores_the_counting_budget(capsys):
    # the warm benchmark sends every request with --eval-budget 1
    code, out, _ = run_cli(capsys, "dovetail", "--demo", "--eval-budget", "1", "--no-timing")
    assert code == 0
    assert json.loads(out)["dovetail"]["totalQuanta"] == 546


def test_invalid_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "zeta", str(bad), "--no-timing")
    assert code == 2
    assert "picardkit" in err


@pytest.mark.parametrize(
    "field, ambient",
    [({"p": 2.9}, 2), ({"p": 2, "e": True}, 2), ({"p": 2}, 2.5), ({"p": "2"}, 2), ({"p": 2}, "2")],
)
def test_non_integer_variety_spec_is_invalid_input(tmp_path, capsys, field, ambient):
    # these used to be truncated by int() and counted as the Klein quartic
    spec = write_json(
        tmp_path / "klein.json",
        {
            "field": field,
            "ambientDim": ambient,
            "generators": ["x0^3*x1 + x1^3*x2 + x2^3*x0"],
            "flags": {"hypersurfaceDegree": 4},
        },
    )
    code, out, err = run_cli(capsys, "count", spec, "-n", "1", "--no-timing")
    assert code == 2
    assert out == ""
    assert "must be integers" in err


@pytest.mark.parametrize("command", [["count", "-n", "2"], ["zeta"]])
@pytest.mark.parametrize("key, value", [
    ("flags", []), ("flags", "x"), ("generators", [1]), ("generators", "x0^2 + x1*x2"),
    ("ambientDim", -1), ("generators", ["x0 + 1/2*x1"]),
])
def test_malformed_variety_spec_is_invalid_input(tmp_path, capsys, command, key, value):
    # list flags made `zeta` exit 1 and `count` 0, [1] as generators exit 1,
    # a string of generators was parsed character by character, and
    # ambientDim -1 was counted as [0, 0]; the grammar has no "/", since
    # every coefficient lies in the spec's finite field
    spec = {"field": {"p": 2}, "ambientDim": 3, "generators": ["x0*x3 + x1*x2"],
            "flags": {"hypersurfaceDegree": 2}}
    spec[key] = value
    path = write_json(tmp_path / "spec.json", spec)
    name, *rest = command
    code, out, err = run_cli(capsys, name, path, *rest, "--cache-dir", str(tmp_path / "cache"),
                             "--no-timing")
    assert code == 2
    assert out == ""
    assert "malformed variety spec: " + key in err


@pytest.mark.parametrize("key, value", [
    ("t", 1.9), ("t", "0"), ("t", True), ("ell", 5.0), ("n", 1.5), ("n", "1"),
    ("invariantFactors", [1, 1.0]), ("actions", [[[1, 0], [0, True]]]),
    ("actions", [[[1, 0], [0, "1"]]]),
])
def test_non_integer_module_family_is_invalid_input(tmp_path, capsys, key, value):
    # "t": 1.9 used to be truncated to 1 and reported with exit 0
    module = {"ell": 5, "n": 1, "invariantFactors": [1, 1], "actions": [[[1, 0], [0, 1]]]}
    family = {"t": 0, "modules": [module]}
    (family if key == "t" else module)[key] = value
    path = write_json(tmp_path / "family.json", family)
    code, out, err = run_cli(capsys, "galois-rank", path, "--no-timing")
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("key, value", [
    ("ell", 3.0), ("ell", "3"), ("betti", [1, 0, 5.0, 0, 1]), ("i", 2.0), ("n", "1"),
    ("n", True), ("log_ell_size", 1.5),
])
def test_non_integer_size_table_is_invalid_input(tmp_path, capsys, key, value):
    # "log_ell_size": 1.5 used to exit 5 as an inconsistent table
    table = size_table_from_profile(3, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4).to_json()
    (table if key in ("ell", "betti") else table["sizes"][0])[key] = value
    path = write_json(tmp_path / "table.json", table)
    code, out, err = run_cli(capsys, "torsion", path, "-i", "2", "--no-timing")
    assert code == 2
    assert out == ""
    assert "integer" in err


@pytest.mark.parametrize("ell", [4, 1])
def test_size_table_with_non_prime_ell_is_invalid_input(tmp_path, capsys, ell):
    # such a table used to exit 0 with a report; FiniteLModule rejects it too
    table = size_table_from_profile(ell, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4)
    path = write_json(tmp_path / "table.json", table.to_json())
    code, out, err = run_cli(capsys, "torsion", path, "-i", "2", "--no-timing")
    assert code == 2
    assert out == ""
    assert f"{ell} is not prime" in err


def test_galois_rank_modules_must_be_a_list(tmp_path, capsys):
    # an object used to be iterated by its keys and reported with value 0
    path = write_json(tmp_path / "family.json", {"t": 0, "modules": {}})
    code, out, err = run_cli(capsys, "galois-rank", path, "--no-timing")
    assert code == 2
    assert out == ""
    assert "modules must be a list" in err


def _module(ell, n, factors, actions=()):
    return {"ell": ell, "n": n, "invariantFactors": factors, "actions": list(actions)}


@pytest.mark.parametrize("family, message", [
    # each of these exited 0 with a report, the mixed primes 1
    ({"t": 0, "modules": [_module(3, 1, [1]), _module(5, 1, [1])]}, "family mixes primes"),
    ({"ell": 5, "t": 0, "modules": [_module(3, 1, [1])]}, "module ell 3 differs from family ell 5"),
    ({"ell": 5.0, "t": 0, "modules": [_module(5, 1, [1])]}, "ell must be an integer"),
    # the trivial action on (Z/9)^2 has fixed rank 2; t = -1 reported 1
    ({"t": -1, "modules": [_module(3, 2, [2, 2], [[[1, 0], [0, 1]]])]}, "t must be at least 0"),
    ({"t": 0, "modules": [_module(3, 0, []), _module(3, 1, [1])]}, "n must be at least 1"),
    ({"t": 3, "modules": [_module(3, 2, [2]), _module(3, 3, [3])]}, "no module lies above"),
    ({"t": 0, "modules": []}, "no module lies above"),
], ids=["mixed-primes", "family-ell-differs", "family-ell-not-integer", "negative-t",
        "module-n-0", "none-above-t", "no-modules"])
def test_galois_rank_unsound_family_is_invalid_input(tmp_path, capsys, family, message):
    path = write_json(tmp_path / "family.json", family)
    code, out, err = run_cli(capsys, "galois-rank", path, "--no-timing")
    assert (code, out) == (2, "")
    assert message in err


def test_nonexistent_file_exit_code(capsys):
    code, _, _ = run_cli(capsys, "zeta", "/nonexistent.json", "--no-timing")
    assert code == 2


def test_budget_exceeded_exit_code(tmp_path, capsys):
    spec = write_json(
        tmp_path / "big.json",
        {
            "field": {"p": 5, "e": 1},
            "ambientDim": 3,
            "generators": ["x0^4 + x1^4 + x2^4 + x3^4"],
            "flags": {"hypersurfaceDegree": 4, "assumeSmooth": True},
        },
    )
    code, _, err = run_cli(capsys, "zeta", spec, "--eval-budget", "100000", "--no-timing")
    assert code == 3


def test_fermat_quartic_f3_zeta(tmp_path, capsys):
    # ten levels, up to F_{3^10}: over cyclotomic classes each is one pass
    # over the field tables, where the charts exceed the default budget at
    # n = 8
    spec = write_json(
        tmp_path / "fermat4.json",
        {
            "field": {"p": 3, "e": 1},
            "ambientDim": 3,
            "generators": ["x0^4 + x1^4 + x2^4 + x3^4"],
            "flags": {"hypersurfaceDegree": 4},
        },
    )
    code, out, _ = run_cli(capsys, "zeta", spec, "--cache-dir", str(tmp_path / "c"),
                           "--no-timing")
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"][:7] == [16, 280, 784, 8344, 59536, 547480, 4787344]
    factors = report["zeta"]["factored"]["den"]["factors"]
    den = {tuple(f["poly"]): f["multiplicity"] for f in factors}
    # P_2 = (1 - 3T)^12 (1 + 3T)^10 between 1 - T and 1 - 9T
    assert den == {(1, -1): 1, (1, -3): 12, (1, 3): 10, (1, -9): 1}


def test_singular_input_rejected(tmp_path, capsys):
    spec = write_json(
        tmp_path / "sing.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 2,
            "generators": ["x0*x1"],
            "flags": {"budget": 4},
        },
    )
    code, _, err = run_cli(capsys, "zeta", spec, "--no-timing")
    assert code == 2
    assert "smooth" in err


NODAL_CUBIC_F5 = "x1^2*x2 - x0^3 - x0^2*x2"
NON_BOOLEANS = ["false", "no", 0, 1]


@pytest.mark.parametrize("value, message", [
    (False, "fails the smoothness check"),
    *((v, "assumeSmooth must be true or false") for v in NON_BOOLEANS),
])
def test_assume_smooth_must_be_a_json_boolean(tmp_path, capsys, value, message):
    # "assumeSmooth": "no" used to skip the check by truthiness, and the
    # nodal cubic was counted and exited 5
    spec = write_json(
        tmp_path / "nodal.json",
        {"field": {"p": 5}, "ambientDim": 2, "generators": [NODAL_CUBIC_F5],
         "flags": {"hypersurfaceDegree": 3, "assumeSmooth": value}},
    )
    code, out, err = run_cli(capsys, "betti", spec, "--cache-dir", str(tmp_path / "c"),
                             "--eval-budget", "1", "--no-timing")
    assert (code, out) == (2, "")
    assert message in err


def _minus_one_family(tmp_path, **extra):
    # the level-1 module over l = 3 on which Frobenius acts by -1 violates
    # the hypothesis of the rank bound
    family = {"t": 0, "modules": [
        {"ell": 3, "n": 1, "invariantFactors": [1], "actions": [[[2]]]},
    ], **extra}
    return write_json(tmp_path / "family.json", family)


def test_hypothesis_violation_exits_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "galois-rank", _minus_one_family(tmp_path), "--no-timing")
    assert (code, out) == (2, "")
    code, out, _ = run_cli(capsys, "galois-rank",
                           _minus_one_family(tmp_path, skipHypothesisCheck=True), "--no-timing")
    assert code == 0 and json.loads(out)["rankBounds"]


@pytest.mark.parametrize("action, code", [([[0, 1], [1, 0]], 2), ([[1, 3], [0, 1]], 0)])
def test_hypothesis_checked_mod_lprime_above_the_lprime_level(tmp_path, capsys, action, code):
    # an n = 2 module over l = 3 fixes the action mod 3: the swap is not
    # trivial there (it exited 0 with value 1), while [[1, 3], [0, 1]] is
    family = {"t": 0, "modules": [_module(3, 2, [2, 2], [action])]}
    got, out, err = run_cli(capsys, "galois-rank", write_json(tmp_path / "f.json", family),
                            "--no-timing")
    assert got == code
    if code:
        assert "not trivial mod 3" in err
    else:
        assert json.loads(out)["rankBounds"]["value"] == 1


@pytest.mark.parametrize("value", NON_BOOLEANS)
def test_skip_hypothesis_check_must_be_a_json_boolean(tmp_path, capsys, value):
    # "skipHypothesisCheck": "false" used to skip the check by truthiness
    path = _minus_one_family(tmp_path, skipHypothesisCheck=value)
    code, out, err = run_cli(capsys, "galois-rank", path, "--no-timing")
    assert (code, out) == (2, "")
    assert "skipHypothesisCheck must be true or false" in err


def test_threads_flag_deterministic(tmp_path, capsys):
    spec = joined_quadric_spec(tmp_path, p=3)
    _, out1, _ = run_cli(capsys, "count", spec, "-n", "3", "--threads", "1", "--no-timing")
    _, out4, _ = run_cli(capsys, "count", spec, "-n", "3", "--threads", "4", "--no-timing")
    assert out1 == out4


def test_parser_tolerates_spacing(tmp_path, capsys):
    spec = write_json(
        tmp_path / "spaced.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": ["  x0 *x3   +x1* x2 "],
            "flags": {"hypersurfaceDegree": 2},
        },
    )
    code, out, _ = run_cli(capsys, "zeta", spec, "--no-timing")
    assert code == 0


def cubic_f2_spec(tmp_path):
    return write_json(
        tmp_path / "cubic-f2.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": ["x0^3 + x1^3 + x2^3 + x3^3"],
            "flags": {"hypersurfaceDegree": 3},
        },
    )


@pytest.mark.parametrize("command", ["tate-bound", "rank"])
@pytest.mark.parametrize("p", ["3", "-1"])
def test_codimension_out_of_range_rejected_before_counting(tmp_path, capsys, command, p):
    # an empty cache with a one-unit evaluation budget exits 3 as soon as
    # anything is counted, so exit 2 shows the check comes first
    spec = cubic_f2_spec(tmp_path)
    head = ["tate-bound", spec] if command == "tate-bound" else [
        "rank", "--zeta", spec,
        "--cycles", write_json(tmp_path / "cycles.json", {"basisCycles": [], "pairings": []}),
    ]
    code, _, err = run_cli(
        capsys, *head, "-p", p, "--cache-dir", str(tmp_path / "cache"),
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 2
    assert "codimension out of range" in err


@pytest.mark.parametrize(
    "cycles",
    [
        {},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, "x"]]},
        {"basisCycles": ["a"], "pairings": [[1.5]]},
        {"basisCycles": ["a"], "pairings": [[True]]},
        {"basisCycles": ["a"], "pairings": [["1"]]},
        {"basisCycles": ["a"], "pairings": [[1]], "candidates": [{"pairingVector": [0.5]}]},
        # action generators are integers too, not truncated to the swap [1, 0]
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[1.7, 0.2]]}},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": ["10"]}},
        # every pairing vector and generator matches the basis cycles
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0]]},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0, 0], [0, 1, 0]]},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[[0, 1, 0], [1, 0, 0], [0, 0, 1]]]}},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "candidates": [{"pairingVector": [1]}]},
        # relation words index the generators from 1; 0 is not the last one
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[1, 0]], "relations": [[0, 0]]}},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[1, 0]], "relations": [[2]]}},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[1, 0]], "relations": [1]}},
        # one cycle name per pairings row, each a string
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]], "cycleNames": ["z"]},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]], "cycleNames": ["z", 1]},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]], "cycleNames": "zw"},
        # the basis cycles are a list, not a string whose length stands for k
        {"basisCycles": "ab", "pairings": [[1, 0]]},
        # each action generator is invertible over Z, whether or not the
        # bounds meet (only then is the action used)
        {"basisCycles": ["a", "b"], "pairings": [[1, 0]],
         "action": {"generators": [[[2, 0], [0, 1]]]}},
        {"basisCycles": ["a", "b"], "pairings": [[1, 0], [0, 1]],
         "action": {"generators": [[[2, 0], [0, 1]]]}},
    ],
)
def test_malformed_cycles_rejected_before_counting(tmp_path, capsys, cycles):
    # as above: exit 3 would mean the points were counted first
    code, _, err = run_cli(
        capsys, "rank", "--zeta", cubic_f2_spec(tmp_path),
        "--cycles", write_json(tmp_path / "cycles.json", cycles),
        "--cache-dir", str(tmp_path / "cache"), "--eval-budget", "1", "--no-timing",
    )
    assert code == 2
    assert "malformed cycles file" in err


@pytest.mark.parametrize(
    "generators, degree",
    [(["x0*x3 + x1*x2"], d) for d in (3, "2", True, 0)] + [(["x0*x3 + x1*x2"] * 2, 2)],
)
def test_hypersurface_degree_checked_before_counting(tmp_path, capsys, generators, degree):
    # x0*x3 + x1*x2 is one quadric: any other declaration would pick the
    # wrong Betti numbers for the fewest-counts route
    spec = write_json(
        tmp_path / "q.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": generators,
            "flags": {"hypersurfaceDegree": degree},
        },
    )
    code, out, err = run_cli(
        capsys, "zeta", spec, "--cache-dir", str(tmp_path / "cache"),
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 2
    assert out == ""
    assert "hypersurfaceDegree" in err


@pytest.mark.parametrize("generators", [[], ["x0"]])
def test_hypersurface_degree_in_p0_is_invalid_input(tmp_path, capsys, generators):
    # P^0 holds no hypersurface, so there are no Betti numbers to derive
    spec = write_json(tmp_path / "p0.json", {"field": {"p": 2}, "ambientDim": 0,
                      "generators": generators, "flags": {"hypersurfaceDegree": 1}})
    code, out, err = run_cli(capsys, "zeta", spec, "--no-timing", "--cache-dir", str(tmp_path))
    assert (code, out) == (2, "")
    assert "hypersurfaceDegree does not match the ideal" in err


@pytest.mark.parametrize("bad", [5.0, "5", True])
def test_cached_count_that_is_no_json_integer_is_counted_again(tmp_path, capsys, bad):
    # a count of 5.0 used to be reported as 5.0 (and crash betti), "5" exited
    # 1 and true exited 5; each record is corrupt and its level is recounted
    from picardkit.counting import CountCache

    spec = write_json(
        tmp_path / "k3.json",
        {"field": {"p": 2, "e": 1}, "ambientDim": 3, "generators": [K3_EQUATION],
         "flags": {"hypersurfaceDegree": 4}},
    )
    cache_path = _fill_cache(tmp_path, spec, K3_COUNTS)
    lines = Path(cache_path).read_text().splitlines()
    first = json.loads(lines[0])
    assert first["n"] == 1
    lines[0] = json.dumps(dict(first, count=bad))
    Path(cache_path).write_text("\n".join(lines) + "\n")

    code, out, _ = run_cli(capsys, "count", spec, "-n", "3", "--cache-dir", cache_path,
                           "--no-timing")
    assert code == 0
    values = json.loads(out)["counts"]["values"]
    assert values == K3_COUNTS[:3]
    assert all(type(v) is int for v in values)
    # the recount was appended, so the next request reads all 11 levels
    assert CountCache(cache_path).get(first["hash"], 1) == 5
    code, out, _ = run_cli(capsys, "betti", spec, "--cache-dir", cache_path,
                           "--eval-budget", "1", "--no-timing")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 0, 22, 0, 1]


def _fill_cache(tmp_path, spec_path, counts):
    """Cache file holding `counts` as N_1, N_2, ... for the spec's variety."""
    from picardkit.cli import _variety_from_spec
    from picardkit.counting import CountCache, variety_hash

    ideal, _ = _variety_from_spec(json.loads(Path(spec_path).read_text()))
    cache_path = str(tmp_path / "counts.ndjson")
    cache = CountCache(cache_path)
    for n, count in enumerate(counts, start=1):
        cache.put(variety_hash(ideal), n, count)
    return cache_path


@pytest.mark.parametrize(
    "cached, command",
    [
        # 9 - 8 is odd: no closed-point decomposition
        ([8, 9], ["count", "-n", "2"]),
        ([8, 9], ["zeta"]),
        # a closed-point decomposition within #P^2(F_5), but
        # (11 - 1 - 5)^2 > 2^2 * 5 breaks the Weil bound for genus 1
        ([11, 31], ["zeta"]),
    ],
)
def test_corrupt_cached_counts_are_inconsistent(tmp_path, capsys, cached, command):
    spec = elliptic_spec(tmp_path)
    cache = _fill_cache(tmp_path, spec, cached)
    code, out, err = run_cli(
        capsys, command[0], spec, *command[1:], "--cache-dir", cache,
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 5
    assert out == ""
    assert "invalid counts" in err


def test_warm_request_still_checks_smoothness(tmp_path, capsys):
    # counts for this nodal cubic are cached and --eval-budget 1 leaves no
    # room to count; the smoothness check still runs, before the cache is read
    spec = write_json(
        tmp_path / "nodal.json",
        {
            "field": {"p": 5, "e": 1},
            "ambientDim": 2,
            "generators": ["x1^2*x2 - x0^3 - x0^2*x2"],
            "flags": {"hypersurfaceDegree": 3},
        },
    )
    cache = _fill_cache(tmp_path, spec, [5, 25])
    code, out, err = run_cli(
        capsys, "betti", spec, "--cache-dir", cache, "--eval-budget", "1", "--no-timing"
    )
    assert code == 2
    assert out == ""
    assert "smoothness" in err


CUBIC_THREEFOLD_F2 = "x0^3 + x1^3 + x2^3 + x3^3 + x4^3"
CUBIC_THREEFOLD_COUNTS = [15, 165, 585, 3729, 33825, 271425]


def cubic_threefold_spec(tmp_path):
    return write_json(
        tmp_path / "cubic3.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 4,
            "generators": [CUBIC_THREEFOLD_F2],
            "flags": {"hypersurfaceDegree": 3},
        },
    )


def test_zeta_cubic_threefold_from_six_counts(tmp_path, capsys):
    from conftest import brute_force_projective_count
    from picardkit.counting import count_tower
    from picardkit.ffield import make_field
    from picardkit.polysys import HomIdeal, poly_from_str
    from picardkit.weil import betti_numbers, classify_weights, factor_zeta
    from picardkit.zeta import expand

    spec = cubic_threefold_spec(tmp_path)
    cache = _fill_cache(tmp_path, spec, CUBIC_THREEFOLD_COUNTS)
    code, out, _ = run_cli(
        capsys, "zeta", spec, "--cache-dir", cache, "--eval-budget", "1", "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"] == CUBIC_THREEFOLD_COUNTS
    p3 = [1]
    for _ in range(5):
        p3 = mul(p3, [1, 0, 8])
    assert report["zeta"]["num"] == p3
    z = zeta_from_report(report)
    assert betti_numbers(z, classify_weights(z, factor_zeta(z))) == [1, 0, 1, 10, 1, 0, 1]
    assert expand(z, 7)[6] == 2113665  # N_7, counted separately

    ideal = HomIdeal([poly_from_str(CUBIC_THREEFOLD_F2, 5, make_field(2, 1))])
    assert CUBIC_THREEFOLD_COUNTS[:2] == [brute_force_projective_count(ideal, n) for n in (1, 2)]
    assert CUBIC_THREEFOLD_COUNTS[:4] == count_tower(ideal, 4).counts


def test_zeta_cubic_threefold_cold(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "zeta", cubic_threefold_spec(tmp_path),
        "--cache-dir", str(tmp_path / "cache"), "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["counts"]["values"] == CUBIC_THREEFOLD_COUNTS


def test_tate_bound_klein_quartic_counts_four_levels(tmp_path, capsys):
    spec = write_json(
        tmp_path / "klein.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 2,
            "generators": ["x0^3*x1 + x1^3*x2 + x2^3*x0"],
            "flags": {"hypersurfaceDegree": 4},
        },
    )
    code, out, _ = run_cli(
        capsys, "tate-bound", spec, "--cache-dir", str(tmp_path / "cache"), "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"] == [3, 5, 24, 17]
    assert report["zeta"]["num"] == [1, 0, 0, 5, 0, 0, 8]
    assert report["betti"] == [1, 6, 1]
    assert report["tateBound"]["vMu"] == 1
    assert report["tateBound"]["perFactor"] == [
        {"factor": [1, -2], "multiplicity": 1, "cyclotomic": {"1": 1}, "unit_root_count": 1},
    ]


def test_tate_bound_cubic_threefold_codimension_two(tmp_path, capsys):
    spec = cubic_threefold_spec(tmp_path)
    code, out, _ = run_cli(
        capsys, "tate-bound", spec, "-p", "2",
        "--cache-dir", _fill_cache(tmp_path, spec, CUBIC_THREEFOLD_COUNTS),
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 0
    assert json.loads(out)["tateBound"] == {
        "p": 2,
        "vMu": 1,
        "perFactor": [
            {"factor": [1, -4], "multiplicity": 1, "cyclotomic": {"1": 1}, "unit_root_count": 1},
        ],
    }


def point_set_spec(tmp_path, generator, degree):
    return write_json(
        tmp_path / "points.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 1,
            "generators": [generator],
            "flags": {"hypersurfaceDegree": degree},
        },
    )


def test_zeta_point_pair_from_one_count(tmp_path, capsys):
    # two conjugate points over F_2: the rational class of their sum
    # leaves an unknown factor of degree 1, which N_1 = 0 fixes
    spec = point_set_spec(tmp_path, "x0^2 + x0*x1 + x1^2", 2)
    code, out, _ = run_cli(
        capsys, "zeta", spec, "--cache-dir", str(tmp_path / "cache"), "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"] == [0]
    assert (report["zeta"]["num"], report["zeta"]["den"]) == ([1], [1, 0, -1])


def test_zeta_four_points_deepens_one_level(tmp_path, capsys):
    # four conjugate points over F_2: N_1 = 0 fits both signs, and one more
    # level (not a doubling to four) settles it
    spec = point_set_spec(tmp_path, "x0^4 + x0*x1^3 + x1^4", 4)
    code, out, _ = run_cli(
        capsys, "zeta", spec, "--cache-dir", str(tmp_path / "cache"), "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert report["counts"]["values"] == [0, 0]
    assert (report["zeta"]["num"], report["zeta"]["den"]) == ([1], [1, 0, 0, 0, -1])


@pytest.mark.parametrize("command", [["betti"], ["tate-bound", "-p", "0"]])
def test_disconnected_hypersurface_rejected_before_counting(tmp_path, capsys, command):
    # the record of two rational points says b_0 = 2: the variety is not
    # geometrically connected, so there are no Betti numbers b_0 = b_2d = 1
    # to report; an empty cache with a one-unit evaluation budget would exit
    # 3 if anything were counted
    spec = point_set_spec(tmp_path, "x0*x1", 2)
    code, out, err = run_cli(
        capsys, command[0], spec, *command[1:], "--cache-dir", str(tmp_path / "cache"),
        "--eval-budget", "1", "--no-timing",
    )
    assert (code, out) == (2, "")
    assert "b_0 and b_2d must equal 1" in err
    # zeta and count take the same spec as before
    code, out, _ = run_cli(capsys, "zeta", spec, "--cache-dir", str(tmp_path / "c"), "--no-timing")
    assert code == 0
    assert json.loads(out)["zeta"]["den"] == [1, -2, 1]
    code, out, _ = run_cli(capsys, "count", spec, "-n", "2", "--no-timing",
                           "--cache-dir", str(tmp_path / "c"))
    assert (code, json.loads(out)["counts"]["values"]) == (0, [2, 2])


def test_betti_of_one_rational_point(tmp_path, capsys):
    # a hyperplane in P^1 has total Betti number 1, which is no reason to
    # refuse it: Z = 1 / (1 - T) from one count
    spec = point_set_spec(tmp_path, "x0", 1)
    code, out, _ = run_cli(
        capsys, "betti", spec, "--cache-dir", str(tmp_path / "cache"), "--no-timing"
    )
    assert code == 0
    report = json.loads(out)
    assert (report["zeta"]["num"], report["zeta"]["den"]) == ([1], [1, -1])
    assert report["betti"] == [1]


@pytest.mark.parametrize("command", [["zeta"], ["betti"], ["tate-bound", "-p", "1"]])
def test_missing_budget_exits_2_before_any_work(tmp_path, capsys, monkeypatch, command):
    # neither a budget nor hypersurfaceDegree: rejected before the dimension
    # and smoothness checks run
    from picardkit import polysys

    def fail(*_):
        pytest.fail("the variety was examined before the missing budget was found")

    monkeypatch.setattr(polysys, "dimension_degree", fail)
    monkeypatch.setattr(polysys, "smoothness_check", fail)
    spec = write_json(
        tmp_path / "cubic.json",
        {"field": {"p": 2}, "ambientDim": 2, "generators": ["x0^3 + x1^3 + x2^3"]},
    )
    code, out, err = run_cli(capsys, command[0], spec, *command[1:], "--no-timing",
                             "--cache-dir", str(tmp_path / "cache"))
    assert (code, out) == (2, "")
    assert "no budget" in err


def test_count_refuses_tables_beyond_memory(tmp_path, capsys, monkeypatch):
    # with 2^8 table entries of memory, n = 9 on F_2 is refused (exit 3)
    # before its field tables are built, and before any level is counted:
    # levels 1..8 come from the cache that `-n 8` filled
    from picardkit import counting

    build = counting.field_tables

    def guarded(ext):
        if ext.q > 2**8:
            pytest.fail("field tables were built past physical memory")
        return build(ext)

    monkeypatch.setattr(counting, "physical_memory", lambda: 24 * 2**8)
    monkeypatch.setattr(counting, "field_tables", guarded)
    spec = point_set_spec(tmp_path, "x0^2 + x0*x1 + x1^2", 2)
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "count", spec, "-n", "8", "--cache-dir", cache)[0] == 0
    code, out, err = run_cli(capsys, "count", spec, "-n", "33", "--cache-dir", cache)
    assert code == 3
    assert out == ""
    assert "physical memory" in err
    assert "largest completed n = 8" in err


DOOMED_TOWERS = [
    # each exits 3 at n = 8 under the default budget; levels 1..7 used to
    # be counted first, for 5 to 30 s
    ({"field": {"p": 3}, "ambientDim": 3, "flags": {"hypersurfaceDegree": 4},
      "generators": ["x0^3*x1 + x1^3*x2 + x2^3*x3 + x3^3*x0"]}, ["zeta"]),
    ({"field": {"p": 3}, "ambientDim": 3, "flags": {"hypersurfaceDegree": 4},
      "generators": ["x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"]}, ["zeta"]),
    ({"field": {"p": 2}, "ambientDim": 5, "flags": {"hypersurfaceDegree": 3},
      "generators": ["x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x4 + x4^2*x5 + x5^2*x0"]},
     ["tate-bound", "-p", "2"]),
]


@pytest.mark.parametrize("spec, argv", DOOMED_TOWERS)
def test_doomed_tower_exits_3_before_counting(tmp_path, capsys, monkeypatch, spec, argv):
    from picardkit import counting

    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    path = write_json(tmp_path / "spec.json", spec)
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], path, *argv[1:], "--no-timing",
                             "--cache-dir", str(tmp_path / "c"))
    assert (code, out) == (3, "")
    assert time.perf_counter() - started < 1
    assert "at n=8 (largest completed n = 0)" in err


def test_refused_tower_reports_the_levels_the_cache_holds(tmp_path, capsys, monkeypatch):
    # over classes the quadric's level n costs 3 * 2^n units: 384 at n = 7,
    # 768 at n = 8
    from picardkit import counting

    spec, cache = quadric_spec(tmp_path), str(tmp_path / "c")
    argv = ["--eval-budget", "500", "--no-timing", "--cache-dir", cache]
    assert run_cli(capsys, "count", spec, "-n", "7", *argv)[0] == 0
    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    code, out, err = run_cli(capsys, "count", spec, "-n", "8", *argv)
    assert (code, out) == (3, "")
    assert "budget 500 at n=8 (largest completed n = 7)" in err


def _unwritable_cache(tmp_path):
    """--cache-dir values whose cache file cannot be appended to."""
    (tmp_path / "plain").write_text("")
    (tmp_path / "gone.ndjson").symlink_to(tmp_path / "nowhere" / "counts.ndjson")
    return ["/dev/null/cache", str(tmp_path / "plain" / "cache"), str(tmp_path / "gone.ndjson")]


def test_unwritable_cache_rejected_before_counting(tmp_path, capsys, monkeypatch):
    # each exited 1 from CountCache.put, after level 1 was counted
    from picardkit import counting

    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    spec = quadric_spec(tmp_path)
    for cache in _unwritable_cache(tmp_path):
        code, out, err = run_cli(capsys, "count", spec, "-n", "2", "--cache-dir", cache)
        assert (code, out) == (2, ""), cache
        assert "cannot write " in err


def test_read_only_cache_holding_every_level_serves_the_tower(tmp_path, capsys, monkeypatch):
    from picardkit import counting

    spec, store = quadric_spec(tmp_path), tmp_path / "ro"
    argv = ["count", spec, "-n", "3", "--no-timing", "--cache-dir", str(store)]
    code, first, _ = run_cli(capsys, *argv)
    assert code == 0
    (store / "counts.ndjson").chmod(0o444)
    store.chmod(0o555)
    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    monkeypatch.setattr(counting.CountCache, "check_writable", lambda _: pytest.fail("checked"))
    try:
        assert run_cli(capsys, *argv) == (0, first, "")
    finally:
        store.chmod(0o755)


@pytest.mark.parametrize(
    "flag_budget, cli_budget",
    [(None, "1"), (None, "0"), (None, "-3"), (1, None), (0, None), ("x", None), (3, "1"),
     (3.7, None), (4.0, None), ("4", None), (True, None)],
)
def test_budget_below_two_is_invalid_input(tmp_path, capsys, flag_budget, cli_budget):
    # a budget of 0 used to fall back to the hypersurface formula here; 3.7
    # was truncated to 3 and "4" parsed, where the budget must be a JSON integer
    flags = {"hypersurfaceDegree": 2, "assumeSmooth": True}
    if flag_budget is not None:
        flags["budget"] = flag_budget
    spec = write_json(
        tmp_path / "conic.json",
        {"field": {"p": 2, "e": 1}, "ambientDim": 2, "generators": ["x0*x2 + x1^2"], "flags": flags},
    )
    argv = ["zeta", spec, "--no-timing", "--cache-dir", str(tmp_path / "cache")]
    if cli_budget is not None:
        argv += ["--budget", cli_budget]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "budget must be" in err


# the quartic K3 over F_2 of the benchmark's warm workload and its counts
K3_EQUATION = "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"
K3_COUNTS = [5, 9, 89, 289, 1185, 4545, 16385, 66049, 263681, 1051649, 4194305]


def _count_calls(monkeypatch, module, name):
    """Wrap `name` wherever a picardkit module binds it; returns the list
    the wrapper appends one entry per call to."""
    orig = getattr(module, name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("picardkit") and vars(mod).get(name) is orig:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_warm_tate_bound_factors_and_classifies_once(tmp_path, capsys, monkeypatch):
    from picardkit import intfactor, weil
    from picardkit.counting import CountCache, variety_hash
    from picardkit.ffield import make_field
    from picardkit.polysys import HomIdeal, poly_from_str

    spec = write_json(
        tmp_path / "k3.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": [K3_EQUATION],
            "flags": {"hypersurfaceDegree": 4},
        },
    )
    cache_path = str(tmp_path / "counts.ndjson")
    cache = CountCache(cache_path)
    digest = variety_hash(HomIdeal([poly_from_str(K3_EQUATION, 4, make_field(2, 1))]))
    for n, count in enumerate(K3_COUNTS, start=1):
        cache.put(digest, n, count)

    factor_calls = _count_calls(monkeypatch, intfactor, "factor_int_poly")
    classify_calls = _count_calls(monkeypatch, weil, "classify_weights")
    certify_calls = _count_calls(monkeypatch, weil, "certify_root_modulus")
    code, out, _ = run_cli(
        capsys, "tate-bound", spec, "-p", "1", "--cache-dir", cache_path,
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 22, 0, 1]
    assert report["tateBound"]["vMu"] == 22
    assert report["tateBound"]["perFactor"] == [
        {"factor": f, "multiplicity": mult, "cyclotomic": {m: 1}, "unit_root_count": len(f) - 1}
        for f, mult, m in [
            ([1, -2], 2, "1"), ([1, 0, 4], 1, "4"), ([1, 2, 4], 1, "3"),
            ([1, 2, 4, 8, 16], 1, "5"), ([1, 0, 0, 0, 0, 0, -64, 0, 0, 0, 0, 0, 4096], 1, "36"),
        ]
    ]
    assert len(factor_calls) <= 2
    assert len(classify_calls) == 1
    # only the two sign candidates of the middle factor are certified: every
    # factor of the zeta function is Tate-type, found by trial division
    assert len(certify_calls) <= 2


def _help_check(argv):
    """Run ``argv`` against this checkout's source and assert it prints the
    CLI help and exits 0."""
    proc = subprocess.run(argv, capture_output=True, text=True, env=source_env())
    assert proc.returncode == 0, proc.stderr
    assert "usage: picardkit" in proc.stdout
    assert "exit codes: 0 ok" in proc.stdout


def test_console_entry_point_help():
    """The declared console script resolves to ``picardkit.cli:run``, and
    what its generated wrapper runs prints the help and exits 0."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["picardkit"] == "picardkit.cli:run"
    ep = EntryPoint(name="picardkit", value=scripts["picardkit"], group="console_scripts")
    assert ep.load() is run
    code = f"import sys; from {ep.module} import {ep.attr}; sys.exit({ep.attr}())"
    _help_check([sys.executable, "-c", code, "--help"])


@pytest.mark.parametrize("module", ["picardkit", "picardkit.cli"])
def test_module_entry_point_help(module):
    _help_check([sys.executable, "-m", module, "--help"])


INSTALLED_SCRIPT = shutil.which("picardkit", path=sysconfig.get_path("scripts"))


@pytest.mark.skipif(
    INSTALLED_SCRIPT is None,
    reason="picardkit script not installed in this interpreter's scripts directory",
)
def test_installed_console_script_help():
    _help_check([INSTALLED_SCRIPT, "--help"])


# what each subcommand imports: run it in a fresh interpreter, then read
# sys.modules; also what it leaves behind for teardown, which the process
# entry point skips: atexit handlers and live threads
_MODULE_PROBE = """
import atexit, json, sys
from picardkit.cli import main

out, argv = sys.argv[1], sys.argv[2:]
handlers = atexit._ncallbacks()
code = main(argv)
modules = sorted(sys.modules)
kernel = sys.modules.get("picardkit.counting.kernel")
import threading
with open(out, "w") as fh:
    json.dump({"code": code, "modules": modules,
               "backend": kernel.BACKEND if kernel else None,
               "new_atexit_handlers": atexit._ncallbacks() - handlers,
               "threads": threading.active_count()}, fh)
"""

VARIETY_UNUSED = ["picardkit.galmod", "picardkit.lattice", "picardkit.dovetail",
                  "concurrent.futures"]
GALMOD_UNUSED = ["picardkit.counting", "picardkit.polysys", "picardkit.zeta",
                 "picardkit.weil", "picardkit.intfactor", "picardkit.dovetail"]


def _modules_after(tmp_path, *argv, pure=False):
    env = source_env()
    env.pop("PICARDKIT_PURE", None)
    if pure:
        env["PICARDKIT_PURE"] = "1"
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _MODULE_PROBE, str(out), *argv],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(out.read_text())
    assert result["code"] == 0, proc.stderr
    return result


def _loaded(modules, names):
    """The modules among `modules` that are one of `names` or inside one."""
    return sorted(m for m in modules for n in names if m == n or m.startswith(n + "."))


def _warm_elliptic(tmp_path, capsys):
    spec = elliptic_spec(tmp_path)
    cache = str(tmp_path / "cache")
    assert run_cli(capsys, "betti", spec, "--cache-dir", cache, "--no-timing")[0] == 0
    return [spec, "--cache-dir", cache, "--eval-budget", "1", "--no-timing"]


@pytest.mark.parametrize("command", ["betti", "zeta"])
def test_warm_variety_request_imports_no_other_subsystem(tmp_path, capsys, command):
    result = _modules_after(tmp_path, command, *_warm_elliptic(tmp_path, capsys))
    assert _loaded(result["modules"], VARIETY_UNUSED) == []
    if result["backend"] == "c":
        assert "picardkit.counting.kernel_py" not in result["modules"]


def test_classes_load_only_when_a_separable_level_is_counted(tmp_path, capsys):
    # the quadric's blocks {x0, x3} and {x1, x2} send its levels to the
    # cyclotomic classes; once they are cached, nothing loads that code
    spec = quadric_spec(tmp_path)
    cache = str(tmp_path / "cache")
    cold = _modules_after(tmp_path, "betti", spec, "--cache-dir", cache, "--no-timing")
    assert "picardkit.counting.classes" in cold["modules"]
    warm = _modules_after(tmp_path, "betti", spec, "--cache-dir", cache, "--eval-budget", "1",
                          "--no-timing")
    assert "picardkit.counting.classes" not in warm["modules"]
    chart = _modules_after(tmp_path, "betti", joined_quadric_spec(tmp_path), "--no-timing",
                           "--cache-dir", str(tmp_path / "joined"))
    assert "picardkit.counting.classes" not in chart["modules"]


def test_pure_backend_forced_by_environment(tmp_path, capsys):
    result = _modules_after(tmp_path, "betti", *_warm_elliptic(tmp_path, capsys), pure=True)
    assert result["backend"] == "pure"
    assert "picardkit.counting._ckernel" not in result["modules"]


def _galmod_requests(tmp_path):
    table = size_table_from_profile(3, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4)
    family = {"ell": 5, "t": 0, "modules": [
        {"ell": 5, "n": 1, "invariantFactors": [1, 1], "actions": [[[1, 0], [0, 1]]]},
    ]}
    return {
        "torsion": ["torsion", write_json(tmp_path / "table.json", table.to_json()), "-i", "2"],
        "galois-rank": ["galois-rank", write_json(tmp_path / "family.json", family)],
    }


def test_galmod_requests_import_no_counting(tmp_path):
    for command, argv in _galmod_requests(tmp_path).items():
        result = _modules_after(tmp_path, *argv, "--no-timing")
        assert "picardkit.galmod" in result["modules"]
        assert _loaded(result["modules"], GALMOD_UNUSED) == []
        # only fixed_exponent uses a lattice helper, imported where it runs
        assert ("picardkit.lattice" in result["modules"]) == (command == "galois-rank")


def test_dovetail_demo_imports_only_dovetail(tmp_path):
    result = _modules_after(tmp_path, "dovetail", "--demo", "--no-timing")
    assert _loaded(result["modules"], ["picardkit"]) == [
        "picardkit", "picardkit.cli", "picardkit.dovetail",
    ]


def _request(tmp_path, command):
    """A cold request of `command` that exits 0: the quadric surface for the
    variety subcommands, the galmod tables, the dovetail demo."""
    if command in ("torsion", "galois-rank"):
        return _galmod_requests(tmp_path)[command]
    if command == "dovetail":
        return ["dovetail", "--demo"]
    spec = quadric_spec(tmp_path)
    tail = ["--cache-dir", str(tmp_path / "cache")]
    if command == "count":
        return ["count", spec, "-n", "2", *tail]
    if command == "tate-bound":
        return ["tate-bound", spec, "-p", "1", *tail]
    if command == "rank":
        cycles = write_json(tmp_path / "cycles.json", {
            "basisCycles": ["ruling-a", "ruling-b"],
            "pairings": [[1, 0], [0, 1]],
            "action": {"generators": [], "relations": []},
        })
        return ["rank", "--zeta", spec, "--cycles", cycles, *tail]
    return [command, spec, *tail]


@pytest.mark.parametrize("command", [
    "count", "zeta", "betti", "tate-bound", "rank", "torsion", "galois-rank", "dovetail",
])
def test_no_request_imports_dataclasses_or_inspect(tmp_path, command):
    # `dataclasses` imports inspect, ast, dis and tokenize: about 10 ms of
    # start-up that every request would pay
    result = _modules_after(tmp_path, *_request(tmp_path, command), "--no-timing")
    assert _loaded(result["modules"], ["dataclasses", "inspect"]) == []


@pytest.mark.parametrize("command", [
    "count", "zeta", "betti", "tate-bound", "rank", "torsion", "galois-rank", "dovetail", "--help",
    "pade-zeta", "pade-betti",
])
def test_no_request_imports_argparse_openssl_or_fractions(tmp_path, command):
    # argparse loads gettext and locale, hashlib OpenSSL's _hashlib, and
    # fractions decimal and numbers: start-up that no result needs.  The
    # Pade route (a spec or --budget with a Betti-sum budget) stays in Z
    # too.  src/ has no annotations to defer, so no module imports
    # __future__ either.
    cache = ["--cache-dir", str(tmp_path / "cache")]
    if command == "--help":
        argv = ["--help"]
    elif command == "pade-zeta":
        argv = ["zeta", p2_spec(tmp_path), *cache, "--no-timing"]
    elif command == "pade-betti":
        argv = ["betti", quadric_spec(tmp_path), "--budget", "4", *cache, "--no-timing"]
    else:
        argv = [*_request(tmp_path, command), "--no-timing"]
    result = _modules_after(tmp_path, *argv)
    unused = ["argparse", "gettext", "_hashlib", "fractions", "decimal", "__future__"]
    assert _loaded(result["modules"], unused) == []


@pytest.mark.parametrize("command", [
    "count", "zeta", "betti", "tate-bound", "rank", "torsion", "galois-rank", "dovetail",
])
def test_no_request_leaves_work_for_interpreter_teardown(tmp_path, command):
    # `run` ends the process with os._exit, which skips atexit handlers and
    # joins no thread: a request must register none and leave none running.
    # Counting threads are plain threading.Thread objects, so even
    # `--threads 2` loads neither concurrent.futures nor logging, whose
    # import registers an atexit handler
    argv = [*_request(tmp_path, command), "--no-timing"]
    if command == "count":
        argv = ["count", joined_quadric_spec(tmp_path), *argv[2:], "--threads", "2"]
    result = _modules_after(tmp_path, *argv)
    assert result["new_atexit_handlers"] == 0
    assert _loaded(result["modules"], ["concurrent", "logging"]) == []
    assert result["threads"] == 1


def _entry_point_requests(tmp_path):
    spec = quadric_spec(tmp_path)
    composite = write_json(tmp_path / "f6.json", {"field": {"p": 6}, "ambientDim": 2})
    return {
        "cold-betti": ["betti", spec, "--cache-dir", "cache", "--no-timing"],
        "input-error": ["betti", composite, "--no-timing"],
        "usage-error": ["betti", "--no-timing"],
        "help": ["betti", "--help"],
        "dovetail": ["dovetail", "--demo", "--no-timing"],
    }


@pytest.mark.parametrize("name", ["cold-betti", "input-error", "usage-error", "help", "dovetail"])
def test_entry_points_give_the_same_output(tmp_path, capsys, monkeypatch, name):
    # each run starts in its own directory, so the relative cache is cold
    argv = _entry_point_requests(tmp_path)[name]
    outcomes = []
    for module in ("picardkit.cli", "picardkit"):
        cwd = tmp_path / module
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=source_env(), cwd=cwd,
        )
        outcomes.append((proc.returncode, proc.stdout, proc.stderr))
    (tmp_path / "main").mkdir()
    monkeypatch.chdir(tmp_path / "main")
    outcomes.append(run_cli(capsys, *argv))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert outcomes[0][0] == {"cold-betti": 0, "help": 0, "dovetail": 0}.get(name, 2)
    assert (tmp_path / "main" / "cache").is_dir() == (name == "cold-betti")


def _unwritable_stdout_run(argv, stdout, buffered, preexec_fn=None):
    env = source_env()
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "picardkit.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, env=env, preexec_fn=preexec_fn,
    )


def _assert_one_unexpected_error(proc):
    assert proc.returncode == 1, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("picardkit: unexpected error: ")


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["dovetail", "--demo", "--no-timing"], ["--help"]])
def test_full_stdout_exits_1_without_traceback(argv, buffered):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "w") as full:
        _assert_one_unexpected_error(_unwritable_stdout_run(argv, full, buffered))


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", [["dovetail", "--demo", "--no-timing"], ["--help"]])
def test_broken_pipe_exits_1_without_traceback(argv, buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # no reader: every write to the pipe fails with EPIPE
    try:
        _assert_one_unexpected_error(_unwritable_stdout_run(argv, write_end, buffered))
    finally:
        os.close(write_end)


@pytest.mark.parametrize("buffered", [True, False])
def test_closed_stdout_exits_1_without_traceback(buffered):
    # with descriptor 1 closed the interpreter sets sys.stdout to None
    proc = _unwritable_stdout_run(
        ["dovetail", "--demo", "--no-timing"], None, buffered, preexec_fn=lambda: os.close(1),
    )
    _assert_one_unexpected_error(proc)


@pytest.mark.parametrize("argv", [
    ["count", "SPEC", "-n", "0"],
    ["count", "SPEC", "-n", "-2"],
    ["count", "SPEC", "-n", "2", "--threads", "0"],
    ["count", "SPEC", "-n", "2", "--threads", "-1"],
    ["count", "SPEC", "-n", "2", "--eval-budget", "0"],
    ["betti", "SPEC", "--eval-budget", "-5"],
    ["dovetail", "--demo", "--rounds", "-3"],
    # more digits than int() converts: exit 1 with a ValueError
    ["dovetail", "--demo", "--rounds", "9" * 5000],
    ["count", "SPEC", "-n", "9" * 5000],
])
def test_numeric_option_below_one_exits_2_before_any_work(tmp_path, capsys, argv):
    cache = tmp_path / "cache"
    argv = [quadric_spec(tmp_path) if a == "SPEC" else a for a in argv]
    code, out, err = run_cli(capsys, *argv, "--cache-dir", str(cache), "--no-timing")
    assert code == 2
    assert out == ""
    assert "at least 1" in err
    assert not cache.exists()


def test_k3_digest_is_unchanged():
    # the built-in sha256 gives hashlib's digests, so existing caches and
    # rank checkpoints still match
    import hashlib

    from picardkit.counting import sha256, variety_hash
    from picardkit.ffield import make_field
    from picardkit.polysys import HomIdeal, poly_from_str

    ideal = HomIdeal([poly_from_str(K3_EQUATION, 4, make_field(2, 1))])
    assert variety_hash(ideal) == (
        "6c2bd4550a1d59a278195994eb6f50fc0dd573abc2135b4991f22f7c139532c9"
    )
    blob = b'{"cycles": {}, "p": 1, "variety": "6c2b"}'
    assert sha256(blob).hexdigest() == hashlib.sha256(blob).hexdigest()


# -- inputs the checked parsers and the counting limits used to get wrong ------


def _empty_spec(tmp_path, ambient, **flags):
    return write_json(tmp_path / f"p{ambient}.json", {"field": {"p": 2}, "ambientDim": ambient,
                                                      "generators": [], "flags": flags})


@pytest.mark.parametrize("generators", [["0"], ["x0 - x0"], ["2*x0"], ["0", "x1 - x1"]])
@pytest.mark.parametrize("command", [["count", "-n", "3"], ["zeta"], ["betti"]])
def test_all_zero_generators_give_the_zero_ideal(tmp_path, capsys, generators, command):
    # these exited 1 with AttributeError: the parsed list was not empty, so
    # the ideal, which drops zero polynomials, got no ambient ring
    name, *rest = command
    spec = write_json(tmp_path / "zero.json", {"field": {"p": 2}, "ambientDim": 2,
                                               "generators": generators, "flags": {"budget": 3}})
    got = run_cli(capsys, name, spec, *rest, "--no-timing", "--cache-dir", str(tmp_path / "a"))
    empty = run_cli(capsys, name, p2_spec(tmp_path), *rest, "--no-timing",
                    "--cache-dir", str(tmp_path / "b"))
    assert got == empty and got[0] == 0
    if name == "count":
        assert json.loads(got[1])["counts"]["values"] == [7, 21, 73]


def test_closed_form_is_charged_and_extends_no_field(tmp_path, capsys, monkeypatch):
    # P^3 in closed form costs one unit per chart, 4 at every level; it used
    # to find an irreducible polynomial of degree n first and charge nothing,
    # so -n 200 under a budget of 1 ran 100 s and exited 0
    from picardkit import counting

    monkeypatch.setattr(counting, "level_field", lambda *_: pytest.fail("a field was extended"))
    spec = _empty_spec(tmp_path, 3)
    code, out, _ = run_cli(capsys, "count", spec, "-n", "3", "--eval-budget", "4", "--no-timing",
                           "--cache-dir", str(tmp_path / "c"))
    assert (code, json.loads(out)["counts"]["values"]) == (0, [15, 85, 585])
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "count", spec, "-n", "200", "--eval-budget", "1",
                             "--no-timing", "--cache-dir", str(tmp_path / "d"))
    assert (code, out) == (3, "")
    assert time.perf_counter() - started < 1
    assert "estimated work exceeds budget 1 at n=1 (largest completed n = 0)" in err


def _longest_number(text):
    return max((len(run) for run in re.findall(r"\d+", text)), default=0)


def test_pade_reconstruction_is_charged_before_counting(tmp_path, capsys, monkeypatch):
    # M = 2B counts over P^N cost M^3 N log2(q) units: 864 for B = 3 on P^2
    # over F_2; B = 3000 counted 6,000 levels and ran past 30 s
    from picardkit import counting

    def run(budget, *argv):
        spec = write_json(tmp_path / "p2.json", {"field": {"p": 2}, "ambientDim": 2,
                                                 "generators": [], "flags": {"budget": budget}})
        return run_cli(capsys, "zeta", spec, *argv, "--no-timing",
                       "--cache-dir", str(tmp_path / f"c{budget}"))

    assert run(3, "--eval-budget", "864")[0] == 0
    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    started = time.perf_counter()
    for budget, argv in [(3, ["--eval-budget", "863"]), (3000, [])]:
        code, out, err = run(budget, *argv)
        assert (code, out) == (3, "")
        assert "estimated reconstruction work exceeds budget" in err
    assert time.perf_counter() - started < 2


@pytest.mark.parametrize("ambient, generators, argv", [
    # every chart was compiled and summed first: 60 s, then exit 1 printing
    # an estimate of more than 4,300 digits
    (20000, ["x0"], ["count", "-n", "1", "--eval-budget", "1"]),
    # P^14000 over F_2 can be printed, but chart 0 alone passes the budget
    (14000, ["x0"], ["count", "-n", "1", "--eval-budget", "1"]),
    (14000, ["x0"], ["zeta", "--eval-budget", "1"]),
    # the closed form's count has more digits than json prints: exit 1
    (20000, [], ["count", "-n", "1"]),
    # the closed form's last level: refused before the first is counted
    (3, [], ["count", "-n", "5000"]),
])
def test_huge_projective_space_exits_3_at_once(tmp_path, capsys, ambient, generators, argv):
    spec = write_json(tmp_path / "big.json", {"field": {"p": 2}, "ambientDim": ambient,
                                              "generators": generators,
                                              "flags": {"hypersurfaceDegree": 1}})
    started = time.perf_counter()
    code, out, err = run_cli(capsys, argv[0], spec, *argv[1:], "--no-timing",
                             "--cache-dir", str(tmp_path / "c"))
    assert (code, out) == (3, "")
    assert time.perf_counter() - started < 1
    assert "largest completed n = 0" in err
    assert _longest_number(err) < 30


@pytest.mark.parametrize("field", [{"p": 1000003, "e": 20}, {"p": 2, "e": 1000},
                                   {"p": 2**89 - 1}, {"p": 10**4000 + 1}])
def test_base_field_beyond_memory_exits_3_before_it_is_built(tmp_path, capsys, monkeypatch,
                                                              field):
    # F_{1000003^20} took hours to build, in search of its modulus
    from picardkit import ffield

    monkeypatch.setattr(ffield, "make_field", lambda *_: pytest.fail("the field was built"))
    spec = write_json(tmp_path / "f.json", {"field": field, "ambientDim": 2, "generators": []})
    code, out, err = run_cli(capsys, "count", spec, "-n", "1", "--no-timing",
                             "--cache-dir", str(tmp_path / "c"))
    assert (code, out) == (3, "")
    assert "physical memory" in err


@pytest.mark.parametrize("command", [["count", "-n", "1"], ["zeta"]])
@pytest.mark.parametrize("flags, argv", [
    ({"budget": 1}, []), ({"budget": "4"}, []), ({"hypersurfaceDegree": 2}, ["--budget", "1"]),
    ({"budget": 4, "hypersurfaceDegree": 0}, []), ({"budget": 4, "hypersurfaceDegree": "2"}, []),
    ({"budget": 4, "assumeSmooth": "no"}, []),
])
def test_every_command_checks_every_spec_flag(tmp_path, capsys, command, flags, argv):
    # `count` took each of these, and `zeta` too when a budget was given:
    # it checked hypersurfaceDegree only without one
    spec = write_json(tmp_path / "conic.json", {"field": {"p": 2}, "ambientDim": 2,
                                                "generators": ["x0*x2 + x1^2"], "flags": flags})
    code, out, err = run_cli(capsys, *command[:1], spec, *command[1:], *argv, "--no-timing",
                             "--eval-budget", "1", "--cache-dir", str(tmp_path / "c"))
    assert (code, out) == (2, "")
    assert "malformed variety spec: " in err and " must be " in err


def test_relation_that_fails_on_the_basis_cycles_is_rejected_before_counting(tmp_path, capsys):
    # the relation [1] says that the swap of the two rulings is the
    # identity; this was found only once the bounds met, after counting
    cycles = write_json(tmp_path / "cycles.json", {
        "basisCycles": ["a", "b"], "pairings": [[0, 1], [1, 0]],
        "action": {"generators": [[1, 0]], "relations": [[1]]}})
    code, out, err = run_cli(capsys, "rank", "--zeta", quadric_spec(tmp_path, p=3),
                             "--cycles", cycles, "--cache-dir", str(tmp_path / "c"),
                             "--eval-budget", "1", "--no-timing")
    assert (code, out) == (2, "")
    assert "malformed cycles file: relation [1] fails" in err


@pytest.mark.parametrize("command", ["torsion", "galois-rank"])
def test_prime_beyond_the_proven_primality_range_is_invalid_input(tmp_path, capsys, command):
    # Miller-Rabin with the first 12 prime bases decides primality only
    # below 3.3 * 10^24; 2^89 - 1 was taken on trust, and a 4,000-digit l
    # ran for seconds
    ell = 2**89 - 1
    if command == "torsion":
        table = size_table_from_profile(ell, [1, 0, 1], [[], [], []], 2).to_json()
        argv = ["torsion", write_json(tmp_path / "t.json", table), "-i", "0"]
    else:
        family = {"t": 0, "modules": [_module(ell, 1, [1])]}
        argv = ["galois-rank", write_json(tmp_path / "f.json", family)]
    code, out, err = run_cli(capsys, *argv, "--no-timing")
    assert (code, out) == (2, "")
    assert "primality is decided only below 3.3 * 10**24" in err


def test_json_nested_beyond_the_decoder_is_bad_json(tmp_path, capsys):
    # the decoder's RecursionError used to exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run_cli(capsys, "torsion", str(path), "-i", "0", "--no-timing")
    assert (code, out) == (2, "")
    assert "bad JSON" in err
