import io
import json
import random

from picardkit.dovetail import (
    IntegerSearchTask,
    PlantedTask,
    Task,
    export_trace,
    run_geometric,
    worst_case_quanta,
)

from oracles import reference_halt_order


def halted_in_order(res):
    """(task, result) of each halt, in schedule order."""
    return [(ev.task_id, ev.result) for ev in res.events if ev.status == "halted"]


def quanta_per_task(res):
    out = {}
    for ev in res.events:
        out[ev.task_id] = out.get(ev.task_id, 0) + ev.quanta
    return out


def test_single_task_halts():
    res = run_geometric([PlantedTask(5, "done")], max_rounds=10)
    halted = halted_in_order(res)
    assert res.results == {1: "done"}
    assert halted == [(1, "done")]
    # total steps spent on task 1 before halting: exactly 5
    assert sum(ev.quanta for ev in res.events if ev.task_id == 1) >= 5


def test_only_third_task_halts_share_accounting():
    tasks = [PlantedTask(0), PlantedTask(0), PlantedTask(3), PlantedTask(0)]
    # task 3 halts in round 4, its second round
    res = run_geometric(tasks, max_rounds=4)
    fired = [i for i, _ in halted_in_order(res)]
    assert fired == [3]
    per = quanta_per_task(res)
    # task 3 started in round 3 and halted quickly; tasks 1-2 got the
    # geometric lion's share
    assert per[1] > per[3] and per[2] > per[3]


def test_halt_order_matches_reference_simulation():
    rng = random.Random(13)
    for _ in range(50):
        n = rng.randint(2, 6)
        specs = [rng.choice([0, rng.randint(1, 20)]) for _ in range(n)]
        tasks = [PlantedTask(s) for s in specs]
        got = [i for i, _ in halted_in_order(run_geometric(tasks, max_rounds=12))]
        expected = reference_halt_order(specs, max_rounds=12)
        assert got == expected, (specs, got, expected)


def test_determinism_bit_identical():
    def build():
        return [PlantedTask(7), PlantedTask(0), PlantedTask(19), PlantedTask(2)]

    r1 = run_geometric(build(), max_rounds=12)
    r2 = run_geometric(build(), max_rounds=12)
    assert [e.to_json() for e in r1.events] == [e.to_json() for e in r2.events]


def test_fairness_bound():
    # never-halting tasks: after each completed round, task i has received
    # at least floor(S * 2^-i) - R quanta of the S spent so far.  (Within a
    # round the doubling allocation is intentionally bursty, so the bound is
    # a round-boundary invariant.)  16 rounds spend over 10^5 quanta.
    tasks = [PlantedTask(0) for _ in range(8)]
    res = run_geometric(tasks, max_rounds=16)
    spent = {i: 0 for i in range(1, 9)}
    total = 0
    current_round = 0
    checked = 0
    for ev in res.events:
        if ev.round != current_round and current_round >= 8:
            for i in range(1, 9):
                assert spent[i] >= (total >> i) - current_round
            checked += 1
        current_round = ev.round
        total += ev.quanta
        spent[ev.task_id] = spent.get(ev.task_id, 0) + ev.quanta
    assert checked >= 5
    assert total >= 10**5 - 1


def test_completeness_bound():
    # a task halting after k steps is reaped within round i + log2(k) + 1
    import math

    for i, k in [(1, 5), (2, 16), (3, 3), (4, 63)]:
        tasks = [PlantedTask(0) for _ in range(i - 1)] + [PlantedTask(k)]
        res = run_geometric(tasks, max_rounds=12)
        halt_round = next(ev.round for ev in res.events if ev.status == "halted")
        assert halt_round <= i + math.ceil(math.log2(k)) + 1


def test_failure_isolation():
    class Boom(Task):
        def step(self):
            raise RuntimeError("boom")

    res = run_geometric([Boom(), PlantedTask(4, "ok")], max_rounds=10)
    assert res.failures[1].startswith("RuntimeError")
    assert res.results[2] == "ok"


def test_integer_search_task():
    res = run_geometric([IntegerSearchTask(lambda m: m * m > 50)], max_rounds=20)
    assert res.results[1] == 8


def test_trace_export_round_trips():
    res = run_geometric([PlantedTask(3, 1), PlantedTask(5, 2)], max_rounds=10)
    buf = io.StringIO()
    export_trace(res.events, buf)
    lines = buf.getvalue().strip().splitlines()
    assert len(lines) == len(res.events)
    for line in lines:
        rec = json.loads(line)
        assert {"round", "taskId", "quanta", "status"} <= set(rec)


def test_worst_case_quanta_is_the_schedule_of_tasks_that_never_halt():
    for ntasks in range(6):
        for rounds in range(12):
            res = run_geometric([PlantedTask(0) for _ in range(ntasks)], max_rounds=rounds)
            assert worst_case_quanta(ntasks, rounds) == res.total_quanta, (ntasks, rounds)
