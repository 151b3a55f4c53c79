"""Deterministic fair interleaving of semidecision procedures.

Countably many tasks run "in parallel" with task i getting an asymptotic
2^-i share of the steps.  The share is realized by a doubling-round
schedule: in round R, task i <= R receives 2^(R-i) quanta.  That structure
is deterministic and testable, unlike wall-clock time slicing.  A strict
day/night alternation of two tasks covers the paired-search pattern where
one side is guaranteed to halt.
"""

from __future__ import annotations

import json


class Task:
    """A resumable unit of work.  Subclasses implement step().

    step() advances one bounded unit and returns ("running", None) or
    ("halted", result).  It must be deterministic given the task state;
    halted is absorbing (step is never called again).
    """

    def step(self):
        raise NotImplementedError


class PlantedTask(Task):
    """Halts with `result` after exactly `halt_after` steps (0 = never)."""

    def __init__(self, halt_after, result=None):
        self.halt_after = halt_after
        self.result = result
        self.steps = 0

    def step(self):
        self.steps += 1
        if self.halt_after and self.steps >= self.halt_after:
            return "halted", self.result
        return "running", None


class IntegerSearchTask(Task):
    """Search for the least m >= 1 with predicate(m); a stub standing in for
    the open-ended geometric searches (moving cycles into transverse
    position, exhibiting algebraic-equivalence families) that this package
    deliberately does not implement."""

    def __init__(self, predicate):
        self.predicate = predicate
        self.m = 0

    def step(self):
        self.m += 1
        if self.predicate(self.m):
            return "halted", self.m
        return "running", None


class Schedule:
    __slots__ = ("quantum",)

    def __init__(self, quantum=1):
        self.quantum = quantum  # step() calls per quantum


class TraceEvent:
    __slots__ = ("round", "task_id", "quanta", "status", "result")

    def __init__(self, round, task_id, quanta, status, result=None):
        self.round = round
        self.task_id = task_id
        self.quanta = quanta
        self.status = status  # "running" | "halted" | "failed"
        self.result = result

    def to_json(self):
        out = {
            "round": self.round,
            "taskId": self.task_id,
            "quanta": self.quanta,
            "status": self.status,
        }
        if self.status == "halted":
            out["result"] = self.result
        return out


class RunResult:
    __slots__ = ("events", "results", "failures", "rounds", "total_quanta")

    def __init__(self, events, results, failures, rounds, total_quanta):
        self.events = events
        self.results = results  # task_id -> result for halted tasks
        self.failures = failures  # task_id -> error string
        self.rounds = rounds
        self.total_quanta = total_quanta

    def quanta_per_task(self):
        out = {}
        for ev in self.events:
            out[ev.task_id] = out.get(ev.task_id, 0) + ev.quanta
        return out


def run_geometric(
    tasks,
    on_halt=None,
    schedule=None,
    max_rounds=None,
    max_quanta=None,
    task_source=None,
):
    """Drive tasks under the doubling-round schedule.

    tasks: initial list (task 1 first).  task_source(i) may lazily provide
    task number i (1-based) when the schedule first reaches it; return None
    for "no such task".  on_halt(task_id, result) fires exactly once per
    halted task, in schedule order; a truthy return stops the run.  A task
    that raises is marked failed and isolated; the others continue.

    Returns a RunResult whose event list is bit-reproducible for identical
    inputs.
    """
    schedule = schedule or Schedule()
    known = {i + 1: t for i, t in enumerate(tasks)}
    exhausted_source = task_source is None
    state = {}  # task_id -> "running" | "halted" | "failed"
    for i in known:
        state[i] = "running"
    results = {}
    failures = {}
    events = []
    total_quanta = 0
    rounds = 0
    stop = False

    r = 0
    while not stop:
        r += 1
        if max_rounds is not None and r > max_rounds:
            break
        progressed = False
        for i in range(1, r + 1):
            if i not in known and not exhausted_source:
                t = task_source(i)
                if t is None:
                    exhausted_source = True
                else:
                    known[i] = t
                    state[i] = "running"
            task = known.get(i)
            if task is None or state[i] != "running":
                continue
            share = 2 ** (r - i)
            if max_quanta is not None:
                share = min(share, max_quanta - total_quanta)
                if share <= 0:
                    stop = True
                    break
            used = 0
            status = "running"
            result = None
            for _ in range(share * schedule.quantum):
                used += 1
                try:
                    st, payload = task.step()
                except Exception as exc:  # noqa: BLE001 - isolation contract
                    status = "failed"
                    failures[i] = f"{type(exc).__name__}: {exc}"
                    break
                if st == "halted":
                    status = "halted"
                    result = payload
                    break
            quanta_used = -(-used // schedule.quantum) if used else 0
            total_quanta += quanta_used
            progressed = progressed or used > 0
            events.append(
                TraceEvent(round=r, task_id=i, quanta=quanta_used, status=status, result=result)
            )
            state[i] = status
            if status == "halted":
                results[i] = result
                if on_halt is not None and on_halt(i, result):
                    stop = True
                    break
            if max_quanta is not None and total_quanta >= max_quanta:
                stop = True
                break
        rounds = r
        if stop:
            break
        if exhausted_source and all(s != "running" for s in state.values()):
            break
        if not progressed and exhausted_source:
            break
    return RunResult(
        events=events,
        results=results,
        failures=failures,
        rounds=rounds,
        total_quanta=total_quanta,
    )


def day_night(task_day, task_night, cap=None, quantum=1):
    """Strict alternation, day first, one quantum each, until one halts.

    Returns ("day" | "night", result) for the first halter, or
    ("undecided", None) when both are still running after `cap` quanta
    apiece.  The caller guarantees at least one side halts, or sets a cap.
    """
    spent = 0
    while cap is None or spent < cap:
        spent += 1
        for name, task in (("day", task_day), ("night", task_night)):
            for _ in range(quantum):
                st, payload = task.step()
                if st == "halted":
                    return name, payload
    return "undecided", None


def export_trace(events, fh):
    """Newline-delimited JSON trace of scheduler events."""
    for ev in events:
        fh.write(json.dumps(ev.to_json(), sort_keys=True) + "\n")


def reference_halt_order(specs, quantum=1, max_rounds=64):
    """Discrete-event oracle: halting order under the doubling-round rule.

    specs: list of halt_after step counts (0 = never) for tasks 1..n.
    Replays the arithmetic of the schedule without Task objects; used by
    tests to cross-check run_geometric.
    """
    steps_done = [0] * len(specs)
    halted = [False] * len(specs)
    order = []
    r = 0
    while not all(h or s == 0 for h, s in zip(halted, [s for s in specs])) and r < max_rounds:
        r += 1
        for i in range(1, min(r, len(specs)) + 1):
            idx = i - 1
            if halted[idx] or specs[idx] == 0:
                if specs[idx] == 0 and not halted[idx]:
                    steps_done[idx] += 2 ** (r - i) * quantum
                continue
            budget = 2 ** (r - i) * quantum
            remaining = specs[idx] - steps_done[idx]
            if remaining <= budget:
                steps_done[idx] = specs[idx]
                halted[idx] = True
                order.append(i)
            else:
                steps_done[idx] += budget
    return order
