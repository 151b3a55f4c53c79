"""Deterministic fair interleaving of semidecision procedures.

A list of tasks runs "in parallel" with task i getting an asymptotic 2^-i
share of the steps.  The share is realized by a doubling-round schedule: in
round R, task i <= R receives 2^(R-i) quanta of one step each.  That
structure is deterministic and testable, unlike wall-clock time slicing.
"""

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


def worst_case_quanta(ntasks, max_rounds):
    """The quanta of `max_rounds` rounds in which none of `ntasks` tasks
    halts: task i gets 2^(r-i) in each round r >= i, 2^(max_rounds-i+1) - 1
    in all."""
    return sum(2 ** (max_rounds - i + 1) - 1 for i in range(1, min(ntasks, max_rounds) + 1))


def run_geometric(tasks, max_rounds):
    """Drive tasks (task 1 first) under the doubling-round schedule for at
    most `max_rounds` rounds, or until no task is running.

    A task that raises is marked failed and isolated; the others continue.
    Returns a RunResult whose event list is bit-reproducible for identical
    inputs.
    """
    state = {i: "running" for i in range(1, len(tasks) + 1)}
    results = {}
    failures = {}
    events = []
    total_quanta = 0
    rounds = 0
    for r in range(1, max_rounds + 1):
        rounds = r
        for i in range(1, min(r, len(tasks)) + 1):
            if state[i] != "running":
                continue
            task = tasks[i - 1]
            used = 0
            status = "running"
            result = None
            for _ in range(2 ** (r - i)):
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
            total_quanta += used
            events.append(TraceEvent(r, i, used, status, result))
            state[i] = status
            if status == "halted":
                results[i] = result
        if all(s != "running" for s in state.values()):
            break
    return RunResult(
        events=events,
        results=results,
        failures=failures,
        rounds=rounds,
        total_quanta=total_quanta,
    )


def export_trace(events, fh):
    """Newline-delimited JSON trace of scheduler events."""
    for ev in events:
        fh.write(json.dumps(ev.to_json(), sort_keys=True) + "\n")
