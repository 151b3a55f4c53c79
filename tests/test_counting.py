import fcntl
import json
import math
import subprocess
import sys
import time

import pytest

from picardkit.counting import (
    BudgetExceededError,
    CountCache,
    count_charts,
    count_points,
    count_tower,
    separable_blocks,
    variety_hash,
)
from picardkit.counting.charts import compile_charts
from picardkit.counting.kernel import embedding, field_tables, trace_mask
from picardkit.counting import kernel_py
from picardkit.ffield import level_field, make_field
from picardkit.polysys import HomIdeal, poly_from_str


def ideal_over(p, e, nvars, *gens):
    f = make_field(p, e)
    return HomIdeal([poly_from_str(g, nvars, f) for g in gens], nvars, f)


from conftest import (
    brute_force_chart_count,
    brute_force_projective_count as brute_force_count,
    source_env,
)


def test_zech_tables_consistent_with_field_arithmetic():
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        f = level_field(p, e)
        exp, log, zech = field_tables(f)
        q = f.q
        for a in range(q):
            for b in range(q):
                # table mul
                if a == 0 or b == 0:
                    got_mul = 0
                else:
                    got_mul = exp[(log[a] + log[b]) % (q - 1)]
                assert got_mul == f.mul(a, b)
                # table add via zech
                if a == 0:
                    got_add = b
                elif b == 0:
                    got_add = a
                else:
                    z = zech[(log[b] - log[a]) % (q - 1)]
                    got_add = 0 if z < 0 else exp[(log[a] + z) % (q - 1)]
                assert got_add == f.add(a, b)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (5, 1), (3, 2)])
def test_projective_line(p, n):
    ideal = ideal_over(p, 1, 2)
    assert count_points(ideal, n) == p**n + 1


def test_projective_plane_f3():
    ideal = ideal_over(3, 1, 3)
    assert count_points(ideal, 1) == 13


@pytest.mark.parametrize("q,m", [(2, 2), (3, 2), (5, 2), (2, 3), (3, 3), (5, 3)])
def test_projective_space_closed_form(q, m):
    ideal = ideal_over(q, 1, m + 1)
    for n in (1, 2, 3, 4):
        assert count_points(ideal, n) == sum(q ** (n * i) for i in range(m + 1))


def test_quadric_surface_f2_is_p1xp1():
    ideal = ideal_over(2, 1, 4, "x0*x3 + x1*x2")
    for n in (1, 2, 3, 4):
        q = 2**n
        assert count_points(ideal, n) == (q + 1) ** 2


def test_quadric_surface_f3():
    ideal = ideal_over(3, 1, 4, "x0*x3 - x1*x2")
    for n in (1, 2):
        q = 3**n
        assert count_points(ideal, n) == (q + 1) ** 2


def test_elliptic_curve_f5_hasse():
    ideal = ideal_over(5, 1, 3, "x1^2*x2 - x0^3 - x0*x2^2 - x2^3")
    series = count_tower(ideal, 2)
    assert series.counts[0] == brute_force_count(ideal, 1)
    assert abs(series.counts[0] - 6) <= 2 * math.sqrt(5)
    series.validate()


def test_matches_brute_force_oracle():
    cases = [
        ideal_over(2, 1, 3, "x0^2 + x1*x2"),
        ideal_over(3, 1, 3, "x0^3 + x1^3 + x2^3"),
        ideal_over(2, 2, 3, "x0^2 + g*x1*x2"),
        ideal_over(2, 1, 4, "x0*x3 + x1*x2", "x0^2 + x1^2"),
        # quadratic slices with a linear term in characteristic 2: exercises
        # the Artin-Schreier trace test in the root-count shortcut
        ideal_over(2, 1, 3, "x1^2*x2 + x1*x2^2 + x0^3"),
        ideal_over(3, 1, 3, "x1^2*x2 - x0^3 - x0*x2^2 - x2^3"),
    ]
    for ideal in cases:
        for n in (1, 2):
            assert count_points(ideal, n) == brute_force_count(ideal, n)


def test_pure_kernel_matches_chart_oracle():
    # every chart the kernel resolves by gcd root counting, against direct
    # evaluation at each of the chart's points
    cases = [
        ideal_over(2, 1, 3, "x0^2 + x1*x2"),
        ideal_over(5, 1, 3, "x1^2*x2 - x0^3 - x0*x2^2 - x2^3"),
        ideal_over(3, 1, 4, "x0*x3 - x1*x2"),
        ideal_over(2, 1, 4, "x0^3 + x1^3 + x2^3 + x3^3"),
        ideal_over(2, 1, 3, "x1^2*x2 + x1*x2^2 + x0^3"),
    ]
    for ideal in cases:
        for n in (1, 2, 3):
            ext = level_field(ideal.domain.p, ideal.domain.e * n)
            tables = kernel_py.build_tables(ext.p, ext.e, ext.modulus)
            image = embedding(ideal.domain, tables)
            charts = [c for c in compile_charts(ideal) if c.nfree and c.gen_terms]
            assert charts
            for chart in charts:
                hi = 1 if chart.nprefix == 0 else ext.q
                got = kernel_py.count_chart(
                    ext.q, ext.p, trace_mask(ext.p, tables), *tables,
                    chart.terms_over(image), chart.nprefix, 1, 0, hi,
                )
                assert got == brute_force_chart_count(ideal, n, chart.chart)


def test_parallel_determinism():
    ideal = ideal_over(3, 1, 4, "x0*x3 - x1*x2 + x0*x1")  # one block: the charts count it
    assert separable_blocks(ideal) == []
    lone = count_points(ideal, 2, threads=1)
    many = count_points(ideal, 2, threads=4)
    assert lone == many


class _DeferredThread:
    """Stands in for threading.Thread: runs its target at join(), so no
    thread starts, and records at each join how many were started and not
    yet joined (the number of workers that would run at once)."""

    live = []
    record = []

    def __init__(self, target, args=()):
        self.target, self.args = target, args

    def start(self):
        self.live.append(self)

    def join(self):
        self.record.append(len(self.live))
        self.live.remove(self)
        self.target(*self.args)


@pytest.mark.parametrize("affinity", [True, False])
def test_worker_threads_capped_at_usable_cpus(monkeypatch, affinity):
    import os
    import threading

    running = threading.active_count()
    monkeypatch.setattr(threading, "Thread", _DeferredThread)
    monkeypatch.setattr(_DeferredThread, "record", [])
    workers = _DeferredThread.record
    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
    else:  # platforms without affinity masks fall back to the CPU count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    # the x0*x1 term joins the quadric's two blocks, so the charts count it
    ideal = ideal_over(3, 1, 4, "x0*x3 - x1*x2 + x0*x1")
    assert separable_blocks(ideal) == []
    lone = count_points(ideal, 3, threads=1)
    assert workers == []
    assert count_points(ideal, 3, threads=5000) == lone
    assert workers and max(workers) == 3
    workers.clear()
    assert count_points(ideal, 3, threads=2) == lone
    assert workers and max(workers) == 2
    monkeypatch.undo()
    assert threading.active_count() == running


def test_worker_exception_is_raised_in_the_caller(monkeypatch):
    # count_chart is looked up on the backend module at call time, as the
    # benchmark's tracer needs; a worker's error reaches the caller
    import os

    from picardkit.counting.kernel import backend_module

    def boom(*args):
        if args[-2] > 0:  # every range but the first
            raise ArithmeticError("kernel failed")
        return 0

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(backend_module(), "count_chart", boom)
    ideal = ideal_over(3, 1, 4, "x0*x3 - x1*x2 + x0*x1")  # one block: the charts count it
    assert separable_blocks(ideal) == []
    with pytest.raises(ArithmeticError, match="kernel failed"):
        count_points(ideal, 2, threads=2)


def test_budget_error():
    ideal = ideal_over(5, 1, 4, "x0^4 + x1^4 + x2^4 + x3^4")
    with pytest.raises(BudgetExceededError):
        count_points(ideal, 6, budget=1000)


def test_budget_charges_field_tables(monkeypatch):
    # a conic on P^1 has a tiny chart cost, but the tables over F_{2^22}
    # would be three int64 arrays of length 2^22
    def refuse(ext):
        pytest.fail("field tables were built past the budget")

    monkeypatch.setattr("picardkit.counting.field_tables", refuse)
    ideal = ideal_over(2, 1, 2, "x0^2 + x0*x1 + x1^2")
    with pytest.raises(BudgetExceededError):
        count_points(ideal, 22, budget=1000)


def test_memory_check_refuses_tables_before_building(monkeypatch):
    # n = 33 costs about 2^33 work units, under the default budget, but its
    # tables need 24 * 2^33 bytes (192 GiB)
    def refuse(ext):
        pytest.fail("field tables were built past physical memory")

    monkeypatch.setattr("picardkit.counting.physical_memory", lambda: 2**30)
    monkeypatch.setattr("picardkit.counting.field_tables", refuse)
    ideal = ideal_over(2, 1, 2, "x0^2 + x0*x1 + x1^2")
    with pytest.raises(BudgetExceededError, match="physical memory"):
        count_points(ideal, 33)


@pytest.mark.parametrize("nvars,gen", [(2, "x0^2 + x0*x1 + x1^2"), (3, "x0^3 + x1^3 + x2^3")])
def test_level_tables_are_freed_once_counted(monkeypatch, nvars, gen):
    # on the charts and over classes: a cache of field tables would hold
    # every level of a tower at once, past the per-level memory check
    import weakref

    build = field_tables
    refs = []

    def recording(field):
        tables = build(field)
        refs.append(weakref.ref(tables[0]))
        return tables

    monkeypatch.setattr("picardkit.counting.field_tables", recording)
    ideal = ideal_over(2, 1, nvars, gen)
    for n in (1, 2, 3):
        count_points(ideal, n)
        assert len(refs) == n and refs[-1]() is None


@pytest.mark.parametrize("k", range(1, 13))
def test_trace_mask_gives_the_absolute_trace(k):
    # Tr(x) = x + x^2 + ... + x^(2^(k-1)) by `FieldDesc` arithmetic on
    # indices, for every x in F_{2^k}
    f = level_field(2, k)
    mask = trace_mask(2, field_tables(f))
    for x in range(f.q):
        trace, power = x, x
        for _ in range(k - 1):
            power = f.mul(power, power)
            trace = f.add(trace, power)
        assert trace in (0, 1)
        assert bin(x & mask).count("1") % 2 == trace


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (3, 2), (7, 2)])
def test_trace_mask_is_zero_in_odd_characteristic(p, e):
    assert trace_mask(p, field_tables(level_field(p, e))) == 0


@pytest.mark.parametrize(
    "p,e,nvars,gens,on_x",
    [
        (2, 2, 3, ["x0^2 + g*x1*x2"], 1),  # no x2^2 term
        (2, 2, 3, ["x0^2 + x1*x2 + g*x2^2"], 0),
        (3, 1, 4, ["x0*x3 - x1*x2", "x0^2 + x3^2"], 0),  # one generator of two has x3^2
        (3, 2, 3, ["x1^2*x2 - x0^3 - g*x0*x2^2"], 1),
        (2, 1, 3, ["1"], 0),  # a nonzero constant generator: no points at all
        (2, 2, 3, ["x0^2 + x1*x2", "g"], 0),
    ],
)
def test_origin_chart_matches_brute_force(p, e, nvars, gens, on_x):
    # the last chart is the point (0, ..., 0, 1), on X when no generator
    # keeps a term there
    ideal = ideal_over(p, e, nvars, *gens)
    origin = compile_charts(ideal)[-1]
    for n in (1, 2):
        tables = field_tables(level_field(p, e * n))
        image = embedding(ideal.domain, tables)
        got = count_charts([origin], p, image, kernel_py, tables, 1)
        assert got == brute_force_chart_count(ideal, n, nvars - 1) == on_x
        assert count_points(ideal, n) == brute_force_count(ideal, n)


def test_tower_budget_reports_completed(monkeypatch):
    # a quartic whose variables do not separate: its chart estimate passes
    # the budget at n = 1 and exceeds it further up, so the tower is refused
    # before level 1 is counted, with no level in a cache
    from picardkit import counting

    ideal = ideal_over(5, 1, 4, "x0^3*x1 + x1^3*x2 + x2^3*x3 + x3^3*x0")
    assert separable_blocks(ideal) == []
    monkeypatch.setattr(counting, "count_points", lambda *_, **__: pytest.fail("counted"))
    with pytest.raises(BudgetExceededError, match="at n=3") as err:
        count_tower(ideal, 8, budget=10**6)
    assert err.value.completed == 0


def test_tower_refusal_counts_the_leading_cached_levels(tmp_path):
    # levels 1 and 2 of the quartic above fit the budget and are cached;
    # n = 3 is refused before anything is counted
    ideal = ideal_over(5, 1, 4, "x0^3*x1 + x1^3*x2 + x2^3*x3 + x3^3*x0")
    cache = CountCache(str(tmp_path / "counts.ndjson"))
    count_tower(ideal, 2, cache=cache, budget=10**6)
    with pytest.raises(BudgetExceededError, match="at n=3") as err:
        count_tower(ideal, 8, cache=cache, budget=10**6)
    assert err.value.completed == 2
    # a tower the cache holds is never planned, so no budget refuses it
    held = [cache.get(variety_hash(ideal), n) for n in (1, 2)]
    assert count_tower(ideal, 2, cache=cache, budget=1).counts == held


@pytest.mark.parametrize("gen, compiled", [
    # the K3 over F_2 takes the charts, compiled once for its four levels
    ("x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3", 1),
    # the Fermat cubic surface is counted over classes, with no chart
    ("x0^3 + x1^3 + x2^3 + x3^3", 0),
])
def test_tower_compiles_its_charts_at_most_once(monkeypatch, gen, compiled):
    from picardkit import counting

    calls = []

    def recording(ideal):
        calls.append(ideal)
        return compile_charts(ideal)

    ideal = ideal_over(2, 1, 4, gen)
    expected = [count_points(ideal, n) for n in range(1, 5)]
    monkeypatch.setattr(counting, "compile_charts", recording)
    assert count_tower(ideal, 4).counts == expected
    assert len(calls) == compiled


def test_cache_round_trip(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(str(path))
    ideal = ideal_over(2, 1, 3, "x0^2 + x1*x2")
    cold = count_tower(ideal, 3, cache=cache)
    warm_cache = CountCache(str(path))
    warm = count_tower(ideal, 3, cache=warm_cache)
    assert cold.counts == warm.counts
    # all three records present on disk
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3


def test_cache_truncates_corrupt_tail(tmp_path):
    path = tmp_path / "counts.ndjson"
    cache = CountCache(str(path))
    cache.put("abc", 1, 7)
    with open(path, "a") as fh:
        fh.write('{"hash": "def", "n": 2, "cou')  # interrupted write
    reloaded = CountCache(str(path))
    assert reloaded.get("abc", 1) == 7
    assert reloaded.get("def", 2) is None
    # file is clean again
    for line in path.read_text().splitlines():
        json.loads(line)


def test_cache_keeps_records_after_a_corrupt_line(tmp_path):
    path = tmp_path / "counts.ndjson"
    first = json.dumps({"hash": "abc", "n": 1, "count": 7})
    last = json.dumps({"hash": "abc", "n": 2, "count": 9})
    path.write_text(first + "\n{not json\n" + last + "\n")
    for _ in range(2):  # the first load must not cut the file
        cache = CountCache(str(path))
        assert cache.get("abc", 1) == 7
        assert cache.get("abc", 2) == 9


def test_cache_put_after_record_without_newline(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.write_text(json.dumps({"hash": "abc", "n": 1, "count": 7}))
    cache = CountCache(str(path))
    assert cache.get("abc", 1) == 7
    cache.put("abc", 2, 9)
    reloaded = CountCache(str(path))
    assert reloaded.get("abc", 1) == 7
    assert reloaded.get("abc", 2) == 9
    for line in path.read_text().splitlines():
        json.loads(line)


_CACHE_WRITER = """
import sys
from picardkit.counting.cache import CountCache

path, tag, records = sys.argv[1], sys.argv[2], int(sys.argv[3])
print("ready", flush=True)
for n in range(1, records + 1):
    # a fresh load per put, so loads also race with the other writer's appends
    CountCache(path).put(tag, n, 10**600 + n)
"""


def _cache_writer(path, tag, records):
    return subprocess.Popen(
        [sys.executable, "-c", _CACHE_WRITER, str(path), tag, str(records)],
        env=source_env(), stdout=subprocess.PIPE, text=True,
    )


def test_cache_put_waits_for_the_file_lock(tmp_path):
    path = tmp_path / "counts.ndjson"
    path.write_bytes(b"")
    with open(path, "rb") as held:
        fcntl.flock(held, fcntl.LOCK_EX)
        writer = _cache_writer(path, "w", 1)
        assert writer.stdout.readline() == "ready\n"
        time.sleep(0.3)
        assert path.read_bytes() == b""  # the append waits for the lock
    with writer:
        assert writer.wait(timeout=60) == 0
    assert CountCache(str(path)).get("w", 1) == 10**600 + 1


def test_cache_two_processes_write_one_file(tmp_path):
    path = tmp_path / "counts.ndjson"
    records = 150
    writers = [_cache_writer(path, tag, records) for tag in ("left", "right")]
    for w in writers:
        w.communicate(timeout=120)
    assert [w.returncode for w in writers] == [0, 0]
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b""
    assert len(lines) - 1 == 2 * records  # no duplicate, no lost line
    for line in lines[:-1]:
        json.loads(line)
    cache = CountCache(str(path))
    for tag in ("left", "right"):
        for n in range(1, records + 1):
            assert cache.get(tag, n) == 10**600 + n


def test_variety_hash_distinguishes():
    a = ideal_over(2, 1, 3, "x0^2 + x1*x2")
    b = ideal_over(3, 1, 3, "x0^2 + x1*x2")
    c = ideal_over(2, 1, 3, "x0^2 + x1^2")
    assert variety_hash(a) != variety_hash(b)
    assert variety_hash(a) != variety_hash(c)
    assert variety_hash(a) == variety_hash(ideal_over(2, 1, 3, "x0^2 + x1*x2"))


def test_count_series_validate_rejects_garbage():
    from picardkit.counting import CountSeries

    bad = CountSeries(q=2, counts=[3, 2], ambient_dim=1)  # N_2 < N_1 impossible
    with pytest.raises(ValueError):
        bad.validate()


@pytest.mark.parametrize("q", [2, 3, 5])
def test_hyperplane_chart_decomposition(q):
    # nontrivial kernel path with a closed-form oracle: a hyperplane in P^m
    # has exactly #P^(m-1) points
    for m in (2, 3):
        ideal = ideal_over(q, 1, m + 1, "x0")
        for n in (1, 2, 3, 4):
            qn = q**n
            assert count_points(ideal, n) == sum(qn**i for i in range(m))
