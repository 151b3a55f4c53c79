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
    count_points,
    count_tower,
    variety_hash,
)
from picardkit.counting.charts import compile_charts
from picardkit.counting.kernel import field_tables, trace_mask
from picardkit.counting import kernel_py
from picardkit.ffield import enumerate_field, extend, make_field
from picardkit.polysys import HomIdeal, poly_from_str


def ideal_over(p, e, nvars, *gens):
    f = make_field(p, e)
    polys = [poly_from_str(g, nvars, f) for g in gens]
    ideal = HomIdeal(polys)
    if not polys:
        ideal = ideal.with_ambient(nvars, f)
    return ideal


from conftest import brute_force_projective_count as brute_force_count, source_env


def test_zech_tables_consistent_with_field_arithmetic():
    for p, e in [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2)]:
        f = make_field(p, e)
        exp, log, zech = field_tables(f)
        elems = enumerate_field(f)
        q = f.q
        for a in range(q):
            for b in range(q):
                ea, eb = elems[a], elems[b]
                # table mul
                if a == 0 or b == 0:
                    got_mul = 0
                else:
                    got_mul = exp[(log[a] + log[b]) % (q - 1)]
                assert got_mul == f.to_index(ea * eb)
                # table add via zech
                if a == 0:
                    got_add = b
                elif b == 0:
                    got_add = a
                else:
                    z = zech[(log[b] - log[a]) % (q - 1)]
                    got_add = 0 if z < 0 else exp[(log[a] + z) % (q - 1)]
                assert got_add == f.to_index(ea + eb)


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


def test_slice_methods_agree_on_every_chart():
    # the kernel's two slice methods, enumeration (use_gcd 0) and gcd root
    # counting (use_gcd 1), count each chart alike whichever the cost
    # model would pick
    cases = [
        ideal_over(2, 1, 3, "x0^2 + x1*x2"),
        ideal_over(5, 1, 3, "x1^2*x2 - x0^3 - x0*x2^2 - x2^3"),
        ideal_over(3, 1, 4, "x0*x3 - x1*x2"),
        ideal_over(2, 1, 4, "x0^3 + x1^3 + x2^3 + x3^3"),
        ideal_over(2, 1, 3, "x1^2*x2 + x1*x2^2 + x0^3"),
    ]
    for ideal in cases:
        for n in (1, 2, 3):
            emb = extend(ideal.domain, n)
            ext = emb.ext
            exp, log, zech = kernel_py.build_tables(ext.p, ext.e, ext.modulus)
            charts = [
                c for c in compile_charts(ideal, emb, ext.to_index)
                if c.nfree and c.gen_terms
            ]
            assert charts
            for chart in charts:
                args = (ext.q, ext.p, trace_mask(ext), exp, log, zech,
                        chart.gen_terms, chart.nprefix)
                hi = 1 if chart.nprefix == 0 else ext.q
                assert kernel_py.count_chart(*args, 0, 0, hi) == kernel_py.count_chart(*args, 1, 0, hi)


def test_parallel_determinism():
    ideal = ideal_over(3, 1, 4, "x0*x3 - x1*x2")
    lone = count_points(ideal, 2, threads=1)
    many = count_points(ideal, 2, threads=4)
    assert lone == many


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


def test_tower_budget_reports_completed():
    ideal = ideal_over(5, 1, 4, "x0^4 + x1^4 + x2^4 + x3^4")
    try:
        count_tower(ideal, 8, budget=10**6)
    except BudgetExceededError as err:
        assert err.completed is not None
        assert len(err.completed.counts) >= 1
    else:
        pytest.fail("expected a budget error")


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
