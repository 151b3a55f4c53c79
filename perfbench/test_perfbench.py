"""Tests of the benchmark's own arithmetic: oracle, slice count, self time.

    PYTHONPATH=src python3 -m pytest -q perfbench

The oracle tests check it against closed forms and frozen values; a few also
cross-check it against picardkit, which is the reverse of the benchmark's
use (there the oracle checks picardkit).
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import layers  # noqa: E402
import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# -- oracle ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 4), (3, 2), (5, 1), (5, 2)])
def test_field_is_a_field(p, k):
    f = oracle.Field(p, k)
    assert sorted(f.exp) == list(range(1, f.q))
    for a in range(1, f.q):
        assert f.mul(a, f.power(a, f.q - 2)) == 1
    # p-fold sum of any element is zero
    for a in range(f.q):
        acc = 0
        for _ in range(p):
            acc = f.add_table[acc][a]
        assert acc == 0


def test_projective_count_of_linear_spaces():
    # a hyperplane in P^3 is a P^2
    plane = workloads.poly(4, (1, "x0"), (1, "x3"))
    for p, e, n in [(2, 1, 1), (2, 1, 3), (5, 1, 2), (2, 2, 2)]:
        Q = p ** (e * n)
        assert oracle.projective_count(plane, 4, p, e, n) == Q * Q + Q + 1


def test_projective_count_matches_frozen_counts():
    for n in (1, 2, 3):
        assert oracle.projective_count(workloads.KLEIN, 3, 2, 1, n) == workloads.KLEIN_COUNTS[n - 1]
        assert oracle.projective_count(workloads.K3, 4, 2, 1, n) == workloads.K3_COUNTS[n - 1]


def test_frozen_klein_zeta_reexpands_to_frozen_counts():
    den = [1, -3, 2]  # (1 - T)(1 - 2T)
    assert oracle.counts_from_zeta(workloads.KLEIN_NUM, den, 16) == workloads.KLEIN_COUNTS


def test_power_sums_of_linear_factors():
    # 1 - 5T has power sums 5^n; (1 - 2T)(1 - 3T) = 1 - 5T + 6T^2
    assert oracle.power_sums([1, -5], 4) == [5, 25, 125, 625]
    assert oracle.power_sums([1, -5, 6], 3) == [5, 13, 35]


def test_hypersurface_betti():
    assert oracle.hypersurface_betti(1, 3) == [1, 2, 1]
    assert oracle.hypersurface_betti(1, 4) == [1, 6, 1]
    assert oracle.hypersurface_betti(2, 3) == [1, 0, 7, 0, 1]
    assert oracle.hypersurface_betti(2, 4) == [1, 0, 22, 0, 1]
    assert oracle.hypersurface_betti(3, 3) == [1, 0, 1, 10, 1, 0, 1]


def test_fermat_cubic_counts_over_f2_and_f4():
    # over F_2, x^3 = x and the cubic is the plane x0 + x1 + x2 + x3 = 0; over
    # F_4 all 27 lines are defined and #X(F_4) = 1 + 7q + q^2
    assert oracle.projective_count(workloads.FERMAT_CUBIC, 4, 2, 1, 1) == 7
    assert oracle.projective_count(workloads.FERMAT_CUBIC, 4, 2, 1, 2) == 1 + 7 * 4 + 16


def rational_rank(m):
    """Rank over Q by fraction-free elimination."""
    m = [list(r) for r in m]
    rank = 0
    for col in range(len(m[0])):
        piv = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                a, b = m[rank][col], m[r][col]
                m[r] = [a * x - b * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def line_form_text(i, j, a):
    return f"x{i} + x{j}" if a == 1 else f"x{i} + {a}*x{j}"


def test_27_lines_pairing_block_has_rank_7():
    pairings = oracle.cubic_line_pairings()
    assert len(pairings) == 14 and all(len(row) == 13 for row in pairings)
    assert rational_rank(pairings) == 7
    # every line meets exactly 10 others
    lines = oracle.diagonal_cubic_lines()
    for a in lines:
        assert sum(oracle.lines_meet(a, b) for b in lines if b != a) == 10


def test_line_pairings_agree_with_picardkit():
    pk = pytest.importorskip("picardkit.polysys")
    from picardkit.ffield import make_field

    f4 = make_field(2, 2)
    X = pk.HomIdeal([pk.poly_from_str(workloads.render(workloads.FERMAT_CUBIC), 4, f4)])
    lines = [pk.HomIdeal([pk.poly_from_str(line_form_text(*form), 4, f4) for form in line])
             for line in oracle.diagonal_cubic_lines()]
    ys, zs = lines[:13], lines[13:]
    got = [[pk.proper_intersection_number(X, z, y) for y in ys] for z in zs[:3]]
    assert got == oracle.cubic_line_pairings()[:3]


def test_size_table_agrees_with_picardkit_forward_construction():
    galmod = pytest.importorskip("picardkit.galmod")
    betti, exps = [1, 2, 3, 2, 1], [3, 1]
    ours = oracle.size_table(3, betti, 2, exps, 5)
    torsion = [[], [], exps, [], []]
    theirs = galmod.size_table_from_profile(3, betti, torsion, 5).to_json()
    assert sorted(map(str, ours["sizes"])) == sorted(map(str, theirs["sizes"]))


def test_dovetail_demo_results():
    assert oracle.dovetail_demo_results() == {"1": 9, "3": 17, "4": "planted"}


# -- workloads -------------------------------------------------------------------------


def test_plans_are_seeded_and_stay_in_their_pools():
    for w in workloads.WORKLOADS:
        assert workloads.plan(w, 7) == workloads.plan(w, 7)
    for w in ("cold-curves", "cold-surfaces"):
        seen = {json.dumps(workloads.plan(w, s)["inputs"], sort_keys=True) for s in range(20)}
        assert len(seen) == 3  # one input per scalar multiple in the pool


def test_rendered_polynomials():
    assert workloads.render(workloads.KLEIN) == "x0^3*x1 + x1^3*x2 + x0*x2^3"
    assert workloads.render(workloads.poly(4, ("g", "x3^3"))) == "g*x3^3"


# -- slice count -------------------------------------------------------------------------


def test_slice_formula_matches_the_pure_kernel():
    # with no generators every slice is all of F_Q, so count_chart returns
    # Q times the number of slices it resolved
    kernel_py = pytest.importorskip("picardkit.counting.kernel_py")
    from picardkit.counting.kernel import field_tables
    from picardkit.ffield import make_field

    field = make_field(3, 1)
    exp, log, zech = field_tables(field)
    Q = 3
    for nprefix, lo, hi in [(0, 0, 1), (1, 0, 3), (2, 1, 3), (3, 0, 2)]:
        got = kernel_py.count_chart(Q, 3, 0, exp, log, zech, [], nprefix, 1, lo, hi)
        assert got == Q * tracer.kernel_slices(Q, nprefix, lo, hi)


def test_slice_formula_values():
    assert tracer.kernel_slices(16, 0, 0, 1) == 1
    assert tracer.kernel_slices(16, 1, 0, 16) == 16
    assert tracer.kernel_slices(16, 2, 4, 8) == 4 * 16


# -- self time ------------------------------------------------------------------------------


def test_covered_merges_overlaps_and_clips():
    assert layers.covered(0, 10, []) == 0
    assert layers.covered(0, 10, [(1, 3), (2, 4), (6, 7)]) == 4
    assert layers.covered(0, 10, [(-5, 2), (9, 20)]) == 3


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 5.0, 0],
        ["c", 2.0, 4.0, 1],  # grandchild of a: already inside b
        ["d", 6.0, 7.0, 0],
    ]
    assert layers.self_times(spans) == [5.0, 2.0, 2.0, 1.0]


def test_per_layer_metrics_from_traces():
    trace = {
        "spans": [["counting.tower", 0.0, 4.0, -1], ["counting.kernel", 1.0, 3.0, 0],
                  ["weil.certify", 5.0, 6.0, -1]],
        "calls": {"counting.tower": 1, "counting.kernel": 1, "weil.certify": 1},
        "counts": {"counting.slices": 16, "cache.hits": 3, "cache.misses": 1},
        "startup_s": 0.2,
    }
    m = layers.per_layer_metrics([trace, dict(trace, startup_s=0.4)], overhead_s=0.1)
    assert set(m) == {name for name, *_ in layers.PER_LAYER}
    assert m["counting.kernel_s"]["value"] == 4.0
    assert m["counting.kernel_calls"]["value"] == 2
    assert m["counting.slices"]["value"] == 32
    assert m["cache.hit_ratio"]["value"] == 0.75
    assert m["cli.startup_s"]["value"] == pytest.approx(0.3)
    assert m["trace.overhead_s"]["value"] == 0.1


def test_tracer_wraps_and_records_parents():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    (n1, _, _, p1), (n2, _, _, p2) = t.spans
    assert (n1, p1, n2, p2) == ("outer", -1, "inner", 0)
    assert t.calls == {"outer": 1, "inner": 1}


# -- comparison -------------------------------------------------------------------------------


def _run_lines(backend, wall):
    stamp = {"workload": "cold-curves", "seed": 1, "trace": 0, "backend": backend}
    result = {"correct": True, "attempted": 2, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"}}}
    return ["STAMP " + compare.json.dumps(stamp), compare.json.dumps(result)]


def test_compare_flags_backend_change():
    a = compare.parse(_run_lines("pure", 30.0) + _run_lines("pure", 31.0))
    b = compare.parse(_run_lines("cython", 3.0))
    rows = compare.compare(a, b)
    assert rows and all(r["flag"] == "backend differs" for r in rows)
    same = compare.compare(a, compare.parse(_run_lines("pure", 29.0)))
    assert same[0]["flag"] is None
    assert same[0]["change"] == pytest.approx(29.0 / 30.5 - 1)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    if not os.path.isfile(path):
        pytest.skip("no BENCHMARK.json next to the benchmark")
    with open(path, encoding="utf-8") as fh:
        bench = compare.json.load(fh)
    import run

    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        (name, unit, better) for name, unit, better, *_ in layers.PER_LAYER]


def test_spawn_kills_a_request_at_the_deadline(tmp_path):
    import time

    import run

    start = time.monotonic()
    rec = run.spawn([sys.executable, "-c", "import time; time.sleep(60)"], tmp_path, "slow",
                    start + 0.5)
    assert rec["exit"] == -9 and time.monotonic() - start < 10
    rec = run.spawn([sys.executable, "-c", "print('ok')"], tmp_path, "fast", start + 60)
    assert rec["exit"] == 0 and (tmp_path / "fast.out").read_text() == "ok\n"


def test_end_to_end_rescales_each_time_by_its_own_speed():
    import run

    def rec(wall, cpu, speed):
        return {"wall": wall, "cpu": cpu, "speed": speed, "rss_mb": 20.0, "errors": []}

    # two passes of two requests; the second pass ran on a CPU twice as fast
    passes = [(5.0, [rec(1.0, 0.9, 1.0), rec(4.0, 3.8, 1.0)]),
              (2.5, [rec(0.5, 0.45, 2.0), rec(2.0, 1.9, 2.0)])]
    setups = [(0.4, 0.8), (0.8, 0.8), (0.9, 0.9)]
    e2e = run.end_to_end(passes, setups)
    assert e2e["wall_s"] == pytest.approx(5.0)
    assert e2e["cpu_s"] == pytest.approx(4.7)
    assert e2e["request_p50_s"] == pytest.approx(2.5)
    assert e2e["setup_s"] == pytest.approx(0.8)
    raw = run.end_to_end(passes, setups, rescale=False)
    assert raw["wall_s"] == pytest.approx(3.75)
    assert raw["setup_s"] == pytest.approx(0.8)
    assert raw["success_frac"] == e2e["success_frac"] == 1.0


def test_probe_takes_a_few_milliseconds():
    import run

    assert 0.0005 < run.probe_s() < 0.2
