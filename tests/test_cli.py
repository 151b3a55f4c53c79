import json
import shutil
import subprocess
import sys
import sysconfig
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from picardkit.cli import main
from picardkit.galmod import size_table_from_profile
from picardkit.upoly import mul

from conftest import source_env


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


def test_invalid_spec_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run_cli(capsys, "zeta", str(bad), "--no-timing")
    assert code == 2
    assert "picardkit" in err


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


def test_threads_flag_deterministic(tmp_path, capsys):
    spec = quadric_spec(tmp_path, p=3)
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
    from picardkit.zeta import ZetaFunction

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
    z = ZetaFunction.from_json(report["zeta"])
    assert betti_numbers(z, classify_weights(z, factor_zeta(z))) == [1, 0, 1, 10, 1, 0, 1]
    assert z.expand(7)[6] == 2113665  # N_7, counted separately

    ideal = HomIdeal([poly_from_str(CUBIC_THREEFOLD_F2, 5, make_field(2, 1))])
    assert CUBIC_THREEFOLD_COUNTS[:2] == [brute_force_projective_count(ideal, n) for n in (1, 2)]
    assert CUBIC_THREEFOLD_COUNTS[:4] == count_tower(ideal, 4).counts


@pytest.mark.long
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


def test_count_refuses_tables_beyond_memory(tmp_path, capsys, monkeypatch):
    # with 2^8 table entries of memory, n = 9 on F_2 is refused (exit 3)
    # before its field tables are built; levels 1..8 are counted
    from picardkit import counting

    build = counting.field_tables

    def guarded(ext):
        if ext.q > 2**8:
            pytest.fail("field tables were built past physical memory")
        return build(ext)

    monkeypatch.setattr(counting, "physical_memory", lambda: 24 * 2**8)
    monkeypatch.setattr(counting, "field_tables", guarded)
    spec = point_set_spec(tmp_path, "x0^2 + x0*x1 + x1^2", 2)
    code, out, err = run_cli(
        capsys, "count", spec, "-n", "33", "--cache-dir", str(tmp_path / "cache")
    )
    assert code == 3
    assert out == ""
    assert "physical memory" in err
    assert "largest completed n = 8" in err


@pytest.mark.parametrize(
    "flag_budget, cli_budget",
    [(None, "1"), (None, "0"), (None, "-3"), (1, None), (0, None), ("x", None), (3, "1")],
)
def test_budget_below_two_is_invalid_input(tmp_path, capsys, flag_budget, cli_budget):
    # a budget of 0 used to fall back to the hypersurface formula here
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
    code, out, _ = run_cli(
        capsys, "tate-bound", spec, "-p", "1", "--cache-dir", cache_path,
        "--eval-budget", "1", "--no-timing",
    )
    assert code == 0
    report = json.loads(out)
    assert report["betti"] == [1, 0, 22, 0, 1]
    assert report["tateBound"]["vMu"] == 22
    assert len(factor_calls) <= 2
    assert len(classify_calls) == 1


def _help_check(argv):
    """Run ``argv`` against this checkout's source and assert it prints the
    CLI help and exits 0."""
    env = source_env()
    env["COLUMNS"] = "200"  # argparse must not wrap "exit codes: 0 ok"
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "usage: picardkit" in proc.stdout
    assert "exit codes: 0 ok" in proc.stdout


def test_console_entry_point_help():
    """The declared console script resolves to ``picardkit.cli:main``, and
    what its generated wrapper runs prints the help and exits 0."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts["picardkit"] == "picardkit.cli:main"
    ep = EntryPoint(name="picardkit", value=scripts["picardkit"], group="console_scripts")
    assert ep.load() is main
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
# sys.modules
_MODULE_PROBE = """
import json, sys
from picardkit.cli import main

out, argv = sys.argv[1], sys.argv[2:]
code = main(argv)
kernel = sys.modules.get("picardkit.counting.kernel")
with open(out, "w") as fh:
    json.dump({"code": code, "modules": sorted(sys.modules),
               "backend": kernel.BACKEND if kernel else None}, fh)
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


def test_pure_backend_forced_by_environment(tmp_path, capsys):
    result = _modules_after(tmp_path, "betti", *_warm_elliptic(tmp_path, capsys), pure=True)
    assert result["backend"] == "pure"
    assert "picardkit.counting._ckernel" not in result["modules"]


def test_galmod_requests_import_no_counting(tmp_path):
    table = size_table_from_profile(3, [1, 0, 5, 0, 1], [[], [], [2, 1], [], []], 4)
    family = {"ell": 5, "t": 0, "modules": [
        {"ell": 5, "n": 1, "invariantFactors": [1, 1], "actions": [[[1, 0], [0, 1]]]},
    ]}
    for argv in (
        ["torsion", write_json(tmp_path / "table.json", table.to_json()), "-i", "2"],
        ["galois-rank", write_json(tmp_path / "family.json", family)],
    ):
        result = _modules_after(tmp_path, *argv, "--no-timing")
        assert "picardkit.galmod" in result["modules"]
        assert _loaded(result["modules"], GALMOD_UNUSED) == []


def test_dovetail_demo_imports_only_dovetail(tmp_path):
    result = _modules_after(tmp_path, "dovetail", "--demo", "--no-timing")
    assert _loaded(result["modules"], ["picardkit"]) == [
        "picardkit", "picardkit.cli", "picardkit.dovetail",
    ]
