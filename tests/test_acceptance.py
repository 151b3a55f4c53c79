"""Acceptance suite: one test per criterion, exact assertions, frozen oracles.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS lines.  Stated runtime bounds are asserted only when the compiled
counting kernel is active (the pure fallback is a correctness reference, not
a performance target).
"""

import json
import math
import random
import time

import pytest

from conftest import brute_force_projective_count, trivial_mod_lprime, zeta_from_report
from oracles import cyclotomic_multiplicity, diagonal_of, generate_group, reference_halt_order, snf
from picardkit import counting
from picardkit.cli import main
from picardkit.counting import count_tower
from picardkit.dovetail import PlantedTask, run_geometric
from picardkit.exactla import mat_mul
from picardkit.ffield import make_field
from picardkit.galmod import (
    FiniteLModule,
    rank_upper_bounds,
    size_table_from_profile,
    torsion_from_sizes,
)
from picardkit.lattice import (
    GLattice,
    build_n,
    det_bareiss,
    fixed_rank,
    independence_certificate,
    mat_inverse_int,
    saturate,
)
from picardkit.polysys import HomIdeal, poly_from_str, proper_intersection_number, smoothness_check
from picardkit.upoly import mul
from picardkit.weil import (
    betti_numbers,
    classify_weights,
    dim_v_mu,
    factor_zeta,
)

TIMED = counting.BACKEND != "pure"


def pieces(z):
    return classify_weights(z, factor_zeta(z))


def _clock(limit):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        if TIMED:
            assert elapsed < limit, f"runtime {elapsed:.2f}s exceeds {limit}s"
        return elapsed

    return check


def _announce(n, label, elapsed):
    bound = "asserted" if TIMED else "not asserted"
    print(
        f"\nACCEPTANCE {n} ({label}): PASS  [{elapsed:.2f}s]"
        f"  backend={counting.BACKEND}, runtime bound {bound}"
    )


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def write_json(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


# -- criterion 1: projective spaces -------------------------------------------


def test_criterion_1_projective_spaces(tmp_path, capsys):
    check = _clock(1.0)
    cache = str(tmp_path / "cache")
    for q in (2, 3, 5):
        for m in (1, 2, 3):
            spec = write_json(
                tmp_path,
                f"p{m}q{q}.json",
                {
                    "field": {"p": q, "e": 1},
                    "ambientDim": m,
                    "generators": [],
                    "flags": {"budget": m + 1, "assumeSmooth": True},
                },
            )
            code, report = run_cli(
                capsys, "zeta", spec, "--no-timing", "--cache-dir", cache
            )
            assert code == 0
            expected_den = [1]
            for i in range(m + 1):
                expected_den = mul(expected_den, [1, -(q**i)])
            assert report["zeta"]["num"] == [1]
            assert report["zeta"]["den"] == expected_den
            z = zeta_from_report(report)
            expected_betti = [1 if i % 2 == 0 else 0 for i in range(2 * m + 1)]
            assert betti_numbers(z, pieces(z)) == expected_betti
            for p in range(m + 1):
                assert dim_v_mu(z, pieces(z), p).v_mu == 1
    _announce(1, "projective spaces", check())


# -- criterion 2: quadric surfaces --------------------------------------------


def _quadric_lines_split(p):
    f = make_field(p, 1)
    amb = "x0*x3 + x1*x2" if p == 2 else "x0*x3 - x1*x2"
    X = HomIdeal([poly_from_str(amb, 4, f)])

    def L(*gens):
        return HomIdeal([poly_from_str(g, 4, f) for g in gens])

    ys = [L("x0", "x1"), L("x0", "x2")]
    zs = [L("x1", "x3"), L("x2", "x3")]
    return X, ys, zs


def _quadric_lines_conjugate(p):
    # norm-form quadric: irrational rulings swapped by Frobenius
    f2 = make_field(p, 2)
    if p == 2:
        amb = "x0^2 + x0*x1 + x1^2 + x2*x3"
    else:
        amb = "x0^2 + x1^2 - x2*x3"  # -1 is a nonsquare mod 3
    X = HomIdeal([poly_from_str(amb, 4, f2)])

    def L(*gens):
        return HomIdeal([poly_from_str(g, 4, f2) for g in gens])

    if p == 2:
        ys = [L("x0 + g*x1", "x2"), L("x0 + g^2*x1", "x2")]
        zs = [L("x0 + g^2*x1", "x3"), L("x0 + g*x1", "x3")]
    else:
        # F_9 = F_3[g]/(g^2 + 1): x0^2 + x1^2 = (x0 + g*x1)(x0 - g*x1)
        ys = [L("x0 + g*x1", "x2"), L("x0 + 2*g*x1", "x2")]
        zs = [L("x0 + 2*g*x1", "x3"), L("x0 + g*x1", "x3")]
    return X, ys, zs


def test_criterion_2_quadric_surfaces(tmp_path, capsys):
    check = _clock(10.0)
    for p in (2, 3):
        eq = "x0*x3 + x1*x2" if p == 2 else "x0*x3 - x1*x2"
        spec = write_json(
            tmp_path,
            f"quadric{p}.json",
            {
                "field": {"p": p, "e": 1},
                "ambientDim": 3,
                "generators": [eq],
                "flags": {"hypersurfaceDegree": 2},
            },
        )
        code, report = run_cli(capsys, "count", spec, "-n", "4", "--no-timing")
        assert code == 0
        assert report["counts"]["values"] == [(p**n + 1) ** 2 for n in (1, 2, 3, 4)]

        code, report = run_cli(capsys, "zeta", spec, "--no-timing")
        assert code == 0
        p2 = mul([1, -p], [1, -p])
        assert report["zeta"]["den"] == mul(mul([1, -1], p2), [1, -(p**2)])
        z = zeta_from_report(report)
        assert betti_numbers(z, pieces(z)) == [1, 0, 2, 0, 1]
        assert dim_v_mu(z, pieces(z), 1).v_mu == 2

        # rank pipeline, rational rulings: halts at 2, fixed rank 2
        X, ys, zs = _quadric_lines_split(p)
        pairings = [
            [proper_intersection_number(X, zc, yc) for yc in ys] for zc in zs
        ]
        cycles = write_json(
            tmp_path,
            f"cycles{p}.json",
            {
                "basisCycles": ["A", "B"],
                "pairings": pairings,
                "action": {"generators": [], "relations": []},
            },
        )
        code, report = run_cli(
            capsys, "rank", "--zeta", spec, "--cycles", cycles, "--no-timing"
        )
        assert code == 0
        assert report["rank"]["status"] == "halted"
        assert report["rank"]["rankNumXsep"] == 2
        assert report["rank"]["rankNumX"] == 2

        # conjugate rulings on the norm-form quadric: fixed rank drops to 1
        Xc, cys, czs = _quadric_lines_conjugate(p)
        cpair = [
            [proper_intersection_number(Xc, zc, yc) for yc in cys] for zc in czs
        ]
        assert sorted(map(sorted, cpair)) == [[0, 1], [0, 1]]
        nspec = write_json(
            tmp_path,
            f"norm{p}.json",
            {
                "field": {"p": p, "e": 1},
                "ambientDim": 3,
                "generators": [
                    "x0^2 + x0*x1 + x1^2 + x2*x3" if p == 2 else "x0^2 + x1^2 - x2*x3"
                ],
                "flags": {"hypersurfaceDegree": 2},
            },
        )
        ncycles = write_json(
            tmp_path,
            f"ncycles{p}.json",
            {
                "basisCycles": ["A", "Abar"],
                "pairings": cpair,
                "action": {"generators": [[1, 0]], "relations": [[1, 1]]},
            },
        )
        code, report = run_cli(
            capsys, "rank", "--zeta", nspec, "--cycles", ncycles, "--no-timing"
        )
        assert code == 0
        assert report["rank"]["status"] == "halted"
        assert report["rank"]["rankNumXsep"] == 2
        assert report["rank"]["rankNumX"] == 1
    _announce(2, "quadric surfaces", check())


# -- criterion 3: elliptic curves over F_5 ------------------------------------


CURVES_F5 = [
    "x1^2*x2 - x0^3 - x0*x2^2 - x2^3",
    "x1^2*x2 - x0^3 - 2*x0*x2^2 - x2^3",
    "x1^2*x2 - x0^3 - 4*x0*x2^2 - 2*x2^3",
]


def test_criterion_3_elliptic_curves(tmp_path, capsys):
    check = _clock(5.0)
    f5 = make_field(5, 1)
    for idx, eq in enumerate(CURVES_F5):
        ideal = HomIdeal([poly_from_str(eq, 3, f5)])
        n1_oracle = brute_force_projective_count(ideal, 1)
        a = 5 + 1 - n1_oracle
        assert a * a <= 20  # Hasse
        spec = write_json(
            tmp_path,
            f"ell{idx}.json",
            {
                "field": {"p": 5, "e": 1},
                "ambientDim": 2,
                "generators": [eq],
                "flags": {"hypersurfaceDegree": 3},
            },
        )
        code, report = run_cli(capsys, "zeta", spec, "--no-timing")
        assert code == 0
        assert report["zeta"]["num"] == [1, -a, 5]
        assert report["zeta"]["den"] == mul([1, -1], [1, -5])
        assert report["zeta"]["functionalEquationSign"] in (1, -1)
        z = zeta_from_report(report)
        # weight certification places both reciprocal roots at modulus sqrt 5
        assert betti_numbers(z, pieces(z)) == [1, 2, 1]
    _announce(3, "elliptic curves over F_5", check())


# -- criterion 4: cubic surface over F_2 ---------------------------------------


CUBIC_F2 = "x0^3 + x1^3 + x2^3 + x3^3"
P2_CUBIC = mul(mul(mul(mul([1, -2], [1, -2]), mul([1, -2], [1, -2])), [1, 2]), mul([1, 2], [1, 2]))


def _cubic_lines():
    f4 = make_field(2, 2)
    X = HomIdeal([poly_from_str(CUBIC_F2, 4, f4)])
    units = ["1", "g", "g^2"]
    pairs = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    lines = []
    for (i1, j1), (i2, j2) in pairs:
        for a in units:
            for b in units:
                g1 = f"x{i1} + x{j1}" if a == "1" else f"x{i1} + {a}*x{j1}"
                g2 = f"x{i2} + x{j2}" if b == "1" else f"x{i2} + {b}*x{j2}"
                lines.append(HomIdeal([poly_from_str(g1, 4, f4), poly_from_str(g2, 4, f4)]))
    return X, lines


def test_criterion_4_cubic_surface(tmp_path, capsys):
    check = _clock(300.0)
    f2 = make_field(2, 1)
    ideal = HomIdeal([poly_from_str(CUBIC_F2, 4, f2)])
    assert smoothness_check(ideal)

    # counts by the kernels, cross-checked against the direct oracle
    series = count_tower(ideal, 4)
    oracle = [brute_force_projective_count(ideal, n) for n in (1, 2, 3, 4)]
    assert series.counts == oracle

    spec = write_json(
        tmp_path,
        "cubic.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": [CUBIC_F2],
            "flags": {"hypersurfaceDegree": 3},
        },
    )
    code, report = run_cli(capsys, "zeta", spec, "--no-timing")
    assert code == 0
    assert len(report["counts"]["values"]) <= 4  # n <= 4 suffices for b2 = 7
    z = zeta_from_report(report)
    assert z.den == mul(mul([1, -1], P2_CUBIC), [1, -4])
    assert betti_numbers(z, pieces(z)) == [1, 0, 7, 0, 1]

    # every reciprocal root of the middle factor is 2 * (root of unity)
    bound = dim_v_mu(z, pieces(z), 1)
    assert bound.v_mu == 7
    scaled = [c * 2 ** (7 - k) for k, c in enumerate(P2_CUBIC)]
    total, breakdown = cyclotomic_multiplicity(scaled)
    assert total == 7
    assert breakdown == {1: 4, 2: 3}

    # 27 lines over F_4; a 13/14 bipartite block of intersection numbers
    # has a nonsingular 7x7 minor
    X4, lines = _cubic_lines()
    ys, zs = lines[:13], lines[13:]
    pairings = [[proper_intersection_number(X4, zc, yc) for yc in ys] for zc in zs]
    rank, rows, cols, det = independence_certificate(pairings)
    assert rank == 7
    assert det != 0
    # the elimination order is pinned: these are the rows, columns and
    # determinant the certificate has always reported for this block, also
    # with its rows reversed (so the pivot rows are not a prefix)
    assert (rows, cols, det) == ([0, 1, 2, 3, 4, 5, 6], [0, 1, 2, 3, 4, 9, 10], -1)
    assert independence_certificate(pairings[::-1]) == (
        7, [0, 1, 2, 5, 6, 9, 10], [0, 1, 2, 3, 4, 9, 10], -1
    )

    # same chain end-to-end through the CLI rank pipeline, whose checkpoint
    # keeps that minor as the witness of the lower bound 7
    cycles = write_json(
        tmp_path,
        "cubic-cycles.json",
        {
            "basisCycles": [f"L{i}" for i in range(13)],
            "pairings": pairings,
            "action": {"generators": [], "relations": []},
        },
    )
    ckpt = tmp_path / "state.json"
    code, report = run_cli(
        capsys, "rank", "--zeta", spec, "--cycles", cycles, "--checkpoint", str(ckpt),
        "--no-timing",
    )
    assert code == 0
    assert report["rank"]["status"] == "halted"
    assert report["rank"]["rankNumXsep"] == 7
    cert = json.loads(ckpt.read_text())["bestCertificate"]
    assert (cert["kind"], cert["value"]) == ("lower", 7)
    assert cert["witness"]["minor"] == [[pairings[i][j] for j in cols] for i in rows]
    assert det_bareiss(cert["witness"]["minor"]) == cert["witness"]["det"] == det
    assert report["tateBound"]["vMu"] == 7
    _announce(4, "split-type cubic surface over F_2", check())


# -- criterion 5: Galois-module suite ------------------------------------------


def _planted_module(rng, ell, n, a, s, t0, u):
    factors = [n] * a
    for _ in range(s):
        factors.extend([n, n])
    te = min(t0, n)
    if te:
        factors.extend([te] * u)
    order = sorted(range(len(factors)), key=lambda i: -factors[i])
    factors_sorted = [factors[i] for i in order]
    k = len(factors)
    g = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    pos = a
    for _ in range(s):
        x, y = order.index(pos), order.index(pos + 1)
        g[x][x] = g[y][y] = 0
        g[x][y] = g[y][x] = 1
        pos += 2
    return FiniteLModule(ell=ell, n=n, invariant_factors=factors_sorted, actions=[g])


def test_criterion_5_galois_module_suite():
    check = _clock(30.0)
    rng = random.Random(2029)
    for trial in range(200):
        ell = rng.choice([2, 3, 5])
        # torsion recovery from a forward-constructed size table
        d2 = rng.choice([2, 4])
        betti = [1] + [rng.randint(0, 3) for _ in range(d2 - 1)] + [1]
        degree = rng.randint(1, d2 - 1)
        exps = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True)
        torsion = [[] for _ in range(d2 + 1)]
        torsion[degree] = exps
        n_max = (max(exps) if exps else 0) + 2
        table = size_table_from_profile(ell, betti, torsion, n_max)
        res = torsion_from_sizes(table, degree)  # runs both inductions
        assert res.exact and res.exponents == exps

        # rank bounds on a planted module family
        a = rng.randint(0, 3)
        s = rng.randint(0, 2)
        t0 = rng.randint(0, 2)
        u = rng.randint(0, 2) if t0 else 0
        r = a + s
        depth = t0 * (r + u + 1) + 1 if t0 else max(1, 1)
        depth = max(depth, t0 + 1, 1)
        family = [
            _planted_module(rng, ell, n, a, s, t0, u)
            for n in range(max(1, t0 + 1), max(depth, t0 + 1) + 1)
        ]
        bounds = rank_upper_bounds(family, t=t0, check_hypothesis=False)
        assert bounds.value == r
        assert all(u_n >= r for _, u_n in bounds.per_level)
    _announce(5, "Galois-module suite (200 plants)", check())


# -- criterion 6: Minkowski property suite --------------------------------------


def _companion(poly):
    d = len(poly) - 1
    m = [[0] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = 1
    for i in range(d):
        m[i][d - 1] = -poly[i]
    return m


def _finite_order_matrix(rng):
    # block-diagonal from permutation and cyclotomic-companion blocks,
    # then conjugated by unimodular shears
    cyclos = {1: [-1, 1], 2: [1, 1], 3: [1, 1, 1], 4: [1, 0, 1], 6: [1, -1, 1]}
    blocks = []
    size = 0
    while size < rng.randint(2, 6):
        kind = rng.random()
        if kind < 0.5:
            k = rng.randint(1, 3)
            perm = list(range(k))
            rng.shuffle(perm)
            blocks.append([[1 if perm[j] == i else 0 for j in range(k)] for i in range(k)])
            size += k
        else:
            m = rng.choice(list(cyclos))
            blocks.append(_companion(cyclos[m]))
            size += len(cyclos[m]) - 1
    n = size
    mat = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                mat[off + i][off + j] = b[i][j]
        off += len(b)
    for _ in range(rng.randint(1, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        s = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        s[i][j] = rng.randint(-2, 2)
        mat = mat_mul(mat_mul(s, mat), mat_inverse_int(s))
    return mat


def test_criterion_6_minkowski_suite():
    check = _clock(60.0)
    rng = random.Random(1887)
    tested = 0
    while tested < 100:
        m = _finite_order_matrix(rng)
        n = len(m)
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        # sanity: finite order (bounded power search returns to identity)
        power = ident
        order = None
        for k in range(1, 40):
            power = mat_mul(power, m)
            if power == ident:
                order = k
                break
        assert order is not None
        if m == ident:
            for ell in (2, 3, 5):
                assert trivial_mod_lprime(m, ell)
            continue
        for ell in (2, 3, 5):
            assert not trivial_mod_lprime(m, ell)
        tested += 1
    _announce(6, "Minkowski property suite (100 matrices)", check())


# -- criterion 7: lattice suite --------------------------------------------------


def test_criterion_7_lattice_suite():
    check = _clock(120.0)
    rng = random.Random(500)
    from math import gcd

    for trial in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        u, d, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert det_bareiss(u) in (1, -1) and det_bareiss(v) in (1, -1)
        diag = diagonal_of(d)
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        g = 0
        for row in m:
            for x in row:
                g = gcd(g, abs(x))
        if diag:
            assert diag[0] == g
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det_bareiss(m))
        if trial % 5 == 0:
            span = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
            sat = saturate(span, 4)
            assert sorted(saturate(sat, 4) if sat else []) == sorted(sat)

    # fixed_rank equals the averaged-trace formula on 50 representations
    from fractions import Fraction

    reps_done = 0
    while reps_done < 50:
        n = rng.randint(2, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        g = [[1 if perm[j] == i else 0 for j in range(n)] for i in range(n)]
        if rng.random() < 0.5:
            i = rng.randrange(n)
            g[i] = [-x for x in g[i]]  # signed permutation
        s = [[1 if a == b else 0 for b in range(n)] for a in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            s[i][j] = rng.randint(-1, 1)
        gc = mat_mul(mat_mul(s, g), mat_inverse_int(s))
        lat = GLattice(rank=n, action=[gc])
        group = generate_group([gc], bound=4000)
        trace_avg = Fraction(sum(sum(h[k][k] for k in range(n)) for h in group), len(group))
        assert fixed_rank(lat) == trace_avg
        reps_done += 1
    _announce(7, "lattice suite (500 SNF instances, 50 representations)", check())


# -- criterion 8: dovetail suite --------------------------------------------------


def test_criterion_8_dovetail_suite():
    check = _clock(60.0)
    # fairness at round boundaries over 10^5 quanta (16 rounds)
    tasks = [PlantedTask(0) for _ in range(8)]
    res = run_geometric(tasks, max_rounds=16)
    assert res.total_quanta >= 10**5 - 1
    spent = {i: 0 for i in range(1, 9)}
    total = 0
    current_round = 0
    for ev in res.events:
        if ev.round != current_round and current_round >= 8:
            for i in range(1, 9):
                assert spent[i] >= (total >> i) - current_round
        current_round = ev.round
        total += ev.quanta
        spent[ev.task_id] += ev.quanta

    # determinism: bit-identical traces
    def build():
        return [PlantedTask(k) for k in (3, 0, 11, 7, 0, 20)]

    r1 = run_geometric(build(), max_rounds=10)
    r2 = run_geometric(build(), max_rounds=10)
    assert [e.to_json() for e in r1.events] == [e.to_json() for e in r2.events]

    # halt order matches the discrete-event reference on 50 planted sets
    rng = random.Random(81)
    for _ in range(50):
        n = rng.randint(2, 6)
        specs = [rng.choice([0, rng.randint(1, 20)]) for _ in range(n)]
        res = run_geometric([PlantedTask(s) for s in specs], max_rounds=12)
        got = [ev.task_id for ev in res.events if ev.status == "halted"]
        assert got == reference_halt_order(specs, max_rounds=12)
    _announce(8, "dovetail suite", check())


# -- criterion 9: quartic K3 over F_2 ---------------------------------------------


K3_F2 = "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"


def test_criterion_9_quartic_k3_long(tmp_path, capsys):
    start = time.monotonic()
    spec = write_json(
        tmp_path,
        "k3.json",
        {
            "field": {"p": 2, "e": 1},
            "ambientDim": 3,
            "generators": [K3_F2],
            "flags": {"hypersurfaceDegree": 4},
        },
    )
    code, report = run_cli(
        capsys, "zeta", spec, "--no-timing", "--eval-budget", str(2**37),
        "--cache-dir", str(tmp_path / "cache"),
    )
    assert code == 0
    # (1 - 4T) divided out of P_2 leaves degree 21: 10 levels, not 11
    assert len(report["counts"]["values"]) == 10
    z = zeta_from_report(report)
    assert betti_numbers(z, pieces(z)) == [1, 0, 22, 0, 1]
    rho_bound = dim_v_mu(z, classify_weights(z, factor_zeta(z)), 1).v_mu
    assert 1 <= rho_bound <= 22
    print(f"\nACCEPTANCE 9 (quartic K3 over F_2): PASS  [{time.monotonic() - start:.1f}s, "
          f"picard upper bound {rho_bound}]")
