import random
from fractions import Fraction
from math import gcd

import pytest

from picardkit.exactla import det_bareiss, echelon, mat_mul, rank
from picardkit.lattice import (
    GLattice,
    LatticeError,
    RelationViolationError,
    build_n,
    coords_in_hnf,
    fixed_rank,
    hnf_rows,
    independence_certificate,
    integer_kernel,
    mat_inverse_int,
    saturate,
    write_checkpoint,
)

from oracles import det_laplace, diagonal_of, generate_group, rref, snf, snf_kernel, solve


def rand_matrix(rng, rows, cols, lo=-9, hi=9):
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def test_snf_identity():
    u, d, v = snf([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    assert u == [[1, 0], [0, 1]] and v == [[1, 0], [0, 1]]


def test_snf_worked_example():
    m = [[2, 4], [6, 8]]
    u, d, v = snf(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert diagonal_of(d) == [2, 4]
    assert abs(det_bareiss(u)) == 1 and abs(det_bareiss(v)) == 1
    # gcd/determinant oracle
    assert d[0][0] == 2  # gcd of entries
    assert d[0][0] * d[1][1] == abs(det_bareiss(m))


def test_snf_zero_matrix():
    u, d, v = snf([[0, 0], [0, 0]])
    assert d == [[0, 0], [0, 0]]


def test_snf_random_oracle():
    rng = random.Random(99)
    for _ in range(120):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = rand_matrix(rng, rows, cols)
        u, d, v = snf(m)
        assert mat_mul(mat_mul(u, m), v) == d
        assert det_bareiss(u) in (1, -1)
        assert det_bareiss(v) in (1, -1)
        diag = diagonal_of(d)
        for i in range(len(diag)):
            for j in range(len(d[i]) if i < len(d) else 0):
                if i != j:
                    assert d[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        flat = [x for row in m for x in row]
        g = 0
        for x in flat:
            g = gcd(g, abs(x))
        if diag:
            assert diag[0] == g
        if rows == cols:
            prod = 1
            for x in diag:
                prod *= x
            assert prod == abs(det_bareiss(m))


def _kernel_case(rng, rows, cols):
    """A random rows x cols matrix, often of lower rank, sometimes with a
    zero row or column."""
    rk = rng.randint(0, min(rows, cols))
    if rk < min(rows, cols) and rng.random() < 0.7:
        if rk:
            m = mat_mul(rand_matrix(rng, rows, rk, -3, 3), rand_matrix(rng, rk, cols, -3, 3))
        else:
            m = [[0] * cols for _ in range(rows)]
    else:
        m = rand_matrix(rng, rows, cols)
    if rng.random() < 0.3:
        m[rng.randrange(rows)] = [0] * cols
    if rng.random() < 0.3:
        j = rng.randrange(cols)
        for row in m:
            row[j] = 0
    return m


def test_integer_kernel_matches_snf_kernel():
    assert integer_kernel([]) == snf_kernel([]) == []
    assert integer_kernel([[], []]) == snf_kernel([[], []]) == []
    assert integer_kernel([[0, 0]]) == snf_kernel([[0, 0]]) == [[1, 0], [0, 1]]
    rng = random.Random(3000)
    sizes = [(rng.randint(1, 8), rng.randint(1, 10)) for _ in range(400)]
    sizes += [(n, n) for n in range(9, 28, 3)] + [(27, 27), (20, 27), (27, 20)]
    for rows, cols in sizes:
        m = _kernel_case(rng, rows, cols)
        kernel = integer_kernel(m)
        assert kernel == snf_kernel(m)
        assert len(kernel) == cols - rank(m)
        assert all(sum(a * b for a, b in zip(row, x)) == 0 for row in m for x in kernel)


def test_saturate_examples():
    assert saturate([[2, 0]], 2) == [[1, 0]]
    basis = saturate([[1, 0], [0, 1]], 2)
    assert sorted(basis) == [[0, 1], [1, 0]]


def test_saturate_idempotent_and_index():
    rng = random.Random(4)
    for _ in range(40):
        span = rand_matrix(rng, 3, 5, -5, 5)
        sat = saturate(span, 5)
        again = saturate(sat, 5) if sat else []
        assert sorted(again) == sorted(sat)
        # index of span inside saturation = product of nonunit invariant factors
        _, d, _ = snf(span)
        diag = [x for x in diagonal_of(d) if x]
        expected_index = 1
        for x in diag:
            expected_index *= x
        if len(diag) == len(sat) and sat:
            coords = []
            for row in span:
                c = _coords(sat, row)
                assert c is not None
                assert coords_in_hnf(sat, row) == c
                coords.append(c)
            # volume of span lattice inside saturation basis
            sq = [c for c in coords]
            vol = _lattice_index(sq, len(sat))
            assert vol == expected_index


def _coords(basis, vector):
    mat = [[Fraction(basis[j][i]) for j in range(len(basis))] for i in range(len(vector))]
    sol = solve(mat, [Fraction(x) for x in vector])
    if sol is None or any(x.denominator != 1 for x in sol):
        return None
    return [int(x) for x in sol]


def test_coords_in_hnf_matches_fraction_oracle():
    rng = random.Random(23)
    assert coords_in_hnf([], [0, 0]) == _coords([], [0, 0]) == []
    assert coords_in_hnf([], [0, 1]) is _coords([], [0, 1]) is None
    for _ in range(150):
        cols = rng.randint(1, 5)
        basis = hnf_rows(rand_matrix(rng, rng.randint(1, cols), cols, -6, 6))
        if not basis:
            continue
        # Hermite form: pivots strictly increase, are positive, and reduce
        # the entries above them
        pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
        assert pivots == sorted(set(pivots))
        for i, (row, j) in enumerate(zip(basis, pivots)):
            assert row[j] > 0
            assert all(0 <= basis[h][j] < row[j] for h in range(i))
        coeffs = [rng.randint(-4, 4) for _ in basis]
        on = [sum(c * row[j] for c, row in zip(coeffs, basis)) for j in range(cols)]
        assert coords_in_hnf(basis, on) == _coords(basis, on) == coeffs
        # in d*lattice, `on` lies in the rational span and is off the lattice
        # unless d divides every coefficient
        d = rng.randint(2, 5)
        coarse = hnf_rows([[d * x for x in row] for row in basis])
        expect = [c // d for c in coeffs] if all(c % d == 0 for c in coeffs) else None
        assert coords_in_hnf(coarse, on) == _coords(coarse, on) == expect
        # a random vector: off the rational span too when the rank is lower
        vector = [rng.randint(-9, 9) for _ in range(cols)]
        assert coords_in_hnf(basis, vector) == _coords(basis, vector)


def test_mat_inverse_int():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):  # random signed shears and swaps
            i, j = rng.randrange(n), rng.randrange(n)
            if i != j:
                c = rng.randint(-3, 3)
                m[i] = [x + c * y for x, y in zip(m[i], m[j])]
                m[i], m[j] = m[j], [-x for x in m[i]]
        ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        inv = mat_inverse_int(m)
        assert mat_mul(m, inv) == mat_mul(inv, m) == ident
    assert mat_inverse_int([]) == []
    for bad in ([[1, 2], [2, 4]], [[0, 0], [0, 0]], [[2, 0], [0, 1]], [[1, 1], [1, -1]], [[1, 0]]):
        with pytest.raises(LatticeError):
            mat_inverse_int(bad)


def _lattice_index(rows, rank):
    _, d, _ = snf(rows)
    out = 1
    for x in diagonal_of(d):
        if x:
            out *= x
    return out


def test_independence_certificate_examples():
    r, rows, cols, det = independence_certificate([[1]])
    assert r == 1 and det != 0
    r, rows, cols, det = independence_certificate([[0, 1], [1, 0]])
    assert r == 2 and abs(det) == 1
    r, rows, cols, det = independence_certificate([[0, 0], [0, 0]])
    assert r == 0


def test_independence_certificate_tracks_original_rows():
    # row 0 is zero and row 2 is twice row 1: the pivots land on rows 1 and 3
    assert independence_certificate([[0, 0], [1, 2], [2, 4], [0, 1]]) == (2, [1, 3], [0, 1], 1)
    _, pivots, pivot_rows = rref([[0, 0], [1, 2], [2, 4], [0, 1]])
    assert (pivots, pivot_rows) == ([0, 1], [1, 3])


def test_integer_echelon_matches_gauss_jordan():
    # the fraction-free echelon behind rank and independence certificates
    # picks rref's pivots: same rank, pivot rows and pivot columns
    rng = random.Random(29)
    for trial in range(400):
        rows, cols = rng.randint(1, 7), rng.randint(1, 7)
        m = rand_matrix(rng, rows, cols, -5, 5)
        if trial % 2:  # rank-deficient: rows from a smaller random basis
            basis = rand_matrix(rng, rng.randint(1, 3), cols, -3, 3)
            m = [[sum(rng.randint(-2, 2) * b[j] for b in basis) for j in range(cols)]
                 for _ in range(rows)]
        if trial % 3 == 0:  # zero rows and zero columns
            zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
            m[zero_row] = [0] * cols
            for row in m:
                row[zero_col] = 0
        _, pivots, pivot_rows = rref(m)
        assert echelon(m) == (pivots, pivot_rows), m
        assert rank(m) == len(pivots)
        r, cert_rows, cert_cols, _ = independence_certificate(m)
        assert (r, cert_rows, cert_cols) == (len(pivots), sorted(pivot_rows), pivots)
    assert echelon([]) == ([], []) and echelon([[0, 0]]) == ([], [])


def test_independence_certificate_minor_is_nonsingular():
    rng = random.Random(17)
    for _ in range(40):
        m = rand_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), -4, 4)
        r, rows, cols, det = independence_certificate(m)
        if r:
            minor = [[m[i][j] for j in cols] for i in rows]
            assert det_bareiss(minor) == det != 0


def test_det_bareiss_matches_signed_laplace_expansion():
    # the sign matters (it reaches the rank checkpoint's witness), so the
    # oracle is compared signed: permutation matrices of both parities, then
    # random matrices up to 5x5 with a zero leading entry (a forced row
    # swap), zero rows and columns, and low rank
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1
    assert det_bareiss([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    assert det_bareiss([]) == 1
    rng = random.Random(41)
    for trial in range(600):
        n = rng.randint(1, 5)
        m = rand_matrix(rng, n, n, -6, 6)
        if trial % 2:
            for i in range(rng.randint(1, n)):
                m[i][i] = 0
        if trial % 5 == 0:
            m[rng.randrange(n)] = [0] * n
        if trial % 7 == 0:
            j = rng.randrange(n)
            for row in m:
                row[j] = 0
        if trial % 11 == 0 and n > 1:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1])]
        assert det_bareiss(m) == det_laplace(m), m


def test_glattice_validation():
    with pytest.raises(Exception):
        GLattice(rank=2, action=[[[2, 0], [0, 1]]])  # det 2
    with pytest.raises(RelationViolationError):
        GLattice(rank=2, action=[[[0, 1], [1, 0]]], relations=[[1]])  # g != e
    GLattice(rank=2, action=[[[0, 1], [1, 0]]], relations=[[1, 1]])  # g^2 = e


def test_invariants_rank_basic():
    assert fixed_rank(GLattice(rank=3, action=[])) == 3
    swap = GLattice(rank=2, action=[[[0, 1], [1, 0]]], relations=[[1, 1]])
    assert fixed_rank(swap) == 1


def test_invariants_rank_trace_oracle():
    rng = random.Random(31)
    perms4 = [
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
        [[0, 0, 1, 0], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    ]
    signed = [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]  # order 4
    for gens in [[perms4[0]], [perms4[1]], [perms4[2]], [signed], [perms4[0], perms4[1]]]:
        lat = GLattice(rank=4, action=gens)
        group = generate_group(gens)
        trace_sum = sum(sum(g[i][i] for i in range(4)) for g in group)
        assert fixed_rank(lat) == Fraction(trace_sum, len(group))


def test_invariants_rank_random_conjugated_perms():
    rng = random.Random(8)
    count = 0
    while count < 20:
        n = rng.randint(2, 4)
        perm = list(range(n))
        rng.shuffle(perm)
        g = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
        # conjugate by a random unimodular shear
        s = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        s[i][j] = rng.randint(-2, 2)
        sinv = mat_inverse_int(s)
        assert mat_mul(s, sinv) == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        gc = mat_mul(mat_mul(s, g), sinv)
        lat = GLattice(rank=n, action=[gc])
        group = generate_group([gc])
        trace_sum = sum(sum(h[i][i] for i in range(n)) for h in group)
        assert fixed_rank(lat) == Fraction(trace_sum, len(group))
        count += 1


def test_build_n_trivial():
    lat, class_map = build_n([[1, 0], [0, 1]], [])
    assert lat.rank == 2
    assert class_map([3, 4]) is not None


def test_build_n_swap_quadric_shape():
    pairings = [[0, 1], [1, 0]]
    swap = [[0, 1], [1, 0]]
    lat, class_map = build_n(pairings, [swap])
    assert lat.rank == 2
    assert fixed_rank(lat) == 1
    coords = class_map([1, 1])
    assert coords is not None


def test_build_n_duplicate_row_same_lattice():
    lat1, _ = build_n([[2, 0], [0, 3]], [])
    lat2, _ = build_n([[2, 0], [0, 3], [2, 0]], [])
    assert lat1.rank == lat2.rank == 2


def test_build_n_refuses_what_leaves_the_lattice():
    # one ruling of the quadric: the swap moves it to the other ruling,
    # which lies outside its saturation
    swap = [[0, 1], [1, 0]]
    with pytest.raises(LatticeError, match="does not stabilize"):
        build_n([[1, 0]], [swap])
    lat, class_map = build_n([[2, 0]], [])
    assert (lat.rank, class_map([3, 0])) == (1, [3])
    with pytest.raises(LatticeError, match="does not lie in the lattice model"):
        class_map([0, 1])
    # no pairings span the zero lattice, which every action stabilizes
    lat, class_map = build_n([], [swap])
    assert (lat.rank, lat.action, fixed_rank(lat), class_map([0, 0])) == (0, [[]], 0, [])


def test_build_n_class_map_injective_on_span():
    # full row rank: distinct integer vectors in the span get distinct coords
    pairings = [[2, 1, 0], [0, 1, 1]]
    lat, class_map = build_n(pairings, [])
    seen = {}
    for a in range(-2, 3):
        for b in range(-2, 3):
            v = [2 * a, a + b, b]
            c = tuple(class_map(v))
            assert c not in seen or seen[c] == v
            seen[c] = v


WITNESS = {"minor": [[0, 1], [1, 0]], "rows": [0, 1], "cols": [0, 1], "det": -1,
           "labels": ["z0", "z1"]}


def test_algorithm_b_checkpoint_bytes(tmp_path):
    path = str(tmp_path / "ckpt.json")
    write_checkpoint(path, "abc", 3, 1, 2, WITNESS)
    # the bytes that earlier checkpoints hold
    assert (tmp_path / "ckpt.json").read_text() == (
        '{"best": 2, "bestCertificate": {"kind": "lower", "value": 2, "witness": '
        '{"cols": [0, 1], "det": -1, "labels": ["z0", "z1"], "minor": [[0, 1], [1, 0]], '
        '"rows": [0, 1]}}, "inputsDigest": "abc", "p": 1, "vMu": 3}'
    )
