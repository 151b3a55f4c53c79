"""Counting over cyclotomic classes against independent counts.

Seeded random separable forms: diagonal ones, ones with blocks of two and
three variables, and ones with a variable that does not occur; over F_q for
q in {2, 3, 4, 5, 7, 9}, in P^2, P^3 and P^4 (dimensions 1-3), with degrees
where p | D and levels where gcd(D, Q - 1) = 1.  Each count of the class
path is checked against `count_points`, the brute-force projective count
and the chart path on both kernels, at every level each of them reaches
within a small amount of work.
"""

import random
from math import gcd

import pytest

from picardkit.counting import count_charts, count_points, kernel_py, separable_blocks
from picardkit.counting.charts import compile_charts
from picardkit.counting.classes import count_separable
from picardkit.counting.kernel import embedding, field_tables
from picardkit.ffield import level_field, make_field
from picardkit.polysys import HomIdeal, MultiPoly, poly_from_str

from conftest import brute_force_projective_count

FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)]
# affine points of the ambient space each oracle is given at one level;
# the brute-force count runs at n = 1 in any case
BRUTE_FORCE_POINTS = 700
CHART_POINTS = 20000


def _block_form(rng, field, nvars, variables, D):
    """A form of degree D in `variables` whose monomials join them all: a
    chain x_a^(D-1) x_b through the block, and a few random monomials."""
    terms = {}

    def add(exps):
        terms[tuple(exps)] = rng.randrange(1, field.q)

    if len(variables) == 1:
        exps = [0] * nvars
        exps[variables[0]] = D
        add(exps)
        return terms
    for a, b in zip(variables, variables[1:]):
        exps = [0] * nvars
        exps[a], exps[b] = D - 1, 1
        add(exps)
    for _ in range(rng.randint(0, 3)):
        exps = [0] * nvars
        for _ in range(D):
            exps[rng.choice(variables)] += 1
        add(exps)
    return terms


def _random_case(seed):
    """(ideal, blocks as sorted variable lists) for one seed."""
    rng = random.Random(f"separable/{seed}")
    p, e = FIELDS[seed % len(FIELDS)]
    field = make_field(p, e)
    nvars = 3 + seed % 3
    D = rng.choice([2, 3, 4])
    order = list(range(nvars))
    rng.shuffle(order)
    if seed % 4 == 3:  # a variable that does not occur
        order.pop()
    kind = seed % 4
    if kind == 0:  # diagonal
        sizes = [1] * len(order)
    else:  # blocks of up to three variables, at least two blocks
        sizes = []
        left = len(order)
        while left:
            k = rng.randint(1, min(3, left - 1 if not sizes else left))
            sizes.append(k)
            left -= k
    blocks, at = [], 0
    for k in sizes:
        blocks.append(sorted(order[at:at + k]))
        at += k
    terms = {}
    for variables in blocks:
        terms.update(_block_form(rng, field, nvars, variables, D))
    return HomIdeal([MultiPoly(nvars, field, terms)]), sorted(blocks)


def _chart_count(ideal, n, mod):
    dom = ideal.domain
    ext = level_field(dom.p, dom.e * n)
    tables = mod.build_tables(ext.p, ext.e, ext.modulus)
    return count_charts(compile_charts(ideal), dom.p, embedding(dom, tables), mod, tables, 1)


CASES = range(36)


@pytest.mark.parametrize("seed", CASES)
def test_class_path_matches_brute_force_and_both_kernels(ckernel, seed):
    ideal, blocks = _random_case(seed)
    found = separable_blocks(ideal)
    assert sorted(variables for variables, _ in found) == blocks
    q = ideal.domain.q
    n = 1
    while (q**n) ** (ideal.nvars - 1) <= CHART_POINTS:
        # count_points leaves a block of nvars - 1 variables to the charts,
        # so the class path is called directly
        dom = ideal.domain
        tables = field_tables(level_field(dom.p, dom.e * n))
        got = count_separable(found, ideal.nvars, embedding(dom, tables), tables)
        assert got == count_points(ideal, n)
        assert got == _chart_count(ideal, n, kernel_py) == _chart_count(ideal, n, ckernel)
        if n == 1 or (q**n) ** (ideal.nvars - 1) <= BRUTE_FORCE_POINTS:
            assert got == brute_force_projective_count(ideal, n)
        n += 1
    assert n > 1


def test_cases_cover_the_classes_that_matter():
    # every field and dimension, every block shape, p | D, gcd(D, Q - 1) = 1
    # at a level an oracle reaches, and a variable that does not occur
    fields, dims, sizes = set(), set(), set()
    p_divides, coprime, absent = False, False, False
    for seed in CASES:
        ideal, blocks = _random_case(seed)
        p, q = ideal.domain.p, ideal.domain.q
        (f,) = ideal.generators
        D = sum(next(iter(f.terms)))
        fields.add(q)
        dims.add(ideal.nvars - 2)
        sizes.update(len(b) for b in blocks)
        p_divides |= D % p == 0
        coprime |= gcd(D, q - 1) == 1 and q ** (ideal.nvars - 1) <= BRUTE_FORCE_POINTS
        absent |= sum(len(b) for b in blocks) < ideal.nvars
    assert fields == {2, 3, 4, 5, 7, 9}
    assert dims == {1, 2, 3}
    assert sizes == {1, 2, 3}
    assert p_divides and coprime and absent


def test_path_follows_the_largest_block(monkeypatch):
    # over classes the largest block is evaluated at Q^(k-1) points; the
    # charts resolve Q^(nvars-2) slices, and take a block of nvars - 1
    # variables: the elliptic curve y^2 z + y z^2 = x^3 and a cubic surface
    # with a block of three go to the charts, a diagonal curve and surfaces
    # with blocks of two or one to the classes
    import picardkit.counting.classes as classes

    taken = []
    real = classes.count_separable
    monkeypatch.setattr(classes, "count_separable", lambda *a: taken.append(1) or real(*a))
    cases = [
        (2, 2, 3, "x1^2*x2 + x1*x2^2 + x0^3", False),
        (2, 1, 4, "x0^2*x1 + x1^2*x2 + x2^2*x0 + x3^3", False),
        (2, 2, 3, "x0^3 + x1^3 + x2^3", True),
        (3, 1, 4, "x0*x3 - x1*x2", True),
        (2, 1, 4, "x0^2*x1 + x0*x1^2 + x2^3", True),  # x3 does not occur
    ]
    for p, e, nvars, text, over_classes in cases:
        ideal = HomIdeal([poly_from_str(text, nvars, make_field(p, e))])
        assert separable_blocks(ideal)
        taken.clear()
        assert count_points(ideal, 2) == brute_force_projective_count(ideal, 2)
        assert bool(taken) == over_classes, text


def test_one_block_stays_on_the_charts():
    field = make_field(3, 1)
    cases = [
        {(1, 1, 0, 0): 1, (0, 0, 1, 1): 1, (0, 1, 1, 0): 1},  # joined quadric
        {(1, 0, 0, 0): 1},  # a hyperplane: one block and free variables
    ]
    for terms in cases:
        assert separable_blocks(HomIdeal([MultiPoly(4, field, terms)])) == []
    two = HomIdeal([MultiPoly(4, field, {(2, 0, 0, 0): 1}),
                    MultiPoly(4, field, {(0, 2, 0, 0): 1, (0, 0, 2, 0): 1})])
    assert separable_blocks(two) == []
