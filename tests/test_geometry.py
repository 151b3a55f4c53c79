import random
import time
from fractions import Fraction
from math import comb, prod

import pytest

from picardkit.ffield import make_field
from picardkit.polysys import (
    HomIdeal,
    ImproperIntersectionError,
    MultiPoly,
    dimension_degree,
    ideal_sum,
    poly_from_str,
    proper_intersection_number,
    smoothness_check,
)
from picardkit.polysys import geometry
from picardkit.polysys.geometry import _hilbert_numerator, _minimalize, _poly_det

from conftest import (
    _monomials_of_degree,
    assert_hilbert_function_as_over_q,
    graded_dimension,
    hilbert_data,
    hilbert_polynomial,
)
from oracles import dense_dimension_degree, dense_hilbert_numerator

# the ideals below have small integer coefficients: over a large prime field
# their Hilbert data is that over Q, which `ideal` checks for each of them
F = make_field(32003, 1)


def q(s, nvars):
    return poly_from_str(s, nvars, F)


def ideal(gens, nvars=None):
    """The ideal of `gens` over F, checked to have the Hilbert function of
    its lift to Q."""
    out = HomIdeal(gens, nvars, F)
    assert_hilbert_function_as_over_q(out)
    return out


def P(nvars):
    return ideal([], nvars)


def intersection(amb, z, y):
    """proper_intersection_number, with the sum ideal it takes the degree of
    checked as `ideal` checks its inputs."""
    assert_hilbert_function_as_over_q(ideal_sum(amb, z, y))
    return proper_intersection_number(amb, z, y)


def test_hilbert_projective_plane():
    hp = hilbert_polynomial(P(3))
    # (t+1)(t+2)/2
    assert hp.coeffs == (Fraction(1), Fraction(3, 2), Fraction(1, 2))


def test_hilbert_polynomial_is_immutable_and_hashable():
    hp = hilbert_polynomial(P(3))
    with pytest.raises(AttributeError):
        hp.coeffs = ()
    with pytest.raises(AttributeError):
        del hp.coeffs
    same = hilbert_polynomial(P(3))
    assert same == hp and hash(same) == hash(hp)
    assert len({hp, same, hilbert_polynomial(P(2))}) == 2


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_hilbert_hypersurface_p3(d):
    surf = ideal([_dense_form(4, d)])
    hp = hilbert_polynomial(surf)
    for t in range(d, d + 6):
        assert hp(t) == comb(t + 3, 3) - comb(t - d + 3, 3)


def _dense_form(nvars, d):
    # x0^d + x1^d + ... is enough for degree/dimension purposes
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = d
        terms[tuple(e)] = 1
    return MultiPoly(nvars, F, terms)


def test_hilbert_twisted_cubic():
    gens = [q("x0*x2 - x1^2", 4), q("x0*x3 - x1*x2", 4), q("x1*x3 - x2^2", 4)]
    cubic = ideal(gens)
    hp = hilbert_polynomial(cubic)
    assert hp.coeffs == (Fraction(1), Fraction(3))  # 3t + 1
    # cross-check against direct graded dimensions (rank of multiplication maps)
    for t in range(1, 7):
        assert graded_dimension(cubic, t) == 3 * t + 1


def test_dimension_degree_unit_ideal():
    assert dimension_degree(ideal([q("1", 3)])) == (-1, None)


def test_dimension_degree_conic():
    assert dimension_degree(ideal([q("x0^2 + x1^2 + x2^2", 3)])) == (1, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dimension_degree_projective_space(n):
    assert dimension_degree(P(n + 1)) == (n, 1)


def test_dimension_degree_two_conics_with_resultant_oracle():
    # C1: x^2 + y^2 - z^2, C2: x^2 - y*z in P^2 (x,y,z) = (x0,x1,x2)
    c1 = q("x0^2 + x1^2 - x2^2", 3)
    c2 = q("x0^2 - x1*x2", 3)
    both = ideal([c1, c2])
    assert dimension_degree(both) == (0, 4)
    # oracle: no common points at infinity (z=0 forces x=y=0), so the
    # intersection count is deg_y Res_x(f, g) in the affine chart z=1
    f = [q("x1^2 - 1", 3), MultiPoly.zero(3, F), q("1", 3)]  # x^2 + (y^2-1)
    g = [q("-x1", 3), MultiPoly.zero(3, F), q("1", 3)]  # x^2 - y
    syl = [
        [f[2], f[1], f[0], MultiPoly.zero(3, F)],
        [MultiPoly.zero(3, F), f[2], f[1], f[0]],
        [g[2], g[1], g[0], MultiPoly.zero(3, F)],
        [MultiPoly.zero(3, F), g[2], g[1], g[0]],
    ]
    res = _poly_det(syl)
    assert max(sum(e) for e in res.terms) == 4


def test_bezout_random_coprime_forms():
    rng = random.Random(7)
    for _ in range(6):
        d1, d2 = rng.randint(1, 3), rng.randint(1, 3)
        f = _random_form(rng, d1)
        g = _random_form(rng, d2)
        dim, deg = dimension_degree(ideal([f, g]))
        if dim != 0:
            continue  # degenerate draw (shared component); skip
        assert deg == d1 * d2


def _random_form(rng, d):
    terms = {}
    for a in range(d + 1):
        for b in range(d + 1 - a):
            c = rng.randint(-3, 3)
            if c:
                terms[(a, b, d - a - b)] = F.from_int(c)
    if not terms:
        terms[(d, 0, 0)] = 1
    return MultiPoly(3, F, terms)


def test_smoothness_conic():
    assert smoothness_check(ideal([q("x0^2 + x1^2 + x2^2", 3)]))


def test_smoothness_nodal_union():
    assert not smoothness_check(ideal([q("x0*x1", 3)]))


def test_smoothness_fermat_quartic_f3():
    # char 3: the Jacobian ideal contains x^3, y^3, z^3, w^3, so the singular
    # locus is empty and the criterion must return True
    f3 = make_field(3, 1)
    ideal = HomIdeal([poly_from_str("x0^4 + x1^4 + x2^4 + x3^4", 4, f3)])
    assert smoothness_check(ideal)


def test_smoothness_projective_space():
    assert smoothness_check(P(3))


def test_intersection_two_lines():
    amb = P(3)
    z = ideal([q("x0", 3)])
    y = ideal([q("x1", 3)])
    assert intersection(amb, z, y) == 1


def test_intersection_conic_line():
    amb = P(3)
    z = ideal([q("x0^2 + x1^2 - x2^2", 3)])
    y = ideal([q("x0", 3)])
    assert intersection(amb, z, y) == 2


def test_intersection_on_quadric_surface():
    # X: smooth quadric in P^3; plane sections have degree 2 = deg X,
    # a ruling line meets a plane section once
    amb = ideal([q("x0*x3 - x1*x2", 4)])
    sect1 = ideal([q("x0*x3 - x1*x2", 4), q("x0 - x3", 4)])
    sect2 = ideal([q("x0*x3 - x1*x2", 4), q("x1 - x2", 4)])
    line = ideal([q("x0", 4), q("x1", 4)])
    assert intersection(amb, sect1, sect2) == 2
    assert intersection(amb, line, sect1) == 1


def test_intersection_disjoint_lines_is_zero():
    amb = ideal([q("x0*x3 - x1*x2", 4)])
    l1 = ideal([q("x0", 4), q("x1", 4)])
    l2 = ideal([q("x2", 4), q("x3", 4)])
    assert intersection(amb, l1, l2) == 0


def test_intersection_improper_raises():
    amb = P(3)
    z = ideal([q("x0", 3)])
    with pytest.raises(ImproperIntersectionError):
        intersection(amb, z, z)


def test_hilbert_agreement_bound_against_graded_oracle():
    corpus = [
        ideal([q("x0^2 - x1*x2", 3)]),
        ideal([q("x0*x2 - x1^2", 4), q("x0*x3 - x1*x2", 4), q("x1*x3 - x2^2", 4)]),
        ideal([q("x0^3 + x1^3 + x2^3", 3)]),
        ideal([q("x0", 3), q("x1^2", 3)]),
        ideal([q("x0*x1", 3), q("x0*x2", 3)]),
    ]
    for member in corpus:
        hp, bound = hilbert_data(member)
        for d in range(bound, bound + 4):
            expected = graded_dimension(member, d)
            got = hp(d) if not hp.is_zero() else 0
            assert got == expected, (member.generators, d)


def _random_monomial_ideal(rng):
    """Minimal generators of a monomial ideal in 1-6 variables, exponents
    up to 30, with pure powers among them."""
    nvars = rng.randint(1, 6)
    gens = []
    for _ in range(rng.randint(0, 6)):
        g = [0] * nvars
        if rng.random() < 0.3:
            g[rng.randrange(nvars)] = rng.randint(1, 30)
        else:
            for i in range(nvars):
                if rng.random() < 0.5:
                    g[i] = rng.randint(1, 30)
        gens.append(tuple(g))
    return _minimalize(gens), nvars


def test_sparse_numerator_matches_the_dense_oracle():
    # the power pivots give the numerator that the x_j pivots give, and
    # dimension_degree reads the reduced series' dimension and degree
    rng = random.Random(30)
    for _ in range(3000):
        gens, nvars = _random_monomial_ideal(rng)
        sparse = _hilbert_numerator(gens, nvars, {})
        assert all(sparse.values()), gens
        dense = [0] * (max(sparse, default=-1) + 1)
        for e, c in sparse.items():
            dense[e] = c
        assert dense == dense_hilbert_numerator(gens, nvars, {}), gens
        monomials = HomIdeal([MultiPoly(nvars, F, {g: 1}) for g in gens], nvars, F)
        assert dimension_degree(monomials) == dense_dimension_degree(monomials), gens


def _random_form_over(rng, field, nvars, d):
    terms = {m: rng.randrange(field.q) for m in _monomials_of_degree(nvars, d)
             if rng.random() < 0.4}
    return MultiPoly(nvars, field, terms)


@pytest.mark.parametrize("p,e", [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (5, 2), (7, 2)])
def test_dimension_degree_and_smoothness_match_the_dense_oracle(monkeypatch, p, e):
    field = make_field(p, e)
    rng = random.Random(31 * p + e)
    for _ in range(30):
        nvars = rng.randint(2, 4)
        gens = [_random_form_over(rng, field, nvars, rng.randint(1, 3))
                for _ in range(rng.randint(1, nvars - 1))]
        member = HomIdeal(gens, nvars, field)
        got = dimension_degree(member), smoothness_check(member)
        with monkeypatch.context() as m:
            m.setattr(geometry, "dimension_degree", dense_dimension_degree)
            expected = dense_dimension_degree(member), smoothness_check(member)
        assert got == expected, [g.terms for g in gens]


@pytest.mark.parametrize(
    "exponents,nvars",
    [((7,), 2), ((10**9,), 2), ((3, 5), 3), ((10**6, 10**9), 3), ((2, 3, 4), 5),
     ((12345, 10**7, 2), 4), ((2**64,), 3)],
)
def test_pure_power_complete_intersection_has_degree_the_product(exponents, nvars):
    gens = []
    for i, a in enumerate(exponents):
        g = [0] * nvars
        g[i] = a
        gens.append(MultiPoly(nvars, F, {tuple(g): 1}))
    member = HomIdeal(gens, nvars, F)
    assert dimension_degree(member) == (nvars - 1 - len(exponents), prod(exponents))


@pytest.mark.parametrize("N", [1, 2, 1000, 10**6])
def test_line_with_an_embedded_point_at_any_exponent(N):
    # (x0^N x1, x1^2) in P^2 is the line x1 = 0 with an embedded point at
    # (0:0:1): dimension 1, degree 1, at a cost that N does not raise
    started = time.perf_counter()
    member = HomIdeal([MultiPoly(3, F, {(N, 1, 0): 1}), MultiPoly(3, F, {(0, 2, 0): 1})])
    assert dimension_degree(member) == (1, 1)
    assert time.perf_counter() - started < 0.1
