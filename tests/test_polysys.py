import random
import sys

import pytest

from picardkit.ffield import make_field
from picardkit.polysys import (
    HomIdeal,
    MultiPoly,
    PolyError,
    groebner,
    normal_form,
    order_key,
    poly_from_str,
    poly_to_str,
    s_polynomial,
)
from picardkit.polysys.groebner import _divides, _lcm, leading

from conftest import assert_hilbert_function_as_over_q

# the ideals below have small integer coefficients: over a large prime field
# their Groebner bases and Hilbert data are those over Q, which
# `test_hilbert_functions_are_those_over_q` checks
F = make_field(32003, 1)


def q(s, nvars):
    return poly_from_str(s, nvars, F)


def test_parser_basic():
    p = q("3*x0^2*x1 - x2^3", 3)
    assert p.terms == {(2, 1, 0): F.from_int(3), (0, 0, 3): F.from_int(-1)}
    assert q("x0 + x0", 1).terms == {(1,): F.from_int(2)}


@pytest.mark.parametrize("text", ["1/2*x0 - 3/4", "x0 + 1/2*x1", "x0/x1"])
def test_parser_rejects_rational_coefficients(text):
    # every polynomial lives over a finite field, whose grammar has no "/"
    with pytest.raises(PolyError, match="bad character"):
        q(text, 2)


def test_zero_ideal_needs_its_ring():
    with pytest.raises(PolyError, match="ring"):
        HomIdeal([])
    zero = HomIdeal([], 3, F)
    assert (zero.nvars, zero.domain, zero.generators) == (3, F, [])
    # a zero polynomial carries its ring
    assert HomIdeal([MultiPoly.zero(2, F)]).nvars == 2


def test_ideal_ring_must_match_its_generators():
    with pytest.raises(PolyError, match="different rings"):
        HomIdeal([q("x0", 2)], 3, F)
    with pytest.raises(PolyError, match="different rings"):
        HomIdeal([q("x0", 2), poly_from_str("x0", 2, make_field(5, 1))])


def test_parser_field_coefficients():
    f4 = make_field(2, 2)
    p = poly_from_str("g*x0 + x1 + g^2*x1", 2, f4)
    w = f4.p  # the index of g
    assert p.terms[(1, 0)] == w
    assert p.terms[(0, 1)] == f4.add(1, f4.mul(w, w))


# specs whose coefficients span several base-p digits, with their printed
# text and variety hash: cache keys, checkpoints and reports over F_8, F_9
# and F_25 read them, so neither may change
MULTI_DIGIT_SPECS = [
    (2, 3, 3, "x0^3 + g^3*x1^3 + g^5*x2^3 + g*x0*x1*x2",
     "x0^3 + x1^3 + g*x1^3 + g*x0*x1*x2 + x2^3 + g*x2^3 + g^2*x2^3",
     "24aecf4dd2fb903f11073d6eb157e001f60cd514798cdfb4e24e85dc1dadbc61"),
    (3, 2, 3, "2*g*x0^2 + x0^2 + g^7*x1^2 - g^2*x2^2 + x0*x1",
     "x0^2 + 2*g*x0^2 + x0*x1 + 2*g*x1^2 + x2^2",
     "5c30e256310e87cdddb4cee9a7970573b759f6ff766af1298ace7e096f2f9102"),
    (5, 2, 4, "x0^4 + g^7*x1^4 - g^2*x2^4 + 3*g*x0*x1*x2^2 + 4*x3^4 - 2*g*x3^4",
     "x0^4 + 2*g*x1^4 + 3*g*x0*x1*x2^2 + 2*x2^4 + 4*x3^4 + 3*g*x3^4",
     "2e72dd1dfb6729b9531fbdb7d08a0c4b92bffe84aee240ec676eb8b2740aee99"),
]


@pytest.mark.parametrize("p,e,nvars,text,printed,digest", MULTI_DIGIT_SPECS)
def test_multi_digit_coefficients_keep_their_text_and_hash(p, e, nvars, text, printed, digest):
    from picardkit.counting import variety_hash

    field = make_field(p, e)
    f = poly_from_str(text, nvars, field)
    assert poly_to_str(f) == printed
    assert poly_from_str(printed, nvars, field) == f
    assert variety_hash(HomIdeal([f])) == digest


@pytest.mark.parametrize("c", [-1, 4, True, 1.0, "1", None])
def test_multipoly_refuses_coefficients_outside_the_field(c):
    f4 = make_field(2, 2)
    with pytest.raises(PolyError, match="bad field coefficient"):
        MultiPoly(2, f4, {(1, 0): c})
    with pytest.raises(PolyError, match="bad field coefficient"):
        MultiPoly(2, f4, {(1, 0): 1}).scaled(c)


def test_parser_rejects_garbage():
    with pytest.raises(PolyError):
        q("x9", 2)
    with pytest.raises(PolyError):
        q("x0 $ x1", 2)
    with pytest.raises(PolyError):
        q("", 2)


@pytest.mark.parametrize(
    "s,n",
    [
        ("3*x0^2*x1 - x2^3", 3),
        ("x0^4 + x1^4 + x2^4 + x3^4", 4),
        ("-x0 + 2*x1 - 10668*x2", 3),  # 10668 = 1/3 in F_32003
        ("7", 1),
        ("x0*x3 - x1*x2", 4),
    ],
)
def test_printer_round_trip(s, n):
    p = q(s, n)
    assert q(poly_to_str(p), n) == p


def test_printer_round_trip_field():
    f4 = make_field(2, 2)
    p = poly_from_str("x0^3 + g*x1^3 + g^2*x2^3 + x0*x1*x2", 3, f4)
    assert poly_from_str(poly_to_str(p), 3, f4) == p


def test_partial_derivative_char_p():
    f3 = make_field(3, 1)
    p = poly_from_str("x0^3 + x0^2*x1", 2, f3)
    d = p.partial(0)
    # 3x0^2 vanishes in char 3
    assert d == poly_from_str("2*x0*x1", 2, f3)


def test_groebner_principal():
    basis = groebner(HomIdeal([q("x0", 2)]))
    assert len(basis) == 1
    assert basis[0] == q("x0", 2)


def test_groebner_unit_ideal():
    basis = groebner(HomIdeal([q("1", 2)]))
    assert len(basis) == 1
    assert basis[0] == q("1", 2)


def _leads(basis):
    return [leading(g)[0] for g in basis]


def _buchberger_criterion_holds(basis):
    leads = _leads(basis)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], leads[i], leads[j])
            if normal_form(s, basis, leads):
                return False
    return True


def test_groebner_buchberger_oracle():
    ideal = HomIdeal([q("x0^2 - x1*x2", 3), q("x0*x1 - x2^2", 3)])
    basis = groebner(ideal)
    assert _buchberger_criterion_holds(basis)
    # each original generator reduces to zero against the basis
    for g in ideal.generators:
        assert not normal_form(g, basis, _leads(basis))


def test_groebner_idempotent():
    ideal = HomIdeal([q("x0^2 - x1*x2", 3), q("x0*x1 - x2^2", 3)])
    b1 = groebner(ideal)
    b2 = groebner(HomIdeal(b1))
    assert b1 == b2


def test_groebner_over_f2():
    f2 = make_field(2, 1)
    gens = [poly_from_str("x0*x3 + x1*x2", 4, f2), poly_from_str("x0 + x1", 4, f2)]
    basis = groebner(HomIdeal(gens))
    assert _buchberger_criterion_holds(basis)


def test_groebner_twisted_cubic():
    gens = [q("x0*x2 - x1^2", 4), q("x0*x3 - x1*x2", 4), q("x1*x3 - x2^2", 4)]
    basis = groebner(HomIdeal(gens))
    assert _buchberger_criterion_holds(basis)
    assert len(basis) == 3


def reference_groebner(ideal):
    """Buchberger as it stood before the pair heap: each step takes the
    smallest (order_key(lcm), (i, j)) by `min` over every open pair, with
    leading monomials recomputed, and no leading data is shared."""
    gens = [g for g in ideal.generators if g]
    if not gens:
        return []
    G = []
    for g in gens:
        _, lc = leading(g)
        G.append(g.scaled(g.domain.inv(lc)))

    pairs = {(i, j) for i in range(len(G)) for j in range(i + 1, len(G))}
    done = set()

    def lcm_of(i, j):
        return _lcm(leading(G[i])[0], leading(G[j])[0])

    while pairs:
        i, j = min(pairs, key=lambda ij: (order_key(lcm_of(*ij)), ij))
        pairs.discard((i, j))
        done.add((i, j))
        le_i = leading(G[i])[0]
        le_j = leading(G[j])[0]
        l = _lcm(le_i, le_j)
        # coprimality criterion
        if all(a + b == c for a, b, c in zip(le_i, le_j, l)):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already treated
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            if _divides(leading(G[k])[0], l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s = normal_form(s_polynomial(G[i], G[j], le_i, le_j), G, _leads(G))
        if s:
            _, lc = leading(s)
            s = s.scaled(s.domain.inv(lc))
            G.append(s)
            n = len(G) - 1
            for m in range(n):
                pairs.add((m, n))
    return _reference_reduce_basis(G)


def _reference_reduce_basis(G):
    # drop elements whose leading monomial is divisible by another's
    leads = [leading(g)[0] for g in G]
    keep = []
    for i, g in enumerate(G):
        if any(
            j != i and _divides(leads[j], leads[i]) and (leads[j] != leads[i] or j < i)
            for j in range(len(G))
        ):
            continue
        keep.append(g)
    # fully reduce each kept element against the others
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1 :]
        r = normal_form(g, others, _leads(others)) if others else g
        if r:
            _, lc = leading(r)
            reduced.append(r.scaled(r.domain.inv(lc)))
    reduced.sort(key=lambda p: order_key(leading(p)[0]))
    return reduced


def _random_form(rng, field, nvars, degree):
    terms = {}
    for _ in range(rng.randint(2, 5)):
        exps = [0] * nvars
        for _ in range(degree):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = rng.randrange(1, field.q)
    return MultiPoly(nvars, field, terms)


def _singular_locus_ideals(seed, count):
    """`count` random homogeneous ideals over F_2, F_3, F_4 and F_5 in 3 to 5
    variables, each with its generators' partial derivatives added, as
    `smoothness_check` builds the singular locus of a hypersurface."""
    rng = random.Random(seed)
    fields = [make_field(2, 1), make_field(3, 1), make_field(2, 2), make_field(5, 1)]
    for _ in range(count):
        field = fields[rng.randrange(len(fields))]
        nvars = rng.randint(3, 5)
        gens = [
            _random_form(rng, field, nvars, rng.randint(2, 3))
            for _ in range(rng.randint(1, 2))
        ]
        yield gens + [g.partial(i) for g in gens for i in range(nvars)]


def test_groebner_matches_reference_on_random_ideals():
    for gens in _singular_locus_ideals(1303, 100):
        ideal = HomIdeal(gens)
        assert groebner(ideal) == reference_groebner(ideal), [poly_to_str(g) for g in gens]


K3_F2 = "x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"
CUBIC_F4 = "x0^3 + x1^3 + x2^3 + g^2*x3^3"


@pytest.mark.parametrize("p, e, text", [
    (2, 1, K3_F2), (2, 2, CUBIC_F4), (5, 1, "x0^4 + x1^4 + x2^4 + x3^4"),
])
def test_groebner_inverts_at_most_once_per_added_element(monkeypatch, p, e, text):
    # the basis is kept monic, so S-polynomials and reductions divide by no
    # leading coefficient; only scaling an element to be monic as it joins
    # the basis inverts (the K3's singular locus took 94 inversions before)
    from picardkit.ffield import FieldDesc
    from picardkit.polysys import smoothness_check

    # the module, which the package's `groebner` function shadows
    groebner_module = sys.modules["picardkit.polysys.groebner"]

    calls = {"inv": 0, "added": 0}
    inv, lead = FieldDesc.inv, groebner_module.leading

    def counting_inv(self, a):
        calls["inv"] += 1
        return inv(self, a)

    def counting_leading(g):
        calls["added"] += 1  # groebner reads the leading term only in add
        return lead(g)

    monkeypatch.setattr(FieldDesc, "inv", counting_inv)
    monkeypatch.setattr(groebner_module, "leading", counting_leading)
    field = make_field(p, e)
    assert smoothness_check(HomIdeal([poly_from_str(text, 4, field)]))
    assert calls["added"] > 0
    assert calls["inv"] <= calls["added"]


def test_homogeneity_enforced():
    with pytest.raises(PolyError):
        HomIdeal([q("x0^2 + x1", 2)])


def test_zero_generator_dropped():
    ideal = HomIdeal([q("x0", 2), MultiPoly.zero(2, F)])
    assert len(ideal.generators) == 1


@pytest.mark.parametrize("gens, nvars", [
    (["x0"], 2),
    (["1"], 2),
    (["x0^2 - x1*x2", "x0*x1 - x2^2"], 3),
    (["x0*x2 - x1^2", "x0*x3 - x1*x2", "x1*x3 - x2^2"], 4),
])
def test_hilbert_functions_are_those_over_q(gens, nvars):
    # the ideals of this file's Groebner tests, which were built over Q
    assert_hilbert_function_as_over_q(HomIdeal([q(g, nvars) for g in gens]))
