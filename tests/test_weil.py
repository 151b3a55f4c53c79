import random
from math import isqrt

import pytest

from picardkit.counting import count_tower
from picardkit.intfactor import checked_factorization, factor_int_poly
from picardkit.ffield import make_field
from picardkit.polysys import HomIdeal, poly_from_str
from picardkit.upoly import int_quotient, mul
from picardkit.weil import (
    UnclassifiableFactorError,
    betti_numbers,
    certify_root_modulus,
    classify_weights,
    cyclotomic_polynomial,
    dim_v_mu,
    factor_zeta,
)
from picardkit.zeta import DegreeBudget, ZetaFunction, hypersurface_budget, reconstruct

from oracles import cyclotomic_multiplicity, mul_many


def pieces(z):
    return classify_weights(z, factor_zeta(z))


def z_projective(q, m):
    den = [1]
    for i in range(m + 1):
        den = mul(den, [1, -(q**i)])
    return ZetaFunction(q=q, num=[1], den=den, dim=m)


def remultiply(factors):
    """The product of factor^multiplicity."""
    return mul_many([f for f, m in factors for _ in range(m)])


def test_factor_1_minus_t_squared():
    assert sorted(factor_int_poly([1, 0, -1])) == [([1, -1], 1), ([1, 1], 1)]
    assert factor_int_poly([1]) == []


def test_factor_with_multiplicities():
    poly = mul(mul([1, -2], [1, -2]), [1, -1])
    factors = factor_int_poly(poly)
    assert remultiply(factors) == poly
    assert sorted(m for _, m in factors) == [1, 2]


def test_factor_elliptic_numerator_by_remultiplication():
    f5 = make_field(5, 1)
    ideal = HomIdeal([poly_from_str("x1^2*x2 - x0^3 - x0*x2^2 - x2^3", 3, f5)])
    counts = count_tower(ideal, 8)
    z = reconstruct(counts, DegreeBudget(4), dim=1)
    assert remultiply(factor_int_poly(z.num)) == z.num


def test_factor_random_products():
    rng = random.Random(5)
    atoms = [[1, -1], [1, 1], [1, -2], [1, 0, 1], [1, 1, 1], [1, -1, 1]]
    for _ in range(25):
        chosen = rng.sample(atoms, rng.randint(1, 4))
        poly = [1]
        for a in chosen:
            for _ in range(rng.randint(1, 2)):
                poly = mul(poly, a)
        assert remultiply(factor_int_poly(poly)) == poly


def test_certify_root_modulus_basics():
    assert certify_root_modulus([1, -2], 4)  # alpha = 2
    assert not certify_root_modulus([1, -3], 4)
    assert certify_root_modulus([1, 0, 5], 5)  # alpha = +-i sqrt(5)
    assert certify_root_modulus([1, -3, 5], 5)  # weight-1 elliptic factor, |a|<=2sqrt5
    assert not certify_root_modulus(mul([1, -1], [1, -2]), 4)  # mixed moduli
    assert not certify_root_modulus([1, -5, 5], 5)  # |a| > 2 sqrt 5: real split roots
    assert certify_root_modulus(mul([1, 0, 5], [1, -3, 5]), 5)
    assert certify_root_modulus([1], 7)


def test_certify_weight_zero():
    assert certify_root_modulus([1, -1], 1)
    assert certify_root_modulus([1, 1], 1)
    assert certify_root_modulus([1, 0, 1], 1)
    assert not certify_root_modulus([1, -2], 1)


def test_classify_weights_p2():
    z = z_projective(2, 2)
    factors = pieces(z)
    assert [f.poly for f in factors] == [[1, -1], [1], [1, -2], [1], [1, -4]]


def test_classify_weights_quadric():
    z = reconstruct_surface_zeta()
    factors = pieces(z)
    assert factors[2].poly == mul([1, -2], [1, -2])
    assert betti_numbers(z, pieces(z)) == [1, 0, 2, 0, 1]


def reconstruct_surface_zeta():
    from picardkit.counting import CountSeries

    budget = hypersurface_budget(2, 3, 2)
    return reconstruct(CountSeries(q=2, counts=[9]), budget, dim=2)


def test_classify_weights_elliptic():
    f5 = make_field(5, 1)
    ideal = HomIdeal([poly_from_str("x1^2*x2 - x0^3 - x0*x2^2 - x2^3", 3, f5)])
    counts = count_tower(ideal, 8)
    z = reconstruct(counts, DegreeBudget(4), dim=1)
    factors = pieces(z)
    assert factors[1].degree() == 2  # both roots certified at modulus sqrt(5)
    assert betti_numbers(z, pieces(z)) == [1, 2, 1]


def test_classify_rejects_wrong_side():
    # weight-1 polynomial in the denominator is not a valid zeta shape
    z = ZetaFunction(q=5, num=[1], den=mul(mul([1, -1], [1, -3, 5]), [1, -5]), dim=1)
    with pytest.raises(UnclassifiableFactorError):
        pieces(z)


def test_betti_numbers_p3():
    z = z_projective(2, 3)
    assert betti_numbers(z, pieces(z)) == [1, 0, 1, 0, 1, 0, 1]


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_multiplicity_examples():
    total, breakdown = cyclotomic_multiplicity(mul(mul([1, -1], [1, 1]), [1, -2]))
    assert total == 2
    assert breakdown == {1: 1, 2: 1}
    total, breakdown = cyclotomic_multiplicity([1, 0, 1])
    assert total == 2
    assert breakdown == {4: 1}
    total, breakdown = cyclotomic_multiplicity(mul(mul([-1, 1], [-1, 1]), [-1, 1]))
    assert total == 3
    assert breakdown == {1: 3}


def test_cyclotomic_multiplicity_rescaling_permutes():
    # multiplying the variable by a root of unity permutes detected factors
    base = mul([1, 1], [1, 0, 1])  # Phi_2 * Phi_4
    total1, _ = cyclotomic_multiplicity(base)
    flipped = [c * (-1) ** k for k, c in enumerate(base)]  # T -> -T
    total2, _ = cyclotomic_multiplicity(flipped)
    assert total1 == total2 == 3


def test_dim_v_mu_agrees_with_trial_division_oracle():
    # zeta functions built from Tate-type factors Phi_m(q^(i/2) T) and Weil
    # quadratics, each on its weight's side: for every codimension p, each
    # factor of P_2p reports what plain trial division finds in f(T / q^p)
    rng = random.Random(2718)
    for _ in range(100):
        q, dim = rng.choice([2, 3, 4, 5, 9]), rng.randint(1, 3)
        sides = {"num": [1], "den": [1]}
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(0, 2 * dim)
            c = isqrt(q**i)
            if rng.random() < 0.6 and c * c == q**i:
                g = _tate_factor(rng.choice(SMALL_M), c)
            else:
                g = _weil_quadratic(rng, q**i, True)
            side = "num" if i % 2 else "den"
            if len(sides[side]) + len(g) <= 26:
                sides[side] = mul(sides[side], g)
        z = ZetaFunction(q=q, num=sides["num"], den=sides["den"], dim=dim)
        classified = pieces(z)
        for p in range(dim + 1):
            bound = dim_v_mu(z, classified, p)
            expected, v_mu = [], 0
            for f, mult, _ in classified[2 * p].factors:
                fd = len(f) - 1
                total, breakdown = cyclotomic_multiplicity(
                    [f[k] * q ** (p * (fd - k)) for k in range(fd + 1)]
                )
                v_mu += mult * total
                expected.append({
                    "factor": f, "multiplicity": mult, "unit_root_count": total,
                    "cyclotomic": {str(m): n for m, n in sorted(breakdown.items())},
                })
            assert bound.per_factor == expected, (q, dim, sides, p)
            assert bound.v_mu == v_mu


def test_dim_v_mu_projective_spaces():
    for q, m in [(2, 1), (3, 2), (2, 3)]:
        z = z_projective(q, m)
        for p in range(m + 1):
            assert dim_v_mu(z, pieces(z), p).v_mu == 1


def test_dim_v_mu_quadric():
    z = reconstruct_surface_zeta()
    bound = dim_v_mu(z, pieces(z), 1)
    assert bound.v_mu == 2
    assert dim_v_mu(z, pieces(z), 0).v_mu == 1
    assert dim_v_mu(z, pieces(z), 2).v_mu == 1


def test_weights_partition_all_factors():
    from picardkit.upoly import deg

    for z in [z_projective(2, 2), z_projective(3, 3), reconstruct_surface_zeta()]:
        factors = pieces(z)
        assert sum(f.degree() for f in factors) == deg(z.num) + deg(z.den)


def test_reducible_scheme_zeta_rejected():
    # counts of a union of two planes in P^3: the zeta function exists but
    # b_0 = 2, which the endpoint check must reject (the smoothness gate in
    # the CLI exists precisely to keep such inputs out)
    from picardkit.counting import CountSeries
    from picardkit.zeta import DegreeBudget, reconstruct

    q = 2
    counts = CountSeries(q=q, counts=[2 * q ** (2 * n) + q**n + 1 for n in range(1, 9)])
    z = reconstruct(counts, DegreeBudget(4), dim=2)
    with pytest.raises(UnclassifiableFactorError):
        betti_numbers(z, pieces(z))


def test_factor_of_uncertified_roots_rejected():
    # 1 + 5T + 2T^2 has leading coefficient q, so weight 1 on the numerator
    # side, but its reciprocal roots (-5 +- sqrt 17) / 2 are real and of
    # different moduli, neither sqrt 2
    z = ZetaFunction(q=2, num=[1, 5, 2], den=[1, -3, 2], dim=1)
    with pytest.raises(UnclassifiableFactorError) as info:
        pieces(z)
    assert str(info.value) == "roots of [1, 5, 2] are not certified at modulus q^(1/2)"


def test_mixed_weight_factor_rejected():
    # a denominator factor whose roots straddle two moduli cannot be
    # certified at any single weight
    bad = mul(mul([1, -1], mul([1, -2], [1, -3])), [1, -4])
    z = ZetaFunction(q=2, num=[1], den=bad, dim=2)
    with pytest.raises(UnclassifiableFactorError):
        pieces(z)


def test_factor_irreducible_despite_splitting_mod_every_prime():
    # x^4 + 1 splits modulo every prime yet is irreducible over Z: the
    # subset recombination must conclude irreducibility
    assert factor_int_poly([1, 0, 0, 0, 1]) == [([1, 0, 0, 0, 1], 1)]


def test_factor_products_of_stubborn_factors():
    poly = mul([1, 0, 0, 0, 1], mul([1, 0, -2], [1, 0, -3]))
    factors = factor_int_poly(poly)
    assert remultiply(factors) == poly
    assert len(factors) == 3


def test_certify_odd_weight_three():
    # reciprocal roots of modulus q^(3/2) for q = 2: a^2 <= 4 q^3 = 32
    assert certify_root_modulus([1, 5, 8], 8)
    assert certify_root_modulus([1, -5, 8], 8)
    assert not certify_root_modulus([1, 6, 8], 8)  # real split roots
    assert certify_root_modulus([1, 0, 8], 8)


def _weil_quadratic(rng, s, inside):
    """1 - a T + s T^2 with a^2 <= 4s (roots of modulus sqrt(s)) when
    `inside`, else with a^2 > 4s (two real roots of different moduli)."""
    bound = isqrt(4 * s)
    if inside:
        return [1, -rng.randint(-bound, bound), s]
    return [1, -rng.choice([-1, 1]) * rng.randint(bound + 1, bound + 4), s]


def test_certify_products_of_many_quadratics():
    rng = random.Random(11)
    for trial in range(12):
        s = rng.choice([2, 3, 4, 5, 8, 9])
        quads = [_weil_quadratic(rng, s, True) for _ in range(rng.randint(5, 11))]
        assert certify_root_modulus(mul_many(quads), s)
        k = rng.randrange(len(quads))
        outside = quads[:k] + [_weil_quadratic(rng, s, False)] + quads[k + 1:]
        assert not certify_root_modulus(mul_many(outside), s)
        other = s + rng.choice([-1, 1]) if s > 2 else s + 1
        moved = quads[:k] + [_weil_quadratic(rng, other, True)] + quads[k + 1:]
        assert not certify_root_modulus(mul_many(moved), s)


# the quartic K3 over F_2 of the benchmark: Z = 1 / ((1 - T) P_2(T) (1 - 4T))
K3_DEN = [1, -5, 8, -28, 56, -96, 256, -64, 384, 0, -1536, 1024, -12288, 4096,
          -24576, 0, 98304, -65536, 1048576, -1572864, 3670016, -7340032,
          8388608, -20971520, 16777216]


def test_certify_k3_middle_factor():
    p2 = int_quotient(K3_DEN, mul([1, -1], [1, -4]))
    assert len(p2) == 23
    assert certify_root_modulus(p2, 4)
    assert not certify_root_modulus(p2, 2)
    assert not certify_root_modulus(mul(p2, [1, -3]), 4)


def test_certify_boundary_roots():
    # alpha = +-2 with s2 = 4: beta = +-4, so beta^2 = 4 * s2 is a root of H,
    # and for both signs at once a double root at the endpoint of the count
    assert certify_root_modulus([1, -2], 4)
    assert certify_root_modulus([1, 2], 4)
    assert certify_root_modulus(mul([1, -2], [1, 2]), 4)
    assert certify_root_modulus([1, -4, 4], 4)  # (1 - 2T)^2, a = 4: a^2 = 4s
    assert not certify_root_modulus([1, -2], 5)
    assert not certify_root_modulus(mul([1, -2], [1, -3]), 4)


def test_certify_non_squarefree_trace_polynomials():
    # repeated factors repeat the traces, so the trace polynomial and H are
    # not squarefree; (1 - 2T)^2 (1 + 2T) is a P_d with multiplicities, as
    # reconstruct certifies them
    assert certify_root_modulus(mul([1, -3, 5], [1, -3, 5]), 5)
    assert certify_root_modulus(mul(mul([1, -2], [1, -2]), [1, 2]), 4)
    assert certify_root_modulus(mul(mul([1, -3, 5], [1, -3, 5]), [1, 3, 5]), 5)
    assert not certify_root_modulus(mul(mul([1, -3, 5], [1, -3, 5]), [1, -5, 5]), 5)
    assert not certify_root_modulus(mul(mul([1, -2], [1, -2]), [1, 3]), 4)


def test_certify_against_explicit_roots():
    # oracle: 1 - aT + sT^2 has reciprocal roots of modulus sqrt(s) iff
    # a^2 <= 4s (complex conjugates, or a double root at the boundary);
    # otherwise two real roots of different moduli.  Factors repeat, and a
    # square s allows the linear factors 1 -+ sqrt(s) T.
    rng = random.Random(23)
    for _ in range(60):
        s = rng.choice([2, 3, 4, 5, 9, 16])
        bound = isqrt(4 * s)
        atoms = [[1, -a, s] for a in range(-bound, bound + 1)]
        if isqrt(s) ** 2 == s:
            atoms += [[1, -isqrt(s)], [1, isqrt(s)]]
        chosen = [rng.choice(atoms) for _ in range(rng.randint(1, 6))]
        assert certify_root_modulus(mul_many(chosen), s), chosen
        a = rng.choice([-1, 1]) * rng.randint(bound + 1, bound + 3)
        k = rng.randrange(len(chosen))
        bad = chosen[:k] + [[1, -a, s]] + chosen[k + 1:]
        assert not certify_root_modulus(mul_many(bad), s), bad


def _factor_map(poly):
    return {tuple(f): m for f, m in factor_int_poly(poly)}


# (1 - T)(1 - 2T)^2 (1 - 4T) Phi_4(2T) Phi_3(2T) Phi_5(2T) Phi_36(2T)
K3_DEN_FACTORED = (1, [
    ([1, -4], 1), ([1, -2], 2), ([1, -1], 1), ([1, 0, 4], 1), ([1, 2, 4], 1),
    ([1, 2, 4, 8, 16], 1), ([1, 0, 0, 0, 0, 0, -64, 0, 0, 0, 0, 0, 4096], 1),
])


def test_factor_k3_denominator_pinned():
    assert checked_factorization(K3_DEN, 1, factor_int_poly(K3_DEN)) == K3_DEN_FACTORED


def test_k3_denominator_needs_no_modular_factoring(monkeypatch):
    # every factor is Tate-type, Phi_m(c T) with c = 1, 2 or 4, so trial
    # division takes them all and Zassenhaus sees a constant
    from picardkit import intfactor

    def refuse(*args):
        raise AssertionError("modular factoring reached")

    monkeypatch.setattr(intfactor, "_berlekamp", refuse)
    monkeypatch.setattr(intfactor, "_hensel_tree", refuse)
    z = ZetaFunction(q=2, num=[1], den=K3_DEN, dim=2)
    got = factor_zeta(z)
    assert (got["num"], got["den"]) == ((1, []), K3_DEN_FACTORED)
    # each factor keeps the index m that trial division found it at
    assert got["tate"] == {
        (1, -4): 1, (1, -2): 1, (1, -1): 1, (1, 0, 4): 4, (1, 2, 4): 3,
        (1, 2, 4, 8, 16): 5, tuple(K3_DEN_FACTORED[1][-1][0]): 36,
    }


def _tate_factor(m, c):
    """Phi_m(c T) with constant term 1."""
    g = [a * c**k for k, a in enumerate(cyclotomic_polynomial(m))]
    return [-a for a in g] if m == 1 else g


def _tate_index(g, q, dim, parity):
    """The m with g = Phi_m(c T) for some c = q^(i/2), i <= 2 dim of the
    given parity, found by comparing g with every such Phi_m(c T) of its
    degree; None when g is no such factor."""
    d = len(g) - 1
    for i in range(parity, 2 * dim + 1, 2):
        c = isqrt(q**i)
        if c * c != q**i:
            continue
        for m in range(1, max(6, d * d) + 1):
            if len(cyclotomic_polynomial(m)) == len(g) and _tate_factor(m, c) == g:
                return m
    return None


# irreducible over Z yet split modulo many primes, or not Tate-type at any
# weight: 1 + T^4, 1 -+ 2T^2, 1 - 3T^2 and the Klein quartic's P_1 over F_2
STUBBORN = [[1, 0, 0, 0, 1], [1, 0, 2], [1, 0, -2], [1, 0, -3], [1, 0, 0, 5, 0, 0, 8]]
SMALL_M = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 18]


def test_factor_zeta_agrees_with_factor_int_poly_on_every_side(monkeypatch):
    # sides built from Tate-type factors Phi_m(q^(i/2) T), Weil quadratics of
    # weight i and stubborn factors, each placed on either side, so that
    # Tate-type factors of the wrong parity reach Zassenhaus too; the factors
    # that trial division takes keep their m, and no other factor has one
    import picardkit.weil as weil

    seen = []
    monkeypatch.setattr(weil, "factor_int_poly",
                        lambda f: seen.append(len(f)) or factor_int_poly(f))
    rng = random.Random(4417)
    reduced = 0
    for _ in range(100):
        q, dim = rng.choice([2, 3, 4, 5, 9]), rng.randint(1, 3)
        sides = {"num": [1], "den": [1]}
        planted = {}
        for _ in range(rng.randint(1, 6)):
            i = rng.randint(0, 2 * dim)
            c = isqrt(q**i)
            kind = rng.choice(["tate", "tate", "weil", "stubborn"])
            m = None
            if kind == "tate" and c * c == q**i:
                m = rng.choice(SMALL_M)
                g = _tate_factor(m, c)
            elif kind == "stubborn":
                g = rng.choice(STUBBORN)
            else:
                g = _weil_quadratic(rng, q**i, True)
            side = rng.choice(["num", "den"])
            for _ in range(rng.randint(1, 2)):
                if len(sides[side]) + len(g) <= 26:
                    sides[side] = mul(sides[side], g)
                    if m is not None and i % 2 == (side == "num"):
                        planted[tuple(g)] = m
        z = ZetaFunction(q=q, num=sides["num"], den=sides["den"], dim=dim)
        seen.clear()
        got = factor_zeta(z)
        assert list(got) == ["num", "den", "tate"]
        want = {side: checked_factorization(f, 1, factor_int_poly(f)) for side, f in sides.items()}
        assert (got["num"], got["den"]) == (want["num"], want["den"]), (q, dim, sides)
        tags = {
            tuple(g): m
            for side, parity in (("num", 1), ("den", 0))
            for g, _ in want[side][1]
            if (m := _tate_index(g, q, dim, parity)) is not None
        }
        assert planted.items() <= tags.items()
        assert got["tate"] == tags, (q, dim, sides)
        reduced += sum(n < len(sides[side]) for n, side in zip(seen, ["num", "den"]))
    # trial division took something off a good share of the 200 sides
    assert reduced >= 50


def _eisenstein(rng):
    """A monic irreducible integer polynomial with a large constant term:
    Eisenstein at p, x^k + p*(...) with constant p * c > 0, p not dividing
    c."""
    p = rng.choice([2, 3, 5])
    k = rng.randint(1, 3)
    c = rng.randint(1, 40)
    while c % p == 0:
        c += 1
    return [p * c] + [p * rng.randint(-3, 3) for _ in range(k - 1)] + [1]


def test_factor_both_orientations_recover_planted_factors():
    # products of reversed Eisenstein polynomials (unit constant term, large
    # leading coefficient, as a zeta side), repeated factors included; the
    # monic end that is factored is the product of the Eisenstein ones
    from picardkit.upoly import reverse

    rng = random.Random(31)
    for _ in range(20):
        planted = {}
        for _ in range(rng.randint(1, 4)):
            g = tuple(reverse(_eisenstein(rng)))
            planted[g] = planted.get(g, 0) + rng.randint(1, 2)
        poly = remultiply([(list(g), mult) for g, mult in planted.items()])
        assert poly[0] == 1 and abs(poly[-1]) > 1
        assert _factor_map(poly) == planted


def test_factor_and_certify_refuse_constant_term_other_than_one():
    # only f(0) = 1 is accepted: a power of T, a constant term of -1 and a
    # non-unit constant term are refused by both
    for f in ([0, 0, 1, -3], [0, -2, 0, 32], [-1, 2], [2, 0, 1], [], [0]):
        with pytest.raises(ValueError):
            factor_int_poly(f)
        with pytest.raises(ValueError):
            certify_root_modulus(f, 4)
