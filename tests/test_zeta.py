import random
from collections import Counter

import pytest

from picardkit.counting import CountSeries, count_tower
from picardkit.ffield import make_field
from picardkit.polysys import HomIdeal, poly_from_str
from picardkit.upoly import from_power_sums, int_quotient, mul, trim
from picardkit.zeta import (
    AmbiguousSignError,
    DegreeBudget,
    InsufficientCountsError,
    NoConsistentSignError,
    NonIntegerCoefficientsError,
    NoSolutionError,
    ZetaError,
    ZetaFunction,
    expand,
    functional_equation_check,
    hypersurface_budget,
    reconstruct,
)

from oracles import pade_over_q


def series(q, counts):
    return CountSeries(q=q, counts=list(counts))


def proj_counts(q, m, terms):
    return [sum(q ** (n * i) for i in range(m + 1)) for n in range(1, terms + 1)]


def test_reconstruct_p2_over_f2():
    z = reconstruct(series(2, proj_counts(2, 2, 6)), DegreeBudget(3), dim=2)
    assert z.num == [1]
    assert z.den == mul(mul([1, -1], [1, -2]), [1, -4])


def test_reconstruct_p1_over_f3():
    z = reconstruct(series(3, [4, 10, 28, 82]), DegreeBudget(2), dim=1)
    assert z.num == [1]
    assert z.den == mul([1, -1], [1, -3])


def test_reconstruct_elliptic_curve_f5():
    f5 = make_field(5, 1)
    ideal = HomIdeal([poly_from_str("x1^2*x2 - x0^3 - x0*x2^2 - x2^3", 3, f5)])
    counts = count_tower(ideal, 8)
    z = reconstruct(counts, DegreeBudget(4), dim=1)
    a = 5 + 1 - counts.counts[0]
    assert z.num == [1, -a, 5]
    assert z.den == mul([1, -1], [1, -5])
    holds, sign = functional_equation_check(z)
    assert holds


def test_reconstruct_quadric_product_structure():
    counts = [(2**n + 1) ** 2 for n in range(1, 9)]
    z = reconstruct(series(2, counts), DegreeBudget(4), dim=2)
    assert z.num == [1]
    assert z.den == mul(mul([1, -1], mul([1, -2], [1, -2])), [1, -4])


def test_reconstruct_needs_enough_counts():
    with pytest.raises(InsufficientCountsError):
        reconstruct(series(2, [3, 5]), DegreeBudget(2))


def test_middle_route_rejects_counts_with_non_integer_coefficients():
    # a plane cubic over F_2: s_1 = 3 - N_1 = 0 and s_2 = 5 - N_2 = 1 give
    # 2 c_2 = -1, so no integer P_1 matches
    budget = hypersurface_budget(3, 2, 2)
    with pytest.raises(NonIntegerCoefficientsError):
        reconstruct(series(2, [3, 4]), budget, dim=1)


def test_reconstruct_rejects_garbage_counts():
    with pytest.raises((NoSolutionError, ValueError)):
        reconstruct(series(2, [3, 5, 9, 18]), DegreeBudget(2))


def test_reconstruct_uniqueness_across_budgets():
    counts = proj_counts(2, 1, 8)
    z2 = reconstruct(series(2, counts), DegreeBudget(2), dim=1)
    z3 = reconstruct(series(2, counts), DegreeBudget(3), dim=1)
    assert z2 == z3


def test_expand_examples():
    z = ZetaFunction(q=2, num=[1], den=mul([1, -1], [1, -2]), dim=1)
    assert expand(z, 4) == [3, 5, 9, 17]
    z2 = ZetaFunction(q=2, num=[1], den=mul(mul([1, -1], [1, -2]), [1, -4]), dim=2)
    assert expand(z2, 1) == [7]


def test_expand_reconstruct_round_trip():
    corpus = [
        (2, proj_counts(2, 1, 6), 2),
        (3, proj_counts(3, 2, 8), 3),
        (5, proj_counts(5, 1, 6), 2),
        (2, [(2**n + 1) ** 2 for n in range(1, 9)], 4),
    ]
    for q, counts, B in corpus:
        z = reconstruct(series(q, counts), DegreeBudget(B))
        assert expand(z, len(counts)) == counts


def test_functional_equation_projective_spaces():
    for q, m in [(2, 1), (3, 1), (2, 2), (5, 2), (2, 3)]:
        counts = proj_counts(q, m, 2 * (m + 1))
        z = reconstruct(series(q, counts), DegreeBudget(m + 1), dim=m)
        holds, sign = functional_equation_check(z)
        assert holds


def test_functional_equation_detects_wrong():
    z = ZetaFunction(q=2, num=[1, -3], den=mul([1, -1], [1, -2]), dim=1)
    holds, _ = functional_equation_check(z)
    assert not holds


def test_betti_budget_user():
    b = DegreeBudget(4)
    assert b.B == 4 and b.betti is None and b.known == (1,)


def test_betti_budget_quartic_surface():
    b = hypersurface_budget(4, 3, 2)
    assert b.betti == (1, 0, 22, 0, 1)
    assert b.known == (1, -2)  # the hyperplane class h
    assert b.B == 24


def test_betti_budget_cubic_surface():
    b = hypersurface_budget(3, 3, 4)
    assert b.betti == (1, 0, 7, 0, 1)
    assert b.known == (1, -4)
    assert b.B == 9


def test_betti_budget_plane_cubic_curve():
    b = hypersurface_budget(3, 2, 2)
    assert b.betti == (1, 2, 1)
    assert b.known == (1,)
    assert b.B == 4


def test_degree_budget_is_immutable():
    budget = hypersurface_budget(3, 3, 2)
    for name in ("B", "source", "betti", "known"):
        with pytest.raises(AttributeError):
            setattr(budget, name, None)
    with pytest.raises(AttributeError):
        del budget.betti
    assert (budget.B, budget.betti) == (9, (1, 0, 7, 0, 1))


def test_betti_budget_missing():
    # neither a budget nor a hypersurface degree: no record, invalid input
    from types import SimpleNamespace

    from picardkit.cli import CliError, _budget_descriptor

    with pytest.raises(CliError) as err:
        _budget_descriptor(SimpleNamespace(budget=None, degree=None), None)
    assert err.value.code == 2 and "no budget" in str(err.value)


QUADRIC_SURFACE = hypersurface_budget(2, 3, 2)


def test_reconstruct_surface_quadric():
    z = reconstruct(series(2, [9]), QUADRIC_SURFACE, dim=2)
    p2 = mul([1, -2], [1, -2])
    assert z.den == mul(mul([1, -1], p2), [1, -4])
    assert z.num == [1]


def test_reconstruct_surface_b2_zero():
    # N_1 = 1 + q^2 with empty middle
    z = reconstruct(series(2, [1 + 4]), DegreeBudget(2, (1, 0, 0, 0, 1)))
    assert z.den == mul([1, -1], [1, -4])


def test_reconstruct_surface_insufficient():
    with pytest.raises(InsufficientCountsError):
        reconstruct(series(2, []), QUADRIC_SURFACE, dim=2)


@pytest.mark.parametrize(
    "degree, ambient, levels",
    [(3, 3, 3), (4, 3, 10), (2, 3, 1), (3, 2, 2), (4, 2, 4), (3, 4, 6)],
    ids=["cubic-surface", "quartic-k3", "quadric-surface",
         "elliptic-curve", "plane-quartic", "cubic-threefold"],
)
def test_levels_for_hypersurfaces(degree, ambient, levels):
    # even d: the unknown factor of P_d has degree D = b_d - 1 once
    # (1 - q^(d/2) T) is divided out, and needs D // 2 counts; odd d keeps
    # b_d / 2 + 1
    assert hypersurface_budget(degree, ambient, 2).levels == levels


# x0^2 + x0*x1 + x1^2 over F_2: two conjugate points, b_0 = 2
POINT_PAIR = hypersurface_budget(2, 1, 2)


def test_reconstruct_point_pair_from_one_count():
    # P_0 = (1 - T) P' with P' of degree 1: N_1 = 0 gives P' = 1 + T, and
    # 1 + T^2 (roots +-i) is no candidate, since the sum of the two points
    # is a rational class
    assert POINT_PAIR.levels == 1
    z = reconstruct(series(2, [0]), POINT_PAIR, dim=0)
    assert (z.num, z.den) == ([1], [1, 0, -1])


# x0^4 + x0*x1^3 + x1^4 over F_2: four conjugate points, b_0 = 4
POINT_QUARTET = hypersurface_budget(4, 1, 2)


def test_reconstruct_four_conjugate_points_deepens_one_level():
    # P' has degree 3: N_1 = 0 fits P_0 = 1 - T^4 and (1 - T^2)^2, and
    # N_2 = 0 leaves only 1 - T^4
    assert POINT_QUARTET.levels == 1
    with pytest.raises(AmbiguousSignError) as err:
        reconstruct(series(2, [0]), POINT_QUARTET, dim=0)
    assert [z.den for z in err.value.candidates] == [[1, 0, 0, 0, -1], [1, 0, -2, 0, 1]]
    z = reconstruct(series(2, [0, 0]), POINT_QUARTET, dim=0)
    assert (z.num, z.den) == ([1], [1, 0, 0, 0, -1])


# the quartic K3 over F_2 x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3
K3_COUNTS = [5, 9, 89, 289, 1185, 4545, 16385, 66049, 263681, 1051649]
K3_P2 = [
    1, -5, 8, -28, 56, -96, 256, -64, 384, 0, -1536, 1024, -12288, 4096, -24576, 0,
    98304, -65536, 1048576, -1572864, 3670016, -7340032, 8388608, -20971520, 16777216,
]


def test_reconstruct_k3_from_ten_counts():
    # with 10 counts only one sign passes certification; the result is the
    # zeta function that all 11 counted levels give, N_11 included
    budget = hypersurface_budget(4, 3, 2)
    z = reconstruct(series(2, K3_COUNTS), budget, dim=2)
    assert (z.num, z.den) == ([1], K3_P2)
    assert expand(z, 11) == K3_COUNTS + [4194305]


def test_known_factor_of_degree_ten_needs_six_counts():
    # a record that knows every factor of the K3's P_2 but the one of degree
    # 12, taken from its zeta function, leaves D = 12: 6 counts instead of
    # 10, and the same zeta function
    p2 = int_quotient(K3_P2, mul([1, -1], [1, -4]))
    known = int_quotient(p2, [1, 0, 0, 0, 0, 0, -64, 0, 0, 0, 0, 0, 4096])
    assert len(known) == 11
    hyper = hypersurface_budget(4, 3, 2)
    budget = DegreeBudget(hyper.B, hyper.betti, known)
    assert (budget.unknown_degree, budget.levels, hyper.levels) == (12, 6, 10)
    z = reconstruct(series(2, K3_COUNTS[:6]), budget, dim=2)
    assert z == reconstruct(series(2, K3_COUNTS), hyper, dim=2)
    assert (z.num, z.den) == ([1], K3_P2)


@pytest.mark.parametrize(
    "q, counts",
    [(4, [9, 9]), (5, [9, 27]), (2, [3, 5, 24, 17])],
    ids=["elliptic-f4", "elliptic-f5", "klein-f2"],
)
def test_reconstruct_middle_curves_match_pade(q, counts):
    # the middle route needs b/2 + 1 counts; the Pade fit on 2B counts of
    # the same curve gives the same zeta function
    budget = hypersurface_budget(3 if len(counts) == 2 else 4, 2, q)
    assert budget.levels == len(counts)
    z = reconstruct(series(q, counts), budget, dim=1)
    full = expand(z, 2 * budget.B)
    assert reconstruct(series(q, full), DegreeBudget(budget.B), dim=1) == z


def _outcome(call):
    try:
        return call()
    except ZetaError as exc:
        return type(exc)


def test_pade_route_in_z_matches_gauss_jordan_over_q():
    # the integer Pade route (echelon, then Cramer's rule on the pivot
    # minor) gives the zeta function or the exception class that solving
    # over Q gives, on counts whose series exp(sum N_n T^n / n) is integral:
    # expansions of random num/den of total degree <= B, some with one count
    # N_n, n > B, moved by a multiple of n (which multiplies the series by
    # exp(c T^n), integral through T^(2B)), and sums of random closed-point
    # numbers
    rng = random.Random(1210)
    outcomes = Counter()
    for trial in range(500):
        B, q = rng.randint(2, 9), rng.choice([2, 3, 4, 5, 7])
        if trial % 3 == 2:
            a = [rng.randint(0, 3) for _ in range(2 * B)]
            counts = [sum(d * a[d - 1] for d in range(1, n + 1) if n % d == 0)
                      for n in range(1, 2 * B + 1)]
        else:
            dn = rng.randint(0, B)
            num, den = ([1] + [rng.randint(-6, 6) for _ in range(k)]
                        for k in (dn, rng.randint(0, B - dn)))
            counts = expand(ZetaFunction(q, trim(num), trim(den)), 2 * B)
            if trial % 3 == 1:
                n = rng.randint(B + 1, 2 * B)
                counts[n - 1] += n * rng.choice([-2, -1, 1, 2])
        assert from_power_sums([-N for N in counts]) is not None
        got = _outcome(lambda: reconstruct(series(q, counts), DegreeBudget(B), dim=1))
        assert got == _outcome(lambda: pade_over_q(q, counts, B, dim=1)), (q, counts, B)
        outcomes[isinstance(got, ZetaFunction)] += 1
    assert min(outcomes[True], outcomes[False]) > 100  # both outcomes are exercised


def test_pade_route_rejects_a_non_integral_series():
    # exp(T + 2 T^2 / 2) has T^2 coefficient 3/2: no integral zeta function
    with pytest.raises(NonIntegerCoefficientsError):
        reconstruct(series(2, [1, 2, 0, 0]), DegreeBudget(2))


def test_reconstruct_middle_rejects_inconsistent_counts():
    budget = hypersurface_budget(3, 2, 5)
    # N_2 = 29 gives c_2 = 6, but the functional equation needs c_2 = 5
    with pytest.raises(NoConsistentSignError):
        reconstruct(series(5, [9, 29]), budget, dim=1)


def test_zeta_json_round_trip():
    z = ZetaFunction(q=2, num=[1], den=mul([1, -1], [1, -2]), dim=1)
    # a report's zeta block holds exactly the constructor's arguments
    assert ZetaFunction(**z.to_json()) == z


def test_klein_quartic_curve_end_to_end():
    # smooth plane quartic (genus 3) over F_2: degree-6 weight-1 numerator,
    # all six reciprocal roots certified at modulus sqrt(2)
    from conftest import brute_force_projective_count
    from picardkit.polysys import smoothness_check
    from picardkit.weil import betti_numbers, classify_weights, factor_zeta

    f2 = make_field(2, 1)
    ideal = HomIdeal([poly_from_str("x0^3*x1 + x1^3*x2 + x2^3*x0", 3, f2)])
    assert smoothness_check(ideal)
    counts = count_tower(ideal, 16)
    assert counts.counts[0] == brute_force_projective_count(ideal, 1)
    assert counts.counts[1] == brute_force_projective_count(ideal, 2)
    z = reconstruct(counts, DegreeBudget(8), dim=1)
    assert z.den == mul([1, -1], [1, -2])
    assert z.num == [1, 0, 0, 5, 0, 0, 8]
    holds, sign = functional_equation_check(z)
    assert holds
    assert betti_numbers(z, classify_weights(z, factor_zeta(z))) == [1, 6, 1]
    assert expand(z, 16) == counts.counts


def test_betti_budget_cubic_threefold():
    # classical: a smooth cubic hypersurface in P^4 has b_3 = 10
    b = hypersurface_budget(3, 4, 2)
    assert b.betti == (1, 0, 1, 10, 1, 0, 1)
    assert b.B == 14
