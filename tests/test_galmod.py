import random

import pytest

from picardkit.galmod import (
    FiniteLModule,
    GalmodError,
    HypothesisViolationError,
    InconsistentTableError,
    SizeTable,
    TorsionResult,
    fixed_exponent,
    lprime_level,
    rank_upper_bounds,
    size_table_from_profile,
    torsion_from_sizes,
)

from conftest import trivial_mod_lprime
from oracles import fixed_by_brute_force, fixed_invariant_factors, kummer_size_check


def test_lprime():
    # l' = l^lprime_level(l): l for odd primes, 4 for l = 2
    assert 3 ** lprime_level(3) == 3
    assert 2 ** lprime_level(2) == 4
    assert 5 ** lprime_level(5) == 5
    with pytest.raises(GalmodError):
        FiniteLModule(ell=6, n=1, invariant_factors=[1])


def test_invariants_trivial_action():
    mod = FiniteLModule(ell=3, n=2, invariant_factors=[2, 2, 2])
    assert fixed_exponent(mod) == 6
    assert fixed_invariant_factors(mod) == [2, 2, 2]


def test_invariants_swap():
    swap = [[0, 1], [1, 0]]
    mod = FiniteLModule(ell=5, n=2, invariant_factors=[2, 2], actions=[swap])
    assert fixed_exponent(mod) == 2  # the diagonal copy Z/25
    assert fixed_invariant_factors(mod) == [2]


def _random_unit_matrix(rng, k, ell, n):
    # random invertible matrix respecting equal invariant factors
    while True:
        g = [[rng.randrange(ell**n) for _ in range(k)] for _ in range(k)]
        try:
            FiniteLModule(ell=ell, n=n, invariant_factors=[n] * k, actions=[g])
            return g
        except GalmodError:
            continue


def test_invariants_matches_brute_force():
    rng = random.Random(11)
    for _ in range(12):
        ell, n, k = rng.choice([(3, 2, 3), (2, 2, 3), (2, 3, 2), (5, 1, 3), (3, 1, 4)])
        gens = [_random_unit_matrix(rng, k, ell, n) for _ in range(rng.randint(1, 2))]
        mod = FiniteLModule(ell=ell, n=n, invariant_factors=[n] * k, actions=gens)
        assert ell**n <= 10**2 or (ell**n) ** k <= 10**4
        exponent = fixed_exponent(mod)
        assert ell**exponent == fixed_by_brute_force(mod)
        assert sum(fixed_invariant_factors(mod)) == exponent


def test_invariants_mixed_factors_brute_force():
    # Z/9 + Z/3 with an action mixing the layers
    g = [[1, 3], [1, 1]]  # respects e = (2, 1): entry (0,1) must be 0 mod 3
    mod = FiniteLModule(ell=3, n=2, invariant_factors=[2, 1], actions=[g])
    assert 3 ** fixed_exponent(mod) == fixed_by_brute_force(mod)
    assert sum(fixed_invariant_factors(mod)) == fixed_exponent(mod)


def _random_module(rng):
    """A module over l in {2, 3, 5} with mixed invariant factors and one or
    two generators, small enough to enumerate."""
    while True:
        ell = rng.choice([2, 3, 5])
        e = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))), reverse=True)
        if ell ** sum(e) <= 2000:
            break
    k, count = len(e), rng.randint(1, 2)
    gens = []
    while len(gens) < count:
        # entry (i, j) divisible by l^max(0, e_i - e_j); half the time
        # I + l^s X, which fixes more
        x = [[ell ** max(0, e[i] - e[j]) * rng.randint(-ell ** e[i], ell ** e[i])
              for j in range(k)] for i in range(k)]
        if rng.random() < 0.5:
            s = rng.randint(1, 2)
            x = [[(1 if i == j else 0) + ell**s * x[i][j] for j in range(k)] for i in range(k)]
        try:
            FiniteLModule(ell=ell, n=e[0], invariant_factors=e, actions=[x])
        except GalmodError:
            continue
        gens.append(x)
    return FiniteLModule(ell=ell, n=e[0], invariant_factors=e, actions=gens)


def test_fixed_exponent_matches_brute_force_and_invariant_factors():
    rng = random.Random(386)
    for _ in range(120):
        mod = _random_module(rng)
        exponent = fixed_exponent(mod)
        assert mod.ell**exponent == fixed_by_brute_force(mod)
        assert sum(fixed_invariant_factors(mod)) == exponent


def test_fixed_exponent_without_generators_or_basis():
    assert fixed_exponent(FiniteLModule(ell=2, n=3, invariant_factors=[3, 1])) == 4
    assert fixed_exponent(FiniteLModule(ell=3, n=1, invariant_factors=[], actions=[[]])) == 0


def test_module_validation():
    with pytest.raises(GalmodError):
        FiniteLModule(ell=3, n=2, invariant_factors=[1, 2])  # not sorted
    with pytest.raises(GalmodError):
        # breaks the relation-lattice condition: entry (0,1) not 0 mod 3
        FiniteLModule(ell=3, n=2, invariant_factors=[2, 1], actions=[[[1, 1], [0, 1]]])
    with pytest.raises(GalmodError):
        # singular mod 3
        FiniteLModule(ell=3, n=1, invariant_factors=[1, 1], actions=[[[1, 1], [1, 1]]])
    with pytest.raises(GalmodError, match="n must be at least 1"):
        FiniteLModule(ell=3, n=0, invariant_factors=[])


def planted_family(ell, n_max, r_trivial, swaps, torsion_exp, torsion_rank):
    """T_n for a lattice Z_l^r_trivial + (swap pairs)^swaps + torsion."""
    family = []
    for n in range(1, n_max + 1):
        factors = []
        actions_blocks = []
        k = 0
        for _ in range(r_trivial):
            factors.append(min(n, n))
            k += 1
        for _ in range(swaps):
            factors.extend([n, n])
            k += 2
        te = min(torsion_exp, n)
        for _ in range(torsion_rank):
            if te >= 1:
                factors.append(te)
                k += 1
        order = sorted(range(len(factors)), key=lambda i: -factors[i])
        factors_sorted = [factors[i] for i in order]
        # build the swap action in the sorted coordinates
        g = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
        # positions of the swap pairs in the original layout
        pos = r_trivial
        for _ in range(swaps):
            a, b = order.index(pos), order.index(pos + 1)
            g[a][a] = g[b][b] = 0
            g[a][b] = g[b][a] = 1
            pos += 2
        family.append(
            FiniteLModule(ell=ell, n=n, invariant_factors=factors_sorted, actions=[g])
        )
    return family


def test_rank_upper_bounds_planted_spec_example():
    # trivial rank 2 plus one swapped pair over l = 3: fixed rank 3
    family = planted_family(3, 4, r_trivial=2, swaps=1, torsion_exp=0, torsion_rank=0)
    bounds = rank_upper_bounds(family, t=0, check_hypothesis=False)
    assert bounds.value == 3
    assert all(u >= 3 for _, u in bounds.per_level)
    assert fixed_exponent(family[1]) == 6  # n = 2: 3^4 * 3^2


def test_rank_upper_bounds_trivial_action():
    family = planted_family(5, 3, r_trivial=4, swaps=0, torsion_exp=0, torsion_rank=0)
    bounds = rank_upper_bounds(family, t=0)
    assert [u for _, u in bounds.per_level] == [4, 4, 4]
    assert bounds.value == 4


def test_rank_upper_bounds_with_torsion():
    # torsion killed by l^1: t = 1; planted fixed rank 2 + 1 = 3.
    # #T^G_n = 3^(3n+2), so u_n = 3 + ceil-ish(5/(n-1)) reaches 3 at n = 7.
    family = planted_family(3, 7, r_trivial=2, swaps=1, torsion_exp=1, torsion_rank=2)
    bounds = rank_upper_bounds(family, t=1, check_hypothesis=False)
    assert bounds.value == 3
    assert all(u >= 3 for _, u in bounds.per_level)


def test_rank_upper_bounds_empty_family():
    # a bound of 0 drawn from no module would be unsound, so it is refused
    with pytest.raises(GalmodError, match="no module lies above"):
        rank_upper_bounds([], t=3)


def test_rank_upper_bounds_refuses_unsound_families():
    trivial = FiniteLModule(ell=3, n=2, invariant_factors=[2, 2], actions=[[[1, 0], [0, 1]]])
    assert rank_upper_bounds([trivial], t=0).value == 2
    # at t = -1 the bound floor(4 / 3) = 1 would undercut the fixed rank 2
    with pytest.raises(GalmodError, match="t must be at least 0"):
        rank_upper_bounds([trivial], t=-1)
    with pytest.raises(GalmodError, match="no module lies above"):
        rank_upper_bounds([trivial], t=2)
    other = FiniteLModule(ell=5, n=1, invariant_factors=[1])
    with pytest.raises(GalmodError, match="family mixes primes"):
        rank_upper_bounds([trivial, other], t=0)


def test_rank_upper_bounds_hypothesis_violation():
    swap = [[0, 1], [1, 0]]
    bad = FiniteLModule(ell=3, n=1, invariant_factors=[1, 1], actions=[swap])
    with pytest.raises(HypothesisViolationError):
        rank_upper_bounds([bad], t=0)


def test_torsion_from_sizes_torsion_free():
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], [[], [], [], [], []], 3)
    res = torsion_from_sizes(table, 2)
    assert res.exact and res.exponents == []


def test_torsion_from_sizes_planted():
    # H^2 torsion Z/3 + Z/9 on a surface profile
    torsion = [[], [], [2, 1], [], []]
    table = size_table_from_profile(3, [1, 0, 5, 0, 1], torsion, 4)
    res = torsion_from_sizes(table, 2)
    assert res.exact
    assert res.exponents == [2, 1]


def test_torsion_from_sizes_planted_two_torsion():
    torsion = [[], [], [1, 1, 1], [], []]
    table = size_table_from_profile(2, [1, 0, 22, 0, 1], torsion, 3)
    res = torsion_from_sizes(table, 2)
    assert res.exact
    assert res.exponents == [1, 1, 1]


def test_torsion_from_sizes_random_planted_round_trip():
    rng = random.Random(23)
    for _ in range(60):
        ell = rng.choice([2, 3, 5])
        d2 = rng.choice([2, 4])
        betti = [1] + [rng.randint(0, 4) for _ in range(d2 - 1)] + [1]
        torsion = [[] for _ in range(d2 + 1)]
        degree = rng.randint(1, d2 - 1)
        exps = sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 3))), reverse=True)
        torsion[degree] = exps
        n_max = (max(exps) if exps else 0) + 2
        table = size_table_from_profile(ell, betti, torsion, n_max)
        res = torsion_from_sizes(table, degree)
        assert res.exact
        assert res.exponents == exps
        assert kummer_size_check(table, torsion)


def test_torsion_partial_when_no_stabilization():
    torsion = [[], [], [5], [], []]
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], torsion, 3)
    res = torsion_from_sizes(table, 2)
    assert not res.exact
    assert res.exponent_at_least == 3


def test_torsion_inconsistent_table():
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], [[], [], [1], [], []], 3)
    table.entries[(2, 2)] += 1
    with pytest.raises(InconsistentTableError):
        torsion_from_sizes(table, 2)


def test_kummer_size_check_detects_corruption():
    torsion = [[], [], [1], [], []]
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], torsion, 3)
    assert kummer_size_check(table, torsion)
    table.entries[(1, 2)] += 1
    assert not kummer_size_check(table, torsion)


def test_size_table_json_round_trip():
    table = size_table_from_profile(3, [1, 0, 2, 0, 1], [[], [], [1], [], []], 2)
    again = SizeTable.from_json(table.to_json())
    assert again.entries == table.entries
    assert again.betti == table.betti


def test_minkowski_identity():
    ident = [[1, 0], [0, 1]]
    for ell in (2, 3, 5):
        assert trivial_mod_lprime(ident, ell)


def test_minkowski_minus_identity_mod_4():
    m = [[-1, 0], [0, -1]]
    assert not trivial_mod_lprime(m, 2)  # -1 != 1 mod 4
    assert trivial_mod_lprime([[x % 3 + 3 * 0 for x in row] for row in m], 3) is False


def test_minkowski_unipotent_has_infinite_order():
    # I + l'E with E nilpotent nonzero passes the congruence but then has
    # unbounded powers (so cannot be of finite order)
    e = [[0, 1], [0, 0]]
    m = [[1 + 3 * 0, 3], [0, 1]]  # I + 3E at l = 3
    assert trivial_mod_lprime(m, 3)
    power = [[1, 0], [0, 1]]
    seen_identity_again = False
    for _ in range(50):
        power = [[sum(power[i][k] * m[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
        if power == [[1, 0], [0, 1]]:
            seen_identity_again = True
            break
    assert not seen_identity_again


def test_torsion_recovery_multiple_degrees_at_once():
    rng = random.Random(321)
    for _ in range(25):
        ell = rng.choice([2, 3])
        d2 = 4
        betti = [1, rng.randint(0, 2), rng.randint(0, 6), rng.randint(0, 2), 1]
        torsion = [[]]
        for _ in range(d2 - 1):
            torsion.append(
                sorted((rng.randint(1, 3) for _ in range(rng.randint(0, 2))), reverse=True)
            )
        torsion.append([])
        n_max = max((max(t) for t in torsion if t), default=0) + 2
        table = size_table_from_profile(ell, betti, torsion, n_max)
        assert kummer_size_check(table, torsion)
        for degree in range(1, d2):
            res = torsion_from_sizes(table, degree)
            assert res.exact
            assert res.exponents == torsion[degree], (torsion, degree)
