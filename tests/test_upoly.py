import random
from fractions import Fraction

from picardkit.upoly import (
    NEG_INF,
    POS_INF,
    count_real_roots,
    derivative,
    from_power_sums,
    int_gcd,
    int_quotient,
    integral,
    mul,
    power_sums,
    sturm_chain,
)

from oracles import mul_many


def poly_from_roots(roots):
    return mul_many([[-r, 1] for r in roots])


def frac_divmod(a, b):
    """Reference: quotient and remainder over Q by schoolbook long division
    in Fractions, independent of the Z[x] routines under test."""
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    while len(a) >= len(b) and a:
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        a.pop()
        while a and not a[-1]:
            a.pop()
    while q and not q[-1]:
        q.pop()
    return q, a


def test_divmod_exact():
    a = mul([1, 2, 1], [3, -1])  # (x+1)^2 (3-x)... coefficient order: index=degree
    q, r = frac_divmod(a, [1, 2, 1])
    assert r == []
    assert q == [Fraction(3), Fraction(-1)]
    assert int_quotient(a, [1, 2, 1]) == [3, -1]
    q, r = frac_divmod([1, 3], [1, 2])
    assert (q, r) == ([Fraction(3, 2)], [Fraction(-1, 2)])


def _fraction_int_quotient(a, b):
    """int_quotient's contract computed over Q, as the reference."""
    q, r = frac_divmod(a, b)
    if r or any(c.denominator != 1 for c in q):
        return None
    return [int(c) for c in q]


def test_int_quotient_matches_fraction_division():
    # divisors of every leading coefficient, +-1 included; the dividends are
    # exact multiples, multiples plus a remainder, and random
    rng = random.Random(7)
    for trial in range(600):
        lead = rng.choice((1, -1)) if trial % 2 else rng.choice((2, -3, 4, 6, -8))
        b = [rng.randint(-9, 9) for _ in range(rng.randint(0, 4))] + [lead]
        q = [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        a = mul(q, b)
        if trial % 3 == 1:
            a = [c + rng.randint(-2, 2) for c in a + [0]]
            while a and not a[-1]:
                a.pop()
        elif trial % 3 == 2:
            a = [rng.randint(-20, 20) for _ in range(rng.randint(0, 7))]
        assert int_quotient(a, b) == _fraction_int_quotient(a, b), (a, b)
    assert int_quotient(mul([2, 0, 5], [3, -1]), [3, -1]) == [2, 0, 5]
    assert int_quotient(mul([1, 0, 7], [1, 0, 8]), [1, 0, 8]) == [1, 0, 7]
    assert int_quotient([1, 2, 1], [1, 0, -1]) is None  # remainder 2 + 2x
    assert int_quotient([1, 3], [1, 2]) is None  # quotient 3/2 over Q
    assert int_quotient([4, 6], [2, 2]) is None  # remainder -2 after quotient 3
    assert int_quotient([2, 4], [2]) == [1, 2]  # non-primitive divisor
    assert int_quotient([1, 0, 0, 1], [1, 1, 0, 0, -1]) is None  # deg a < deg b
    assert int_quotient([], [5, -1]) == []


def test_gcd_monic():
    a = mul([1, 1], [2, 1])
    b = mul([1, 1], [5, 1])
    assert int_gcd(a, b) == [1, 1]
    assert int_gcd(mul([3, 6], [1, 0, 1]), mul([-2, -4], [5, 2])) == [1, 2]  # primitive
    assert int_gcd([2, 0, -2], []) == [-1, 0, 1]  # positive leading coefficient
    assert int_gcd([], []) == []
    assert int_gcd([1, 1], [1, -1]) == [1]


def test_int_gcd_matches_planted_common_factor():
    rng = random.Random(3)

    def rand_poly(max_low, leads):
        return [rng.randint(-6, 6) for _ in range(rng.randint(0, max_low))] + [rng.choice(leads)]

    for _ in range(200):
        common = rand_poly(3, (1, 2, -3))
        a = mul(common, rand_poly(3, (1, -2, 5)))
        b = mul(common, rand_poly(3, (1, 3, -4)))
        g = int_gcd(a, b)
        # g divides both, and the cofactors are coprime over Q
        qa, ra = frac_divmod(a, g)
        qb, rb = frac_divmod(b, g)
        assert ra == [] and rb == [] and g[-1] > 0
        assert int_gcd(integral(qa), integral(qb)) == [1]
        assert int_quotient(g, integral(common)) is not None


def test_squarefree_part():
    p = mul(mul([1, 1], [1, 1]), [2, 1])
    chain = sturm_chain(p)
    assert chain[-1] == [1, 1]  # gcd(p, p') up to a positive factor
    assert int_quotient(p, chain[-1]) == mul([1, 1], [2, 1])
    assert len(sturm_chain(mul([1, 1], [2, 1]))[-1]) == 1  # squarefree: constant


def count_in(p, lo, hi):
    """Distinct real roots of p in (lo, hi], from two counts above a point."""
    above_hi = 0 if hi is POS_INF else count_real_roots(p, hi)
    return count_real_roots(p, lo) - above_hi


def test_sturm_known_roots():
    # roots at -2, 0, 3
    p = poly_from_roots([-2, 0, 3])
    assert count_real_roots(p, NEG_INF) == 3
    assert count_real_roots(p, Fraction(0)) == 1  # (0, +inf]: just 3
    assert count_in(p, Fraction(-1), Fraction(1)) == 1  # just 0
    assert count_in(p, Fraction(-3), Fraction(0)) == 2  # -2 and 0


def test_sturm_no_real_roots():
    assert count_real_roots([1, 0, 1], NEG_INF) == 0  # x^2 + 1
    # every distinct root of (x - 1)(x - 2)^2 is real
    assert count_real_roots(poly_from_roots([1, 2, 2]), NEG_INF) == 2


def test_sturm_multiplicities_ignored():
    p = mul(mul([1, 1], [1, 1]), [1, 1])  # (x+1)^3
    assert count_real_roots(p, NEG_INF) == 1


def test_sturm_random_integer_roots():
    rng = random.Random(77)
    for _ in range(30):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
        p = poly_from_roots(roots)
        assert count_real_roots(p, NEG_INF) == len(roots)
        lo = Fraction(rng.randint(-10, 10))
        hi = lo + rng.randint(0, 12)
        expected = sum(1 for r in roots if lo < r <= hi)
        assert count_in(p, lo, hi) == expected
        assert count_real_roots(p, lo) == sum(1 for r in roots if r > lo)


def test_sturm_endpoints_at_multiple_roots():
    # p = (2x - 1)^2 (x + 2)^3 (x - 3): the endpoints 1/2 and -2 are roots of
    # gcd(p, p'), where the chain of p itself vanishes entirely
    p = mul_many([[-1, 2], [-1, 2], [2, 1], [2, 1], [2, 1], [-3, 1]])
    roots = [Fraction(1, 2), Fraction(-2), Fraction(3)]
    points = [NEG_INF, Fraction(-3), Fraction(-2), Fraction(0), Fraction(1, 2),
              Fraction(2, 3), Fraction(3), Fraction(7, 2), POS_INF]
    for i, lo in enumerate(points):
        for hi in points[i + 1:]:
            expected = sum(
                1 for r in roots
                if (lo is NEG_INF or r > lo) and (hi is POS_INF or r <= hi)
            )
            assert count_in(p, lo, hi) == expected, (lo, hi)
    # Fraction coefficients and non-primitive input count the same roots
    assert count_real_roots([Fraction(c, 6) for c in p], Fraction(1, 2)) == 1
    assert count_in([-4 * c for c in p], NEG_INF, Fraction(1, 2)) == 2


def test_sturm_chain_signs_match_fraction_chain():
    # every member is a positive multiple of the classical Sturm chain
    rng = random.Random(19)
    for _ in range(40):
        # products of linear factors, repeats included, and 1 + c x^2
        p = integral(mul_many([[rng.randint(-4, 4), rng.choice((1, 2, 3))]
                               for _ in range(rng.randint(1, 6))] + [[1, 0, rng.randint(0, 2)]]))
        chain = sturm_chain(p)
        ref = [[Fraction(c) for c in p]]
        d = derivative(p)
        if d:
            ref.append([Fraction(c) for c in d])
            while len(ref[-1]) > 1:
                _, r = frac_divmod(ref[-2], ref[-1])
                if not r:
                    break
                ref.append([-c for c in r])
        assert len(chain) == len(ref)
        for got, want in zip(chain, ref):
            ratio = Fraction(got[-1]) / want[-1]
            assert ratio > 0 and [ratio * c for c in want] == got


def test_derivative():
    assert derivative([5, 3, 2]) == [3, 4]
    assert derivative([7]) == []


def test_from_power_sums_inverts_power_sums_in_z():
    rng = random.Random(11)
    for _ in range(200):
        c = [1] + [rng.randint(-9, 9) for _ in range(rng.randint(0, 6))]
        assert from_power_sums(power_sums(c, len(c) - 1)) == c
    # 2 c_2 = -(s_1 c_1 + s_2) = -1: no integer polynomial has these sums
    assert from_power_sums([0, 1]) is None
