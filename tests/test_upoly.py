import random
from fractions import Fraction

from picardkit.upoly import (
    NEG_INF,
    POS_INF,
    count_real_roots,
    derivative,
    divides_exactly,
    divmod_frac,
    evaluate,
    gcd_frac,
    int_quotient,
    is_totally_real,
    mul,
    mul_many,
    squarefree_part,
)


def poly_from_roots(roots):
    return mul_many([[-r, 1] for r in roots])


def test_divmod_exact():
    a = mul([1, 2, 1], [3, -1])  # (x+1)^2 (3-x)... coefficient order: index=degree
    q, r = divmod_frac(a, [1, 2, 1])
    assert r == []
    assert q == [Fraction(3), Fraction(-1)]


def _fraction_int_quotient(a, b):
    """int_quotient's contract computed over Q, as the reference."""
    ok, q = divides_exactly(b, a)
    if not ok or any(c.denominator != 1 for c in q):
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
    g = gcd_frac(a, b)
    assert g == [Fraction(1), Fraction(1)]


def test_squarefree_part():
    p = mul(mul([1, 1], [1, 1]), [2, 1])
    sf = squarefree_part(p)
    assert sf == gcd_frac(mul([1, 1], [2, 1]), mul([1, 1], [2, 1]))


def test_sturm_known_roots():
    # roots at -2, 0, 3
    p = poly_from_roots([-2, 0, 3])
    assert count_real_roots(p) == 3
    assert count_real_roots(p, lo=Fraction(0)) == 1  # (0, +inf]: just 3
    assert count_real_roots(p, lo=Fraction(-1), hi=Fraction(1)) == 1  # just 0
    assert count_real_roots(p, lo=Fraction(-3), hi=Fraction(0)) == 2  # -2 and 0


def test_sturm_no_real_roots():
    assert count_real_roots([1, 0, 1]) == 0  # x^2 + 1
    assert not is_totally_real([1, 0, 1])
    assert is_totally_real(poly_from_roots([1, 2, 2]))


def test_sturm_multiplicities_ignored():
    p = mul(mul([1, 1], [1, 1]), [1, 1])  # (x+1)^3
    assert count_real_roots(p) == 1


def test_sturm_random_integer_roots():
    rng = random.Random(77)
    for _ in range(30):
        roots = sorted(rng.sample(range(-8, 9), rng.randint(1, 5)))
        p = poly_from_roots(roots)
        assert count_real_roots(p) == len(roots)
        lo = Fraction(rng.randint(-10, 10))
        hi = lo + rng.randint(0, 12)
        expected = sum(1 for r in roots if lo < r <= hi)
        assert count_real_roots(p, lo=lo, hi=hi) == expected
        assert count_real_roots(p, NEG_INF, POS_INF) == len(roots)


def test_derivative():
    assert derivative([5, 3, 2]) == [3, 4]
    assert derivative([7]) == []
