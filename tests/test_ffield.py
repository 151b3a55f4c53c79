import itertools
import random

import pytest

from picardkit import upoly
from picardkit.counting.kernel import embedding, field_tables
from picardkit.ffield import (
    FieldDesc,
    FieldError,
    _is_irreducible,
    _paddmul,
    _pdivmod,
    _pgcd,
    _pmul,
    _ppowmod,
    _pxgcd,
    level_field,
    make_field,
)

from oracles import add, first_root_by_scan


def test_make_field_prime():
    f = make_field(2, 1)
    assert f.modulus == (0, 1)  # modulus x, field = Z/2Z
    assert f.q == 2


def test_make_field_f4_modulus_forced():
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)  # x^2 + x + 1, the unique irreducible quadratic


def test_make_field_f9_first_in_order():
    # oracle: exhaust all 9 monic quadratics over F_3 in the stated order and
    # take the first with no root (degree 2: irreducible iff rootless)
    first = None
    for k in range(9):
        c0, c1 = k % 3, k // 3
        if all((x * x + c1 * x + c0) % 3 != 0 for x in range(3)):
            first = (c0, c1, 1)
            break
    f = make_field(3, 2)
    assert f.modulus == first


def _rabin_is_irreducible(m, p):
    """Oracle: Rabin's test for monic m of degree e over Z/pZ, m divides
    x^(p^e) - x and gcd(x^(p^(e/l)) - x, m) = 1 for every prime l | e."""
    e = len(m) - 1
    if e == 1:
        return True
    x = [0, 1]

    def frobenius_power(k):
        t = x
        for _ in range(k):
            t = _ppowmod(t, p, m, p)
        return _paddmul(t, x, -1, p)

    if frobenius_power(e):
        return False
    ells = [ell for ell in range(2, e + 1) if e % ell == 0 and all(ell % d for d in range(2, ell))]
    return all(len(_pgcd(frobenius_power(e // ell), m, p)) == 1 for ell in ells)


def _monic_in_order(p, e):
    """The monic polynomials of degree e over Z/pZ in make_field's order:
    the non-leading coefficients as base-p digits of 0, 1, 2, ..."""
    for k in range(p**e):
        yield [k // p**i % p for i in range(e)] + [1]


def _prime_powers_with(limit, primes):
    return [(p, e) for p in primes for e in range(1, limit.bit_length()) if p**e <= limit]


@pytest.mark.parametrize("p,e", _prime_powers_with(2**8, (2, 3, 5, 7, 11, 13)))
def test_ben_or_accepts_exactly_rabins_irreducibles(p, e):
    for m in _monic_in_order(p, e):
        assert _is_irreducible(m, p) == _rabin_is_irreducible(m, p), m


@pytest.mark.parametrize("p,e", _prime_powers_with(2**16, (2, 3, 5, 7, 11, 13)))
def test_make_field_modulus_is_rabins_first_irreducible(p, e):
    # the modulus fixes every field, embedding, count and cache key
    first = next(m for m in _monic_in_order(p, e) if _rabin_is_irreducible(m, p))
    assert list(make_field(p, e).modulus) == first


def _level_order(p, k):
    """The monic polynomials of degree k over Z/pZ with a nonzero constant
    term, in level_field's order: the constant coefficient outermost, then
    the middle coefficients as base-p digits of 0, 1, 2, ..."""
    for c in range(1, p):
        for middle in range(p ** (k - 1)):
            yield [c] + [middle // p**i % p for i in range(k - 1)] + [1]


def _x_is_primitive(field):
    """Oracle: has the class of x order q - 1 in Z/pZ[x]/(modulus), by its
    powers under `FieldDesc` arithmetic on indices?  That order leaves
    q - 1 units, so the modulus is irreducible too."""
    x = field.p if field.e > 1 else field.from_int(-field.modulus[0])
    n = field.q - 1
    primes, rest, d = [], n, 2
    while rest > 1:
        if rest % d == 0:
            primes.append(d)
            while rest % d == 0:
                rest //= d
        d += 1
    return field.pow(x, n) == 1 and all(field.pow(x, n // r) != 1 for r in primes)


def _prime_powers_up_to(limit):
    from picardkit.ffield import is_prime

    out = []
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        e = 1
        while p**e <= limit:
            out.append((p, e))
            e += 1
    return out


@pytest.mark.parametrize("p,k", _prime_powers_up_to(4096))
def test_level_field_modulus_is_the_first_primitive(p, k):
    level = level_field(p, k)
    assert _x_is_primitive(level)
    first = next(m for m in _level_order(p, k) if _x_is_primitive(FieldDesc(p, k, m)))
    assert list(level.modulus) == first


def test_level_field_keeps_the_cold_levels_moduli():
    # F_4, F_16 and F_64 have a primitive first irreducible, so the levels
    # of the benchmark's cold requests over F_4 keep their modulus
    for k in (2, 4, 6):
        assert level_field(2, k) == make_field(2, k)


@pytest.mark.parametrize("p,e", _prime_powers_with(2**8, (2, 3, 5, 7, 11, 13)))
def test_index_arithmetic_matches_the_level_tables(p, e):
    # the level's exp/log/Zech tables come from another algorithm than
    # polynomial arithmetic mod the modulus, so they are an oracle for the
    # arithmetic on indices: the embedding into them is a ring homomorphism
    f = make_field(p, e)
    exp, log, zech = tables = field_tables(f)
    image = embedding(f, tables)
    q = f.q
    assert sorted(image) == list(range(q))

    def table_mul(x, y):
        return exp[(log[x] + log[y]) % (q - 1)] if x and y else 0

    def table_add(x, y):
        if not x or not y:
            return x or y
        z = zech[(log[y] - log[x]) % (q - 1)]  # x + y = x (1 + y/x)
        return 0 if z < 0 else exp[(log[x] + z) % (q - 1)]

    if q <= 64:
        pairs = itertools.product(range(q), repeat=2)
    else:
        rng = random.Random(q)
        pairs = [(rng.randrange(q), rng.randrange(q)) for _ in range(2000)]
    for a, b in pairs:
        assert image[f.mul(a, b)] == table_mul(image[a], image[b])
        assert image[f.add(a, b)] == table_add(image[a], image[b])
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a in range(q):
        assert f.pow(a, q) == a
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for k in range(-2 * p, 2 * p):
        assert f.from_int(k) == k % p
    # g, the class of x, is a root of the modulus, by Horner's rule
    g = f.p if e > 1 else f.from_int(-f.modulus[0])
    acc = 0
    for c in reversed(f.modulus):
        acc = f.add(f.mul(acc, g), f.from_int(c))
    assert acc == 0


def test_make_field_rejects_composite():
    with pytest.raises(FieldError):
        make_field(6, 1)


def test_arithmetic_f4():
    f = make_field(2, 2)
    x = f.p  # the index of g
    assert f.mul(x, x) == f.index([1, 1])  # x^2 = x + 1


def test_inverse_f5():
    f = make_field(5, 1)
    assert f.inv(f.from_int(2)) == f.from_int(3)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


@pytest.mark.parametrize("p,e", [(2, 3), (3, 2), (2, 4), (5, 2)])
def test_inverse_of_every_nonzero_element(p, e):
    f = make_field(p, e)
    for x in range(1, f.q):
        assert f.mul(x, f.inv(x)) == 1


def _mod_poly(a, m):
    return upoly.trim([c % m for c in a])


def _divides(g, a, p):
    # schoolbook division by the monic g over Z, reduced mod p at the end
    a = list(a)
    while len(a) >= len(g):
        c = a.pop()
        k = len(a) - len(g) + 1
        for i in range(len(g) - 1):
            a[k + i] -= c * g[i]
    return not any(c % p for c in a)


def _brute_force_gcd(a, b, p):
    """The monic common divisor of largest degree, by enumeration."""
    for d in range(min(len(a), len(b)) - 1, -1, -1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            if _divides(g, a, p) and _divides(g, b, p):
                return g
    raise AssertionError("1 divides everything")


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pxgcd_is_bezout_and_the_gcd(p):
    rng = random.Random(p)

    def rand(deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    for _ in range(12):
        common = rand(rng.randrange(3))
        a = _pmul(common, rand(rng.randrange(3)), p)
        b = _pmul(common, rand(rng.randrange(3)), p)
        g, s = _pxgcd(a, b, p)
        assert g == _brute_force_gcd(a, b, p)
        # _pxgcd returns only s; its t is the exact quotient (g - s*a) / b
        t, rem = _pdivmod(_mod_poly(upoly.sub(g, upoly.mul(s, a)), p), b, p)
        assert rem == []
        assert _mod_poly(add(upoly.mul(s, a), upoly.mul(t, b)), p) == g


@pytest.mark.parametrize("p,k", [(2, 8), (3, 4), (5, 3), (7, 2)])
def test_pdivmod_by_monic_divisor_mod_prime_power(p, k):
    m = p**k
    rng = random.Random(m)
    for _ in range(20):
        a = upoly.trim([rng.randrange(m) for _ in range(rng.randrange(12))])
        b = [rng.randrange(m) for _ in range(rng.randrange(1, 6))] + [1]
        q, r = _pdivmod(a, b, m)
        assert len(r) < len(b)
        assert _mod_poly(add(upoly.mul(q, b), r), m) == a


def test_frobenius_squared_is_identity_on_f9():
    f = make_field(3, 2)
    rng = random.Random(9)
    elems = range(f.q)
    for x in rng.sample(elems, 9) + rng.choices(elems, k=11):
        assert f.pow(f.pow(x, 3), 3) == x  # Frobenius x -> x^3, twice


def test_enumerate_small():
    # the elements are range(q), each index the base-p digits of its
    # coefficients, constant first
    f2 = make_field(2, 1)
    assert [f2.digits(x) for x in range(f2.q)] == [[0], [1]]
    f4 = make_field(2, 2)
    assert [f4.digits(x) for x in range(f4.q)] == [[0, 0], [1, 0], [0, 1], [1, 1]]
    assert [f4.index(f4.digits(x)) for x in range(f4.q)] == [0, 1, 2, 3]
    # index reduces each coefficient mod p
    assert f4.index([3, -1]) == f4.index([1, 1]) == 3


def test_enumerate_f8_distinct():
    f = make_field(2, 3)
    digits = [tuple(f.digits(x)) for x in range(f.q)]
    assert len(digits) == 8
    assert len(set(digits)) == 8
    assert all(f.index(d) == x for x, d in enumerate(digits))


# The embedding of a base field F_q into a level F_Q of the counting tower,
# `counting.kernel.embedding`, on F_Q's tables, against `FieldDesc`
# arithmetic on indices in F_Q.


def _embedding(base, n):
    """(F_{q^n}, the index in F_{q^n} of each base-field index)."""
    ext = level_field(base.p, base.e * n)
    return ext, list(embedding(base, field_tables(ext)))


def test_extend_trivial_cases():
    f2 = make_field(2, 1)
    ext, image = _embedding(f2, 1)
    assert ext == level_field(2, 1) and ext.q == 2
    assert image == [0, 1]
    ext, image = _embedding(f2, 2)
    assert ext.q == 4
    assert image[1] == 1


def test_extend_f4_to_f16_root_check():
    f4 = make_field(2, 2)
    f16, image = _embedding(f4, 2)
    assert f16.q == 16
    # the image of the generator (index 2) satisfies the F_4 modulus
    beta = image[2]
    acc = 0
    power = 1
    for c in f4.modulus:
        acc = f16.add(acc, f16.mul(f16.from_int(c), power))
        power = f16.mul(power, beta)
    assert not acc


def _nonprime_extension_cases(limit):
    from picardkit.ffield import is_prime

    return [
        (p, e, n)
        for p in range(2, limit)
        if is_prime(p)
        for e in range(2, limit.bit_length())
        for n in range(2, limit.bit_length())
        if p ** (e * n) <= limit
    ]


@pytest.mark.parametrize("p,e,n", _nonprime_extension_cases(4096))
def test_extend_gives_the_first_root_in_enumeration_order(p, e, n):
    # the base generator, of index p, goes to the root of smallest index
    base = make_field(p, e)
    ext, image = _embedding(base, n)
    assert image[p] == first_root_by_scan(base, ext)


@pytest.mark.parametrize("e,n,index", [(2, 7, 8648), (2, 8, 44234), (4, 4, 15374)])
def test_extend_embedding_indices_are_frozen(e, n, index):
    # values of the full scan (`first_root_by_scan`) over the level field;
    # they follow the level's modulus, where counts, cache keys and reports
    # do not
    ext = level_field(2, e * n)
    assert embedding(make_field(2, e), field_tables(ext))[2] == index


@pytest.mark.parametrize("p,e", _prime_powers_up_to(64))
def test_multiplicative_generator_exists(p, e):
    f = make_field(p, e)

    def order(g):
        # exhaustive order computation
        seen = set()
        x = 1
        for _ in range(f.q - 1):
            x = f.mul(x, g)
            seen.add(x)
        return len(seen)

    assert any(order(g) == f.q - 1 for g in range(1, f.q))


@pytest.mark.parametrize(
    "p,e,n",
    [(2, 1, 2), (2, 1, 3), (2, 1, 4), (2, 2, 2), (3, 1, 2), (3, 2, 2), (5, 1, 2),
     (7, 1, 2), (11, 1, 2), (13, 1, 2), (2, 3, 2), (2, 4, 2),
     # level 1 over a non-prime base: its modulus is primitive, the base's
     # the first irreducible
     (3, 2, 1), (5, 2, 1)],
)
def test_embedding_is_ring_hom(p, e, n):
    base = make_field(p, e)
    ext, image = _embedding(base, n)
    assert base.q <= 25

    for a in range(base.q):
        for b in range(base.q):
            assert image[base.add(a, b)] == ext.add(image[a], image[b])
            assert image[base.mul(a, b)] == ext.mul(image[a], image[b])


@pytest.mark.parametrize("p,e", _prime_powers_up_to(64))
def test_frobenius_fixes_exactly_prime_field(p, e):
    f = make_field(p, e)
    assert f.q <= 64
    fixed = [x for x in range(f.q) if f.pow(x, p) == x]
    assert len(fixed) == p
    for x in fixed:
        assert not any(f.digits(x)[1:])  # in the prime subfield


def test_field_axiom_samples():
    f = make_field(3, 2)
    rng = random.Random(42)
    es = range(f.q)
    add, mul = f.add, f.mul
    for _ in range(50):
        a, b, c = rng.choice(es), rng.choice(es), rng.choice(es)
        assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
        assert mul(a, b) == mul(b, a)
        if b:
            assert mul(mul(a, f.inv(b)), b) == a
        assert f.pow(a, 5) == mul(mul(mul(mul(a, a), a), a), a)


def test_pow_matches_repeated_multiplication():
    f = make_field(2, 4)
    g = f.p  # the index of g
    acc = 1
    for k in range(20):
        assert f.pow(g, k) == acc
        acc = f.mul(acc, g)
