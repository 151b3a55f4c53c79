"""Exact arithmetic in finite fields F_{p^e}, and the dense Z/m[x]
arithmetic it rests on, which integer factoring shares.

A field is described by its characteristic p and a monic irreducible modulus
of degree e over Z/pZ.  An element is its index: the integer in range(q)
whose base-p digits, least significant first, are its coefficients in the
power basis of the modulus.  So 0 is zero, 1 is one, k < p is k mod p,
and over e > 1, p is g, the class of x; `FieldDesc` does the arithmetic on
indices.  The modulus is always the first of its kind in a fixed
enumeration order, so that a (p, e) pair pins down one field and every
downstream computation is reproducible: a variety's base field is
`make_field(p, e)`, on the first irreducible modulus, which specs, variety
hashes and cache keys read.

Parsing, Groebner bases and smoothness compute in the base field F_q.  A
level F_{q^n} of the counting tower is `level_field(p, e*n)`, the
degree-(e*n) field over the prime field on the first *primitive* modulus,
so that x generates its multiplicative group; counting handles its
elements as table indices (`counting.kernel`), which `kernel.embedding`
reaches from the base field's indices.
"""

from functools import cache


class FieldError(ValueError):
    pass


# ---------------------------------------------------------------------------
# primality


def is_prime(n):
    """Deterministic Miller-Rabin, valid for all n < 3.3 * 10**24; above
    that bound primality is not decided here (FieldError), unless a prime
    below 41 divides n."""
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    if n >= 3317044064679887385961981:
        raise FieldError("primality is decided only below 3.3 * 10**24")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# dense univariate arithmetic over Z/pZ (coefficient lists, index = degree)
#
# The only copy of this arithmetic: integer factoring (`intfactor`) uses it
# mod a prime for Berlekamp and mod its powers for Hensel lifting, so p need
# only be prime where a routine says so.  Inputs are reduced mod p unless a
# routine says it reduces them.


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _paddmul(a, b, c, p):
    """a + c*b mod p."""
    n = max(len(a), len(b))
    return _trim(
        [((a[i] if i < len(a) else 0) + c * (b[i] if i < len(b) else 0)) % p for i in range(n)]
    )


def _pdivmod(a, b, p):
    """(q, r) with a = q*b + r mod p and deg r < deg b: b monic, for any
    modulus p, or p prime and b nonzero."""
    a = list(a)
    db = len(b) - 1
    # no inversion for a monic divisor: field multiplication divides every
    # product by the monic modulus
    inv = 1 if b[-1] == 1 else pow(b[-1], -1, p)
    q = [0] * max(len(a) - db, 0)
    while len(a) > db:
        c = a.pop() * inv % p
        if c:
            k = len(a) - db
            q[k] = c
            for i in range(db):
                a[k + i] = (a[k + i] - c * b[i]) % p
    return _trim(q), _trim(a)


def _pmod(a, m, p):
    return _pdivmod(a, m, p)[1]


def _pmulmod(a, b, m, p):
    """a*b mod a monic m, reduced mod p once per coefficient."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    low = m[:-1]
    for k in range(len(out) - len(low) - 1, -1, -1):
        c = out.pop() % p
        if c:
            for i, mi in enumerate(low):
                out[k + i] -= c * mi
    return _trim([c % p for c in out])


def _ppowmod(a, k, m, p):
    result = [1]
    base = _pmod(a, m, p)
    while k:
        if k & 1:
            result = _pmulmod(result, base, m, p)
        base = _pmulmod(base, base, m, p)
        k >>= 1
    return result


def _pgcd(a, b, p):
    """Monic gcd mod a prime p; the inputs need not be reduced mod p."""
    a, b = _trim([c % p for c in a]), _trim([c % p for c in b])
    while b:
        a, b = b, _pmod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pxgcd(a, b, p):
    """Extended Euclid mod a prime p: (g, s) with s*a + t*b = g, the monic
    gcd, for some t; the inputs, not both zero, need not be reduced mod p.
    Only s is tracked: a caller that needs t divides g - s*a by b exactly."""
    r0, r1 = _trim([c % p for c in a]), _trim([c % p for c in b])
    s0, s1 = [1], []
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _paddmul(s0, _pmul(q, s1, p), -1, p)
    inv = pow(r0[-1], -1, p)
    return [c * inv % p for c in r0], [c * inv % p for c in s0]


def _is_irreducible(m, p):
    """Ben-Or's test for monic m over Z/pZ: a reducible m of degree e has an
    irreducible factor of some degree i <= e/2, and then x^(p^i) - x, the
    product of the monic irreducibles of degree dividing i, shares it.  Most
    candidates fail at a small i, so this stops long before e powerings."""
    e = len(m) - 1
    if e <= 0:
        return False
    x = [0, 1]
    t = x
    for _ in range(e // 2):
        t = _ppowmod(t, p, m, p)
        if len(_pgcd(_paddmul(t, x, -1, p), m, p)) != 1:
            return False
    return True


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# field descriptors


class FieldDesc:
    """A finite field F_{p^e}, fixed by its irreducible modulus.

    Immutable; safe to share.  `modulus` holds the e+1 coefficients of the
    monic modulus, constant term first.
    """

    __slots__ = ("p", "e", "modulus", "q")

    def __init__(self, p, e, modulus):
        self.p = p
        self.e = e
        self.modulus = tuple(modulus)
        self.q = p**e

    def __eq__(self, other):
        return (
            isinstance(other, FieldDesc)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"FieldDesc(p={self.p}, e={self.e})"

    # -- arithmetic on indices -------------------------------------------------
    #
    # An element is its index: the integer whose base-p digits, least
    # significant first, are its coefficients in the power basis.

    def digits(self, a):
        """The e coefficients of the element with index a, constant first."""
        p = self.p
        out = []
        for _ in range(self.e):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def index(self, coeffs):
        """The index of the element with these coefficients, each reduced
        mod p, constant first."""
        idx = 0
        for c in reversed(coeffs):
            idx = idx * self.p + c % self.p
        return idx

    def from_int(self, k):
        return k % self.p

    def add(self, a, b):
        return self.index([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def sub(self, a, b):
        return self.index([x - y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.index([-x for x in self.digits(a)])

    def mul(self, a, b):
        return self.index(_pmulmod(self.digits(a), self.digits(b), self.modulus, self.p))

    def inv(self, a):
        """Multiplicative inverse; raises ZeroDivisionError on 0."""
        if not a:
            raise ZeroDivisionError("inversion of the zero field element")
        return self.index(_pxgcd(self.digits(a), self.modulus, self.p)[1])

    def pow(self, a, k):
        if k < 0:
            a, k = self.inv(a), -k
        return self.index(_ppowmod(self.digits(a), k, self.modulus, self.p))


# ---------------------------------------------------------------------------
# field construction


@cache
def make_field(p, e):
    """F_{p^e} as a variety's base field.

    The modulus is the first monic irreducible of degree e when non-leading
    coefficient vectors are enumerated as base-p integers 0, 1, 2, ...
    (constant coefficient = least significant digit).
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if e < 1:
        raise FieldError("extension degree must be positive")
    for k in range(p**e):
        m = [k // p**i % p for i in range(e)] + [1]
        if _is_irreducible(m, p):
            return FieldDesc(p, e, m)
    raise FieldError("no irreducible modulus found")  # unreachable


@cache
def level_field(p, k):
    """F_{p^k} on the first primitive modulus m, so that x generates
    F_{p^k}^*.  The order: the constant coefficient c outermost, c = 1, ...,
    p - 1, then the middle coefficients c_1..c_{k-1} as the base-p digits of
    0, 1, 2, ... (c_1 least significant).  A c whose norm (-1)^k c is not a
    primitive root mod p is skipped, since x^((p^k - 1)/r) is the norm to
    the power (p - 1)/r for each prime r | p - 1.  Each other candidate
    runs Ben-Or, then x^((p^k - 1)/r) != 1 for the other primes r | p^k - 1.
    """
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if k < 1:
        raise FieldError("extension degree must be positive")
    Q = p**k
    small = _prime_divisors(p - 1)
    rest = [r for r in _prime_divisors((Q - 1) // (p - 1)) if r not in small]
    for c in range(1, p):
        if any(pow((-1) ** k * c, (p - 1) // r, p) == 1 for r in small):
            continue
        for middle in range(p ** (k - 1)):
            m = [c] + [middle // p**i % p for i in range(k - 1)] + [1]
            if _is_irreducible(m, p) and all(
                _ppowmod([0, 1], (Q - 1) // r, m, p) != [1] for r in rest
            ):
                return FieldDesc(p, k, m)
    raise FieldError("no primitive modulus found")  # unreachable
