"""Dense univariate polynomial helpers over exact coefficients (int / Fraction).

Polynomials are plain lists of coefficients, index = degree, with no trailing
zeros; the zero polynomial is the empty list.  Everything here is exact; no
floats anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd


def trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def deg(c):
    return len(c) - 1


def add(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def sub(a, b):
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0) for i in range(n)])


def neg(a):
    return [-c for c in a]


def scale(a, s):
    if not s:
        return []
    return [c * s for c in a]


def mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return trim(out)


def mul_many(polys):
    out = [1]
    for p in polys:
        out = mul(out, p)
    return out


def evaluate(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def derivative(a):
    return trim([i * a[i] for i in range(1, len(a))])


def divmod_frac(a, b):
    """Quotient and remainder over Q (coefficients coerced to Fraction)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 1)
    inv = 1 / b[-1]
    while len(a) >= len(b) and a:
        c = a[-1] * inv
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        a.pop()
        a = trim(a)
    return trim(q), trim(a)


def divides_exactly(b, a):
    """True (with quotient) iff b divides a over Q; quotient returned trimmed."""
    q, r = divmod_frac(a, b)
    if r:
        return False, None
    return True, q


def int_quotient(a, b):
    """Exact quotient in Z[x] of integer polynomials; None when b does not
    divide a in Z[x].

    Long division in Z[x]: if the quotient is integral, every step's top
    coefficient is divisible by b's leading coefficient, so a nonzero
    remainder there already rules it out."""
    if not b or not b[-1]:
        raise ZeroDivisionError("polynomial division by zero")
    lead, nb = b[-1], len(b)
    r = list(a)
    q = [0] * max(len(r) - nb + 1, 0)
    for k in range(len(q) - 1, -1, -1):
        c, rem = divmod(r[k + nb - 1], lead)
        if rem:
            return None
        q[k] = c
        if c:
            for i in range(nb - 1):
                r[k + i] -= c * b[i]
    if any(r[: nb - 1]):
        return None
    return trim(q)


def gcd_frac(a, b):
    """Monic gcd over Q."""
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]
    while b:
        _, r = divmod_frac(a, b)
        a, b = b, r
    if a:
        inv = 1 / a[-1]
        a = [c * inv for c in a]
    return a


def squarefree_part(a):
    """a / gcd(a, a') over Q, monic."""
    if not a:
        return []
    g = gcd_frac(a, derivative(a))
    q, r = divmod_frac(a, g)
    assert not r
    if q:
        inv = 1 / Fraction(q[-1])
        q = [Fraction(c) * inv for c in q]
    return q


def content(a):
    g = 0
    for c in a:
        g = _intgcd(g, abs(c))
    return g


def primitive(a):
    c = content(a)
    if c == 0:
        return 0, []
    sign = 1 if a[-1] > 0 else -1
    return c * sign, [x // (c * sign) for x in a]


def reverse(a):
    """x^deg * a(1/x); valid as an exact operation when a(0) != 0."""
    return trim(list(reversed(a)))


# ---------------------------------------------------------------------------
# Newton's identities: c = prod (1 - alpha T) against s_k = sum alpha^k,
# k c_k = -sum_{i=1..k} s_i c_{k-i}


def power_sums(coeffs, n_max):
    """Power sums s_1..s_n_max of the reciprocal roots of a polynomial with
    c_0 = 1."""
    d = deg(coeffs)
    sums = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        acc = -n * (coeffs[n] if n <= d else 0)
        for i in range(1, n):
            if i <= d:
                acc -= coeffs[i] * sums[n - i]
        sums[n] = acc
    return sums[1:]


def from_power_sums(sums):
    """Coefficients c_0 = 1, c_1..c_m (Fractions, untrimmed) of the
    polynomial prod (1 - alpha T) whose reciprocal roots alpha have power
    sums s_1..s_m."""
    c = [Fraction(1)]
    for k in range(1, len(sums) + 1):
        c.append(-sum(sums[i - 1] * c[k - i] for i in range(1, k + 1)) / k)
    return c


# ---------------------------------------------------------------------------
# Sturm sequences: exact real-root counting


NEG_INF = object()
POS_INF = object()


def _sign_at(p, x):
    if not p:
        return 0
    if x is POS_INF:
        c = p[-1]
    elif x is NEG_INF:
        c = p[-1] * (-1) ** deg(p)
    else:
        c = evaluate(p, Fraction(x))
    return (c > 0) - (c < 0)


def _sturm_chain(p):
    p = [Fraction(c) for c in p]
    chain = [trim(p)]
    d = derivative(chain[0])
    if d:
        chain.append(d)
        while True:
            _, r = divmod_frac(chain[-2], chain[-1])
            if not r:
                break
            chain.append(neg(r))
    return chain


def count_real_roots(p, lo=NEG_INF, hi=POS_INF):
    """Number of distinct real roots of p in the half-open interval (lo, hi].

    p must be nonzero; it is replaced by its squarefree part internally, so
    multiplicities are ignored.
    """
    if not p:
        raise ValueError("zero polynomial")
    sf = squarefree_part(p)
    if deg(sf) == 0:
        return 0
    chain = _sturm_chain(sf)

    def changes(x):
        signs = [s for s in (_sign_at(q, x) for q in chain) if s != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    return changes(lo) - changes(hi)


def is_totally_real(p):
    """True iff every complex root of p is real (multiplicity ignored)."""
    sf = squarefree_part(p)
    if deg(sf) <= 0:
        return True
    return count_real_roots(sf) == deg(sf)
