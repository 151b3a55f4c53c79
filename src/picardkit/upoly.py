"""Dense univariate polynomials over Z: arithmetic, exact division, gcd,
Newton's identities and Sturm real-root counts.

Polynomials are plain lists of integer coefficients, index = degree, with
no trailing zeros; the zero polynomial is the empty list.  Division, gcd and
Sturm chains stay in Z[x] (pseudo-remainders with a positive multiplier),
and Sturm counts are taken at integer points.  Everything here is exact; no
floats anywhere, and no Fractions.
"""

from math import gcd as _intgcd


def trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def deg(c):
    return len(c) - 1


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


def evaluate(a, x):
    """a(x) at an integer x, by Horner's rule."""
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def derivative(a):
    return trim([i * a[i] for i in range(1, len(a))])


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


def _shrink(a):
    """a divided by its positive content, so every sign is kept."""
    g = content(a)
    return [c // g for c in a] if g > 1 else a


def _prem(a, b):
    """|lc b|^(deg a - deg b + 1) * a reduced mod b in Z[x]: the
    pseudo-remainder with a positive multiplier, so it is a positive
    multiple of the remainder over Q."""
    lead, nb = b[-1], len(b)
    scale_by = abs(lead)
    r = list(a)
    for k in range(len(r) - nb, -1, -1):
        c = r[-1] if lead > 0 else -r[-1]
        r = [x * scale_by for x in r[:-1]]
        if c:
            for i in range(nb - 1):
                r[k + i] -= c * b[i]
    return trim(r)


def int_gcd(a, b):
    """gcd in Z[x] of two integer polynomials: primitive, with positive
    leading coefficient; [] when both are zero.  Primitive remainder
    sequence."""
    a, b = primitive(a)[1], primitive(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, primitive(_prem(a, b))[1]
    return a


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
    """Coefficients c_0 = 1, c_1..c_m (untrimmed) of the integer polynomial
    prod (1 - alpha T) whose reciprocal roots alpha have the integer power
    sums s_1..s_m; None when some k c_k is not divisible by k, so that no
    such integer polynomial exists."""
    c = [1]
    for k in range(1, len(sums) + 1):
        ck, rem = divmod(-sum(sums[i - 1] * c[k - i] for i in range(1, k + 1)), k)
        if rem:
            return None
        c.append(ck)
    return c


# ---------------------------------------------------------------------------
# Sturm sequences: exact real-root counting in Z[x]


NEG_INF = object()
POS_INF = object()


def _sign_at(p, x):
    """Sign of p at x: +-infinity, or an integer."""
    if not p:
        return 0
    if x is POS_INF:
        c = p[-1]
    elif x is NEG_INF:
        c = p[-1] * (-1) ** deg(p)
    else:
        c = evaluate(p, x)
    return (c > 0) - (c < 0)


def sturm_chain(p):
    """Sturm chain of a nonzero integer polynomial, in Z[x]: p, p', then
    each member is minus the pseudo-remainder (`_prem`) of the two before
    it, divided by its positive content.  Every member is a positive
    multiple of the classical one, so sign changes are unchanged.  The last
    member is gcd(p, p') up to a positive factor: a constant iff p is
    squarefree, and otherwise p divided by it (exact in Z[x] for a
    primitive p, by Gauss's lemma) is the squarefree part."""
    chain = [p]
    d = derivative(p)
    if d:
        chain.append(_shrink(d))
        while deg(chain[-1]) > 0:
            r = _prem(chain[-2], chain[-1])
            if not r:
                break
            chain.append(_shrink(neg(r)))
    return chain


def sign_changes(chain, x):
    """Sign changes along a Sturm chain at x, zeros skipped."""
    signs = [s for s in (_sign_at(q, x) for q in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_real_roots(p, lo):
    """Number of distinct real roots of p above lo: in (lo, +inf].

    p must be nonzero; lo is NEG_INF or an integer; multiplicities are
    ignored.  The chain of p counts distinct roots wherever its last member
    gcd(p, p') is nonzero; when a finite lo is a root of it, the chain of
    the squarefree part is used instead.
    """
    if not p:
        raise ValueError("zero polynomial")
    p = primitive(p)[1]
    chain = sturm_chain(p)
    g = chain[-1]
    if deg(g) > 0 and lo is not NEG_INF and not _sign_at(g, lo):
        chain = sturm_chain(int_quotient(p, g))
    return sign_changes(chain, lo) - sign_changes(chain, POS_INF)
