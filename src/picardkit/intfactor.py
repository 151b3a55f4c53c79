"""Integer polynomial factorization: Berlekamp mod p, Hensel lift, subset
recombination.  Deterministic throughout (fixed prime choice, exhaustive
splitting, lexicographic subset order); input degrees here stay around 24,
where this classical route is cheap.  For a zeta side, `weil.factor_zeta`
divides out the Tate-type factors Phi_m(q^(i/2) T) first, so Zassenhaus
sees only the rest (a constant for the quartic K3's denominator).

Only zeta sides and their factors come here, so f(0) = 1 and the reverse
of f is monic: it is factored, and the factors are reversed back.  The
substitution lc^(d-1) f(x / lc) that would make f itself monic inflates the
coefficients (lc = 2^24 for the quartic K3's denominator).  Gcds in the
squarefree decomposition are integer remainder sequences (`upoly.int_gcd`).

Arithmetic in Z/m[x] (mod p for Berlekamp, mod p^k for Hensel lifting) is
`ffield`'s; arithmetic in Z[x] is `upoly`'s.
"""

from itertools import combinations
from math import isqrt

from . import upoly
from .ffield import _paddmul, _pdivmod, _pgcd, _pmul, _pmulmod, _ppowmod, _pxgcd, _trim

_PRIMES = [
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
    73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149,
]


# -- Berlekamp (deterministic, small p) ---------------------------------------


def _nullspace_mod(mat, p):
    rows = len(mat)
    cols = len(mat[0]) if rows else 0
    a = [row[:] for row in mat]
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col] % p), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], p - 2, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col] % p:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fcol in free:
        v = [0] * cols
        v[fcol] = 1
        for i, col in enumerate(pivots):
            v[col] = (-a[i][fcol]) % p
        basis.append(v)
    return basis


def _berlekamp(f, p):
    """Irreducible factors of a monic squarefree f mod p (deterministic)."""
    d = len(f) - 1
    if d <= 1:
        return [f]
    xp = _ppowmod([0, 1], p, f, p)
    cols = [[1] + [0] * (d - 1)]
    for _ in range(1, d):
        col = _pmulmod(cols[-1], xp, f, p)
        cols.append(col + [0] * (d - len(col)))
    # kernel of (Q - I)^T: v with v(x)^p = v(x) mod f
    mat = [[(cols[j][i] - (1 if i == j else 0)) % p for j in range(d)] for i in range(d)]
    kernel = _nullspace_mod(mat, p)
    r = len(kernel)
    if r <= 1:
        return [f]
    factors = [f]
    for v in kernel:
        if len(factors) == r:
            break
        if upoly.deg(_trim(list(v))) < 1:
            continue
        new = []
        for u in factors:
            if len(u) - 1 == 1:
                new.append(u)
                continue
            rem_u = u
            for c in range(p):
                if len(rem_u) - 1 < 1:
                    break
                g = _pgcd(rem_u, _paddmul(v, [1], -c, p), p)
                if 0 < len(g) - 1 < len(rem_u) - 1:
                    rem_u = _pdivmod(rem_u, g, p)[0]
                    new.append(g)
            if len(rem_u) - 1 >= 1:
                new.append(rem_u)
        factors = new
    factors.sort()
    return factors


# -- Hensel lifting -----------------------------------------------------------


def _hensel_pair(f, g, h, s, t, p, bound):
    """Lift f = g*h (mod p) with s*g + t*h = 1 (mod p) until modulus > bound.

    f, g, h monic.  Returns (g, h, modulus)."""
    m = p
    while m <= bound:
        m2 = m * m
        e = _paddmul(f, _pmul(g, h, m2), -1, m2)
        q, r = _pdivmod(_pmul(s, e, m2), h, m2)
        g_new = _paddmul(_paddmul(g, _pmul(t, e, m2), 1, m2), _pmul(q, g, m2), 1, m2)
        h_new = _paddmul(h, r, 1, m2)
        b = _paddmul(_paddmul(_pmul(s, g_new, m2), _pmul(t, h_new, m2), 1, m2), [1], -1, m2)
        c, d = _pdivmod(_pmul(s, b, m2), h_new, m2)
        s_new = _paddmul(s, d, -1, m2)
        t_new = _paddmul(_paddmul(t, _pmul(t, b, m2), -1, m2), _pmul(c, g_new, m2), -1, m2)
        g, h, s, t = g_new, h_new, s_new, t_new
        m = m2
    assert not _paddmul(f, _pmul(g, h, m), -1, m), "Hensel lift self-check failed"
    return g, h, m


def _hensel_tree(f, parts, p, bound):
    """Lift a pairwise-coprime monic factorization of f mod p past `bound`.

    Returns (factors mod m, m) with m = p^(2^k) > bound."""
    if len(parts) == 1:
        m = p
        while m <= bound:
            m *= m
        return [f], m
    half = len(parts) // 2
    g0 = [1]
    for u in parts[:half]:
        g0 = _pmul(g0, u, p)
    h0 = [1]
    for u in parts[half:]:
        h0 = _pmul(h0, u, p)
    one, s = _pxgcd(g0, h0, p)  # the parts are pairwise coprime
    t, rem = _pdivmod(_paddmul(one, _pmul(s, g0, p), -1, p), h0, p)
    assert not rem, "Bezout cofactor is not exact"
    g, h, m = _hensel_pair(f, g0, h0, s, t, p, bound)
    left, _ = _hensel_tree(g, parts[:half], p, bound)
    right, _ = _hensel_tree(h, parts[half:], p, bound)
    return left + right, m


# -- Zassenhaus ----------------------------------------------------------------


def _balanced(c, m):
    c %= m
    return c - m if c > m // 2 else c


def _factor_monic_squarefree(f):
    """Irreducible monic integer factors of a monic squarefree polynomial."""
    d = upoly.deg(f)
    if d <= 1:
        return [f]
    fp = None
    prime = None
    for p in _PRIMES:
        fp = _trim([c % p for c in f])
        if upoly.deg(fp) != d:
            continue
        if upoly.deg(_pgcd(fp, upoly.derivative(f), p)) == 0:
            prime = p
            break
    if prime is None:
        raise ArithmeticError("no squarefree reduction prime found")
    parts = _berlekamp(fp, prime)
    if len(parts) == 1:
        return [f]
    norm2 = isqrt(sum(c * c for c in f)) + 1
    bound = 2 * (2**d) * norm2
    lifted, m = _hensel_tree(f, parts, prime, bound)

    factors = []
    remaining = list(range(len(lifted)))
    f_cur = list(f)
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in combinations(remaining, size):
            g = [1]
            for i in combo:
                g = _pmul(g, lifted[i], m)
            g = [_balanced(c, m) for c in g]
            g = upoly.trim(g)
            q = upoly.int_quotient(f_cur, g)
            if q is not None:
                factors.append(g)
                f_cur = q
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if upoly.deg(f_cur) > 0:
        factors.append(f_cur)
    factors.sort(key=lambda g: (len(g), g))
    return factors


def _squarefree_decomposition(f):
    """Yun: [(g_i, i)] with f = prod g_i^i, each g_i squarefree, over Z."""
    out = []
    df = upoly.derivative(f)
    a = upoly.int_gcd(f, df)
    if upoly.deg(a) == 0:
        return [(list(f), 1)]
    b = upoly.int_quotient(f, a)
    c = upoly.int_quotient(df, a)
    d = upoly.sub(c, upoly.derivative(b))
    i = 1
    while upoly.deg(b) > 0:
        g = upoly.int_gcd(b, d)
        if upoly.deg(g) > 0:
            out.append((g, i))
        b2 = upoly.int_quotient(b, g)
        c2 = upoly.int_quotient(d, g)
        d = upoly.sub(c2, upoly.derivative(b2))
        b = b2
        i += 1
    return out


def factor_int_poly(f):
    """[(irreducible factor, multiplicity), ...] of an integer polynomial
    with f(0) = 1, such as a zeta side; [] for f = [1].

    The reverse of f is monic: its monic irreducible factors (Yun, then
    Zassenhaus) are reversed back, so that each factor has constant term 1.
    """
    f = upoly.trim(f)
    if not f or f[0] != 1:
        raise ValueError("factoring needs f(0) = 1")
    if len(f) == 1:
        return []
    return [
        (upoly.reverse(g), mult)
        for sf, mult in _squarefree_decomposition(upoly.reverse(f))
        for g in _factor_monic_squarefree(sf)
    ]


def checked_factorization(f, content, factors):
    """(content, factors) with the factors sorted, once content times the
    product of factor^mult re-multiplies exactly to f (trimmed, integer)."""
    factors = sorted(factors, key=lambda fm: (len(fm[0]), fm[0], fm[1]))
    check = [content]
    for g, mult in factors:
        for _ in range(mult):
            check = upoly.mul(check, g)
    if check != f:
        raise ArithmeticError("factorization self-check failed")
    return content, factors
