"""Weight classification of zeta factors and root-of-unity pole counts.

The numerator and denominator of a zeta function are factored once
(`factor_zeta`: the Tate-type factors Phi_m(q^(i/2) T) by trial
division, the rest by `intfactor`), and every irreducible factor is
assigned the unique cohomological weight i with all reciprocal-root moduli
q^(i/2).  The candidate i is read off the leading coefficient.  A Tate-type
factor has those moduli by construction; for every other factor the claim
|alpha| = q^(i/2) for every root is verified in Z[x], with no floating point
and no rational polynomial division.  The trace polynomial
prod (y - (alpha + q^i/alpha)) comes from integer Newton power sums (of
scaled alpha^k and alpha^-k); Sturm chains built from pseudo-remainders with
positive multipliers (`upoly.sturm_chain`) then count its real roots and
those of the squared traces beyond 4 q^i.  Betti numbers and dim V_mu read
the classified factors, and dim V_mu the index m that trial division found.
"""

from functools import cache
from math import comb, isqrt

from . import upoly
from .intfactor import checked_factorization, factor_int_poly


class UnclassifiableFactorError(ValueError):
    """A factor admits no certified weight: non-smooth or corrupted input."""


class WeilFactor:
    """The weight-i piece of a zeta function: P_i with P_i(0) = 1, and its
    irreducible factors as (factor, multiplicity, m), where m is the index
    of a Tate-type factor Phi_m(q^(i/2) T) and None for any other factor."""

    __slots__ = ("poly", "factors")

    def __init__(self, poly, factors):
        self.poly = poly
        self.factors = factors

    def degree(self):
        return upoly.deg(self.poly)


class TateBound:
    """Upper bound dim V_mu on the rank of codimension-p classes."""

    __slots__ = ("p", "v_mu", "per_factor")

    def __init__(self, p, v_mu, per_factor):
        self.p = p
        self.v_mu = v_mu
        self.per_factor = per_factor

    def to_json(self):
        return {"p": self.p, "vMu": self.v_mu, "perFactor": self.per_factor}


# ---------------------------------------------------------------------------
# exact root-modulus certification


def certify_root_modulus(f, s2):
    """True iff every reciprocal root alpha of f satisfies |alpha|^2 = s2.

    f is an integer polynomial with f(0) = 1, such as a zeta side or a
    factor of one; s2 a positive integer.  Exact and in Z: with
    v = lc / alpha (alpha and v are algebraic integers), the integer power
    sums of the alpha and of the v give those of lc * beta,
    beta = alpha + s2/alpha, and Newton's identities (exact integer
    division) turn them into the integer trace polynomial, a multiple of
    prod (y - beta); for a Weil polynomial its primitive part is monic.
    It must be totally real, with every beta^2 <= 4*s2: Sturm counts on
    integer chains (`upoly.sturm_chain`).
    """
    f = upoly.trim(f)
    if not f or f[0] != 1:
        raise ValueError("certification needs f(0) = 1")
    d = upoly.deg(f)
    if d == 0:
        return True
    lc = f[-1]
    up = [d] + upoly.power_sums(f, d)
    down = [d] + upoly.power_sums([1] + [f[d - i] * lc ** (i - 1) for i in range(1, d + 1)], d)
    # N_k = sum over the roots of (lc beta)^k = (lc alpha + s2 v)^k
    sums = []
    for k in range(1, d + 1):
        acc = 0
        for j in range(k + 1):
            term = comb(k, j) * lc**j * s2 ** (k - j)
            if 2 * j >= k:
                acc += term * lc ** (k - j) * up[2 * j - k]
            else:
                acc += term * lc**j * down[k - 2 * j]
        sums.append(acc)
    # prod (1 - lc beta T) = sum c_k T^k, all integers
    c = upoly.from_power_sums(sums)
    assert c is not None, "trace power sums are not integral"
    # lc^d prod (y - beta), index = degree
    trace_poly = upoly.primitive([c[d - i] * lc**i for i in range(d + 1)])[1]
    chain = upoly.sturm_chain(trace_poly)
    g = chain[-1]
    sf = trace_poly if upoly.deg(g) == 0 else upoly.int_quotient(trace_poly, g)
    real = upoly.sign_changes(chain, upoly.NEG_INF) - upoly.sign_changes(chain, upoly.POS_INF)
    if real != upoly.deg(sf):
        return False
    # H(gamma) = E(gamma)^2 - gamma * O(gamma)^2 has roots beta^2
    even = sf[0::2]
    odd = sf[1::2]
    h = upoly.sub(upoly.mul(even, even), upoly.mul([0, 1], upoly.mul(odd, odd)))
    return upoly.count_real_roots(h, lo=4 * s2) == 0


# ---------------------------------------------------------------------------
# weight classification and Betti numbers


def factor_zeta(z):
    """{"num": (1, factors), "den": (1, factors), "tate": {g: m}}: for each
    side of the zeta function, its irreducible factors with constant term 1
    and their multiplicities, sorted (`checked_factorization`, content 1),
    and the index m of each Tate-type factor g (as a tuple).

    The Tate-type factors come out first, by trial division: for each weight
    i <= 2 dim of the side's parity (odd for the numerator, even for the
    denominator) with q^i a square, c = q^(i/2), every Phi_m(c T) that
    divides the side (`_divide_out_cyclotomic`); their reciprocal roots are
    c times roots of unity.  Each is primitive and irreducible in Z[T], a
    rescaling of an irreducible polynomial, so by unique factorization only
    what remains needs factor_int_poly, and the factors and multiplicities
    are the ones it gives for the whole side.
    """
    q, two_d = z.q, 2 * (z.dim or 0)
    out, index = {}, {}
    for side, f, parity in (("num", z.num, 1), ("den", z.den, 0)):
        f = upoly.trim(f)
        rest, tate = f, []
        for i in range(parity, two_d + 1, 2):
            c = isqrt(q**i)
            if c * c != q**i:
                continue
            rest, found = _divide_out_cyclotomic(rest, c)
            tate += [(g, mult) for _, g, mult in found]
            index.update((tuple(g), m) for m, g, _ in found)
        out[side] = checked_factorization(f, 1, tate + factor_int_poly(rest))
    out["tate"] = index
    return out


def _candidate_weight(factor, q, two_d):
    m = upoly.deg(factor)
    lead2 = factor[-1] * factor[-1]
    for i in range(0, two_d + 1):
        if q ** (i * m) == lead2:
            return i
    return None


def classify_weights(z, factored):
    """WeilFactor list P_0..P_2d for a zeta function that passed the
    functional-equation check, from its factorization `factored` (as
    factor_zeta returns it).  Denominator factors take even weights,
    numerator factors odd ones; every irreducible factor that is not
    Tate-type is certified once.  Each factor has constant term 1, as
    factor_zeta gives it."""
    if z.dim is None:
        raise ValueError("weight classification needs the dimension")
    two_d = 2 * z.dim
    pieces = [WeilFactor(poly=[1], factors=[]) for _ in range(two_d + 1)]
    for side, parity in (("den", 0), ("num", 1)):
        for f, mult in factored[side][1]:
            i = _candidate_weight(f, z.q, two_d)
            if i is None:
                raise UnclassifiableFactorError(
                    f"no weight matches the leading coefficient of {f}"
                )
            if i % 2 != parity:
                raise UnclassifiableFactorError(
                    f"factor {f} has weight {i} on the wrong side of the zeta function"
                )
            # a Tate-type factor's roots have modulus q^(i/2) by construction
            m = factored["tate"].get(tuple(f))
            if m is None and not certify_root_modulus(f, z.q**i):
                raise UnclassifiableFactorError(
                    f"roots of {f} are not certified at modulus q^({i}/2)"
                )
            piece = pieces[i]
            piece.factors.append((f, mult, m))
            for _ in range(mult):
                piece.poly = upoly.mul(piece.poly, f)
    return pieces


def betti_numbers(z, pieces):
    """b_i = deg P_i over the classify_weights pieces; checks the endpoints
    and the Euler characteristic."""
    betti = [piece.degree() for piece in pieces]
    if betti[0] != 1 or betti[-1] != 1:
        raise UnclassifiableFactorError("b_0 and b_2d must equal 1")
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != z.euler_characteristic():
        raise UnclassifiableFactorError("Betti alternating sum disagrees with chi")
    return betti


# ---------------------------------------------------------------------------
# cyclotomic trial division and the Tate-class bound


@cache
def cyclotomic_polynomial(m):
    """Phi_m as an integer coefficient list, by exact recursive division."""
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q = upoly.int_quotient(num, cyclotomic_polynomial(d))
            assert q is not None
            num = q
    return num


def _euler_phi_table(limit):
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


_PHI = [0]


def _cyclotomic_indices(d):
    """[(m, phi(m))] for every m with phi(m) <= d, increasing in m: the
    cyclotomic polynomials a polynomial of degree d can have as factors.
    phi(m) >= sqrt(m) for m > 6, so m <= max(6, d^2)."""
    limit = max(6, d * d)
    if len(_PHI) <= limit:
        _PHI[:] = _euler_phi_table(limit)
    return [(m, _PHI[m]) for m in range(1, limit + 1) if _PHI[m] <= d]


_VALUES = {}


def _cyclotomic_values(x, limit):
    """[Phi_m(x) for m = 0..limit] (entry 0 unused) at an integer x with
    |x| >= 2, so that no entry is zero: a sieve on x^m - 1 = prod over
    d | m of Phi_d(x), in integers, with no polynomial built."""
    hit = _VALUES.get(x)
    if hit is None or len(hit) <= limit:
        hit = [0] + [x**m - 1 for m in range(1, limit + 1)]
        for d in range(1, limit + 1):
            for k in range(2 * d, limit + 1, d):
                hit[k] //= hit[d]
        _VALUES[x] = hit
    return hit


# integers t at which Phi_m(c t) is tested to divide f(t) before Z[T]
# division; |c t| >= 2
_TEST_POINTS = (2, 3)


def _divide_out_cyclotomic(poly, c):
    """Divide every Phi_m(c T) out of the nonzero integer polynomial poly
    (c >= 1), by exact division in Z[T], as often as it divides.

    Returns (quotient, [(m, g, multiplicity)]) with g = Phi_m(c T), negated
    for m = 1 so that g(0) = 1.  Before each division, g(t) must divide
    poly(t) at the `_TEST_POINTS`: a necessary test, in integers, which
    builds Phi_m only for the m that pass it."""
    d = upoly.deg(poly)
    found = []
    if d <= 0:
        return poly, found
    indices = _cyclotomic_indices(d)
    tables = [_cyclotomic_values(c * t, indices[-1][0]) for t in _TEST_POINTS]
    values = [upoly.evaluate(poly, t) for t in _TEST_POINTS]
    for m, phi_m in indices:
        at = [table[m] for table in tables]
        g, mult = None, 0
        while phi_m <= d and not any(v % a for v, a in zip(values, at)):
            if g is None:
                g = [a * c**k for k, a in enumerate(cyclotomic_polynomial(m))]
                if m == 1:
                    g, at = [-a for a in g], [-a for a in at]
            quotient = upoly.int_quotient(poly, g)
            if quotient is None:
                break
            poly, d, mult = quotient, d - phi_m, mult + 1
            values = [v // a for v, a in zip(values, at)]
        if mult:
            found.append((m, g, mult))
    return poly, found


def dim_v_mu(z, pieces, p):
    """dim V_mu for codimension p: the number of zeta poles that are a root
    of unity times q^-p, counted with multiplicity.  Such a pole is a
    reciprocal root q^p zeta of P_2p, whose irreducible factor is then
    Phi_m(q^p T), which factor_zeta tags with its m: so the sum, over the
    factors of P_2p in the classify_weights pieces, of the multiplicity
    times the degree of each Tate-type factor."""
    if not 0 <= p <= (z.dim if z.dim is not None else 0):
        raise ValueError("codimension out of range")
    total = 0
    per_factor = []
    for f, mult, m in pieces[2 * p].factors:
        count = 0 if m is None else upoly.deg(f)
        total += mult * count
        per_factor.append(
            {
                "factor": f,
                "multiplicity": mult,
                "cyclotomic": {} if m is None else {str(m): 1},
                "unit_root_count": count,
            }
        )
    return TateBound(p=p, v_mu=total, per_factor=per_factor)
