"""Weight classification of zeta factors and root-of-unity pole counts.

Every irreducible factor of a zeta function's numerator or denominator is
assigned the unique cohomological weight i with all reciprocal-root moduli
q^(i/2).  The assignment is certified exactly: the candidate i is read off
the leading coefficient, and the claim |alpha| = q^(i/2) for every root is
verified with no floating point via the trace polynomial
prod (beta - (alpha + q^i/alpha)) and Sturm real-root counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from . import upoly
from .exactla import charpoly, inverse
from .intfactor import factor_int_poly


class UnclassifiableFactorError(ValueError):
    """A factor admits no certified weight: non-smooth or corrupted input."""


@dataclass
class WeilFactor:
    """The weight-i piece of a zeta function: P_i with P_i(0) = 1."""

    weight: int
    poly: list

    def degree(self):
        return upoly.deg(self.poly)


@dataclass
class TateBound:
    """Upper bound dim V_mu on the rank of codimension-p classes."""

    p: int
    v_mu: int
    per_factor: list = field(default_factory=list)

    def to_json(self):
        return {"p": self.p, "vMu": self.v_mu, "perFactor": self.per_factor}


# ---------------------------------------------------------------------------
# factorization of zeta polynomials


def factor_z_poly(poly):
    """Irreducible integer factors (with multiplicity) of a nonzero integer
    polynomial; content * product reproduces the input exactly."""
    content, factors = factor_int_poly(poly)
    return content, factors


# ---------------------------------------------------------------------------
# exact root-modulus certification


def _companion(monic):
    d = len(monic) - 1
    m = [[Fraction(0)] * d for _ in range(d)]
    for i in range(1, d):
        m[i][i - 1] = Fraction(1)
    for i in range(d):
        m[i][d - 1] = -Fraction(monic[i])
    return m


def certify_root_modulus(f, s2):
    """True iff every reciprocal root alpha of f satisfies |alpha|^2 = s2.

    f is an integer (or rational) polynomial with f(0) != 0; s2 a positive
    integer.  Exact: builds the trace polynomial with roots
    beta = alpha + s2/alpha, demands it totally real, and bounds beta^2 by
    4*s2 through Sturm counts with rational endpoints.
    """
    f = upoly.trim([Fraction(c) for c in f])
    if not f or f[0] == 0:
        raise ValueError("certification needs f(0) != 0")
    d = upoly.deg(f)
    if d == 0:
        return True
    if d == 1:
        alpha2 = (f[1] / f[0]) ** 2  # alpha = -c1/c0
        return alpha2 == s2
    # monic polynomial with the reciprocal roots as honest roots
    rev = list(reversed(f))
    lead = rev[-1]
    monic = [c / lead for c in rev]
    comp = _companion(monic)
    inv = inverse(comp)
    assert inv is not None  # f(0) != 0 makes the companion invertible
    n = len(comp)
    a = [[comp[i][j] + s2 * inv[i][j] for j in range(n)] for i in range(n)]
    trace_poly = charpoly(a)
    sf = upoly.squarefree_part(trace_poly)
    if upoly.deg(sf) == 0:
        return True
    if upoly.count_real_roots(sf) != upoly.deg(sf):
        return False
    # H(gamma) = E(gamma)^2 - gamma * O(gamma)^2 has roots beta^2
    even = sf[0::2]
    odd = sf[1::2]
    h = upoly.sub(upoly.mul(even, even), upoly.mul([Fraction(0), Fraction(1)], upoly.mul(odd, odd)))
    if upoly.deg(upoly.squarefree_part(h)) == 0:
        return True
    return upoly.count_real_roots(h, lo=Fraction(4 * s2)) == 0


# ---------------------------------------------------------------------------
# weight classification and Betti numbers


def _candidate_weight(factor, q, two_d):
    m = upoly.deg(factor)
    lead2 = factor[-1] * factor[-1]
    for i in range(0, two_d + 1):
        if q ** (i * m) == lead2:
            return i
    return None


def classify_weights(z):
    """WeilFactor list P_0..P_2d for a zeta function that passed the
    functional-equation check.  Denominator factors take even weights,
    numerator factors odd ones; every assignment is certified."""
    if z.dim is None:
        raise ValueError("weight classification needs the dimension")
    two_d = 2 * z.dim
    pieces = {i: [1] for i in range(two_d + 1)}
    for side, poly in (("den", z.den), ("num", z.num)):
        if upoly.deg(poly) == 0:
            continue
        content, factors = factor_z_poly(poly)
        if abs(content) != 1:
            raise UnclassifiableFactorError("zeta polynomial has nontrivial content")
        for f, mult in factors:
            # normalize to constant term 1
            if f[0] == -1:
                f = [-c for c in f]
            if f[0] != 1:
                raise UnclassifiableFactorError(f"factor {f} lacks unit constant term")
            i = _candidate_weight(f, z.q, two_d)
            if i is None:
                raise UnclassifiableFactorError(
                    f"no weight matches the leading coefficient of {f}"
                )
            expected_parity = 0 if side == "den" else 1
            if i % 2 != expected_parity:
                raise UnclassifiableFactorError(
                    f"factor {f} has weight {i} on the wrong side of the zeta function"
                )
            if not certify_root_modulus(f, z.q**i):
                raise UnclassifiableFactorError(
                    f"roots of {f} are not certified at modulus q^({i}/2)"
                )
            for _ in range(mult):
                pieces[i] = upoly.mul(pieces[i], f)
    return [WeilFactor(weight=i, poly=pieces[i]) for i in range(two_d + 1)]


def betti_numbers(z):
    """b_i = deg P_i; checks the endpoints and the Euler characteristic."""
    factors = classify_weights(z)
    betti = [f.degree() for f in factors]
    if betti[0] != 1 or betti[-1] != 1:
        raise UnclassifiableFactorError("b_0 and b_2d must equal 1")
    chi = sum((-1) ** i * b for i, b in enumerate(betti))
    if chi != z.euler_characteristic():
        raise UnclassifiableFactorError("Betti alternating sum disagrees with chi")
    return betti


# ---------------------------------------------------------------------------
# cyclotomic multiplicity and the Tate-class bound


_CYCLO_CACHE = {1: [-1, 1]}


def cyclotomic_polynomial(m):
    """Phi_m as an integer coefficient list, by exact recursive division."""
    hit = _CYCLO_CACHE.get(m)
    if hit is not None:
        return hit
    num = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            q = upoly.int_quotient(num, cyclotomic_polynomial(d))
            assert q is not None
            num = q
    _CYCLO_CACHE[m] = num
    return num


def _euler_phi_table(limit):
    phi = list(range(limit + 1))
    for i in range(2, limit + 1):
        if phi[i] == i:  # prime
            for j in range(i, limit + 1, i):
                phi[j] -= phi[j] // i
    return phi


def cyclotomic_multiplicity(poly):
    """Total count, with multiplicity, of root-of-unity roots of a nonzero
    rational polynomial, with the per-index breakdown.

    Returns (total, {m: multiplicity of Phi_m}); the total is
    sum multiplicity * phi(m), i.e. the number of roots that are roots of
    unity counted with multiplicity.
    """
    poly = upoly.trim([Fraction(c) for c in poly])
    if not poly:
        raise ValueError("zero polynomial")
    d = upoly.deg(poly)
    if d == 0:
        return 0, {}
    limit = 2 * d * d + 1
    phi = _euler_phi_table(limit)
    breakdown = {}
    total = 0
    for m in range(1, limit + 1):
        if phi[m] > d:
            continue
        cyc = cyclotomic_polynomial(m)
        mult = 0
        while True:
            ok, q = upoly.divides_exactly(cyc, poly)
            if not ok:
                break
            poly = q
            mult += 1
        if mult:
            breakdown[m] = mult
            total += mult * phi[m]
            d = upoly.deg(poly)
    return total, breakdown


def dim_v_mu(z, p):
    """dim V_mu for codimension p: the number of zeta poles that are a root
    of unity times q^-p, counted with multiplicity."""
    if not 0 <= p <= (z.dim if z.dim is not None else 0):
        raise ValueError("codimension out of range")
    factors = classify_weights(z)
    p2 = factors[2 * p].poly
    deg = upoly.deg(p2)
    if deg == 0:
        return TateBound(p=p, v_mu=0, per_factor=[])
    # clear denominators of P(T / q^p)
    scaled = [p2[k] * z.q ** (p * (deg - k)) for k in range(deg + 1)]
    total, breakdown = cyclotomic_multiplicity(scaled)
    per_factor = []
    _, irred = factor_z_poly(p2)
    for f, mult in irred:
        fd = upoly.deg(f)
        fs = [f[k] * z.q ** (p * (fd - k)) for k in range(fd + 1)]
        ftot, fbreak = cyclotomic_multiplicity(fs)
        per_factor.append(
            {
                "factor": [int(c) for c in f],
                "multiplicity": mult,
                "cyclotomic": {str(m): c for m, c in sorted(fbreak.items())},
                "unit_root_count": ftot,
            }
        )
    return TateBound(p=p, v_mu=total, per_factor=per_factor)


def picard_upper_bound(z):
    """Unconditional upper bound on the geometric Picard rank
    (rank of divisor classes modulo torsion over the separable closure)."""
    if z.dim is None or z.dim < 1:
        raise ValueError("needs a variety of dimension at least 1")
    return dim_v_mu(z, 1).v_mu
