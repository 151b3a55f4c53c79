"""Exact zeta functions from point counts.

Z(T) = exp(sum N_n T^n / n) is recovered as a reduced rational function with
integer coefficients and constant terms 1, by exact linear algebra on the
truncated exponential series.  For surfaces with b1 = b3 = 0 a dedicated
reduction pins the degree-b2 middle factor from far fewer counts using the
functional equation.  Everything is Fraction/int arithmetic; a float
anywhere here would be unsound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import upoly
from .exactla import solve


class ZetaError(ValueError):
    pass


class NoSolutionError(ZetaError):
    """No rational function within the budget matches the counts."""


class NonIntegerCoefficientsError(ZetaError):
    """The matched rational function is not integral: corrupted counts."""


class InsufficientCountsError(ZetaError):
    pass


class NoConsistentSignError(ZetaError):
    pass


@dataclass
class ZetaFunction:
    """num/den with integer coefficients, num(0) = den(0) = 1, coprime."""

    q: int
    num: list
    den: list
    dim: int | None = None

    def __post_init__(self):
        if not self.num or not self.den or self.num[0] != 1 or self.den[0] != 1:
            raise ZetaError("numerator and denominator must have constant term 1")
        if any(int(c) != c for c in self.num + self.den):
            raise NonIntegerCoefficientsError("non-integer coefficients")
        self.num = [int(c) for c in self.num]
        self.den = [int(c) for c in self.den]

    def euler_characteristic(self):
        return upoly.deg(self.den) - upoly.deg(self.num)

    def expand(self, n_max):
        return expand(self, n_max)

    def to_json(self):
        return {"q": self.q, "dim": self.dim, "num": self.num, "den": self.den}

    @staticmethod
    def from_json(obj):
        return ZetaFunction(q=obj["q"], num=obj["num"], den=obj["den"], dim=obj.get("dim"))

    def __eq__(self, other):
        return (
            isinstance(other, ZetaFunction)
            and (self.q, self.num, self.den) == (other.q, other.num, other.den)
        )


@dataclass(frozen=True)
class DegreeBudget:
    """Upper bound on the total Betti number, driving the count requirement."""

    B: int
    source: str  # "user-config" | "hypersurface-formula"
    betti: tuple | None = None  # predicted Betti vector when derivable

    def __post_init__(self):
        if self.B < 2:
            raise ZetaError("budget must be at least 2")


class MissingBudgetError(ZetaError):
    pass


def betti_budget(descriptor):
    """DegreeBudget from variety metadata.

    descriptor: a mapping with either
      * "budget": a user-configured bound, or
      * "hypersurface_degree" and "ambient_dim": a smooth hypersurface of
        that degree in P^{ambient_dim}, whose Betti numbers are classical.
    No general effective bound is implemented; anything else is an error.
    """
    if descriptor.get("budget") is not None:
        return DegreeBudget(B=int(descriptor["budget"]), source="user-config")
    D = descriptor.get("hypersurface_degree")
    amb = descriptor.get("ambient_dim")
    if not D or not amb:
        raise MissingBudgetError(
            "no budget: supply one, or a hypersurface degree plus ambient dimension"
        )
    m = amb - 1  # dimension of the hypersurface
    chi_num = (1 - D) ** (m + 2) - 1
    assert chi_num % D == 0
    chi = chi_num // D + (m + 2)
    if m % 2 == 0:
        b_mid = chi - m
        total = m + b_mid
    else:
        b_mid = (m + 1) - chi
        total = (m + 1) + b_mid
    if b_mid < 0:
        raise ZetaError("inconsistent hypersurface data")
    betti = []
    for i in range(2 * m + 1):
        if i == m:
            betti.append(b_mid)
        elif i % 2 == 0:
            betti.append(1)
        else:
            betti.append(0)
    return DegreeBudget(B=total, source="hypersurface-formula", betti=tuple(betti))


def exp_series(counts, order):
    """Taylor coefficients of exp(sum N_n T^n / n) through T^order."""
    E = [Fraction(1)] + [Fraction(0)] * order
    for k in range(1, order + 1):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if j <= len(counts):
                acc += counts[j - 1] * E[k - j]
        E[k] = acc / k
    return E


def reconstruct(counts, budget, dim=None):
    """The unique rational function of degree <= B matching the counts.

    counts: a CountSeries (or anything with .q and .counts) holding at least
    2B entries.  Minimal denominator degree is found first; the result is
    validated by re-expansion against every supplied count.
    """
    B = budget.B if isinstance(budget, DegreeBudget) else int(budget)
    q = counts.q
    ns = list(counts.counts)
    if len(ns) < 2 * B:
        raise InsufficientCountsError(f"need at least {2 * B} counts, got {len(ns)}")
    M = len(ns)
    W = exp_series(ns, M)

    for dd in range(0, B + 1):
        dn = B - dd
        ks = list(range(dn + 1, M + 1))
        A = [[W[k - i] if k - i >= 0 else Fraction(0) for i in range(1, dd + 1)] for k in ks]
        rhs = [-W[k] for k in ks]
        sol = solve(A, rhs) if dd else ([] if not any(rhs) else None)
        if sol is None:
            continue
        den = [Fraction(1)] + list(sol)
        den = upoly.trim(den)
        num = [
            sum(den[i] * W[k - i] for i in range(min(len(den), k + 1)))
            for k in range(dn + 1)
        ]
        num = upoly.trim(num)
        if not num or num[0] != 1:
            continue
        g = upoly.gcd_frac(num, den)
        if upoly.deg(g) > 0:
            num, _ = upoly.divmod_frac(num, g)
            den, _ = upoly.divmod_frac(den, g)
            c = den[0]
            num = [x / c for x in num]
            den = [x / c for x in den]
        if any(c.denominator != 1 for c in num + den):
            raise NonIntegerCoefficientsError(
                "matched rational function has non-integer coefficients"
            )
        z = ZetaFunction(q=q, num=[int(c) for c in num], den=[int(c) for c in den], dim=dim)
        if expand(z, M) != ns:
            raise NoSolutionError("re-expansion mismatch: counts are inconsistent")
        return z
    raise NoSolutionError("no rational function of the budgeted degree matches")


def expand(z, n_max):
    """Counts N_1..N_n_max encoded by the zeta function (exact integers)."""
    s_den = upoly.power_sums(z.den, n_max)
    s_num = upoly.power_sums(z.num, n_max)
    return [int(a - b) for a, b in zip(s_den, s_num)]


def functional_equation_check(z, dim=None):
    """Does Z(1/(q^d T)) = ±q^(d*chi/2) T^chi Z(T) hold exactly?

    Returns (holds, sign); sign is None when d*chi is odd (only the squared
    identity is then checkable over the rationals).
    """
    d = dim if dim is not None else z.dim
    if d is None:
        raise ZetaError("functional equation needs the dimension")
    q = z.q
    chi = z.euler_characteristic()
    a, b = upoly.deg(z.num), upoly.deg(z.den)
    n_rev = [z.num[a - i] * q ** (d * i) for i in range(a + 1)]
    d_rev = [z.den[b - i] * q ** (d * i) for i in range(b + 1)]
    lhs = upoly.mul(n_rev, z.den)
    rhs = upoly.mul(z.num, d_rev)
    if (d * chi) % 2 == 0:
        s = q ** ((d * chi) // 2)
        lhs = upoly.scale(lhs, s)
        if lhs == rhs:
            return True, 1
        if lhs == upoly.neg(rhs):
            return True, -1
        return False, 0
    holds = upoly.scale(upoly.mul(lhs, lhs), q ** (d * chi)) == upoly.mul(rhs, rhs)
    return holds, None


def reconstruct_surface(counts, q, b2):
    """Middle zeta factor of a surface with b1 = b3 = 0, from few counts.

    Z = 1 / ((1-T) P2(T) (1-q^2 T)) with deg P2 = b2.  Newton's identities
    recover the low half of P2 from ceil(b2/2) counts; the functional
    equation P2(T) = ±q^b2 T^b2 P2(1/(q^2 T)) fills the rest.  Both signs
    are tried; survivors must have integer coefficients, all reciprocal-root
    moduli exactly q, and must reproduce every supplied count.  Returns the
    list of surviving candidates (two entries means genuinely ambiguous).
    """
    from .weil import certify_root_modulus

    ns = list(counts.counts) if hasattr(counts, "counts") else list(counts)
    need = -(-b2 // 2)
    if len(ns) < need:
        raise InsufficientCountsError(f"need at least {need} counts, got {len(ns)}")
    if b2 == 0:
        z = ZetaFunction(q=q, num=[1], den=upoly.mul([1, -1], [1, -(q**2)]), dim=2)
        if expand(z, len(ns)) != ns:
            raise NoSolutionError("counts do not match a b2 = 0 surface")
        return [z]

    m_avail = min(len(ns), b2)
    s = [ns[n - 1] - 1 - q ** (2 * n) for n in range(1, m_avail + 1)]
    c_known = {}
    for k, ck in enumerate(upoly.from_power_sums(s)):
        if ck.denominator != 1:
            raise NonIntegerCoefficientsError("counts give non-integer coefficients")
        c_known[k] = int(ck)

    candidates = []
    for sign in (1, -1):
        # c_k = sign * c_{b2-k} * q^(2k - b2) for every k
        c = [c_known.get(k) for k in range(b2 + 1)]
        ok = True
        for k in range(m_avail + 1, b2 + 1):
            j = b2 - k  # j <= m_avail since m_avail >= ceil(b2/2)
            c[k] = sign * c[j] * q ** (2 * k - b2)
        for k in range(0, m_avail + 1):
            j = b2 - k
            if k <= j <= m_avail and c_known[j] != sign * c_known[k] * q ** (b2 - 2 * k):
                ok = False
                break
        if not ok:
            continue
        p2 = list(c)
        if p2[0] != 1 or upoly.deg(upoly.trim(list(p2))) != b2:
            continue
        if not certify_root_modulus(p2, q * q):
            continue
        den = upoly.mul(upoly.mul([1, -1], p2), [1, -(q**2)])
        z = ZetaFunction(q=q, num=[1], den=den, dim=2)
        if expand(z, len(ns)) != ns:
            continue
        if all(z != other for other in candidates):
            candidates.append(z)
    if not candidates:
        raise NoConsistentSignError(
            "no sign of the functional equation is consistent with the counts"
        )
    return candidates
