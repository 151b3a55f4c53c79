"""Exact zeta functions from point counts.

A `DegreeBudget` records what is known before any count.  When it carries
the Betti numbers of a smooth hypersurface, only the middle factor P_d is
unknown, less the record's known factor K(T) of P_d ((1 - q^(d/2) T) of
the hyperplane class when d is even): Newton's identities give the low
half of P_d / K and the functional equation the rest, from about
(b_d - deg K) / 2 counts.  Otherwise Z(T) = exp(sum N_n T^n / n) is
recovered from 2B counts as a reduced rational function (a Pade
approximant) by fraction-free linear algebra on the truncated exponential
series, whose coefficients are integers when the counts are.  Both routes
stay in Z; a float would be unsound.
"""

from . import upoly
from .exactla import det_bareiss, echelon


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


class AmbiguousSignError(ZetaError):
    """Both signs of the functional equation fit the counts; count deeper."""

    def __init__(self, candidates):
        super().__init__("functional-equation sign is ambiguous at this count depth")
        self.candidates = candidates


class ZetaFunction:
    """num/den with integer coefficients, num(0) = den(0) = 1, coprime."""

    __slots__ = ("q", "num", "den", "dim")

    def __init__(self, q, num, den, dim=None):
        if not num or not den or num[0] != 1 or den[0] != 1:
            raise ZetaError("numerator and denominator must have constant term 1")
        self.q = q
        self.num = num
        self.den = den
        self.dim = dim

    def euler_characteristic(self):
        return upoly.deg(self.den) - upoly.deg(self.num)

    def to_json(self):
        return {"q": self.q, "dim": self.dim, "num": self.num, "den": self.den}

    def __eq__(self, other):
        return (
            isinstance(other, ZetaFunction)
            and (self.q, self.num, self.den) == (other.q, other.num, other.den)
        )


class DegreeBudget:
    """What is known about Z before any count: the bound B on the total
    Betti number and, for a variety whose cohomology outside degree d is
    that of P^d, its Betti vector and a known factor K(T) of P_d (integer
    coefficients, K(0) = 1) that counts need not fix.  For odd d, K must
    satisfy the functional equation with sign +1, as P_d does."""

    __slots__ = ("B", "betti", "known")

    def __init__(self, B, betti=None, known=(1,)):
        if betti is None and B < 2:
            raise ZetaError("budget must be at least 2")
        if known[0] != 1 or betti and upoly.deg(known) > betti[len(betti) // 2]:
            raise ZetaError("the known factor K needs K(0) = 1 and degree at most b_d")
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "betti", betti)  # predicted Betti vector when derivable
        object.__setattr__(self, "known", tuple(known))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"DegreeBudget is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @property
    def unknown_degree(self):
        """D = b_d - deg K: the degree of the part of P_d that counts must fix."""
        d = len(self.betti) // 2
        return self.betti[d] - upoly.deg(self.known)

    @property
    def levels(self):
        """Counts `reconstruct` needs: D // 2 + 1 for odd d, whose sign is
        +1.  For even d the sign is unknown and D // 2 (at least 1) are
        needed; D counts fix every coefficient when the sign stays
        ambiguous."""
        if self.betti is None:
            return 2 * self.B
        D, d = self.unknown_degree, len(self.betti) // 2
        return D // 2 + 1 if d % 2 else max(D // 2, 1)


def hypersurface_budget(degree, ambient, q):
    """The record of a smooth hypersurface of that degree in P^ambient over
    F_q: its classical Betti numbers and, for even dimension d with b_d >= 1,
    the known factor (1 - q^(d/2) T) of P_d that the rational class h^(d/2)
    gives."""
    m = ambient - 1  # dimension of the hypersurface
    chi_num = (1 - degree) ** (m + 2) - 1
    assert chi_num % degree == 0
    chi = chi_num // degree + (m + 2)
    if m % 2 == 0:
        b_mid = chi - m
        total = m + b_mid
    else:
        b_mid = (m + 1) - chi
        total = (m + 1) + b_mid
    betti = tuple(b_mid if i == m else 1 - i % 2 for i in range(2 * m + 1))
    known = [1, -(q ** (m // 2))] if m % 2 == 0 and b_mid else [1]
    return DegreeBudget(B=total, betti=betti, known=known)


def reconstruct(counts, budget, dim=None):
    """The zeta function matching the counts (a CountSeries, or anything
    with .q and .counts), from at least `budget.levels` of them.

    A budget with Betti numbers takes the middle route (`_reconstruct_middle`,
    whose dimension is len(betti) // 2).  Otherwise this is the unique
    rational function of degree <= B: minimal denominator degree is found
    first, and the result is validated by re-expansion against every count.
    """
    q = counts.q
    ns = list(counts.counts)
    if len(ns) < budget.levels:
        raise InsufficientCountsError(f"need at least {budget.levels} counts, got {len(ns)}")
    if budget.betti is not None:
        return _reconstruct_middle(q, ns, budget)
    B = budget.B
    M = len(ns)
    W = upoly.from_power_sums([-N for N in ns])  # exp(sum N_n T^n / n) mod T^(M+1)
    if W is None:
        raise NonIntegerCoefficientsError("counts give non-integer coefficients")

    for dd in range(0, B + 1):
        dn = B - dd
        # den_1..den_dd solve sum_i den_i W_(k-i) = -W_k for dn < k <= M: a
        # pivot in the last column of [A | W_k] means no solution
        rows = [
            [W[k - i] if k - i >= 0 else 0 for i in range(1, dd + 1)] + [W[k]]
            for k in range(dn + 1, M + 1)
        ]
        cols, pivot_rows = echelon(rows)
        if dd in cols:
            continue
        # Cramer's rule on the pivot minor, the other unknowns 0: den times
        # the minor's determinant, which the reduction below divides out
        minor = [[rows[r][c] for c in cols] for r in pivot_rows]
        rhs = [-rows[r][dd] for r in pivot_rows]
        den = [det_bareiss(minor)] + [0] * dd
        for j, c in enumerate(cols):
            den[c + 1] = det_bareiss([row[:j] + [b] + row[j + 1:] for row, b in zip(minor, rhs)])
        den = upoly.trim(den)
        num = upoly.trim([
            sum(den[i] * W[k - i] for i in range(min(len(den), k + 1)))
            for k in range(dn + 1)
        ])
        # reduce in Z[x]; num(0) = den(0) = 1 fixes the scaling back
        num, den = upoly.primitive(num)[1], upoly.primitive(den)[1]
        g = upoly.int_gcd(num, den)
        if upoly.deg(g) > 0:
            num, den = upoly.int_quotient(num, g), upoly.int_quotient(den, g)
        if any(c % num[0] for c in num) or any(c % den[0] for c in den):
            raise NonIntegerCoefficientsError(
                "matched rational function has non-integer coefficients"
            )
        num = [c // num[0] for c in num]
        den = [c // den[0] for c in den]
        z = ZetaFunction(q=q, num=num, den=den, dim=dim)
        if expand(z, M) != ns:
            raise NoSolutionError("re-expansion mismatch: counts are inconsistent")
        return z
    raise NoSolutionError("no rational function of the budgeted degree matches")


def expand(z, n_max):
    """Counts N_1..N_n_max encoded by the zeta function (exact integers)."""
    s_den = upoly.power_sums(z.den, n_max)
    s_num = upoly.power_sums(z.num, n_max)
    return [a - b for a, b in zip(s_den, s_num)]


def functional_equation_check(z):
    """Does Z(1/(q^d T)) = ±q^(d*chi/2) T^chi Z(T) hold exactly?

    Returns (holds, sign); sign is None when d*chi is odd (only the squared
    identity is then checkable over the rationals).
    """
    d = z.dim
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


def _reconstruct_middle(q, ns, budget):
    """Zeta function of a d-fold whose cohomology outside degree d is that
    of P^d: Z = P_d^((-1)^(d+1)) / prod (1 - q^k T), k = 0..d, k != d/2.

    P_d = K P' with K the budget's known factor.  Newton's identities on
    s_n = (-1)^d (N_n - sum_k q^(kn)) less the power sums of K give
    c_0..c_m of P', m = min(#counts, D) with D = deg P';
    c_k = sign * c_(D-k) * q^(d(2k-D)/2) gives the rest.  The sign is +1
    for odd d; for even d both are tried, and two survivors (roots of P_d
    of modulus q^(d/2), every count reproduced) raise AmbiguousSignError.
    """
    from .weil import certify_root_modulus

    d = len(budget.betti) // 2
    D = budget.unknown_degree
    poles = [k for k in range(d + 1) if 2 * k != d]
    m = min(len(ns), D)
    known = upoly.power_sums(budget.known, m)
    s = [
        (-1) ** d * (ns[n - 1] - sum(q ** (k * n) for k in poles)) - known[n - 1]
        for n in range(1, m + 1)
    ]
    low = upoly.from_power_sums(s)
    if low is None:
        raise NonIntegerCoefficientsError("counts give non-integer coefficients")
    outer = [1]
    for k in poles:
        outer = upoly.mul(outer, [1, -(q**k)])

    candidates = []
    for sign in (1,) if d % 2 else (1, -1):
        c = low + [0] * (D - m)
        for k in range(D // 2 + 1):  # c_k is a count-given coefficient
            mirror = sign * c[k] * q ** (d * (D - 2 * k) // 2)
            if D - k > m:
                c[D - k] = mirror
            elif c[D - k] != mirror:
                break
        else:
            c = upoly.mul(budget.known, c)
            num, den = (c, outer) if d % 2 else ([1], upoly.mul(outer, c))
            z = ZetaFunction(q=q, num=num, den=den, dim=d)
            if certify_root_modulus(c, q**d) and expand(z, len(ns)) == ns:
                candidates.append(z)
    if not candidates:
        raise NoConsistentSignError(
            "no sign of the functional equation is consistent with the counts"
        )
    if len(candidates) > 1:
        raise AmbiguousSignError(candidates)
    return candidates[0]
