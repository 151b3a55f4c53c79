"""Finite Galois modules over Z/l^n: invariants, rank bounds from fixed-point
sizes, torsion recovery from cohomology size tables, and the small-modulus
triviality criterion.

Cohomology itself is never computed here: modules and size tables arrive as
user-supplied data, and this module does the exact group theory on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .exactla import det_bareiss
from .ffield import is_prime
from .lattice import coords_in_hnf, diagonal_of, integer_kernel, snf


class GalmodError(ValueError):
    pass


class HypothesisViolationError(GalmodError):
    """The action on the smallest relevant level is not trivial."""


class InconsistentTableError(GalmodError):
    pass


def lprime(ell):
    """l' = l for odd primes, 4 for l = 2: the modulus at which trivial
    reduction forces trivial action."""
    if not is_prime(ell):
        raise GalmodError(f"{ell} is not prime")
    return 4 if ell == 2 else ell


def lprime_level(ell):
    """The level n with l^n = l'."""
    return 2 if ell == 2 else 1


@dataclass
class FiniteLModule:
    """A finite abelian l-group with a group action by integer matrices.

    The group is the direct sum of Z/l^{e_j} for the invariant factor
    exponents e_1 >= ... >= e_k (all <= n); each action matrix sends basis
    column j into the module, entries read modulo l^{e_i} row-wise.
    """

    ell: int
    n: int
    invariant_factors: list
    actions: list = field(default_factory=list)

    def __post_init__(self):
        if not is_prime(self.ell):
            raise GalmodError(f"{self.ell} is not prime")
        e = list(self.invariant_factors)
        if any(x < 1 or x > self.n for x in e):
            raise GalmodError("invariant factor exponents must lie in [1, n]")
        if any(a < b for a, b in zip(e, e[1:])):
            raise GalmodError("invariant factor exponents must be nonincreasing")
        k = len(e)
        for g in self.actions:
            if len(g) != k or any(len(row) != k for row in g):
                raise GalmodError("action matrix has wrong shape")
            for i in range(k):
                for j in range(k):
                    gap = max(0, e[i] - e[j])
                    if g[i][j] % self.ell**gap:
                        raise GalmodError(
                            "action matrix does not respect the relation lattice"
                        )
            if det_bareiss(g) % self.ell == 0:
                raise GalmodError("action matrix is not invertible mod l")

    @property
    def rank(self):
        return len(self.invariant_factors)

    def order_exponent(self):
        return sum(self.invariant_factors)

    def moduli(self):
        return [self.ell**e for e in self.invariant_factors]

    def has_trivial_action(self):
        e = self.invariant_factors
        for g in self.actions:
            for i in range(len(e)):
                for j in range(len(e)):
                    delta = 1 if i == j else 0
                    if (g[i][j] - delta) % self.ell ** e[i]:
                        return False
        return True

    def elements(self):
        """All elements, as coordinate tuples (for brute-force oracles)."""
        import itertools

        return itertools.product(*(range(m) for m in self.moduli()))

    def fixed_by_brute_force(self):
        count = 0
        mods = self.moduli()
        k = len(mods)
        for x in self.elements():
            ok = True
            for g in self.actions:
                for i in range(k):
                    if (sum(g[i][j] * x[j] for j in range(k)) - x[i]) % mods[i]:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
        return count

    def to_json(self):
        return {
            "ell": self.ell,
            "n": self.n,
            "invariantFactors": list(self.invariant_factors),
            "actions": [[list(row) for row in g] for g in self.actions],
        }

    @staticmethod
    def from_json(obj):
        return FiniteLModule(
            ell=obj["ell"],
            n=obj["n"],
            invariant_factors=list(obj["invariantFactors"]),
            actions=[[list(r) for r in g] for g in obj.get("actions", [])],
        )


def invariants(mod):
    """Exact order (as an l-exponent) and invariant factor exponents of the
    fixed subgroup T^G.

    The fixed subgroup is the kernel of the stacked (g - 1) maps; it is
    computed by lifting to an integer kernel over Z and reading the quotient
    structure off a Smith normal form.
    """
    k = mod.rank
    if k == 0:
        return 0, []
    mods = mod.moduli()
    if not mod.actions or mod.has_trivial_action():
        exps = list(mod.invariant_factors)
        return sum(exps), exps
    rows = []
    row_moduli = []
    for g in mod.actions:
        for i in range(k):
            rows.append([g[i][j] - (1 if i == j else 0) for j in range(k)])
            row_moduli.append(mods[i])
    nrows = len(rows)
    # S = {x in Z^k : stacked(x) = 0 row-wise mod the moduli}: project the
    # integer kernel of [A | diag(m)].  diag(m) is nonsingular, so a kernel
    # vector vanishing on the first k coordinates is zero: the k Hermite
    # rows pivot in columns 0..k-1 and their projections stay echelon.
    aug = [rows[r] + [row_moduli[r] if c == r else 0 for c in range(nrows)] for r in range(nrows)]
    kernel = integer_kernel(aug)
    basis = [v[:k] for v in kernel]
    if len(basis) != k:
        raise GalmodError("internal: fixed-point lattice has wrong rank")
    # T^G = S / D Z^k: write the diagonal lattice in the S basis
    coords = []
    for i in range(k):
        target = [mods[i] if j == i else 0 for j in range(k)]
        c = coords_in_hnf(basis, target)
        if c is None:
            raise GalmodError("internal: relation lattice escapes the fixed lattice")
        coords.append(c)
    _, d, _ = snf(coords)
    exps = []
    for x in diagonal_of(d):
        x = abs(x)
        if x == 1:
            continue
        if x == 0:
            raise GalmodError("internal: infinite quotient")
        e = 0
        while x % mod.ell == 0:
            x //= mod.ell
            e += 1
        if x != 1:
            raise GalmodError("internal: quotient order is not an l-power")
        exps.append(e)
    exps.sort(reverse=True)
    return sum(exps), exps


@dataclass
class RankBounds:
    """Per-level upper bounds u_n and their running minimum."""

    ell: int
    t: int
    per_level: list  # [(n, u_n)]
    running_min: list
    value: int


def rank_upper_bounds(family, t, check_hypothesis=True):
    """Upper bounds floor(log_l #T^G / (n - t)) over a module family.

    family: FiniteLModule instances for levels n > t.  With
    check_hypothesis (the default), a supplied module at the l' level must
    carry the trivial action: under that hypothesis the minimum of the
    bounds is the rank of the fixed part of the underlying lattice.  Pass
    check_hypothesis=False for abstract planted families where the bound on
    the fixed rank is wanted without the provenance assumption.
    """
    if not family:
        return RankBounds(ell=0, t=t, per_level=[], running_min=[], value=0)
    ell = family[0].ell
    for mod in family:
        if mod.ell != ell:
            raise GalmodError("family mixes primes")
    if check_hypothesis:
        level0 = lprime_level(ell)
        for mod in family:
            if mod.n == level0 and not mod.has_trivial_action():
                raise HypothesisViolationError(
                    f"action on the level-{level0} module is not trivial"
                )
    per_level = []
    for mod in sorted(family, key=lambda m: m.n):
        if mod.n <= t:
            continue
        exponent, _ = invariants(mod)
        per_level.append((mod.n, exponent // (mod.n - t)))
    running = []
    best = None
    for _, u in per_level:
        best = u if best is None else min(best, u)
        running.append(best)
    return RankBounds(
        ell=ell,
        t=t,
        per_level=per_level,
        running_min=running,
        value=best if best is not None else 0,
    )


# ---------------------------------------------------------------------------
# size tables and torsion recovery


@dataclass
class SizeTable:
    """Sizes of H^j with Z/l^n coefficients, as l-exponents, plus Betti
    numbers; entries[(j, n)] = log_l #H^j(Z/l^n)."""

    ell: int
    betti: list
    entries: dict

    def levels(self):
        js = range(len(self.betti))
        ns = sorted({n for (_, n) in self.entries})
        full = [n for n in ns if all((j, n) in self.entries for j in js)]
        out = []
        expect = 1
        for n in full:
            if n != expect:
                break
            out.append(n)
            expect += 1
        return out

    def to_json(self):
        return {
            "ell": self.ell,
            "betti": list(self.betti),
            "sizes": [
                {"i": j, "n": n, "log_ell_size": v}
                for (j, n), v in sorted(self.entries.items())
            ],
        }

    @staticmethod
    def from_json(obj):
        entries = {(rec["i"], rec["n"]): rec["log_ell_size"] for rec in obj["sizes"]}
        return SizeTable(ell=obj["ell"], betti=list(obj["betti"]), entries=entries)


@dataclass
class TorsionResult:
    """Recovered torsion of one cohomology degree.

    exponents lists the invariant factors (as l-exponents, nonincreasing)
    when `exact`; otherwise the table ended before stabilization and
    `exponent_at_least` bounds the exponent from below.
    """

    ell: int
    degree: int
    exact: bool
    exponents: list | None
    r_by_level: dict
    exponent_at_least: int = 0


def _torsion_exponents_all_degrees(table, n):
    """alpha[j] = log_l #H^j[l^n] for j = 0..2d+1, both inductions."""
    top = len(table.betti)  # = 2d + 1 entries, degrees 0..2d
    asc = [0] * (top + 1)
    for j in range(top):
        a_jn = table.entries.get((j, n))
        if a_jn is None:
            raise InconsistentTableError(f"missing table entry ({j}, {n})")
        asc[j + 1] = a_jn - n * table.betti[j] - asc[j]
        if asc[j + 1] < 0:
            raise InconsistentTableError(f"negative torsion size at degree {j + 1}, level {n}")
    if asc[top] != 0:
        raise InconsistentTableError(f"ascending induction does not close at level {n}")
    desc = [0] * (top + 1)
    for j in range(top - 1, -1, -1):
        a_jn = table.entries[(j, n)]
        desc[j] = a_jn - n * table.betti[j] - desc[j + 1]
        if desc[j] < 0:
            raise InconsistentTableError(f"negative torsion size at degree {j}, level {n}")
    if desc[0] != 0:
        raise InconsistentTableError(f"descending induction does not close at level {n}")
    if asc != desc:
        raise InconsistentTableError(f"inductions disagree at level {n}")
    return asc


def torsion_from_sizes(table, i):
    """Recover the torsion subgroup of the degree-i integral cohomology.

    Runs the size recursion in both directions (they must agree), finds the
    first level N with stable torsion size, and reads the invariant factors
    from second differences.  If the table ends first, returns a partial
    result with a lower bound on the exponent instead of guessing.
    """
    if not 0 <= i < len(table.betti):
        raise GalmodError("degree out of range")
    levels = table.levels()
    if not levels:
        raise InconsistentTableError("table has no complete levels")
    alpha = {0: 0}
    for n in levels:
        alpha[n] = _torsion_exponents_all_degrees(table, n)[i]
    ns = [0] + levels
    for a, b in zip(ns, ns[1:]):
        if alpha[a] > alpha[b]:
            raise InconsistentTableError("torsion sizes decrease with the level")
    stable_n = None
    for a, b in zip(ns, ns[1:]):
        if alpha[a] == alpha[b]:
            stable_n = a
            break
    if stable_n is None:
        return TorsionResult(
            ell=table.ell,
            degree=i,
            exact=False,
            exponents=None,
            r_by_level={},
            exponent_at_least=levels[-1],
        )
    r_by_level = {}
    exponents = []
    for n in range(1, stable_n + 1):
        r = 2 * alpha[n] - alpha[n - 1] - alpha[n + 1]
        if r < 0:
            raise InconsistentTableError("non-concave torsion size sequence")
        if r:
            r_by_level[n] = r
            exponents.extend([n] * r)
    exponents.sort(reverse=True)
    return TorsionResult(
        ell=table.ell,
        degree=i,
        exact=True,
        exponents=exponents,
        r_by_level=r_by_level,
    )


def _t_of(exponents, n):
    return sum(min(e, n) for e in exponents)


def size_table_from_profile(ell, betti, torsion, n_max):
    """Forward construction: the SizeTable forced by Betti numbers and
    per-degree torsion groups (exponent lists; degree j+1 beyond the end is
    torsion-free)."""
    entries = {}
    top = len(betti)
    for j in range(top):
        tj = torsion[j] if j < len(torsion) else []
        tj1 = torsion[j + 1] if j + 1 < len(torsion) else []
        for n in range(1, n_max + 1):
            entries[(j, n)] = n * betti[j] + _t_of(tj, n) + _t_of(tj1, n)
    return SizeTable(ell=ell, betti=list(betti), entries=entries)


def kummer_size_check(table, torsion):
    """True iff every table entry matches the size identity forced by the
    coefficient exact sequence: #H^j(Z/l^n) = l^(n b_j) * #(tors_j / l^n)
    * #(tors_{j+1}[l^n])."""
    for (j, n), val in table.entries.items():
        tj = torsion[j] if j < len(torsion) else []
        tj1 = torsion[j + 1] if j + 1 < len(torsion) else []
        if val != n * table.betti[j] + _t_of(tj, n) + _t_of(tj1, n):
            return False
    return True


def minkowski_trivial(m, ell):
    """Is M congruent to the identity modulo l' (l odd) or 4 (l = 2)?

    For M of finite multiplicative order, a True answer forces M to be the
    identity; the caller-facing property tests exercise exactly that.
    """
    k = len(m)
    if any(len(row) != k for row in m):
        raise GalmodError("matrix is not square")
    if det_bareiss(m) % ell == 0:
        raise GalmodError("matrix is not invertible over Z_l")
    lp = lprime(ell)
    return all(
        (m[i][j] - (1 if i == j else 0)) % lp == 0 for i in range(k) for j in range(k)
    )
