"""Finite Galois modules over Z/l^n: the order of the fixed subgroup, rank
bounds from it, and torsion recovery from cohomology size tables.

Cohomology itself is never computed here: modules and size tables arrive as
user-supplied data, and this module does the exact group theory on them.
`SizeTable.from_json` and `family_from_json` are the parsers of the two
input files: each returns a checked record or raises on malformed input.
"""

from .exactla import det_bareiss, json_ints
from .ffield import is_prime


class GalmodError(ValueError):
    pass


class HypothesisViolationError(GalmodError):
    """The action on the smallest relevant level is not trivial."""


class InconsistentTableError(GalmodError):
    pass


def lprime_level(ell):
    """The level n with l^n = l', where l' = l for odd primes and 4 for
    l = 2: an action of finite order that is trivial mod l' is trivial
    (Minkowski)."""
    return 2 if ell == 2 else 1


class FiniteLModule:
    """A finite abelian l-group with a group action by integer matrices.

    The group is the direct sum of Z/l^{e_j} for the invariant factor
    exponents e_1 >= ... >= e_k (all <= n); each action matrix sends basis
    column j into the module, entries read modulo l^{e_i} row-wise.
    """

    __slots__ = ("ell", "n", "invariant_factors", "actions")

    def __init__(self, ell, n, invariant_factors, actions=None):
        self.ell = ell
        self.n = n
        self.invariant_factors = invariant_factors
        self.actions = [] if actions is None else actions
        if not is_prime(self.ell):
            raise GalmodError(f"{self.ell} is not prime")
        e = list(self.invariant_factors)
        if self.n < 1:
            raise GalmodError(f"n must be at least 1: {self.n}")
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

    def moduli(self):
        return [self.ell**e for e in self.invariant_factors]

    def has_trivial_action(self, level):
        """Does every action matrix act trivially on T / l^level T, whose
        row i is read mod l^min(e_i, level)?  At level n that is T itself."""
        e = [min(x, level) for x in self.invariant_factors]
        for g in self.actions:
            for i in range(len(e)):
                for j in range(len(e)):
                    delta = 1 if i == j else 0
                    if (g[i][j] - delta) % self.ell ** e[i]:
                        return False
        return True

    @staticmethod
    def from_json(obj):
        ell, n = json_ints([obj["ell"], obj["n"]], "ell and n")
        return FiniteLModule(
            ell=ell,
            n=n,
            invariant_factors=json_ints(obj["invariantFactors"], "invariantFactors"),
            actions=[[json_ints(r, "action rows") for r in g] for g in obj.get("actions", [])],
        )


def fixed_exponent(mod):
    """log_l #T^G, the l-exponent of the order of the fixed subgroup.

    T^G is the kernel of x -> Ax into the sum of Z/m_r, for A the stacked
    (g - 1) rows and m_r the modulus of row r (well defined, since every
    action respects the relation lattice).  Its image is L / MZ^N for the
    lattice L = AZ^k + MZ^N, M = diag(m_r), so #T^G = #T det L / det M, and
    det L is the product of the pivots of a Hermite basis of L.
    """
    from .lattice import hnf_rows  # here, so that torsion requests load no lattice

    k, mods = mod.rank, mod.moduli()
    row_mods = mods * len(mod.actions)
    cols = [[(g[i][j] - (1 if i == j else 0)) % mods[i] for g in mod.actions for i in range(k)]
            for j in range(k)]
    cols += [[m if c == r else 0 for c in range(len(row_mods))] for r, m in enumerate(row_mods)]
    exponent = sum(mod.invariant_factors) * (1 - len(mod.actions))  # v_l #T - v_l det M
    for r, row in enumerate(hnf_rows(cols)):
        pivot = row[r]
        while pivot % mod.ell == 0:
            pivot //= mod.ell
            exponent += 1
    return exponent


class RankBounds:
    """Per-level upper bounds u_n and their running minimum."""

    __slots__ = ("per_level", "running_min", "value")

    def __init__(self, per_level, running_min, value):
        self.per_level = per_level  # [(n, u_n)]
        self.running_min = running_min
        self.value = value


def check_family(family, t, check_hypothesis=True):
    """Raise GalmodError unless the FiniteLModules of `family` give sound
    rank_upper_bounds: one prime, t >= 0, a module at a level n > t and,
    with `check_hypothesis`, every module at or above the l' level acting
    trivially mod l', under which the minimum of the bounds is the rank of
    the fixed part of the underlying lattice."""
    if t < 0:
        raise GalmodError(f"t must be at least 0: {t}")
    if len({mod.ell for mod in family}) > 1:
        raise GalmodError("family mixes primes")
    if check_hypothesis:
        for mod in family:
            level0 = lprime_level(mod.ell)
            if mod.n >= level0 and not mod.has_trivial_action(level0):
                raise HypothesisViolationError(
                    f"action on the level-{mod.n} module is not trivial mod {mod.ell**level0}"
                )
    if all(mod.n <= t for mod in family):
        raise GalmodError(f"no module lies above level t = {t}")


def family_from_json(obj):
    """(modules, t, check_hypothesis) of a module family file, checked as
    `check_family` checks them."""
    t, modules = obj["t"], obj["modules"]
    if type(t) is not int:
        raise GalmodError(f"t must be an integer: {t!r}")
    if not isinstance(modules, list):
        raise GalmodError(f"modules must be a list: {modules!r}")
    modules = [FiniteLModule.from_json(m) for m in modules]
    if "ell" in obj:
        ell = obj["ell"]
        if type(ell) is not int:
            raise GalmodError(f"ell must be an integer: {ell!r}")
        for mod in modules:
            if mod.ell != ell:
                raise GalmodError(f"module ell {mod.ell} differs from family ell {ell}")
    skip = obj.get("skipHypothesisCheck", False)
    if type(skip) is not bool:  # "false", "no", 0 and 1 are not read by truthiness
        raise GalmodError("skipHypothesisCheck must be true or false")
    check_family(modules, t, not skip)
    return modules, t, not skip


def rank_upper_bounds(family, t, check_hypothesis=True):
    """Upper bounds floor(log_l #T^G / (n - t)) over a module family.

    family: FiniteLModule instances that, with t and check_hypothesis, pass
    `check_family` (else GalmodError); modules at levels n <= t are
    skipped.  Pass check_hypothesis=False for abstract planted families
    where the bound on the fixed rank is wanted without the provenance
    assumption.
    """
    check_family(family, t, check_hypothesis)
    above = sorted((mod for mod in family if mod.n > t), key=lambda m: m.n)
    per_level = [(mod.n, fixed_exponent(mod) // (mod.n - t)) for mod in above]
    running = []
    for _, u in per_level:
        running.append(min(running[-1], u) if running else u)
    return RankBounds(per_level=per_level, running_min=running, value=running[-1])


# ---------------------------------------------------------------------------
# size tables and torsion recovery


class SizeTable:
    """Sizes of H^j with Z/l^n coefficients, as l-exponents, plus Betti
    numbers; entries[(j, n)] = log_l #H^j(Z/l^n)."""

    __slots__ = ("ell", "betti", "entries")

    def __init__(self, ell, betti, entries):
        self.ell = ell
        self.betti = betti
        self.entries = entries

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
        entries = {}
        for rec in obj["sizes"]:
            i, n, size = json_ints([rec["i"], rec["n"], rec["log_ell_size"]],
                                   "i, n and log_ell_size")
            entries[(i, n)] = size
        (ell,) = json_ints([obj["ell"]], "ell")
        if not is_prime(ell):
            raise GalmodError(f"{ell} is not prime")
        return SizeTable(ell=ell, betti=json_ints(obj["betti"], "betti"), entries=entries)


class TorsionResult:
    """Recovered torsion of one cohomology degree.

    exponents lists the invariant factors (as l-exponents, nonincreasing)
    when `exact`, else None; then the table ended before stabilization and
    `exponent_at_least` bounds the exponent from below.
    """

    __slots__ = ("exact", "exponents", "r_by_level", "exponent_at_least")

    def __init__(self, exact, exponents, r_by_level, exponent_at_least=0):
        self.exact = exact
        self.exponents = exponents
        self.r_by_level = r_by_level
        self.exponent_at_least = exponent_at_least


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
