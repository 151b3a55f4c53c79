"""Exhaustive projective point counting over finite-field extension towers.

N_n = #X(F_{q^n}) is computed chart by chart; within a chart all but the
innermost coordinate are enumerated, and the innermost is resolved by exact
root counting of the univariate slice through its gcd with x^Q - x (closed
forms for degrees 1 and 2).  A hypersurface whose variables fall into two or
more blocks that no monomial mixes is counted instead over cyclotomic
classes (`classes.count_separable`), one O(Q) pass per level.  A
deterministic cost model estimates the work of either path, and an explicit
work budget turns infeasible requests into errors rather than silent stalls.
"""

import json
import os
import sys
import threading

try:  # CPython's built-in sha256: hashlib would load OpenSSL at every start-up
    from _sha256 import sha256
except ImportError:  # Python 3.12 renamed the module _sha2
    from hashlib import sha256

from .. import DEFAULT_BUDGET
from ..ffield import level_field
from ..polysys import poly_to_str
from .cache import CountCache, default_cache
from .charts import compile_charts
from .kernel import BACKEND, MAX_DEG, backend_module, embedding, field_tables, trace_mask

MAX_DIGITS = 4300  # CPython's default limit on the digits of an int it prints

__all__ = [
    "BACKEND",
    "BudgetExceededError",
    "CountCache",
    "CountSeries",
    "DEFAULT_BUDGET",
    "count_points",
    "count_tower",
    "default_cache",
    "plan_level",
    "variety_hash",
]


class BudgetExceededError(RuntimeError):
    """A level that cannot be counted (see `plan_level`).  `completed`,
    set by `count_tower` (else 0), is the number of leading levels the
    cache holds, so callers can report the largest finished n."""

    completed = 0


class CountSeries:
    """Point counts N_1..N_m of one variety over a tower of extensions."""

    __slots__ = ("q", "counts", "ambient_dim")

    def __init__(self, q, counts, ambient_dim=0):
        self.q = q
        self.counts = counts
        self.ambient_dim = ambient_dim

    def __len__(self):
        return len(self.counts)

    def validate(self, betti=None):
        """Sanity checks: ambient bound and the closed-point decomposition.

        N_n = sum_{d | n} d * a_d must be solvable with every a_d a
        nonnegative integer (a_d = number of closed points of degree d).
        With the Betti numbers of a smooth hypersurface of dimension d (every
        degree but d as for P^d), also the Weil bound
        (N_n - sum_{k != d/2} q^(kn))^2 <= b_d^2 q^(nd).
        """
        if betti is not None:
            d = len(betti) // 2
            for n, N in enumerate(self.counts, start=1):
                r = N - sum(self.q ** (k * n) for k in range(d + 1) if 2 * k != d)
                if r * r > betti[d] ** 2 * self.q ** (n * d):
                    raise ValueError(f"N_{n} = {N} breaks the Weil bound")
        for n, N in enumerate(self.counts, start=1):
            if self.ambient_dim and N > _points_bound(self.q, n, self.ambient_dim + 1):
                raise ValueError(f"N_{n} = {N} exceeds #P^{self.ambient_dim}")
        a = {}
        for n, N in enumerate(self.counts, start=1):
            s = sum(d * a[d] for d in range(1, n) if n % d == 0 and d in a)
            rem = N - s
            if rem % n or rem < 0:
                raise ValueError(f"counts are not a closed-point decomposition at n={n}")
            a[n] = rem // n
        return True


def variety_hash(ideal):
    """Content digest of the defining ideal and its base field."""
    dom = ideal.domain
    payload = {
        "p": dom.p,
        "e": dom.e,
        "modulus": list(dom.modulus),
        "nvars": ideal.nvars,
        "generators": sorted(poly_to_str(g) for g in ideal.generators),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return sha256(blob).hexdigest()


def _estimate_chart_cost(chart, Q):
    """Deterministic per-chart work estimate, in kernel operation units.

    Each of the Q^nprefix slices builds its univariate polynomials and then
    counts their roots: one modular exponentiation x^Q plus gcds, at
    ~2*log2(Q) multiplications of degree<D polynomials.
    """
    if not chart.gen_terms:
        return 1
    build = max(chart.term_count(), 1) * max(chart.nprefix, 1)
    d_max = chart.max_last_deg()
    # closed-form root counting per slice up to degree 2
    gcd_cost = 24 if d_max <= 2 else (2 * Q.bit_length() + 6) * (d_max + 1) ** 2 + 16
    return Q**chart.nprefix * (build + gcd_cost)


def physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _usable_cpus():
    """The CPUs this process may run on (its affinity mask where the platform
    has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def separable_blocks(ideal):
    """The blocks of the single generator f's variables, when there are at
    least two: the connected components of "two variables share a
    monomial", each as (variables, the terms of f in them).  [] when the
    ideal has another number of generators or f has one block, which sends
    counting to the charts.
    """
    if len(ideal.generators) != 1:
        return []
    (f,) = ideal.generators
    owner = list(range(ideal.nvars))  # union-find over the variables

    def root(v):
        while owner[v] != v:
            owner[v] = v = owner[owner[v]]
        return v

    for exps in f.terms:
        support = [v for v, e in enumerate(exps) if e]
        for v in support[1:]:
            owner[root(v)] = root(support[0])
    blocks = {}
    for exps, c in f.terms.items():
        v = next((v for v, e in enumerate(exps) if e), None)
        if v is None:  # a constant term
            return []
        blocks.setdefault(root(v), []).append((exps, c))
    if len(blocks) < 2:
        return []
    return [
        (sorted({v for exps, _ in terms for v, e in enumerate(exps) if e}), terms)
        for terms in blocks.values()
    ]


def _points_bound(q, k, nvars):
    """#P^(nvars-1)(F_{q^k}), which bounds every count at level k.  Raises
    BudgetExceededError when it or q^k has more than MAX_DIGITS digits:
    such a level is never counted, since a report could not print it."""
    # both are at least 2^((bit_length(q)-1) k max(nvars-1, 1)), and 2^14286 > 10^4300
    if (q.bit_length() - 1) * k * max(nvars - 1, 1) <= 14_285:
        Q = q**k
        bound = (Q**nvars - 1) // (Q - 1)
        if max(Q, bound) < 10**MAX_DIGITS:
            return bound
    raise BudgetExceededError(
        f"q^n or #P^{nvars - 1}(F_(q^n)) has more than {MAX_DIGITS} digits at n={k}"
    )


def _check_tables(p, k, n):
    """Raise BudgetExceededError when the three int64 tables of F_{p^k}
    (24 p^k bytes), the field of level n, exceed physical memory."""
    memory = physical_memory()
    if k * (p.bit_length() - 1) >= memory.bit_length() or 24 * p**k > memory:
        raise BudgetExceededError(
            f"field tables at n={n} need more than the {memory} bytes of physical memory"
        )


def check_base_field(p, e, nvars):
    """Raise BudgetExceededError, before F_{p^e} is built, when level 1
    could not be counted over it; make_field refuses p < 2 and e < 1."""
    if p >= 2 and e >= 1:
        _check_tables(p, e, 1)
        _points_bound(p**e, 1, nvars)


def plan_level(ideal, n, budget=DEFAULT_BUDGET, charts=None):
    """How level n of `ideal` is counted: ("closed", #P^(nvars-1)(F_{q^n}))
    for the empty ideal; ("classes", blocks) when `separable_blocks` finds
    blocks and none has more than nvars - 2 variables; else ("charts",
    the charts), compiled here unless `charts` holds them.
    Raises BudgetExceededError for a level that `_points_bound` refuses,
    or, before any chart is compiled, when the level's field tables exceed
    physical memory (`_check_tables`), the work estimate exceeds `budget`
    or, on the charts, an exponent of x_1..x_N is at least `MAX_DEG`.
    The estimate is one unit per chart for the closed form; else Q = q^n
    units for the tables plus each chart's cost or, over classes, plus
    Q^(k-1) * terms for each block of k > 1 variables.
    """
    dom = ideal.domain
    bound = _points_bound(dom.q, n, ideal.nvars)
    if not ideal.generators:
        _charge(ideal.nvars, budget, n)
        return "closed", bound
    _check_tables(dom.p, dom.e * n, n)
    Q = dom.q**n
    blocks = separable_blocks(ideal)
    # over classes a block of k variables is evaluated at Q^(k-1) points in
    # Python, where the charts resolve Q^(nvars-2) slices in the kernel; a
    # block of nvars - 1 variables is counted faster by the charts
    if blocks and all(len(v) <= ideal.nvars - 2 for v, _ in blocks):
        _charge(Q + sum(Q ** (len(v) - 1) * len(t) for v, t in blocks if len(v) > 1), budget, n)
        return "classes", blocks
    if ideal.nvars > 1:
        # chart 0 (x_0 = 1) keeps every term and resolves Q^(nvars-2) slices
        # of at least 24 units each: when that alone passes the budget, no
        # chart is compiled
        _charge(Q + 24 * Q ** (ideal.nvars - 2), budget, n)
    # x_0 is never free in a chart, so only x_1..x_N reach term records
    if any(e >= MAX_DEG for g in ideal.generators for exps in g.terms for e in exps[1:]):
        raise BudgetExceededError(
            f"an exponent outside x0 is at least {MAX_DEG}, beyond a chart's records, at n={n}"
        )
    if charts is None:
        charts = compile_charts(ideal)
    # the three field tables of length Q, then every chart but the origin
    _charge(Q + sum(_estimate_chart_cost(c, Q) for c in charts if c.nfree), budget, n)
    return "charts", charts


def count_points(ideal, n, budget=DEFAULT_BUDGET, threads=1, plan=None):
    """Exact #X(F_{q^n}) for the projective scheme cut by `ideal` over F_q,
    counted along `plan`, the level's `plan_level` (made here under
    `budget` when None).  At most `threads` worker threads count charts,
    and never more than `_usable_cpus()`; the count is the same for any
    number."""
    path, data = plan or plan_level(ideal, n, budget)
    if path == "closed":
        return data
    dom = ideal.domain
    tables = field_tables(level_field(dom.p, dom.e * n))
    image = embedding(dom, tables)
    if path == "classes":
        from .classes import count_separable

        return count_separable(data, ideal.nvars, image, tables)
    return count_charts(data, dom.p, image, backend_module(), tables, min(threads, _usable_cpus()))


def _charge(work, budget, n):
    # the estimate itself may be too long to print
    if work > budget:
        raise BudgetExceededError(f"estimated work exceeds budget {budget} at n={n}")


def count_charts(charts, p, image, mod, tables, threads):
    """#X(F_Q) as the sum over the compiled charts, each counted by the
    kernel module `mod` on F_Q's tables, with the coefficients sent to F_Q
    by `image` (`kernel.embedding`).  The origin chart and charts with no
    generator left are counted in closed form; the prefix range of the
    others is split over `threads` worker threads."""
    Q = len(tables[1])
    tmask = trace_mask(p, tables)
    total = 0
    for chart in charts:
        if not chart.gen_terms:
            total += Q**chart.nfree
            continue
        if chart.nfree == 0:  # a generator is nonzero at (0, ..., 0, 1)
            continue
        hi = Q if chart.nprefix else 1  # a chart without prefix is one slice
        step = -(-hi // max(threads, 1))
        ranges = [(lo, min(lo + step, hi)) for lo in range(0, hi, step)]
        # the ninth argument, 1, selects gcd root counting, the only method
        args = (Q, p, tmask, *tables, chart.terms_over(image), chart.nprefix, 1)
        if len(ranges) == 1:
            total += mod.count_chart(*args, *ranges[0])
        else:
            total += _count_in_threads(mod, args, ranges)
    return total


def _count_in_threads(mod, args, ranges):
    """The sum of mod.count_chart(*args, lo, hi) over the ranges, one thread
    per range, added in range order so the sum is deterministic.  A worker's
    exception is raised again here.  `mod.count_chart` is looked up at call
    time, so a wrapper installed on the backend module sees every call."""
    out = [None] * len(ranges)

    def work(k, lo, hi):
        try:
            out[k] = (mod.count_chart(*args, lo, hi), None)
        except BaseException as exc:  # noqa: BLE001 - re-raised in the caller
            out[k] = (0, exc)

    workers = [threading.Thread(target=work, args=(k, *r)) for k, r in enumerate(ranges)]
    for t in workers:
        t.start()
    for t in workers:
        t.join()
    for _, exc in out:
        if exc is not None:
            raise exc
    return sum(value for value, _ in out)


def count_tower(ideal, n_max, cache=None, budget=DEFAULT_BUDGET, threads=1, progress=None):
    """CountSeries for n = 1..n_max, consulting and filling the cache.

    Every level the cache lacks is planned (`plan_level`, the charts
    compiled once) before any is counted: a tower that one level would
    refuse, or whose level n_max could not be printed, raises
    BudgetExceededError before its first count.  Then a cache file that
    cannot be appended to raises OSError (`CountCache.check_writable`).
    """
    vhash = variety_hash(ideal)
    q = ideal.domain.q
    plans, charts = {}, None
    try:
        if n_max > 0:  # before n_max cache lookups: a last level never printed
            _points_bound(q, n_max, ideal.nvars)
        counts = [cache.get(vhash, n) if cache else None for n in range(1, n_max + 1)]
        for n, N in enumerate(counts, start=1):
            if N is None:
                path, data = plans[n] = plan_level(ideal, n, budget, charts)
                charts = data if path == "charts" else None
    except BudgetExceededError as err:
        held = (k for k in range(n_max) if not cache or cache.get(vhash, k + 1) is None)
        err.completed = next(held, n_max)
        raise
    if plans and cache:
        cache.check_writable()
    for n, plan in plans.items():
        if progress:
            print(f"# counting n={n} (q^n={q**n})", file=sys.stderr, flush=True)
        counts[n - 1] = N = count_points(ideal, n, budget=budget, threads=threads, plan=plan)
        if cache:
            cache.put(vhash, n, N)
    return CountSeries(q=q, counts=counts, ambient_dim=ideal.nvars - 1)
