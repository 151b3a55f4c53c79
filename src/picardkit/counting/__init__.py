"""Exhaustive projective point counting over finite-field extension towers.

N_n = #X(F_{q^n}) is computed chart by chart; within a chart all but the
innermost coordinate are enumerated, and the innermost is resolved either by
direct evaluation with early exit ("enumerate") or by exact root counting of
the univariate slice via gcd with x^Q - x ("gcd").  Both strategies give
identical counts; a deterministic cost model picks the cheaper one, and an
explicit work budget turns infeasible requests into errors rather than
silent stalls.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from ..ffield import extend
from ..polysys import poly_to_str
from .cache import CountCache, default_cache
from .charts import compile_charts, evaluate_origin_chart
from .kernel import BACKEND, backend_module, field_tables, trace_mask

DEFAULT_BUDGET = 2**34

__all__ = [
    "BACKEND",
    "BudgetExceededError",
    "CountCache",
    "CountSeries",
    "DEFAULT_BUDGET",
    "count_points",
    "count_tower",
    "default_cache",
    "variety_hash",
]


class BudgetExceededError(RuntimeError):
    """Estimated work exceeds the configured evaluation budget.

    Carries `completed`, the CountSeries of fully computed levels (possibly
    empty), so callers can report the largest finished n.
    """

    def __init__(self, msg, completed=None):
        super().__init__(msg)
        self.completed = completed


@dataclass
class CountSeries:
    """Point counts N_1..N_m of one variety over a tower of extensions."""

    q: int
    counts: list
    variety_hash: str = ""
    ambient_dim: int = 0

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
            if self.ambient_dim:
                qn = self.q**n
                bound = (qn ** (self.ambient_dim + 1) - 1) // (qn - 1)
                if N > bound:
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
    return hashlib.sha256(blob).hexdigest()


def _estimate_chart_cost(chart, Q):
    """Deterministic per-chart work estimate, in kernel operation units, and
    the cheaper slice method.

    enumerate: ~Q points per slice, each costing the cheapest generator's
    Horner evaluation; gcd: one modular exponentiation x^Q plus gcds, at
    ~2*log2(Q) multiplications of degree<D polynomials.
    """
    if chart.nfree == 0 or not chart.gen_terms:
        return 1, "enumerate"
    slices = Q**chart.nprefix
    build = max(chart.term_count(), 1) * max(chart.nprefix, 1)
    d_cheap = chart.cheapest_gen_deg()
    d_max = chart.max_last_deg()
    enum_cost = Q * (d_cheap + 1)
    if d_max <= 2:
        # closed-form root counting per slice
        gcd_cost = 24
    else:
        gcd_cost = (
            (2 * (Q.bit_length() + 1)) * (d_max + 1) ** 2 + 4 * (d_max + 1) ** 2 + 16
        )
    if gcd_cost < enum_cost:
        per, chosen = gcd_cost, "gcd"
    else:
        per, chosen = enum_cost, "enumerate"
    return slices * (build + per), chosen


def physical_memory():
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def count_points(ideal, n, budget=DEFAULT_BUDGET, threads=1):
    """Exact #X(F_{q^n}) for the projective scheme cut by `ideal` over F_q.

    `n` is the extension degree (or a FieldDesc of the canonical extension).
    Raises BudgetExceededError, before the field tables are built, when the
    three int64 tables of length Q = q^n (24 Q bytes) exceed physical memory,
    or when the work estimate (Q units for the tables plus each chart's cost)
    exceeds `budget`.
    """
    dom = ideal.domain
    if dom is None:
        raise ValueError("point counting requires a finite base field")
    if not isinstance(n, int):
        if n.e % dom.e:
            raise ValueError("extension degree is not a multiple of the base degree")
        n = n.e // dom.e
    emb = extend(dom, n)
    ext = emb.ext
    Q = ext.q

    if not ideal.generators:
        # empty ideal: all of P^(nvars-1), counted in closed form
        return sum(Q**i for i in range(ideal.nvars))
    memory = physical_memory()
    if 24 * Q > memory:
        raise BudgetExceededError(
            f"field tables at n={n} need {24 * Q} bytes, more than the "
            f"{memory} bytes of physical memory"
        )

    charts = compile_charts(ideal, emb, ext.to_index)
    total_cost = Q  # the three field tables of length Q
    plans = []
    for chart in charts:
        if chart.nfree == 0:
            plans.append((chart, "origin", 1))
            continue
        cost, chosen = _estimate_chart_cost(chart, Q)
        total_cost += cost
        plans.append((chart, chosen, cost))
    if total_cost > budget:
        raise BudgetExceededError(
            f"estimated work {total_cost} exceeds budget {budget} at n={n}"
        )

    mod = backend_module()
    exp, log, zech = field_tables(ext)
    tmask = trace_mask(ext)
    p = ext.p
    total = 0
    for chart, chosen, _cost in plans:
        if chosen == "origin":
            total += evaluate_origin_chart(ideal, emb, ext, chart.chart)
            continue
        if not chart.gen_terms:
            total += Q**chart.nfree
            continue
        use_gcd = 1 if chosen == "gcd" else 0
        if chart.nprefix == 0 or threads <= 1:
            ranges = [(0, 1)] if chart.nprefix == 0 else [(0, Q)]
        else:
            step = max(1, -(-Q // threads))
            ranges = [(lo, min(lo + step, Q)) for lo in range(0, Q, step)]
        if len(ranges) == 1:
            lo, hi = ranges[0]
            total += mod.count_chart(
                Q, p, tmask, exp, log, zech, chart.gen_terms, chart.nprefix,
                use_gcd, lo, hi,
            )
        else:
            # imported here: concurrent.futures pulls in logging, which a
            # one-thread request never needs
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                futs = [
                    pool.submit(
                        mod.count_chart,
                        Q, p, tmask, exp, log, zech,
                        chart.gen_terms, chart.nprefix, use_gcd, lo, hi,
                    )
                    for lo, hi in ranges
                ]
                # ordered reduction keeps the sum deterministic
                total += sum(f.result() for f in futs)
    return total


def count_tower(
    ideal,
    n_max,
    cache=None,
    budget=DEFAULT_BUDGET,
    threads=1,
    progress=None,
):
    """CountSeries for n = 1..n_max, consulting and filling the cache.

    On budget exhaustion raises BudgetExceededError carrying the completed
    prefix of the series.
    """
    vhash = variety_hash(ideal)
    q = ideal.domain.q
    counts = []
    series = CountSeries(
        q=q, counts=counts, variety_hash=vhash, ambient_dim=ideal.nvars - 1
    )
    for n in range(1, n_max + 1):
        hit = cache.get(vhash, n) if cache else None
        if hit is not None:
            counts.append(hit)
            continue
        if progress:
            print(f"# counting n={n} (q^n={q**n})", file=sys.stderr, flush=True)
        try:
            N = count_points(ideal, n, budget=budget, threads=threads)
        except BudgetExceededError as err:
            raise BudgetExceededError(str(err), completed=series) from None
        counts.append(N)
        if cache:
            cache.put(vhash, n, N)
    return series
