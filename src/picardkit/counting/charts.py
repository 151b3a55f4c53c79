"""Chart decomposition of projective point counting.

Chart j of P^N fixes x_0 = ... = x_{j-1} = 0, x_j = 1 and leaves
x_{j+1}..x_N free, so every projective point is enumerated exactly once.
Generators are compiled per chart into flat term records consumed by the
counting kernels.  A record holds its coefficient as a base-field index, so
one compilation serves every level; `CompiledChart.terms_over` sends the
coefficients to the level's table indices just before a kernel call.

The chart with no free variable is the point (0, ..., 0, 1), where only a
generator's x_N^deg term survives: the point lies on X exactly when no
generator survives there.

Within a chart, one free variable is designated "inner": the kernels
enumerate all others and resolve the inner one per slice.  The inner
variable is the free variable of smallest maximal degree (ties to the last),
which keeps the per-slice univariate degree low; quadratic slices then admit
closed-form root counts.
"""

from array import array


class CompiledChart:
    __slots__ = ("chart", "nfree", "nprefix", "gen_terms")

    def __init__(self, chart, nfree, nprefix, gen_terms):
        self.chart = chart
        self.nfree = nfree
        self.nprefix = nprefix
        self.gen_terms = gen_terms  # list of array('q'), one per generator, possibly empty

    def max_last_deg(self):
        out = 0
        stride = 2 + self.nprefix
        for terms in self.gen_terms:
            for t in range(1, len(terms), stride):
                if terms[t] > out:
                    out = terms[t]
        return out

    def term_count(self):
        stride = 2 + self.nprefix
        return sum(len(t) // stride for t in self.gen_terms)

    def terms_over(self, image):
        """gen_terms with each coefficient, a base-field index, replaced by
        image[index], its index in the field of a level (`kernel.embedding`)."""
        stride = 2 + self.nprefix
        out = [array("q", terms) for terms in self.gen_terms]
        for terms in out:
            terms[::stride] = array("q", [image[c] for c in terms[::stride]])
        return out


def compile_charts(ideal):
    """Compile every chart of the ideal, coefficients as base-field indices.

    Generators identically zero on a chart are dropped there (they impose
    nothing); nonzero-constant restrictions are left to the kernels, which
    report zero points for such charts.
    """
    nvars = ideal.nvars
    charts = []
    for j in range(nvars):
        nfree = nvars - 1 - j
        free_vars = list(range(j + 1, nvars))
        # surviving terms per generator
        survivors = []
        for g in ideal.generators:
            terms = [
                (exps, c)
                for exps, c in g.terms.items()
                if not any(exps[i] for i in range(j))
            ]
            if terms:
                survivors.append(terms)
        if nfree == 0:
            gen_terms = [array("q", [c, 0]) for terms in survivors for _, c in terms]
            charts.append(CompiledChart(chart=j, nfree=0, nprefix=0, gen_terms=gen_terms))
            continue
        # inner variable: smallest max-degree across generators, ties last
        maxdeg = {v: 0 for v in free_vars}
        for terms in survivors:
            for exps, _ in terms:
                for v in free_vars:
                    if exps[v] > maxdeg[v]:
                        maxdeg[v] = exps[v]
        inner = max(free_vars, key=lambda v: (-maxdeg[v], v))
        prefix_vars = [v for v in free_vars if v != inner]
        nprefix = len(prefix_vars)
        stride = 2 + nprefix

        gen_terms = []
        for terms in survivors:
            flat = array("q")
            for exps, c in terms:
                rec = [c, exps[inner]]
                rec.extend(exps[v] for v in prefix_vars)
                flat.extend(rec)
            gen_terms.append(flat)

        def sort_key(terms):
            degs = [terms[t] for t in range(1, len(terms), stride)]
            return (max(degs, default=0), len(terms))

        gen_terms.sort(key=sort_key)
        charts.append(
            CompiledChart(
                chart=j,
                nfree=nfree,
                nprefix=nprefix,
                gen_terms=gen_terms,
            )
        )
    return charts
