"""Buchberger's algorithm with normal pair selection and both skip criteria.

The term order is degrevlex (`order_key`).  Output bases are reduced
(auto-reduced, monic leading coefficients), hence unique.  No F4/F5: the
ideals this package meets are small, and auditability wins.

Open pairs wait in a heap keyed by (order_key(lcm), (i, j)), so each step
pops the next pair instead of scanning all of them.  Each basis element is
scaled to be monic when it joins the basis, the one inversion it costs, and
its leading monomial is computed then; the pair keys, both criteria, every
S-polynomial and reduction (`normal_form`'s `leads`) and the final
auto-reduction read them from one list.  A monic basis needs no division:
S-polynomials and reduction steps only shift, scale and subtract.
"""

import heapq

from .multipoly import MultiPoly, PolyError, order_key


class HomIdeal:
    """A homogeneous ideal given by generators, with a cached Groebner basis.

    Its ring, `nvars` variables over `domain`, is that of the generators, or
    the one given; the zero ideal needs it given.  Zero polynomials are
    dropped from the generator list; an empty list denotes the zero ideal.
    """

    def __init__(self, generators, nvars=None, domain=None):
        if nvars is None and generators:
            nvars, domain = generators[0].nvars, generators[0].domain
        if nvars is None or domain is None:
            raise PolyError("the zero ideal needs its ring: nvars and a domain")
        for g in generators:
            if g.nvars != nvars or g.domain != domain:
                raise PolyError("generators over different rings")
            if not g.is_homogeneous():
                raise PolyError("generator is not homogeneous")
        self.nvars, self.domain = nvars, domain
        self.generators = [g for g in generators if g]
        self.cached_basis = None

    def basis(self):
        if self.cached_basis is None:
            self.cached_basis = groebner(self)
        return self.cached_basis


def leading(p):
    e = max(p.terms, key=order_key)
    return e, p.terms[e]


def _divides(e1, e2):
    return all(a <= b for a, b in zip(e1, e2))


def _lcm(e1, e2):
    return tuple(max(a, b) for a, b in zip(e1, e2))


def normal_form(f, basis, leads):
    """Full remainder of f modulo a monic basis (every term reduced).

    Every basis element has leading coefficient one, as `groebner` keeps
    them, so a reduction step subtracts c times a shifted element and
    inverts nothing; `leads` lists each element's leading monomial.
    """
    mul, sub = f.domain.mul, f.domain.sub
    remainder = {}
    work = dict(f.terms)
    while work:
        e = max(work, key=order_key)
        c = work.pop(e)
        for g, le in zip(basis, leads):
            if _divides(le, e):
                shift = tuple(a - b for a, b in zip(e, le))
                for ge, gc in g.terms.items():
                    if ge == le:
                        continue
                    ne = tuple(a + b for a, b in zip(ge, shift))
                    s = sub(work.get(ne, 0), mul(c, gc))
                    if s:
                        work[ne] = s
                    elif ne in work:
                        del work[ne]
                break
        else:
            remainder[e] = c
    out = MultiPoly.__new__(MultiPoly)
    out.nvars, out.domain, out.terms = f.nvars, f.domain, remainder
    return out


def s_polynomial(f, g, le_f, le_g):
    """S-polynomial of two monic polynomials with leading monomials le_f and
    le_g: their shifts to the lcm, subtracted; the leading terms cancel."""
    l = _lcm(le_f, le_g)
    sf = tuple(x - y for x, y in zip(l, le_f))
    sg = tuple(x - y for x, y in zip(l, le_g))
    sub = f.domain.sub
    t = {tuple(a + b for a, b in zip(e, sf)): c for e, c in f.terms.items() if e != le_f}
    for e, c in g.terms.items():
        if e == le_g:
            continue
        ne = tuple(a + b for a, b in zip(e, sg))
        s = sub(t.get(ne, 0), c)
        if s:
            t[ne] = s
        elif ne in t:
            del t[ne]
    out = MultiPoly.__new__(MultiPoly)
    out.nvars, out.domain, out.terms = f.nvars, f.domain, t
    return out


def groebner(ideal):
    """Reduced Groebner basis of a HomIdeal.

    Pair selection is the normal strategy (smallest lcm in the term order,
    ties to the smallest index pair, from the pair heap); pairs are skipped
    by the coprimality criterion and the chain criterion.
    """
    G, leads, heap = [], [], []

    def add(g):
        e, lc = leading(g)
        if lc != 1:
            g = g.scaled(g.domain.inv(lc))
        n = len(G)
        for m, le in enumerate(leads):
            l = _lcm(le, e)
            heapq.heappush(heap, (order_key(l), (m, n), l))
        G.append(g)
        leads.append(e)

    for g in ideal.generators:
        if g:
            add(g)
    done = set()
    while heap:
        _, (i, j), l = heapq.heappop(heap)
        done.add((i, j))
        le_i, le_j = leads[i], leads[j]
        # coprimality criterion
        if all(a + b == c for a, b, c in zip(le_i, le_j, l)):
            continue
        # chain criterion: a third element divides the lcm and both side
        # pairs were already treated
        skip = False
        for k, le_k in enumerate(leads):
            if k in (i, j):
                continue
            if _divides(le_k, l):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s = normal_form(s_polynomial(G[i], G[j], le_i, le_j), G, leads)
        if s:
            add(s)
    return _reduce_basis(G, leads)


def _reduce_basis(G, leads):
    # drop elements whose leading monomial is divisible by another's
    keep = [
        i
        for i, le_i in enumerate(leads)
        if not any(
            j != i and _divides(le_j, le_i) and (le_j != le_i or j < i)
            for j, le_j in enumerate(leads)
        )
    ]
    # fully reduce each kept element against the others; no other kept
    # leading monomial divides its own, so the monic leading term survives
    reduced = []
    for i in sorted(keep, key=lambda i: order_key(leads[i])):
        others = [k for k in keep if k != i]
        reduced.append(normal_form(G[i], [G[k] for k in others], [leads[k] for k in others]))
    return reduced


def ideal_sum(*ideals):
    gens = [g for ideal in ideals for g in ideal.generators]
    return HomIdeal(gens, ideals[0].nvars, ideals[0].domain)
