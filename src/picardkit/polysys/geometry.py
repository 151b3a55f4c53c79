"""Hilbert series, dimension/degree, smoothness, intersection numbers.

The Hilbert series is computed from the initial ideal of a Groebner basis
followed by a combinatorial recursion on monomial ideals, rather than
through free resolutions; the two agree and this route is simpler to audit.
"""

from itertools import combinations
from math import comb

from .groebner import HomIdeal, ideal_sum, leading
from .multipoly import MultiPoly, PolyError


class ImproperIntersectionError(ValueError):
    """The supports of the two cycles meet in positive dimension.

    Making the representatives transverse would need a moving search; this
    library only reports the obstruction.
    """


def _minimalize(gens):
    out = []
    for g in sorted(gens, key=sum):
        if not any(all(a <= b for a, b in zip(m, g)) for m in out):
            out.append(g)
    return out


def _hilbert_numerator(gens, nvars, memo):
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^nvars of S/(gens).

    gens: minimal monomial generators as exponent tuples.  Returns N as
    {exponent: coefficient}, with no zero coefficient.  The recursion
    pivots on a power of a variable (Bigatti, J. Pure Appl. Algebra 119,
    1997), so neither its cost nor its depth grows with an exponent.
    """
    key = frozenset(gens)
    hit = memo.get(key)
    if hit is not None:
        return hit
    mixed = [g for g in gens if sum(1 for e in g if e) > 1]
    if len(gens) == 1 or not mixed:
        # one generator, or pure powers (the unit ideal among them): the
        # product of (1 - t^d)
        result = {0: 1}
        for g in gens:
            d = sum(g)
            step = dict(result)
            for e, c in result.items():
                step[e + d] = step.get(e + d, 0) - c
            result = {e: c for e, c in step.items() if c}
    else:
        # pivot on x_j^a, x_j the variable most shared among non-pure-power
        # generators and a its least positive exponent there.  Every
        # minimal pure power of x_j is above a, so I + (x_j^a) != I:
        # N(I) = N(I + (x_j^a)) + t^a N(I : x_j^a)
        counts = [0] * nvars
        for g in mixed:
            for i, e in enumerate(g):
                if e:
                    counts[i] += 1
        j = max(range(nvars), key=lambda i: (counts[i], -i))
        a = min(g[j] for g in mixed if g[j])
        pivot = tuple(a if i == j else 0 for i in range(nvars))
        # x_j^a divides each generator it removes, and none that stays
        # divides it, so the sum is minimal as it stands
        sum_gens = [g for g in gens if g[j] < a] + [pivot]
        quo_gens = _minimalize([g[:j] + (max(g[j] - a, 0),) + g[j + 1:] for g in gens])
        result = dict(_hilbert_numerator(sum_gens, nvars, memo))
        for e, c in _hilbert_numerator(quo_gens, nvars, memo).items():
            result[e + a] = result.get(e + a, 0) + c
        result = {e: c for e, c in result.items() if c}
    memo[key] = result
    return result


def dimension_degree(ideal):
    """(projective dimension, degree); (-1, None) for the empty scheme.

    With N(t) = (1-t)^k M(t), M(1) != 0, the series is M(t)/(1-t)^(nvars-k):
    k is the order of N at t = 1, the first j with N^(j)(1) / j! =
    sum c_e C(e, j) nonzero, and M(1) = (-1)^k times that sum.
    """
    gens = _minimalize([leading(g)[0] for g in ideal.basis()])
    num = _hilbert_numerator(gens, ideal.nvars, {})
    for k in range(ideal.nvars):
        taylor = sum(c * comb(e, k) for e, c in num.items())
        if taylor:
            degree = -taylor if k % 2 else taylor
            assert degree > 0
            return ideal.nvars - k - 1, degree
    return -1, None


def smoothness_check(ideal):
    """Jacobian criterion: the c x c minors of the Jacobian (c = codimension)
    together with I must cut out the empty projective scheme.

    Checks only the Jacobian locus; equidimensionality is the caller's
    responsibility.  Empty schemes pass vacuously.
    """
    dim, _ = dimension_degree(ideal)
    if dim == -1:
        return True
    nvars = ideal.nvars
    c = (nvars - 1) - dim
    if c == 0:
        return True  # the whole ambient projective space
    # Krull: c <= len(gens), so c x c minors exist
    gens = ideal.generators
    jac = [[g.partial(i) for i in range(nvars)] for g in gens]
    minors = []
    for rows in combinations(range(len(gens)), c):
        for cols in combinations(range(nvars), c):
            sub = [[jac[r][col] for col in cols] for r in rows]
            m = _poly_det(sub)
            if m:
                minors.append(m)
    sing = HomIdeal(list(gens) + minors)  # Jacobian minors are homogeneous
    sdim, _ = dimension_degree(sing)
    return sdim == -1


def _poly_det(m):
    n = len(m)
    if n == 1:
        return m[0][0]
    acc = MultiPoly.zero(m[0][0].nvars, m[0][0].domain)
    for j in range(n):
        if not m[0][j]:
            continue
        minor = [[m[i][k] for k in range(n) if k != j] for i in range(1, n)]
        term = m[0][j] * _poly_det(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def proper_intersection_number(ambient, z, y):
    """Degree of the scheme-theoretic intersection of two properly meeting
    cycles on a variety.

    `ambient`, `z`, `y` are homogeneous ideals; `z` and `y` cut complementary-
    dimensional subschemes of the ambient variety.  Raises
    ImproperIntersectionError when the supports overlap in positive dimension
    (a moving search would be needed; out of scope here).  Disjoint supports
    give 0.
    """
    dim_x, _ = dimension_degree(ambient)
    dim_z, _ = dimension_degree(z)
    dim_y, _ = dimension_degree(y)
    if dim_z + dim_y != dim_x:
        raise PolyError(
            f"cycles are not of complementary dimension: {dim_z} + {dim_y} != {dim_x}"
        )
    total = ideal_sum(ambient, z, y)
    dim_t, deg_t = dimension_degree(total)
    if dim_t > 0:
        raise ImproperIntersectionError(
            f"supports meet in dimension {dim_t}; representatives are not transverse"
        )
    if dim_t == -1:
        return 0
    return deg_t
