"""Hilbert series, dimension/degree, smoothness, intersection numbers.

The Hilbert series is computed from the initial ideal of a Groebner basis
followed by a combinatorial recursion on monomial ideals, rather than
through free resolutions; the two agree and this route is simpler to audit.
"""

from itertools import combinations

from .. import upoly
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

    gens: minimal monomial generators as exponent tuples.  Returns integer
    coefficient list.
    """
    key = frozenset(gens)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if not gens:
        result = [1]
    elif any(sum(g) == 0 for g in gens):
        result = []
    elif len(gens) == 1:
        result = [1] + [0] * (sum(gens[0]) - 1) + [-1]
    else:
        pures = [g for g in gens if sum(1 for e in g if e) == 1]
        if len(pures) == len(gens):
            # complete intersection of pure powers: product of (1 - t^d)
            result = [1]
            for g in gens:
                d = sum(g)
                factor = [1] + [0] * (d - 1) + [-1]
                result = upoly.mul(result, factor)
        else:
            # pivot on the variable most shared among non-pure-power
            # generators; restricting to those guarantees I + (x_j) != I
            counts = [0] * nvars
            for g in gens:
                if sum(1 for e in g if e) == 1:
                    continue
                for i, e in enumerate(g):
                    if e:
                        counts[i] += 1
            j = max(range(nvars), key=lambda i: (counts[i], -i))
            # I + (x_j)
            with_var = [g for g in gens if g[j] == 0]
            pivot = tuple(1 if i == j else 0 for i in range(nvars))
            sum_gens = _minimalize(with_var + [pivot])
            # I : x_j
            quo_gens = _minimalize(
                [tuple(e - 1 if i == j and e else e for i, e in enumerate(g)) for g in gens]
            )
            a = _hilbert_numerator(sum_gens, nvars, memo)
            b = _hilbert_numerator(quo_gens, nvars, memo)
            result = upoly.add(a, [0] + b)
    memo[key] = result
    return result


def hilbert_series_data(ideal):
    """(reduced numerator, D) with Hilbert series = N(t) / (1-t)^D, N(1) != 0.

    D = 0 with N = [] means the irrelevant/unit case (empty scheme).
    """
    basis = ideal.basis()
    gens = _minimalize([leading(g)[0] for g in basis])
    memo = {}
    num = _hilbert_numerator(gens, ideal.nvars, memo)
    d = ideal.nvars
    while num and sum(num) == 0:
        num = upoly.int_quotient(num, [1, -1])
        d -= 1
    if not num:
        return [], 0
    return num, d


def dimension_degree(ideal):
    """(projective dimension, degree); (-1, None) for the empty scheme."""
    num, d_series = hilbert_series_data(ideal)
    if not num or d_series == 0:
        return -1, None
    dim = d_series - 1
    degree = sum(num)
    assert degree > 0
    return dim, degree


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
    gens = ideal.generators
    if len(gens) < c:
        return False  # not enough equations for the minor criterion
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
