"""Reference oracles that tests compare picardkit against: brute-force
enumerations, replays, the exact rational (Gauss-Jordan) algebra, the
Smith normal form and the dense Hilbert numerator that no command needs,
kept beside the tests that use them."""

import itertools
from fractions import Fraction
from math import gcd, lcm

from picardkit import upoly
from picardkit.exactla import identity, mat_mul
from picardkit.ffield import level_field
from picardkit.galmod import GalmodError
from picardkit.lattice import (
    LatticeError,
    _hermite_rows_inplace,
    coords_in_hnf,
    hnf_rows,
    integer_kernel,
)
from picardkit.polysys.geometry import _minimalize
from picardkit.polysys.groebner import leading
from picardkit.upoly import deg, int_quotient, mul, primitive, trim
from picardkit.weil import cyclotomic_polynomial
from picardkit.zeta import NonIntegerCoefficientsError, NoSolutionError, ZetaFunction, expand


def integral(a):
    """The primitive integer polynomial with positive leading coefficient
    that is a rational multiple of the nonzero polynomial a (int or
    Fraction coefficients): the same roots, with multiplicity."""
    den = lcm(*(Fraction(c).denominator for c in a))
    return primitive([int(c * den) for c in a])[1]


def add(a, b):
    """a + b for coefficient lists, index = degree."""
    n = max(len(a), len(b))
    return trim([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)])


def first_root_by_scan(base, ext):
    """The first root of the base field's modulus met when the extension
    field, a level of the tower (`level_field`), is scanned in index order."""
    for x in range(ext.q):
        acc = 0
        for c in reversed(base.modulus):
            acc = ext.add(ext.mul(acc, x), ext.from_int(c))
        if not acc:
            return x
    raise AssertionError("the base modulus has no root in the extension")


def embedding_by_scan(base, n):
    """(F_{q^n}, the map of base-field indices into it), the base generator
    sent to `first_root_by_scan`, by `FieldDesc` arithmetic on indices."""
    ext = level_field(base.p, base.e * n)
    root = first_root_by_scan(base, ext)

    def embed(x):
        acc = 0
        for c in reversed(base.digits(x)):
            acc = ext.add(ext.mul(acc, root), ext.from_int(c))
        return acc

    return ext, embed


def mul_many(polys):
    """Product of integer polynomials (coefficient lists, index = degree)."""
    out = [1]
    for p in polys:
        out = mul(out, p)
    return out


def cyclotomic_multiplicity(poly):
    """(total, {m: multiplicity of Phi_m}) for a nonzero rational
    polynomial: how often each Phi_m divides it, by plain trial division in
    Z[x] of every Phi_m of degree phi(m) <= its degree, and the number of
    its roots that are roots of unity, with multiplicity."""
    poly = trim(poly)
    if not poly:
        raise ValueError("zero polynomial")
    poly = integral(poly)
    d = deg(poly)
    breakdown = {}
    # phi(m) >= sqrt(m) for m > 6, so m <= max(6, d^2)
    for m in range(1, max(6, d * d) + 1):
        if sum(gcd(k, m) == 1 for k in range(1, m + 1)) > deg(poly):
            continue
        phi_m = cyclotomic_polynomial(m)
        while (quotient := int_quotient(poly, phi_m)) is not None:
            poly = quotient
            breakdown[m] = breakdown.get(m, 0) + 1
    total = sum(mult * deg(cyclotomic_polynomial(m)) for m, mult in breakdown.items())
    return total, breakdown


def generate_group(mats, bound=20000):
    """All elements of the group generated by unimodular matrices (BFS);
    AssertionError beyond `bound` elements."""
    if not mats:
        return [identity(1)]
    ident = identity(len(mats[0]))
    seen = {_key(ident): ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                prod = mat_mul(m, g)
                k = _key(prod)
                if k not in seen:
                    seen[k] = prod
                    nxt.append(prod)
                    assert len(seen) <= bound, "group generation exceeded bound"
        frontier = nxt
    return list(seen.values())


def _key(m):
    return tuple(tuple(row) for row in m)


def fixed_by_brute_force(mod):
    """#T^G of a FiniteLModule, by testing every element against every
    action matrix."""
    mods = mod.moduli()
    k = len(mods)
    count = 0
    for x in itertools.product(*(range(m) for m in mods)):
        if all(
            (sum(g[i][j] * x[j] for j in range(k)) - x[i]) % mods[i] == 0
            for g in mod.actions
            for i in range(k)
        ):
            count += 1
    return count


def kummer_size_check(table, torsion):
    """True iff every SizeTable entry matches the size identity forced by the
    coefficient exact sequence: #H^j(Z/l^n) = l^(n b_j) * #(tors_j / l^n)
    * #(tors_{j+1}[l^n]), with torsion given as exponent lists per degree."""

    def t_of(j, n):
        return sum(min(e, n) for e in torsion[j]) if j < len(torsion) else 0

    return all(
        val == n * table.betti[j] + t_of(j, n) + t_of(j + 1, n)
        for (j, n), val in table.entries.items()
    )


def reference_halt_order(specs, max_rounds=64):
    """Discrete-event oracle: halting order under the doubling-round rule.

    specs: list of halt_after step counts (0 = never) for tasks 1..n.
    Replays the arithmetic of the schedule without Task objects, to
    cross-check run_geometric.
    """
    steps_done = [0] * len(specs)
    halted = [False] * len(specs)
    order = []
    r = 0
    while not all(h or s == 0 for h, s in zip(halted, specs)) and r < max_rounds:
        r += 1
        for i in range(1, min(r, len(specs)) + 1):
            idx = i - 1
            if halted[idx] or specs[idx] == 0:
                continue
            budget = 2 ** (r - i)
            if specs[idx] - steps_done[idx] <= budget:
                steps_done[idx] = specs[idx]
                halted[idx] = True
                order.append(i)
            else:
                steps_done[idx] += budget
    return order


def rref(m):
    """Reduced row echelon form over Q by Gauss-Jordan elimination.

    Returns (matrix, pivot columns, pivot rows): pivot rows[k] is the index
    in m of the row that became row k, so those rows of m are independent.
    """
    a = [[Fraction(x) for x in row] for row in m]
    if not a or not a[0]:
        return a, [], []
    rows, cols = len(a), len(a[0])
    row_ids = list(range(rows))
    pivots = []
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, rows) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        row_ids[r], row_ids[piv] = row_ids[piv], row_ids[r]
        inv = 1 / a[r][col]
        a[r] = [x * inv for x in a[r]]
        for i in range(rows):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(col)
        r += 1
        if r == rows:
            break
    return a, pivots, row_ids[:r]


def solve(m, b):
    """One solution of m x = b over Q, or None if inconsistent."""
    if not m:
        return [] if not any(b) else None
    cols = len(m[0])
    aug = [list(row) + [bb] for row, bb in zip(m, b)]
    red, pivots, _ = rref(aug)
    # inconsistent if a pivot lands in the augmented column
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, col in enumerate(pivots):
        x[col] = red[r][-1]
    return x


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


def pade_over_q(q, ns, B, dim=None):
    """The Pade route of `zeta.reconstruct` over Q: the Taylor series as
    Fractions and each denominator degree decided and solved by
    Gauss-Jordan, kept as the reference for the integer route."""
    M = len(ns)
    W = exp_series(ns, M)

    for dd in range(0, B + 1):
        dn = B - dd
        ks = list(range(dn + 1, M + 1))
        A = [[W[k - i] if k - i >= 0 else 0 for i in range(1, dd + 1)] for k in ks]
        rhs = [-W[k] for k in ks]
        sol = solve(A, rhs) if dd else ([] if not any(rhs) else None)
        if sol is None:
            continue
        den = [1] + list(sol)
        den = upoly.trim(den)
        num = [
            sum(den[i] * W[k - i] for i in range(min(len(den), k + 1)))
            for k in range(dn + 1)
        ]
        num = upoly.trim(num)
        if not num or num[0] != 1:
            continue
        # reduce in Z[x]; num(0) = den(0) = 1 fixes the scaling back
        num, den = integral(num), integral(den)
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


def det_laplace(m):
    """Determinant of a square matrix by cofactor expansion along the first
    row: signed, with no pivoting or division to share a fault with."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * det_laplace([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
        if m[0][j]
    )


def _transpose(m):
    return [list(col) for col in zip(*m)] if m else []


def _is_diagonal(a):
    for i, row in enumerate(a):
        for j, x in enumerate(row):
            if i != j and x:
                return False
    return True


def snf(m):
    """(U, D, V) with U*m*V = D diagonal, U and V unimodular, d_1 | d_2 | ...

    Diagonalization alternates row and column Hermite passes with entry
    reduction (naive smallest-pivot elimination suffers exponential entry
    swell already at 8x8); the divisor chain is then enforced by local 2x2
    gcd transforms.  Fully deterministic, hence reproducible.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(r) for r in m]
    u = identity(rows)
    v = identity(cols)
    if rows == 0 or cols == 0:
        return u, a, v

    passes = 0
    while not _is_diagonal(a):
        _hermite_rows_inplace(a, u)
        if _is_diagonal(a):
            break
        at = _transpose(a)
        vt = _transpose(v)
        _hermite_rows_inplace(at, vt)
        a = _transpose(at)
        v = _transpose(vt)
        passes += 1
        if passes > 200:
            raise LatticeError("Smith reduction did not converge")

    def col_op(i, j, c):  # col_i += c * col_j
        for r in range(rows):
            a[r][i] += c * a[r][j]
        for r in range(cols):
            v[r][i] += c * v[r][j]

    def row_op(i, j, c):
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        u[i] = [x + c * y for x, y in zip(u[i], u[j])]

    def swap_diag(i, j):  # swap rows i,j and columns i,j
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    def swap_cols(i, j):
        for r in range(rows):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        for r in range(cols):
            v[r][i], v[r][j] = v[r][j], v[r][i]

    n = min(rows, cols)
    # move zero diagonal entries behind the nonzero ones
    for target in range(n):
        if a[target][target] == 0:
            src = next((k for k in range(target + 1, n) if a[k][k]), None)
            if src is not None:
                swap_diag(target, src)

    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]

    # enforce d_i | d_{i+1} by local gcd transforms on diagonal pairs
    changed = True
    guard = 0
    while changed:
        changed = False
        guard += 1
        if guard > 10000:
            raise LatticeError("divisor chain normalization did not converge")
        for i in range(n - 1):
            x, y = a[i][i], a[i + 1][i + 1]
            if y == 0 or (x and y % x == 0):
                continue
            changed = True
            if x == 0:  # zero before nonzero
                swap_diag(i, i + 1)
                continue
            # [[x,0],[0,y]] -> [[gcd,0],[0,lcm]]
            row_op(i, i + 1, 1)  # row i becomes (x, y)
            while a[i][i + 1]:
                q = a[i][i] // a[i][i + 1]
                if q:
                    col_op(i, i + 1, -q)
                swap_cols(i, i + 1)
            # gcd divides the whole 2x2 block, so this clears exactly
            if a[i + 1][i]:
                q = a[i + 1][i] // a[i][i]
                row_op(i + 1, i, -q)
            for k in (i, i + 1):
                if a[k][k] < 0:
                    a[k] = [-z for z in a[k]]
                    u[k] = [-z for z in u[k]]
            if a[i][i + 1] or a[i + 1][i]:
                raise LatticeError("internal: chain fix left off-diagonal entries")
    return u, a, v


def diagonal_of(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def snf_kernel(m):
    """Hermite basis of {x : m x = 0} read off the Smith form U m V = D: the
    columns of V beyond the rank of D."""
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if rows == 0 or cols == 0:
        return [[1 if i == j else 0 for i in range(cols)] for j in range(cols)]
    _, d, v = snf(m)
    r = sum(1 for x in diagonal_of(d) if x)
    return hnf_rows([[v[i][j] for i in range(cols)] for j in range(r, cols)])


def fixed_invariant_factors(mod):
    """Invariant factor exponents of the fixed subgroup T^G of a
    FiniteLModule, nonincreasing; their sum is log_l #T^G.

    The fixed subgroup is the kernel of the stacked (g - 1) maps; it is
    computed by lifting to an integer kernel over Z and reading the quotient
    structure off a Smith normal form.
    """
    k = mod.rank
    if k == 0:
        return []
    mods = mod.moduli()
    if not mod.actions or mod.has_trivial_action(mod.n):
        return list(mod.invariant_factors)
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
    return exps


def dense_hilbert_numerator(gens, nvars, memo):
    """Numerator N(t) of the Hilbert series N(t)/(1-t)^nvars of S/(gens),
    for minimal monomial generators, as a dense coefficient list.  The
    recursion pivots on x_j itself, N(I) = N(I + (x_j)) + t N(I : x_j), so
    its length and depth grow with the exponents: the reference for the
    sparse numerator of `polysys.geometry`."""
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
            result = mul_many([[1] + [0] * (sum(g) - 1) + [-1] for g in gens])
        else:
            # the variable most shared among non-pure-power generators
            counts = [0] * nvars
            for g in gens:
                if sum(1 for e in g if e) == 1:
                    continue
                for i, e in enumerate(g):
                    if e:
                        counts[i] += 1
            j = max(range(nvars), key=lambda i: (counts[i], -i))
            pivot = tuple(1 if i == j else 0 for i in range(nvars))
            sum_gens = _minimalize([g for g in gens if g[j] == 0] + [pivot])
            quo_gens = _minimalize(
                [tuple(e - 1 if i == j and e else e for i, e in enumerate(g)) for g in gens]
            )
            a = dense_hilbert_numerator(sum_gens, nvars, memo)
            b = dense_hilbert_numerator(quo_gens, nvars, memo)
            result = add(a, [0] + b)
    memo[key] = result
    return result


def reduced_series(num, nvars):
    """(N, D) with N(1) != 0 and the series num(t)/(1-t)^nvars equal to
    N(t)/(1-t)^D, by dividing the dense numerator by 1 - t while it vanishes
    at 1; ([], 0) for the zero numerator (the unit ideal)."""
    d = nvars
    while num and sum(num) == 0:
        num = int_quotient(num, [1, -1])
        d -= 1
    if not num:
        return [], 0
    return num, d


def dense_dimension_degree(ideal):
    """(projective dimension, degree) of the ideal's scheme, (-1, None)
    when it is empty, read from the reduced dense numerator: the reference
    for `polysys.dimension_degree`."""
    gens = _minimalize([leading(g)[0] for g in ideal.basis()])
    num, d = reduced_series(dense_hilbert_numerator(gens, ideal.nvars, {}), ideal.nvars)
    if not num or d == 0:
        return -1, None
    return d - 1, sum(num)
