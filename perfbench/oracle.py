"""Output oracle for the benchmark, independent of picardkit.

Everything here uses its own arithmetic: finite fields built from scratch,
brute-force projective point counts, the smooth-hypersurface Betti formula,
Newton power sums for re-expanding a zeta function, line intersections on
the diagonal cubic surface, and the forward size-table construction for
planted torsion.  Nothing imports the program under test.

Polynomials are lists of (coeff, exps) pairs.  Over a prime field a coeff is
an integer; over F_4 (the only non-prime base field used) a coeff is 1, "g"
or "g^2", with g a root of x^2 + x + 1, the unique irreducible quadratic
over F_2, so the field is pinned without reference to the program.
"""

from __future__ import annotations

import itertools

# -- finite fields ------------------------------------------------------------


def _poly_mulmod(a, b, mod, p):
    """Product of two coefficient lists modulo the monic `mod`, over F_p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    k = len(mod) - 1
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        if c:
            for j in range(k + 1):
                out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return (out + [0] * k)[:k]


def _is_irreducible(mod, p):
    """True when `mod` (monic, degree k) is irreducible over F_p.

    Brute force: no monic factor of degree 1..k//2 divides it."""
    k = len(mod) - 1
    for d in range(1, k // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = list(tail) + [1]
            rem = list(mod)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem[:d]):
                return False
    return True


class Field:
    """F_{p^k} with elements encoded as integers (base-p digit vectors)."""

    def __init__(self, p, k):
        self.p, self.k, self.q = p, k, p**k
        for tail in itertools.product(range(p), repeat=k):
            mod = list(tail) + [1]
            if mod[0] and _is_irreducible(mod, p):
                break
        self.modulus = mod
        q = self.q
        vecs = [self._vec(i) for i in range(q)]
        self.add_table = [
            [self._idx([(x + y) % p for x, y in zip(vecs[a], vecs[b])]) for b in range(q)]
            for a in range(q)
        ]
        # a primitive element: the first one whose powers reach every unit
        for g in range(1, q):
            exp, cur = [], [1] + [0] * (k - 1)
            for _ in range(q - 1):
                exp.append(self._idx(cur))
                cur = _poly_mulmod(cur, vecs[g], mod, p) if k > 1 else [cur[0] * g % p]
            if len(set(exp)) == q - 1:
                break
        self.exp = exp
        self.log = [None] * q
        for i, x in enumerate(exp):
            self.log[x] = i

    def _vec(self, idx):
        out = []
        for _ in range(self.k):
            idx, r = divmod(idx, self.p)
            out.append(r)
        return out

    def _idx(self, vec):
        out = 0
        for c in reversed(vec):
            out = out * self.p + c
        return out

    def mul(self, a, b):
        if not a or not b:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def power(self, a, e):
        if e == 0:
            return 1
        if not a:
            return 0
        return self.exp[self.log[a] * e % (self.q - 1)]

    def from_int(self, c):
        return c % self.p  # prime-field constants are their own digit vector

    def element_of_order(self, m):
        """An element of multiplicative order m (m divides q - 1)."""
        if (self.q - 1) % m:
            raise ValueError(f"F_{self.q} has no element of order {m}")
        return self.exp[(self.q - 1) // m]


def _coeff_in(field, c):
    if isinstance(c, int):
        return field.from_int(c)
    # F_4 coefficients: g has order 3 in the multiplicative group
    g = field.element_of_order(3)
    return {"g": g, "g^2": field.mul(g, g)}[c]


def _projective_points(q, nvars):
    """Canonical representatives of P^(nvars-1)(F_q): first nonzero entry 1."""
    for j in range(nvars):
        for tail in itertools.product(range(q), repeat=nvars - 1 - j):
            yield (0,) * j + (1,) + tail


def projective_count(poly, nvars, p, e, n):
    """#X(F_{p^(e n)}) for the hypersurface poly = 0 in P^(nvars-1), by
    evaluating poly at every point."""
    field = Field(p, e * n)
    q, add, log, qm1 = field.q, field.add_table, field.log, field.q - 1
    terms = [(log[_coeff_in(field, c)], exps) for c, exps in poly if _coeff_in(field, c)]
    count = 0
    for pt in _projective_points(q, nvars):
        acc = 0
        for lc, exps in terms:
            lg = lc
            for x, k in zip(pt, exps):
                if k:
                    if not x:
                        break
                    lg += log[x] * k
            else:
                acc = add[acc][field.exp[lg % qm1]]
        if not acc:
            count += 1
    return count


# -- zeta functions -------------------------------------------------------------


def hypersurface_betti(dim, degree):
    """Betti numbers b_0..b_(2 dim) of a smooth hypersurface of the given
    dimension and degree (Lefschetz plus the Euler characteristic)."""
    d, n = degree, dim
    mid = ((d - 1) ** (n + 2) + (-1) ** n * (d - 1)) // d + (1 if n % 2 == 0 else 0)
    out = [1 if i % 2 == 0 else 0 for i in range(2 * n + 1)]
    out[n] = mid
    return out


def power_sums(coeffs, n_max):
    """s_1..s_n_max of the reciprocal roots of 1 + c_1 T + c_2 T^2 + ...

    Newton: s_n = -n c_n - sum_{i<n} c_i s_(n-i)."""
    c = list(coeffs) + [0] * n_max
    if c[0] != 1:
        raise ValueError("constant term must be 1")
    s = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        s[n] = -n * c[n] - sum(c[i] * s[n - i] for i in range(1, n))
    return s[1:]


def counts_from_zeta(num, den, n_max):
    """N_1..N_n_max implied by Z(T) = num(T) / den(T)."""
    return [a - b for a, b in zip(power_sums(den, n_max), power_sums(num, n_max))]


# -- cubic surface lines ------------------------------------------------------------

CUBIC_PAIRS = [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
F4_UNITS = (1, "g", "g^2")


def diagonal_cubic_lines():
    """The 27 lines of x0^3 + x1^3 + x2^3 + x3^3 = 0 over F_4, each as two
    linear forms {x_i + a x_j, x_k + b x_l} (a, b cube roots of 1)."""
    lines = []
    for (i1, j1), (i2, j2) in CUBIC_PAIRS:
        for a in F4_UNITS:
            for b in F4_UNITS:
                lines.append(((i1, j1, a), (i2, j2, b)))
    return lines


def lines_meet(l1, l2):
    """True when the two lines share a point of P^3(F_4)."""
    field = Field(2, 2)
    forms = [(i, j, _coeff_in(field, a)) for i, j, a in l1 + l2]
    return any(
        all(field.add_table[pt[i]][field.mul(a, pt[j])] == 0 for i, j, a in forms)
        for pt in _projective_points(field.q, 4)
    )


def cubic_line_pairings():
    """Criterion-4 pairing block: lines 13..26 against lines 0..12.

    Distinct lines on a smooth cubic surface meet transversally in at most
    one point, so the intersection number is 1 when they meet, else 0."""
    lines = diagonal_cubic_lines()
    ys, zs = lines[:13], lines[13:]
    return [[1 if lines_meet(z, y) else 0 for y in ys] for z in zs]


# -- planted torsion and module families --------------------------------------------


def size_table(ell, betti, degree, exps, n_max):
    """Size-table JSON for cohomology with Betti numbers `betti` whose only
    torsion sits in `degree` with invariant-factor exponents `exps`.

    Universal coefficients: #H^j(Z/l^n) = l^(n b_j) * #(T_j / l^n) *
    #T_(j+1)[l^n], and both torsion factors have l-exponent sum min(t, n)."""
    def tors(j, n):
        return sum(min(t, n) for t in exps) if j == degree else 0

    sizes = []
    for j in range(len(betti)):
        for n in range(1, n_max + 1):
            sizes.append({"i": j, "n": n, "log_ell_size": n * betti[j] + tors(j, n) + tors(j + 1, n)})
    return {"ell": ell, "betti": list(betti), "sizes": sizes}


def planted_module(ell, n, a, s, t0, u):
    """Z/l^n-module with `a` trivial summands, `s` swapped pairs and `u`
    summands of exponent min(t0, n), with its one action matrix.

    Its fixed-point rank is a + s (each swapped pair fixes one diagonal)."""
    factors = [n] * (a + 2 * s)
    te = min(t0, n)
    if te:
        factors += [te] * u
    k = len(factors)
    g = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for pair in range(s):
        x, y = a + 2 * pair, a + 2 * pair + 1
        g[x][x] = g[y][y] = 0
        g[x][y] = g[y][x] = 1
    return {"ell": ell, "n": n, "invariantFactors": factors, "actions": [g]}


# -- dovetail demo --------------------------------------------------------------------


def least(pred):
    m = 1
    while not pred(m):
        m += 1
    return m


def dovetail_demo_results():
    """Results of `dovetail --demo`: two integer searches, a task that never
    halts (task 2, no result) and a planted task that returns "planted"."""
    return {
        "1": least(lambda m: m * m % 91 == 81),
        "3": least(lambda m: m % 23 == 17),
        "4": "planted",
    }
