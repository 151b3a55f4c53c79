"""Pure-Python counting kernel: reference implementation.

The compiled kernel in _ckernel.c mirrors this module function for
function; both must produce identical counts on identical inputs (tested).
Field elements are integer indices (the base-p digit encoding of coefficient
vectors); multiplication and addition go through exp/log/Zech tables.

count_chart enumerates every coordinate of a chart but the inner one.  Each
such slice leaves one univariate polynomial per generator; the slice's
points are the distinct roots in F_Q of their gcd, counted in closed form
for degrees 1 and 2 and through gcd(g, x^Q - x) beyond.

Index conventions inside the tables, g the class of x, which generates
F_Q^* on the primitive modulus of the level (`ffield.level_field`):
    0 encodes the zero element, 1 encodes one;
    exp[i] = index of g^i, log[idx] = discrete log (log[0] = -1),
    zech[k] = log(1 + g^k), or -1 when 1 + g^k = 0.
"""

from array import array

BACKEND = "pure"


def build_tables(p, e, modulus):
    """exp/log/Zech tables for F_{p^e} on a primitive modulus, whose x
    generates the multiplicative group: exp[i] is the index of x^i.

    Each step multiplies by x: it shifts the digits up and subtracts
    top * modulus, top the digit shifted out.  Raises ValueError("modulus
    is not primitive") when the walk meets 0 or an index twice, or does
    not return to 1 after p^e - 1 steps.
    """
    q = p**e
    lead = p ** (e - 1)
    # x^e = -(m_0 + ... + m_{e-1} x^(e-1)): its nonzero terms as (p^j, -m_j)
    terms = [(p**j, -c % p) for j, c in enumerate(modulus[:e]) if c % p]
    exp = array("q", [0] * (q - 1))
    log = array("q", [-1] * q)
    cur = 1
    for i in range(q - 1):
        if cur == 0 or log[cur] >= 0:
            raise ValueError("modulus is not primitive")
        exp[i] = cur
        log[cur] = i
        top, low = divmod(cur, lead)
        cur = low * p
        if top:
            for pw, c in terms:
                d = cur // pw % p
                cur += ((d + top * c) % p - d) * pw
    if cur != 1:
        raise ValueError("modulus is not primitive")

    zech = array("q", [0] * (q - 1))
    pm1 = p - 1
    for k in range(q - 1):
        t = exp[k]
        # adding one increments the constant digit mod p
        t1 = t + 1 if t % p < pm1 else t - pm1
        zech[k] = log[t1] if t1 else -1
    return exp, log, zech


class _Ops:
    """Field and small-degree polynomial arithmetic on table indices."""

    def __init__(self, Q, p, tmask, exp, log, zech):
        self.Q = Q
        self.p = p
        self.tmask = tmask
        self.Qm1 = Q - 1
        self.exp = exp
        self.log = log
        self.zech = zech
        # index of -1: char 2 has -1 = 1; otherwise g^((Q-1)/2)
        self.negone = 1 if self.Qm1 % 2 else exp[self.Qm1 // 2]

    def mul(self, a, b):
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % self.Qm1]

    def add(self, a, b):
        if a == 0:
            return b
        if b == 0:
            return a
        z = self.zech[(self.log[b] - self.log[a]) % self.Qm1]
        if z < 0:
            return 0
        return self.exp[(self.log[a] + z) % self.Qm1]

    def neg(self, a):
        return self.mul(a, self.negone)

    def inv(self, a):
        return self.exp[(self.Qm1 - self.log[a]) % self.Qm1]

    # -- dense univariate polynomials as index lists (index = degree) --------

    def ptrim(self, a):
        while a and a[-1] == 0:
            a.pop()
        return a

    def pmonic(self, a):
        lead = a[-1]
        if lead == 1:
            return a
        s = self.inv(lead)
        return [self.mul(c, s) for c in a]

    def psub(self, a, b):
        n = max(len(a), len(b))
        out = [
            self.add(a[i] if i < len(a) else 0, self.neg(b[i]) if i < len(b) else 0)
            for i in range(n)
        ]
        return self.ptrim(out)

    def pmulmod(self, a, b, m):
        if not a or not b:
            return []
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = self.add(out[i + j], self.mul(ai, bj))
        dm = len(m) - 1
        for k in range(len(out) - 1, dm - 1, -1):
            c = out[k]
            if c:
                nc = self.neg(c)
                for i in range(dm):
                    out[k - dm + i] = self.add(out[k - dm + i], self.mul(nc, m[i]))
            out[k] = 0
        return self.ptrim(out)

    def pmod(self, a, m):
        # m monic
        a = list(a)
        dm = len(m) - 1
        while len(a) - 1 >= dm and a:
            c = a[-1]
            if c:
                nc = self.neg(c)
                off = len(a) - 1 - dm
                for i in range(dm):
                    a[off + i] = self.add(a[off + i], self.mul(nc, m[i]))
            a.pop()
        return self.ptrim(a)

    def pgcd(self, a, b):
        a, b = list(a), list(b)
        while b:
            bm = self.pmonic(b)
            a, b = bm, self.pmod(a, bm)
        return a

    def pow_x_mod(self, k, m):
        # x^k mod m, m monic of degree >= 1
        base = self.pmod([0, 1], m)
        result = [1]
        while k:
            if k & 1:
                result = self.pmulmod(result, base, m)
            base = self.pmulmod(base, base, m)
            k >>= 1
        return result

    def distinct_roots(self, g):
        """Number of distinct roots in F_Q of a nonconstant polynomial."""
        g = self.pmonic(list(g))
        xq = self.pow_x_mod(self.Q, g)
        r = self.psub(xq, [0, 1])
        if not r:
            return len(g) - 1
        return len(self.pgcd(g, r)) - 1

    def root_count(self, g):
        """distinct_roots with closed forms for degrees 1 and 2.

        Degree 2 avoids the x^Q ladder: quadratic-character parity of the
        discriminant in odd characteristic, an absolute-trace test in
        characteristic 2.
        """
        d = len(g) - 1
        if d == 1:
            return 1
        if d == 2:
            c, b, a = g[0], g[1], g[2]
            if self.p == 2:
                if b == 0:
                    return 1  # squaring is bijective
                v = self.mul(self.mul(a, c), self.inv(self.mul(b, b)))
                if v == 0:
                    return 2
                return 2 if bin(v & self.tmask).count("1") % 2 == 0 else 0
            four = 4 % self.p  # constant elements are their own index
            disc = self.add(self.mul(b, b), self.neg(self.mul(four, self.mul(a, c))))
            if disc == 0:
                return 1
            return 2 if self.log[disc] % 2 == 0 else 0
        return self.distinct_roots(g)


def count_chart(Q, p, tmask, exp, log, zech, gen_terms, nprefix, use_gcd, lo, hi):
    """Count points of one affine chart with outer coordinate in [lo, hi).

    gen_terms: per generator, a flat int array of records
    [coeff_idx, last_deg, e_1..e_nprefix]; a point counts when every
    generator vanishes.  Pass lo=0, hi=1 when nprefix == 0.  use_gcd must
    be 1, gcd root counting being the only slice method; any other value
    raises ValueError.
    """
    if use_gcd != 1:
        raise ValueError("use_gcd must be 1: slices are resolved by gcd root counting")
    ops = _Ops(Q, p, tmask, exp, log, zech)
    stride = 2 + nprefix
    gens = []
    maxdeg_var = [0] * nprefix
    for terms in gen_terms:
        recs = []
        gdeg = 0
        for t in range(0, len(terms), stride):
            coeff = terms[t]
            dlast = terms[t + 1]
            pexp = tuple(terms[t + 2 : t + stride])
            recs.append((coeff, dlast, pexp))
            gdeg = max(gdeg, dlast)
            for i, ex in enumerate(pexp):
                if ex > maxdeg_var[i]:
                    maxdeg_var[i] = ex
        gens.append((recs, gdeg))

    count = 0

    def run_slice(powcache):
        nonlocal count
        upolys = []
        for recs, gdeg in gens:
            ucoef = [0] * (gdeg + 1)
            for coeff, dlast, pexp in recs:
                m = coeff
                for t, ex in enumerate(pexp):
                    if ex and m:
                        m = ops.mul(m, powcache[t][ex])
                if m:
                    ucoef[dlast] = ops.add(ucoef[dlast], m)
            ops.ptrim(ucoef)
            if ucoef:  # identically-zero slice polynomials impose nothing
                upolys.append(ucoef)
        if not upolys:
            count += Q
            return
        if any(len(u) == 1 for u in upolys):
            return  # a nonzero constant condition: no solutions
        g = upolys[0]
        for u in upolys[1:]:
            g = ops.pgcd(g, u)
            if len(g) == 1:
                return
        count += ops.root_count(g)

    if nprefix == 0:
        run_slice([])
        return count

    powcache = [[1]] * nprefix

    def fill_pow(t, v):
        md = maxdeg_var[t]
        row = [1] * (md + 1)
        if md >= 1:
            row[1] = v
            for k in range(2, md + 1):
                row[k] = ops.mul(row[k - 1], v)
        powcache[t] = row

    def rec(t):
        start, stop = (lo, hi) if t == 0 else (0, Q)
        if t == nprefix - 1:
            for v in range(start, stop):
                fill_pow(t, v)
                run_slice(powcache)
        else:
            for v in range(start, stop):
                fill_pow(t, v)
                rec(t + 1)

    rec(0)
    return count
