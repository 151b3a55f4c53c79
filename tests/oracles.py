"""Reference oracles that tests compare picardkit against: brute-force
enumerations and replays that no command needs, kept beside the tests that
use them."""

import itertools
from math import gcd

from picardkit.exactla import identity, mat_mul
from picardkit.upoly import deg, int_quotient, integral, mul, trim
from picardkit.weil import cyclotomic_polynomial


def enumerate_field(field):
    """All q elements of a FieldDesc, in the deterministic base-p integer
    order of `from_index`."""
    return [field.from_index(idx) for idx in range(field.q)]


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
