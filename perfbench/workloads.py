"""Workload definitions: seeded pools of smooth varieties and request lists.

A plan is fully determined by (workload, seed).  It holds the input files
the program reads, the CLI requests in the order they are sent, the oracle
checks for each request, and, for the warm workload, the counts that set-up
writes into the count cache.  This module does not import picardkit.

Pools hold only inputs of equal counting cost, so that a seed changes the
inputs but not the amount of work: each pool holds the nonzero scalar
multiples of one equation, which are different inputs (different hashes and
cache keys) with the same counts and the same slices.  Measured with the
pure kernel on a 2-vCPU virtual machine, kernel cost depends on the variety
far more than its size suggests (plane quartics over F_2: 14.8 s to 32.1 s;
cubic surfaces over F_4: 0.8 s to 7.9 s), so a pool of different equations
would make the seed change the work.

Each cold workload sends one request of about 5 s, so a run repeats it
several times and its medians are taken over many samples.  The Klein
quartic over F_2 (22 s, 16 levels) and an elliptic curve over F_5 (12 s)
are too long for that; the curve workload uses an elliptic curve over F_4,
whose 8 levels reach F_{4^8} and are bound by table building.
"""

from __future__ import annotations

import random

import oracle

# -- polynomials as (coeff, exps) lists ----------------------------------------------


def render(poly):
    """Polynomial text in the program's grammar."""
    parts = []
    for c, exps in poly:
        factors = [] if c == 1 else [str(c)]
        factors += [f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(exps) if k]
        parts.append("*".join(factors))
    return " + ".join(parts)


def _mono(text, nvars):
    """Parse 'x0^3*x1' into an exponent tuple."""
    exps = [0] * nvars
    for f in text.split("*"):
        var, _, k = f.partition("^")
        exps[int(var[1:])] += int(k or 1)
    return tuple(exps)


def poly(nvars, *terms):
    """poly(3, (1, 'x0^3*x1'), (4, 'x2^3')) -> [(1, (3, 1, 0)), (4, (0, 0, 3))]"""
    return [(c, _mono(m, nvars)) for c, m in terms]


def spec(p, e, nvars, pol, degree, b1b3_zero):
    flags = {"hypersurfaceDegree": degree}
    if b1b3_zero:
        flags["b1b3Zero"] = True
    return {
        "field": {"p": p, "e": e},
        "ambientDim": nvars - 1,
        "generators": [render(pol)],
        "flags": flags,
    }


def _variety(name, p, e, pol, degree, b1b3_zero=False, **frozen):
    nvars = len(pol[0][1])
    return {
        "name": name, "p": p, "e": e, "nvars": nvars, "poly": pol,
        "dim": nvars - 2, "degree": degree,
        "spec": spec(p, e, nvars, pol, degree, b1b3_zero),
        "frozen": frozen,
    }


# -- pools ------------------------------------------------------------------------

KLEIN = poly(3, (1, "x0^3*x1"), (1, "x1^3*x2"), (1, "x2^3*x0"))
KLEIN_NUM = [1, 0, 0, 5, 0, 0, 8]
KLEIN_COUNTS = [3, 5, 24, 17, 33, 38, 129, 257, 528, 1025, 2049, 4238, 8193,
                16385, 31944, 65537]

K3 = poly(4, (1, "x0^4"), (1, "x1^4"), (1, "x2^4"), (1, "x3^4"),
          (1, "x0*x1^3"), (1, "x0^3*x2"), (1, "x1*x3^3"))
K3_COUNTS = [5, 9, 89, 289, 1185, 4545, 16385, 66049, 263681, 1051649, 4194305]

FERMAT_CUBIC = poly(4, (1, "x0^3"), (1, "x1^3"), (1, "x2^3"), (1, "x3^3"))


# y^2 z + y z^2 = x^3 over F_4, a smooth (supersingular) elliptic curve; the
# pool is its scalar multiples.  Betti takes the generic Pade route: 8 levels,
# up to F_{4^8}, with field-table building about 55% of the request, field
# extension about 20% and the kernel about 17%.
ELLIPTIC_F4_MONOMIALS = ("x1^2*x2", "x1*x2^2", "x0^3")
ELLIPTIC_F4_COEFFS = [(c, c, c) for c in (1, "g", "g^2")]

# x0^3 + x1^3 + x2^3 + g^2 x3^3 over F_4 (smooth since the characteristic is
# not 3) and its scalar multiples.  tate-bound takes the middle-factor route:
# 4 levels over Q^2 slices per chart, with the kernel over 90% of the request.
CUBIC_F4_MONOMIALS = ("x0^3", "x1^3", "x2^3", "x3^3")
CUBIC_F4_COEFFS = [(1, 1, 1, "g^2"), ("g", "g", "g", 1), ("g^2", "g^2", "g^2", "g")]


def _from_pool(nvars, monomials, coeffs):
    return poly(nvars, *zip(coeffs, monomials))


# -- plans --------------------------------------------------------------------------

WORKLOADS = ("cold-curves", "cold-surfaces", "warm-algebra")


def _hyper_request(rid, argv_head, variety, extra=()):
    return {
        "id": rid,
        "argv": [*argv_head, {"input": variety["name"] + ".json"}, *extra],
        "check": {"kind": "hypersurface", "variety": variety},
    }


def plan(workload, seed):
    rng = random.Random(f"{workload}/{seed}")
    inputs, requests, warm = {}, [], []

    def add(variety):
        inputs[variety["name"] + ".json"] = variety["spec"]
        return variety

    if workload == "cold-curves":
        c = rng.choice(ELLIPTIC_F4_COEFFS)
        ell = add(_variety("elliptic-f4", 2, 2, _from_pool(3, ELLIPTIC_F4_MONOMIALS, c), 3))
        requests = [_hyper_request("elliptic", ["betti"], ell)]
    elif workload == "cold-surfaces":
        c = rng.choice(CUBIC_F4_COEFFS)
        s4 = add(_variety("cubic-f4", 2, 2, _from_pool(4, CUBIC_F4_MONOMIALS, c), 3, True,
                          v_mu=7))
        requests = [_hyper_request("cubic-f4", ["tate-bound"], s4, ["-p", "1"])]
    elif workload == "warm-algebra":
        k3 = add(_variety("k3", 2, 1, K3, 4, True, counts=K3_COUNTS, v_mu=22))
        klein = add(_variety("klein", 2, 1, KLEIN, 4, num=KLEIN_NUM,
                             counts=KLEIN_COUNTS, v_mu=1))
        cubic = add(_variety("cubic-f2", 2, 1, FERMAT_CUBIC, 3, True))
        warm = [("k3", K3_COUNTS), ("klein", KLEIN_COUNTS), ("cubic-f2", 4)]
        inputs["lines27.json"] = {"basisCycles": [f"L{i}" for i in range(13)],
                                  "pairings": oracle.cubic_line_pairings(),
                                  "action": {"generators": [], "relations": []}}
        torsion, degree, exps = _planted_torsion(rng)
        family, rank = _planted_family(rng)
        inputs["sizes.json"] = torsion
        inputs["family.json"] = family
        requests = [
            _hyper_request("k3-betti", ["betti"], k3),
            _hyper_request("k3-tate", ["tate-bound"], k3, ["-p", "1"]),
            _hyper_request("klein-tate", ["tate-bound"], klein, ["-p", "1"]),
            {"id": "cubic-rank",
             "argv": ["rank", "--zeta", {"input": "cubic-f2.json"},
                      "--cycles", {"input": "lines27.json"}],
             "check": {"kind": "rank", "variety": cubic, "rank": 7, "v_mu": 7}},
            {"id": "torsion", "argv": ["torsion", {"input": "sizes.json"}, "-i", str(degree)],
             "check": {"kind": "torsion", "exponents": exps}},
            {"id": "galois-rank", "argv": ["galois-rank", {"input": "family.json"}],
             "check": {"kind": "galois", "value": rank}},
            {"id": "dovetail", "argv": ["dovetail", "--demo"],
             "check": {"kind": "dovetail"}},
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng.shuffle(requests)
    return {"workload": workload, "seed": seed, "inputs": inputs,
            "requests": requests, "warm": warm}


def varieties(plan):
    """{name: variety} for every variety a plan's requests are checked on."""
    out = {}
    for req in plan["requests"]:
        v = req["check"].get("variety")
        if v:
            out[v["name"]] = v
    return out


def _planted_torsion(rng):
    """A size table whose degree-`degree` torsion has exponents `exps`."""
    ell = rng.choice([2, 3, 5])
    d2 = rng.choice([2, 4])
    betti = [1] + [rng.randint(0, 3) for _ in range(d2 - 1)] + [1]
    degree = rng.randint(1, d2 - 1)
    exps = sorted((rng.randint(1, 3) for _ in range(rng.randint(1, 3))), reverse=True)
    return oracle.size_table(ell, betti, degree, exps, max(exps) + 2), degree, exps


def _planted_family(rng):
    """A module family whose rank upper bound is a + s (as in criterion 5)."""
    ell = rng.choice([2, 3, 5])
    a, s, t0 = rng.randint(0, 3), rng.randint(0, 2), rng.randint(1, 2)
    u = rng.randint(0, 2)
    depth = max(t0 * (a + s + u + 1) + 1, t0 + 1)
    modules = [oracle.planted_module(ell, n, a, s, t0, u) for n in range(t0 + 1, depth + 1)]
    return {"ell": ell, "t": t0, "modules": modules, "skipHypothesisCheck": True}, a + s
