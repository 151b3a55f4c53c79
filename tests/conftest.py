"""Shared test helpers: independent brute-force oracles, and the environment
for subprocesses that run this checkout's source."""

import itertools
import os
from pathlib import Path

import picardkit
from picardkit.ffield import enumerate_field, extend


def brute_force_projective_count(ideal, n):
    """Oracle: enumerate canonical representatives of projective points and
    evaluate every generator directly with FieldElement arithmetic.
    Independent of the counting kernels."""
    emb = extend(ideal.domain, n)
    ext = emb.ext
    elems = enumerate_field(ext)
    gens = [{e: emb(c) for e, c in g.terms.items()} for g in ideal.generators]
    nvars = ideal.nvars
    count = 0
    for j in range(nvars):
        for tail in itertools.product(elems, repeat=nvars - 1 - j):
            pt = [ext.zero()] * j + [ext.one()] + list(tail)
            ok = True
            for g in gens:
                acc = ext.zero()
                for exps, c in g.items():
                    term = c
                    for x, e in zip(pt, exps):
                        for _ in range(e):
                            term = term * x
                    acc = acc + term
                if acc:
                    ok = False
                    break
            if ok:
                count += 1
    return count


def source_env():
    """The environment with this checkout's source first on PYTHONPATH."""
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
