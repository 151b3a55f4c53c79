"""Shared test helpers: independent brute-force oracles, the Hilbert
polynomial over Q (an oracle only tests use), triviality of a matrix
action mod l', the zeta function a report describes, the environment for
subprocesses that run this checkout's source, a report header with the
counting backend and every picardkit module whose bytecode is stale or
missing, and the compiled kernel as a fixture."""

import importlib.util
import itertools
import os
import shlex
import shutil
import sysconfig
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

import picardkit
from picardkit import upoly
from picardkit.counting import kernel
from picardkit.exactla import rank
from picardkit.galmod import FiniteLModule, lprime_level
from picardkit.polysys.geometry import _hilbert_numerator, _minimalize
from picardkit.polysys.groebner import leading
from picardkit.zeta import ZetaFunction

from oracles import embedding_by_scan, reduced_series


def brute_force_chart_count(ideal, n, j):
    """Oracle: the points over F_{q^n} of chart j, where x_0 = ... = x_{j-1}
    = 0 and x_j = 1, found by evaluating every generator directly with
    `FieldDesc` arithmetic on indices.  Independent of the counting kernels."""
    ext, embed = embedding_by_scan(ideal.domain, n)
    gens = [{e: embed(c) for e, c in g.terms.items()} for g in ideal.generators]
    count = 0
    for tail in itertools.product(range(ext.q), repeat=ideal.nvars - 1 - j):
        pt = [0] * j + [1] + list(tail)
        ok = True
        for g in gens:
            acc = 0
            for exps, c in g.items():
                term = c
                for x, e in zip(pt, exps):
                    for _ in range(e):
                        term = ext.mul(term, x)
                acc = ext.add(acc, term)
            if acc:
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_force_projective_count(ideal, n):
    """Oracle: #X(F_{q^n}) as the sum of the brute-force chart counts; each
    projective point has one canonical representative on one chart."""
    return sum(brute_force_chart_count(ideal, n, j) for j in range(ideal.nvars))


def trivial_mod_lprime(m, ell):
    """Does the integer matrix m act trivially on (Z/l')^k, l' = l for odd
    l and 4 for l = 2: the hypothesis rank_upper_bounds checks on the
    module at level lprime_level(l)."""
    level = lprime_level(ell)
    mod = FiniteLModule(ell=ell, n=level, invariant_factors=[level] * len(m), actions=[m])
    return mod.has_trivial_action(level)


def graded_dimension(ideal, d):
    """dim over Q of (S/I)_d for the ideal's lift to Z (`_to_rational`), by
    exact rank of the span of degree-d multiples of the generators.
    Independent of Groebner bases; used as a cross-check oracle."""
    nvars = ideal.nvars
    monos = _monomials_of_degree(nvars, d)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in ideal.generators:
        dg = max(sum(e) for e in g.terms)
        if dg > d:
            continue
        for m in _monomials_of_degree(nvars, d - dg):
            row = [0] * len(monos)
            for e, c in g.terms.items():
                ee = tuple(a + b for a, b in zip(e, m))
                row[index[ee]] = _to_rational(c, g.domain)
            rows.append(row)
    return len(monos) - (rank(rows) if rows else 0)


def hilbert_series_data(ideal):
    """(N, D), N(1) != 0, with the Hilbert series N(t)/(1-t)^D of S/I: the
    sparse numerator `polysys.geometry` computes from a Groebner basis,
    written densely and reduced by `oracles.reduced_series`."""
    gens = _minimalize([leading(g)[0] for g in ideal.basis()])
    sparse = _hilbert_numerator(gens, ideal.nvars, {})
    num = [0] * (max(sparse, default=-1) + 1)
    for e, c in sparse.items():
        num[e] = c
    return reduced_series(num, ideal.nvars)


def series_dimension(ideal, d):
    """dim over the base field of (S/I)_d, the coefficient of t^d in the
    Hilbert series N(t) / (1-t)^D that `hilbert_series_data` finds from a
    Groebner basis."""
    num, D = hilbert_series_data(ideal)
    if D == 0:
        return num[d] if d < len(num) else 0
    return sum(nj * comb(d - j + D - 1, D - 1) for j, nj in enumerate(num) if j <= d)


def assert_hilbert_function_as_over_q(ideal, top=6):
    """The ideal's Hilbert function over its prime field, from the Groebner
    basis, equals that of its lift to Q (`graded_dimension`) in degrees
    0..top: a test that moved from Q to F_p sees the same Hilbert data."""
    for d in range(top + 1):
        assert series_dimension(ideal, d) == graded_dimension(ideal, d), (ideal.generators, d)


class HilbertPoly:
    """Polynomial in t with rational coefficients, index = degree.  Immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"HilbertPoly is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return isinstance(other, HilbertPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, t):
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def leading(self):
        return self.coeffs[-1] if self.coeffs else Fraction(0)

    def is_zero(self):
        return not self.coeffs


def _binomial_poly(shift, k):
    """C(t + shift, k) as a polynomial in t (Fraction coefficients)."""
    out = [Fraction(1)]
    for i in range(1, k + 1):
        out = [c / Fraction(i) for c in upoly.mul(out, [Fraction(shift - k + i), Fraction(1)])]
    return out


def hilbert_polynomial(ideal):
    """Hilbert polynomial of Proj(S/I); the zero polynomial for empty schemes."""
    return hilbert_data(ideal)[0]


def hilbert_data(ideal):
    """(Hilbert polynomial, agreement bound): the polynomial matches the
    graded dimension dim (S/I)_d for every d >= the bound."""
    num, d_series = hilbert_series_data(ideal)
    if not num or d_series == 0:
        # finite-length tail: the function is 0 beyond the series support
        return HilbertPoly(()), len(num)
    k = d_series - 1
    coeffs = [Fraction(0)] * (k + 1)
    for j, nj in enumerate(num):
        if nj:
            bp = _binomial_poly(k - j, k)
            for i, c in enumerate(bp):
                coeffs[i] += nj * c
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    bound = max(0, (len(num) - 1) - d_series + 1)
    return HilbertPoly(tuple(coeffs)), bound


def _to_rational(c, domain):
    """A prime-field coefficient's balanced lift to Z, c - p above p / 2, so
    that the small integers of a test ideal over a large F_p lift to
    themselves; larger fields would need a vector-space refinement, which
    the oracle tests do not require."""
    c, *rest = domain.digits(c)
    assert not any(rest), "coefficient outside the prime field"
    return c - domain.p if 2 * c > domain.p else c


def _monomials_of_degree(nvars, d):
    if nvars == 1:
        return [(d,)]
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining + 1):
            rec(prefix + [e], remaining - e, slots - 1)

    rec([], d, nvars)
    return out


def zeta_from_report(report):
    """The ZetaFunction of a report's `zeta` block."""
    z = report["zeta"]
    return ZetaFunction(z["q"], z["num"], z["den"], z["dim"])


def source_env():
    """The environment with this checkout's source first on PYTHONPATH."""
    src = str(Path(picardkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def bytecode_state(source):
    """'current', 'stale' or 'missing': whether the timestamp-checked .pyc
    of `source` matches its mtime and size, as the import system checks."""
    pyc = Path(importlib.util.cache_from_source(source))
    if not pyc.is_file():
        return "missing"
    header = pyc.read_bytes()[:16]
    st = os.stat(source)
    current = (
        header[:4] == importlib.util.MAGIC_NUMBER
        and int.from_bytes(header[4:8], "little") == 0
        and int.from_bytes(header[8:12], "little") == int(st.st_mtime) & 0xFFFFFFFF
        and int.from_bytes(header[12:16], "little") == st.st_size & 0xFFFFFFFF
    )
    return "current" if current else "stale"


def pytest_report_header(config):
    from picardkit.counting import BACKEND

    package = Path(picardkit.__file__).parent
    not_current = {}
    for source in sorted(package.rglob("*.py")):
        state = bytecode_state(source)
        if state != "current":
            parts = source.relative_to(package.parent).with_suffix("").parts
            name = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            not_current.setdefault(state, []).append(name)
    bytecode = "; ".join(f"{state} {', '.join(names)}" for state, names in sorted(not_current.items()))
    return [f"picardkit: counting backend {BACKEND}, bytecode {bytecode or 'current'}"]


def pytest_terminal_summary(terminalreporter, config):
    # -q hides the header; repeat it at the end so a quiet run shows it too
    if config.get_verbosity() < 0:
        for line in pytest_report_header(config):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def ckernel(tmp_path_factory):
    """The compiled kernel: the in-place build of picardkit.counting._ckernel
    when there is one, else _ckernel.c compiled into a temporary directory
    with setuptools' build_ext.  Skips only when no C compiler is found."""
    try:
        from picardkit.counting import _ckernel

        return _ckernel
    except ImportError:
        pass
    cc = shlex.split(sysconfig.get_config_var("CC") or "cc")
    if not cc or shutil.which(cc[0]) is None:
        pytest.skip("no C compiler found")
    from setuptools import Distribution, Extension
    from setuptools.command.build_ext import build_ext

    out = tmp_path_factory.mktemp("ckernel")
    source = Path(kernel.__file__).with_name("_ckernel.c")
    cmd = build_ext(Distribution({"ext_modules": [Extension("_ckernel", [str(source)])]}))
    cmd.build_lib = str(out)
    cmd.build_temp = str(out / "tmp")
    cmd.ensure_finalized()
    cmd.run()
    spec = importlib.util.spec_from_file_location("_ckernel", cmd.get_ext_fullpath("_ckernel"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod
