"""The compiled and pure kernels must agree bit for bit.

The compiled kernel comes from the `ckernel` fixture in conftest.py, which
skips only when no C compiler is found.
"""

from array import array
from pathlib import Path

import pytest

from picardkit.counting import count_points, kernel, kernel_py, separable_blocks
from picardkit.counting.charts import compile_charts
from picardkit.counting.kernel import embedding, trace_mask
from picardkit.ffield import level_field, make_field
from picardkit.polysys import HomIdeal, poly_from_str

from conftest import brute_force_chart_count, brute_force_projective_count


@pytest.mark.parametrize(
    "p,e",
    [(2, 1), (3, 1), (2, 2), (5, 1), (2, 4), (3, 2), (7, 1), (2, 10), (3, 6), (5, 4), (13, 2)],
)
def test_tables_identical(ckernel, p, e):
    f = level_field(p, e)
    a = kernel_py.build_tables(f.p, f.e, f.modulus)
    b = ckernel.build_tables(f.p, f.e, f.modulus)
    for x, y in zip(a, b):
        assert list(x) == list(y)


@pytest.mark.parametrize(
    "p,modulus",
    [
        (3, make_field(3, 1).modulus),  # x = 0
        (3, make_field(3, 2).modulus),  # x^2 + 1: irreducible, but x has order 4
        (3, (2, 0, 1)),  # x^2 - 1 = (x - 1)(x + 1)
        (2, (0, 1)),  # x = 0 over F_2: a one-step walk, refused by its end check
    ],
)
@pytest.mark.parametrize("backend", ["pure", "c"])
def test_tables_refuse_a_modulus_that_is_not_primitive(ckernel, backend, p, modulus):
    mod = kernel_py if backend == "pure" else ckernel
    with pytest.raises(ValueError, match="modulus is not primitive"):
        mod.build_tables(p, len(modulus) - 1, modulus)


@pytest.mark.parametrize(
    "p,e,gens,nvars,n",
    [
        (2, 1, ["x0^2 + x1*x2"], 3, 2),
        (3, 1, ["x0^3 + x1^3 + x2^3"], 3, 2),
        (5, 1, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], 3, 2),
        (2, 1, ["x0*x3 + x1*x2", "x0^2 + x1^2"], 4, 2),
        (2, 1, ["x0^3 + x1^3 + x2^3 + x3^3"], 4, 2),
        # odd characteristic over a non-prime base: F_9 into F_81
        (3, 2, ["x1^2*x2 - x0^3 - g*x0*x2^2 - x2^3"], 3, 2),
        # level 1 over F_25 and F_49, whose level modulus is not the base's
        (5, 2, ["x1^2*x2 - x0^3 - g*x0*x2^2 - x2^3"], 3, 1),
        (7, 2, ["x0^2 + g*x1^2 - x2^2"], 3, 1),
    ],
)
def test_chart_counts_identical(ckernel, p, e, gens, nvars, n):
    f = make_field(p, e)
    ideal = HomIdeal([poly_from_str(g, nvars, f) for g in gens])
    ext = level_field(p, e * n)
    tabs_py = kernel_py.build_tables(ext.p, ext.e, ext.modulus)
    tabs_c = ckernel.build_tables(ext.p, ext.e, ext.modulus)
    tmask = trace_mask(ext.p, tabs_py)
    image = embedding(f, tabs_py)
    for chart in compile_charts(ideal):
        if chart.nfree == 0 or not chart.gen_terms:
            continue
        hi = 1 if chart.nprefix == 0 else ext.q
        terms = chart.terms_over(image)
        a = kernel_py.count_chart(ext.q, ext.p, tmask, *tabs_py, terms, chart.nprefix, 1, 0, hi)
        b = ckernel.count_chart(ext.q, ext.p, tmask, *tabs_c, terms, chart.nprefix, 1, 0, hi)
        assert a == b == brute_force_chart_count(ideal, n, chart.chart)


def test_two_generators_agree_through_the_slice_gcd(ckernel, monkeypatch):
    # a complete intersection of two quadrics in P^3 over F_3 whose
    # generators both hold x3, the slice variable: slices then carry two
    # polynomials, whose gcd the kernels take before counting roots (with
    # x2 and x3 swapped, the first generator holds no x3 and the loop never
    # runs)
    f = make_field(3, 1)
    ideal = HomIdeal([poly_from_str(g, 4, f)
                      for g in ["x0^2 + x1^2 - x3^2", "x0*x1 - x2^2 + x2*x3"]])
    gcds, pgcd = [], kernel_py._Ops.pgcd
    monkeypatch.setattr(kernel_py._Ops, "pgcd",
                        lambda ops, a, b: gcds.append(1) or pgcd(ops, a, b))
    counts = []
    for impl in (kernel_py, ckernel):
        monkeypatch.setattr(kernel, "_impl", impl)
        counts.append([count_points(ideal, n) for n in (1, 2, 3)])
    assert counts == [[8, 18, 56]] * 2
    assert gcds
    assert brute_force_projective_count(ideal, 1) == 8


def test_split_ranges_sum_to_whole(ckernel):
    f = make_field(3, 1)
    ideal = HomIdeal([poly_from_str("x0*x3 - x1*x2", 4, f)])
    ext = level_field(3, 2)
    charts = compile_charts(ideal)
    tabs = ckernel.build_tables(ext.p, ext.e, ext.modulus)
    chart = charts[0]
    args = (ext.q, ext.p, 0, *tabs, chart.gen_terms, chart.nprefix, 1)
    whole = ckernel.count_chart(*args, 0, ext.q)
    mid = ext.q // 2
    a = ckernel.count_chart(*args, 0, mid)
    b = ckernel.count_chart(*args, mid, ext.q)
    assert a + b == whole


def test_threads_agree_on_compiled_backend(ckernel, monkeypatch):
    monkeypatch.setattr(kernel, "_impl", ckernel)
    f = make_field(2, 1)
    # no two blocks of variables, so the charts count it on worker threads
    ideal = HomIdeal([poly_from_str("x0^2*x1 + x1^2*x2 + x2^2*x3 + x3^2*x0", 4, f)])
    assert separable_blocks(ideal) == []
    lone = count_points(ideal, 4, threads=1)
    assert count_points(ideal, 4, threads=2) == lone
    monkeypatch.setattr(kernel, "_impl", kernel_py)
    assert count_points(ideal, 4, threads=1) == lone


def test_max_deg_is_the_compiled_kernels_bound():
    # count_points refuses chart exponents the compiled kernel would reject
    source = Path(kernel.__file__).with_name("_ckernel.c").read_text()
    assert f"#define MAX_DEG (1LL << {kernel.MAX_DEG.bit_length() - 1})" in source


def test_rejects_buffers_that_are_not_int64(ckernel):
    exp, log, zech = ckernel.build_tables(2, 2, make_field(2, 2).modulus)
    terms = [array("q", [1, 1, 0])]
    ref = kernel_py.count_chart(4, 2, 0, exp, log, zech, terms, 1, 1, 0, 4)
    assert ckernel.count_chart(4, 2, 0, exp, log, zech, terms, 1, 1, 0, 4) == ref
    with pytest.raises(TypeError):
        ckernel.count_chart(4, 2, 0, array("i", exp), log, zech, terms, 1, 1, 0, 4)
    with pytest.raises(TypeError):
        ckernel.count_chart(4, 2, 0, exp, log, zech, [[1, 1, 0]], 1, 1, 0, 4)


@pytest.mark.parametrize("backend", ["pure", "c"])
def test_count_chart_accepts_only_gcd_slices(ckernel, backend):
    # the ninth of the eleven positional arguments selects the slice method,
    # and gcd root counting (1) is the only one left: 0 must not quietly
    # count by gcd
    mod = kernel_py if backend == "pure" else ckernel
    exp, log, zech = mod.build_tables(2, 2, make_field(2, 2).modulus)
    terms = [array("q", [1, 1, 0])]
    assert mod.count_chart(4, 2, 0, exp, log, zech, terms, 1, 1, 0, 4) == 4
    for method in (0, 2, -1):
        with pytest.raises(ValueError):
            mod.count_chart(4, 2, 0, exp, log, zech, terms, 1, method, 0, 4)
    with pytest.raises(TypeError):
        mod.count_chart(4, 2, 0, exp, log, zech, terms, 1, 0, 4)
