"""Exponents of any size through `cli.main`, in process.

The Hilbert numerator behind every dimension, degree and smoothness verdict
pivots on powers of variables, so its cost does not grow with an exponent;
on the charts, an exponent of x1..xN of 2^24 or more (`kernel.MAX_DEG`) is
refused with exit 3 before any chart is compiled or table built, on both
kernels.  Each request runs under a 2 s alarm, as in
`tests/test_input_fuzz.py`, and must allocate under 64 MB at its
`tracemalloc` peak.  Requests that reach a Hilbert numerator keep their
exponents at or below 10^7.
"""

import json
import signal
import time
import tracemalloc

import pytest

from picardkit.cli import main
from picardkit.counting import kernel, kernel_py

CASE_SECONDS = 2.0
PEAK_BYTES = 64 << 20
BIG_BUDGET = str(2**60)


def _timeout(signum, frame):
    raise TimeoutError(f"a request ran longer than {CASE_SECONDS} s")


def _spec(tmp_path, ambient, generators):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"field": {"p": 2}, "ambientDim": ambient,
                                "generators": generators,
                                "flags": {"budget": 2, "assumeSmooth": True}}))
    return str(path)


def _request(argv, tmp_path, capsys):
    """(exit code, stdout, stderr) of one request, checked against the
    documented exit codes, the alarm and the allocation peak."""
    argv = [*argv, "--cache-dir", str(tmp_path / "cache"), "--threads", "1", "--no-timing"]
    previous = signal.signal(signal.SIGALRM, _timeout)
    tracemalloc.start()
    started = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        code = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    assert code in (0, 2, 3, 4, 5), f"{argv}\nexit {code}: {err}"
    assert elapsed < CASE_SECONDS, f"{argv} took {elapsed:.2f} s"
    assert peak < PEAK_BYTES, f"{argv} allocated {peak} bytes"
    return code, out, err


def test_zeta_of_a_point_of_degree_ten_million(tmp_path, capsys):
    code, out, _ = _request(["zeta", _spec(tmp_path, 1, ["x0^10000000"])], tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["variety"] == {"ambientDim": 1, "degree": 10**7, "dim": 0}
    assert report["counts"]["values"] == [1, 1, 1, 1]


def test_zeta_of_a_line_with_an_embedded_point(tmp_path, capsys):
    spec = _spec(tmp_path, 2, ["x0^2000*x1", "x1^2"])
    code, out, _ = _request(["zeta", spec], tmp_path, capsys)
    assert code == 0
    report = json.loads(out)
    assert report["variety"] == {"ambientDim": 2, "degree": 1, "dim": 1}
    assert report["counts"]["values"] == [3, 5, 9, 17]


@pytest.mark.parametrize(
    "generator,budget",
    [("x1^10000000000000000000", []), ("x0^16777216 + x1^16777216", ["--eval-budget", BIG_BUDGET])],
)
def test_chart_exponent_past_the_kernels_exits_3_on_both_backends(
    ckernel, monkeypatch, tmp_path, capsys, generator, budget
):
    def refuse(*args):
        pytest.fail("a chart was compiled or a table built for an exponent past MAX_DEG")

    monkeypatch.setattr("picardkit.counting.compile_charts", refuse)
    monkeypatch.setattr("picardkit.counting.field_tables", refuse)
    spec = _spec(tmp_path, 1, [generator])
    errs = []
    for backend in (ckernel, kernel_py):
        monkeypatch.setattr(kernel, "_impl", backend)
        code, out, err = _request(["count", spec, "-n", "1", *budget], tmp_path, capsys)
        assert (code, out) == (3, ""), err
        errs.append(err)
    assert errs[0] == errs[1]
    assert f"at least {kernel.MAX_DEG}" in errs[0]


def test_classes_count_a_separable_form_past_the_chart_limit(ckernel, monkeypatch, tmp_path,
                                                             capsys):
    # over F_{2^n}, n | 24, x^(2^24) = x: the form is the line x0 + x1 + x2
    spec = _spec(tmp_path, 2, ["x0^16777216 + x1^16777216 + x2^16777216"])
    for backend in (ckernel, kernel_py):
        monkeypatch.setattr(kernel, "_impl", backend)
        code, out, err = _request(["count", spec, "-n", "2"], tmp_path / backend.BACKEND, capsys)
        assert code == 0, err
        assert json.loads(out)["counts"]["values"] == [3, 5]
