"""Golden reports: the sha256 of `--no-timing` stdout and the exit code of
requests on both reconstruction routes, pinned so that a change to how the
zeta function is found cannot change a report without failing here.

Middle route: the Fermat cubic surface over F_2, y^2 z + y z^2 = x^3 over
F_4, the Klein quartic, the cubic threefold over F_2 and the quartic K3 over
F_2 (the last two read their counts from a cache filled through
`CountCache.put`); the cubic threefold again from an empty cache, and the
Fermat quartic over F_3, both counted over cyclotomic classes.  Pade route: the elliptic curve over F_5 with budget 4
and P^2 over F_3 with budget 3.

`rank` requests pin their exit code, stderr and checkpoint bytes as well:
the cubic surface with its 27 lines (halted), the quadric x0 x3 - x1 x2
over F_3 with one ruling (running, then run again over the checkpoint it
wrote, which changes nothing) and with both rulings at p = 2 (a lower bound
above the upper one)."""

import json
from hashlib import sha256

import pytest

from picardkit.cli import _variety_from_spec, main
from picardkit.counting import CountCache, variety_hash


def _spec(p, e, ambient, generators, **flags):
    return {"field": {"p": p, "e": e}, "ambientDim": ambient, "generators": generators,
            "flags": flags}


FERMAT_CUBIC = _spec(2, 1, 3, ["x0^3 + x1^3 + x2^3 + x3^3"], hypersurfaceDegree=3)
ELLIPTIC_F4 = _spec(2, 2, 2, ["x1^2*x2 + x1*x2^2 + x0^3"], hypersurfaceDegree=3)
KLEIN = _spec(2, 1, 2, ["x0^3*x1 + x1^3*x2 + x2^3*x0"], hypersurfaceDegree=4)
CUBIC_THREEFOLD = _spec(2, 1, 4, ["x0^3 + x1^3 + x2^3 + x3^3 + x4^3"], hypersurfaceDegree=3)
FERMAT_QUARTIC_F3 = _spec(3, 1, 3, ["x0^4 + x1^4 + x2^4 + x3^4"], hypersurfaceDegree=4)
K3 = _spec(2, 1, 3, ["x0^4 + x1^4 + x2^4 + x3^4 + x0*x1^3 + x0^3*x2 + x1*x3^3"],
           hypersurfaceDegree=4)
ELLIPTIC_F5 = _spec(5, 1, 2, ["x1^2*x2 - x0^3 - x0*x2^2 - x2^3"], hypersurfaceDegree=3)
P2_F3 = _spec(3, 1, 2, [], budget=3, assumeSmooth=True)

CUBIC_THREEFOLD_COUNTS = [15, 165, 585, 3729, 33825, 271425]
K3_COUNTS = [5, 9, 89, 289, 1185, 4545, 16385, 66049, 263681, 1051649]

# name: (spec, counts put in the cache first, argv after the spec, exit code,
# sha256 of stdout)
GOLDEN = {
    "cubic-surface-zeta": (FERMAT_CUBIC, [], ["zeta"], 0,
        "61b2fe7722fada5bfd247ace309e1537a4a1f7ae9c1387f0484f5d8c4497be9f"),
    "cubic-surface-betti": (FERMAT_CUBIC, [], ["betti"], 0,
        "74e8ca9caad8f9e86e77bbd3f68f1f903d1550e5514225dfb0220f0a8e90a7ff"),
    "cubic-surface-tate": (FERMAT_CUBIC, [], ["tate-bound", "-p", "1"], 0,
        "bb53839232410eecf7ca5e72d6a39f250298475bc373657b4f92a4cd8c97b860"),
    "elliptic-f4-betti": (ELLIPTIC_F4, [], ["betti"], 0,
        "0e472f845dc4e3a36e291dfb71e27991917de14d0e8a0fe30e7c343d8293f40b"),
    "klein-tate": (KLEIN, [], ["tate-bound", "-p", "1"], 0,
        "d225118714cde5a83da2388ae10cdd286611cb4dfae06927f9ad517fc394ae4a"),
    "cubic-threefold-zeta": (CUBIC_THREEFOLD, CUBIC_THREEFOLD_COUNTS, ["zeta"], 0,
        "50f898eeba8f5b38121428d7f3dec59aded63861903dbf44f94ace54d6b6452a"),
    # counted over cyclotomic classes from an empty cache: the same report
    "cubic-threefold-zeta-cold": (CUBIC_THREEFOLD, [], ["zeta"], 0,
        "50f898eeba8f5b38121428d7f3dec59aded63861903dbf44f94ace54d6b6452a"),
    # ten levels, up to F_{3^10}, over classes; P_2 = (1 - 3T)^12 (1 + 3T)^10
    "fermat-quartic-f3-zeta": (FERMAT_QUARTIC_F3, [], ["zeta"], 0,
        "35fbcc753568036785979b73965040dc9fc1e3ab0611ad144ef6335b6efaef33"),
    "k3-betti": (K3, K3_COUNTS, ["betti"], 0,
        "84cf32dbbba2baf2571d8ae7597ac1f33106f0d1f0c4eb8752159da8ce18c2c8"),
    "k3-tate": (K3, K3_COUNTS, ["tate-bound", "-p", "1"], 0,
        "d29b40840ab33d1a87c886692772ae52024c38bc83c0c3ba5ebcf48a26881990"),
    "elliptic-f5-pade": (ELLIPTIC_F5, [], ["zeta", "--budget", "4"], 0,
        "a05ece0faca29213465c0d92713428ec35a2f41affd4d114b47ae59635e1e7ba"),
    "p2-f3-pade": (P2_F3, [], ["zeta"], 0,
        "85dd085db893dcb7ba31cbfbfe3b7ea60b56a8ede8fdfc25432455d5489c4962"),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_report(tmp_path, capsys, name):
    spec, counts, argv, code, digest = GOLDEN[name]
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    cache_path = str(tmp_path / "counts.ndjson")
    cache = CountCache(cache_path)
    key = variety_hash(_variety_from_spec(spec)[0])
    for n, count in enumerate(counts, start=1):
        cache.put(key, n, count)
    got = main([argv[0], str(spec_path), *argv[1:], "--cache-dir", cache_path, "--no-timing"])
    out = capsys.readouterr().out
    assert (got, sha256(out.encode()).hexdigest()) == (code, digest), out


# The diagonal cubic surface over F_2 with its 27 lines over F_4: row i holds
# the intersection numbers of line 13 + i with lines 0..12 (the 14/13 block
# of criterion 4), one digit per entry.
LINES27 = ["1000100010101", "0100011000011", "0100011001001", "0011000100100",
           "1000100010010", "1000010101000", "0010101000101", "0101000010010",
           "0101000010101", "1000010100010", "0010101001000", "0010101000010",
           "0101000011000", "1000010100101"]
QUADRIC_F3 = _spec(3, 1, 3, ["x0*x3 - x1*x2"], hypersurfaceDegree=2)


def _cycles(pairings):
    return {"basisCycles": [f"Y{j}" for j in range(len(pairings[0]))], "pairings": pairings,
            "action": {"generators": [], "relations": []}}


CUBIC_LINES = _cycles([[int(c) for c in row] for row in LINES27])
RULING = _cycles([[1, 0]])
BOTH_RULINGS = _cycles([[1, 0], [0, 1]])

# name: (spec, cycles, argv after the cycles, runs, exit code, sha256 of stdout,
# stderr, sha256 of the checkpoint file or None when none is written); every
# run of a case shares its checkpoint and count cache, and the last is pinned
GOLDEN_RANK = {
    "cubic-lines-halted": (FERMAT_CUBIC, CUBIC_LINES, [], 1, 0,
        "5a34dcf82debd3ec0a0340a536f9cc3489b57e1bcf1ac99b5bd29cbb137fd064", "",
        "a6640e834c3ab0e5ca073537e2ebdce10c89fda8891d72f9e6d9d6bc2a02e3f6"),
    "quadric-running": (QUADRIC_F3, RULING, [], 1, 4,
        "1b589032fb125f90ac3b27ca58d130fdc57701f3ae2f02ea6685a66a0d846b34", "",
        "41ccb6addd5b679163527cff1dc23e99e1fbe386f39ca6ec639f42e7439e39c1"),
    "quadric-resumed": (QUADRIC_F3, RULING, [], 2, 4,
        "1b589032fb125f90ac3b27ca58d130fdc57701f3ae2f02ea6685a66a0d846b34", "",
        "41ccb6addd5b679163527cff1dc23e99e1fbe386f39ca6ec639f42e7439e39c1"),
    "quadric-overshoot": (QUADRIC_F3, BOTH_RULINGS, ["-p", "2"], 1, 5,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "picardkit: lower bound 2 exceeds the upper bound 1\n", None),
}


@pytest.mark.parametrize("name", list(GOLDEN_RANK))
def test_golden_rank(tmp_path, capsys, name):
    spec, cycles, argv, runs, code, digest, err, ckpt_digest = GOLDEN_RANK[name]
    spec_path, cycles_path = tmp_path / "spec.json", tmp_path / "cycles.json"
    spec_path.write_text(json.dumps(spec))
    cycles_path.write_text(json.dumps(cycles))
    ckpt = tmp_path / "state.json"
    for _ in range(runs):
        got = main(["rank", "--zeta", str(spec_path), "--cycles", str(cycles_path), *argv,
                    "--checkpoint", str(ckpt), "--cache-dir", str(tmp_path / "counts.ndjson"),
                    "--no-timing"])
        out, got_err = capsys.readouterr()
    saved = ckpt.read_bytes() if ckpt.exists() else None
    assert (got, sha256(out.encode()).hexdigest(), got_err) == (code, digest, err), out
    assert (saved and sha256(saved).hexdigest()) == ckpt_digest, saved
