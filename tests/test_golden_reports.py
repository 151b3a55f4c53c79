"""Golden reports: the sha256 of `--no-timing` stdout and the exit code of
requests on both reconstruction routes, pinned so that a change to how the
zeta function is found cannot change a report without failing here.

Middle route: the Fermat cubic surface over F_2, y^2 z + y z^2 = x^3 over
F_4, the Klein quartic, the cubic threefold over F_2 and the quartic K3 over
F_2 (the last two read their counts from a cache filled through
`CountCache.put`).  Pade route: the elliptic curve over F_5 with budget 4
and P^2 over F_3 with budget 3."""

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
