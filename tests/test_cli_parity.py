"""The table-driven argv parser against the argparse parser it replaced.

`reference_parser` is that argparse parser, kept here as the reference.
Every argv that README.md, the tests and perfbench/workloads.py use, and
the `--opt=value` spelling of each, must parse to the same attributes under
both; each usage error must exit 2 under both."""

import argparse

import pytest

from picardkit import cli
from picardkit.cli import main, parse_args


def _add_common(p):
    p.add_argument("--cache-dir", help="directory (or file) for the point-count cache")
    p.add_argument("--threads", type=int, default=1, help="worker threads for counting")
    p.add_argument("--budget", type=int, help="override the Betti-sum budget B")
    p.add_argument("--eval-budget", type=int, help="evaluation work budget per count")
    p.add_argument("--no-timing", action="store_true", help="omit timing")
    p.add_argument("--progress", action="store_true", help="heartbeat lines on stderr")


def reference_parser():
    parser = argparse.ArgumentParser(prog="picardkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("zeta", cli.cmd_zeta), ("betti", cli.cmd_betti)]:
        p = sub.add_parser(name)
        p.add_argument("spec")
        _add_common(p)
        p.set_defaults(fn=fn)
    p = sub.add_parser("count")
    p.add_argument("spec")
    p.add_argument("-n", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cli.cmd_count)
    p = sub.add_parser("tate-bound")
    p.add_argument("spec")
    p.add_argument("-p", type=int, default=1)
    _add_common(p)
    p.set_defaults(fn=cli.cmd_betti)
    p = sub.add_parser("rank")
    p.add_argument("--zeta", dest="spec", required=True)
    p.add_argument("--cycles", required=True)
    p.add_argument("-p", type=int, default=1)
    p.add_argument("--checkpoint")
    _add_common(p)
    p.set_defaults(fn=cli.cmd_rank)
    p = sub.add_parser("torsion")
    p.add_argument("table")
    p.add_argument("-i", "--degree", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cli.cmd_torsion)
    p = sub.add_parser("galois-rank")
    p.add_argument("family")
    _add_common(p)
    p.set_defaults(fn=cli.cmd_galois_rank)
    p = sub.add_parser("dovetail")
    p.add_argument("--demo", action="store_true")
    p.add_argument("--rounds", type=int, default=10)
    p.add_argument("--trace-file")
    _add_common(p)
    p.set_defaults(fn=cli.cmd_dovetail)
    return parser


# README.md's examples, the argv the tests pass to cli.main, and the
# benchmark's requests with the tail perfbench/run.py appends
VALID = [
    "zeta variety.json",
    "count variety.json -n 4",
    "betti variety.json",
    "tate-bound variety.json -p 1",
    "rank --zeta variety.json --cycles cycles.json --checkpoint state.json",
    "torsion sizetable.json -i 2",
    "galois-rank family.json",
    "dovetail --demo --trace-file -",
    "zeta p2.json --no-timing",
    "zeta p2.json --no-timing --cache-dir cache",
    "count quadric.json -n 3 --no-timing",
    "count quadric.json -n 2 --cache-dir cache --no-timing",
    "count quadric.json -n 3 --threads 4 --no-timing",
    "count big.json -n 33 --cache-dir cache",
    "zeta spec.json --eval-budget 100000 --no-timing",
    "zeta k3.json --no-timing --eval-budget 137438953472 --cache-dir cache",
    "zeta conic.json --no-timing --cache-dir cache --budget -3",
    "zeta conic.json --no-timing --cache-dir cache --budget 0",
    "betti ell.json --cache-dir cache --eval-budget 1 --no-timing",
    "tate-bound quadric.json -p 1 --no-timing",
    "tate-bound cubic.json -p -1 --cache-dir cache --eval-budget 1 --no-timing",
    "tate-bound k3.json -p 1 --cache-dir counts.ndjson --eval-budget 1 --no-timing",
    "rank --zeta quadric.json --cycles cycles.json --no-timing",
    "rank --zeta q.json --cycles c.json --checkpoint ck.json --no-timing -p 2",
    "rank --zeta q.json --cycles c.json --checkpoint ck.json --eval-budget 1",
    "torsion table.json -i 2 --no-timing",
    "torsion table.json --degree 2 --no-timing",
    "galois-rank family.json --no-timing",
    "dovetail --demo --rounds 8 --no-timing",
    "dovetail --demo --rounds 6 --trace-file -",
    "dovetail --demo --no-timing --progress",
    "betti in/k3.json --cache-dir c.ndjson --threads 1 --eval-budget 1",
    "tate-bound in/k3.json -p 1 --cache-dir c.ndjson --threads 1 --eval-budget 1",
    "rank --zeta in/cubic-f2.json --cycles in/lines27.json --cache-dir c.ndjson --threads 1",
    "torsion in/sizes.json -i 3 --cache-dir c.ndjson --threads 1",
    "galois-rank in/family.json --cache-dir c.ndjson --threads 1",
    "dovetail --demo --cache-dir c.ndjson --threads 1",
    "betti in/elliptic-f4.json --cache-dir c.ndjson --threads 1",
]


def _with_equals(argv):
    """argv with every `--long value` pair written as `--long=value`."""
    out, words = [], iter(argv)
    for word in words:
        if word in ("--demo", "--no-timing", "--progress") or not word.startswith("--"):
            out.append(word)
        else:
            out.append(f"{word}={next(words)}")
    return out


@pytest.mark.parametrize("line", VALID)
def test_table_parser_matches_argparse(line):
    for argv in (line.split(), _with_equals(line.split())):
        assert vars(parse_args(argv)) == vars(reference_parser().parse_args(argv)), argv


INVALID = [
    "",
    "frobnicate x.json",
    "zeta x.json --frobnicate",
    "zeta x.json --no-timing=1",
    "count x.json -n",
    "count x.json -n four",
    "zeta x.json --threads 1.5",
    "zeta x.json --cache-dir",
    "zeta x.json --cache-dir --no-timing",
    "count x.json",
    "rank --zeta x.json",
    "torsion t.json -i",
    "zeta",
    "zeta a.json b.json",
    "dovetail --demo extra",
    "dovetail --rounds x",
]


@pytest.mark.parametrize("line", INVALID)
def test_usage_errors_exit_2_under_both_parsers(line, capsys):
    argv = line.split()
    with pytest.raises(SystemExit) as exc:
        reference_parser().parse_args(argv)
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("picardkit: ")
    assert "usage: picardkit" in err


@pytest.mark.parametrize("line", ["count x.json -n4", "zeta x.json --cache d", "zeta -- x.json"])
def test_dropped_argv_forms_are_usage_errors(line, capsys):
    # argparse took attached short values, unique-prefix abbreviations and
    # `--` before positionals; the table parser does not
    reference_parser().parse_args(line.split())
    assert main(line.split()) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("argv", [["--help"], ["-h"]] + [[name, "-h"] for name in cli.COMMANDS])
def test_help_lists_every_table_entry(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: picardkit")
    assert "exit codes: 0 ok" in out
    name = argv[0] if argv[0] in cli.COMMANDS else None
    entries = cli.COMMANDS[name][3] + cli.COMMON if name else []
    for word in [flags.split()[0] for flags, *_ in entries] or list(cli.COMMANDS):
        assert word in out
