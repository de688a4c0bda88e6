#!/usr/bin/env python3
"""Print the exit code and the sha256 of stdout and stderr for a fixed sweep
of ``gpd`` commands, one line per run, so two trees compare with one diff.

The sweep runs ``gpd.cli.main`` in-process on:
  - ``verify`` (all checks and ``--props CLOSING``, JSON and text) on the
    nine table-sized corpus members, C3 + C3, C5 and the census classes
    of order <= 6;
  - ``monoid`` and ``rep`` on both sides, JSON and text, on the same
    inputs;
  - ``search --order 6``, JSON and text;
  - and prints ``law_scan(pair(3), side)`` on both sides.

Usage:
  PYTHONPATH=src python scripts/bytes_digest.py > change.txt
  PYTHONPATH=<other tree>/src python scripts/bytes_digest.py > parent.txt
  diff parent.txt change.txt
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from gpd import corpus
from gpd.census import enumerate_groupoids
from gpd.cli import main as gpd_main
from gpd.endo import law_scan
from gpd.groupoid import disjoint_union
from gpd.io import save_groupoid


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def run(label: str, argv: list[str]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gpd_main(argv)
    print(f"{label} exit={code} out={digest(out.getvalue())} err={digest(err.getvalue())}")


def inputs():
    named = [(name, g) for name, g in corpus.standard_corpus() if name != "pair(3)"]
    named.append(("C3+C3", disjoint_union(corpus.cyclic(3), corpus.cyclic(3), "C3+C3")))
    named.append(("C5", corpus.cyclic(5)))
    for order in range(1, 7):
        named += [(g.name, g) for g in enumerate_groupoids(order).representatives]
    return named


def main():
    fmts = (("json", []), ("text", ["--format", "text"]))
    with tempfile.TemporaryDirectory() as tmp:
        for k, (name, g) in enumerate(inputs()):
            path = os.path.join(tmp, f"g{k}.json")
            save_groupoid(path, g)
            for fmt, flag in fmts:
                run(f"verify {name} {fmt}", ["verify", path, *flag])
                run(f"verify {name} CLOSING {fmt}", ["verify", path, "--props", "CLOSING", *flag])
                for cmd in ("monoid", "rep"):
                    for side in ("S", "S'"):
                        run(f"{cmd} {name} {side} {fmt}", [cmd, path, "--side", side, *flag])
    for fmt, flag in fmts:
        run(f"search 6 {fmt}", ["search", "--order", "6", *flag])
    pair3 = corpus.pair_groupoid(3)
    for side in ("S", "S'"):
        print(f"law_scan pair(3) {side} {law_scan(pair3, side)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
