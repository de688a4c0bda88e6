#!/usr/bin/env python3
"""Print what each check id of ``gpd verify`` costs on one groupoid.

The first line after the header times the two Cayley tables
(``enumerate_monoid`` on both sides).  The next four split each side into
its translation certificate (``cert``: the flat (x, v, w) triple kernel,
``endo._certificate``) and its table fill (``fill``: the product columns
gathered from the triples and summed into the Cayley table).  Every check
id then runs on a fresh report context that holds copies of those tables
with no cached facts, so a check pays for each fact it reads except the
tables.  The last lines
time the export layer on each side: ``io.dump_bytes`` of the ``gpd
monoid`` payload and of the ``gpd rep`` payload, each dict built inside the
timed call.  Figures are milliseconds, the best of three runs; nothing is
written, so nothing here reaches report bytes.

The groupoid is a ``standard_corpus()`` name or a groupoid file:

  PYTHONPATH=src python scripts/check_costs.py C4
  PYTHONPATH=src python -m gpd.cli build cyclic 5 -o c5.json
  PYTHONPATH=src python scripts/check_costs.py c5.json

Exits 2 with one ``error:`` line on stderr, as ``gpd`` does, when the
groupoid cannot be read or its tables exceed the caps.
"""

import argparse
import dataclasses
import sys
import time

from gpd import io
from gpd.corpus import standard_corpus
from gpd.endo import (DEFAULT_MONOID_CAP, SIDES, _cayley_table, _certificate, _Kernel,
                      _product_columns, enumerate_monoid)
from gpd.errors import GpdError
from gpd.report import _CHECKS, CHECK_IDS, _Ctx

REPEATS = 3


def best_ms(run, prepare=lambda: None):
    """The least time of ``REPEATS`` calls of ``run(prepare())``, in ms."""
    best = float("inf")
    for _ in range(REPEATS):
        arg = prepare()
        t0 = time.perf_counter()
        run(arg)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("groupoid", help="a standard_corpus() name or a groupoid JSON file")
    args = ap.parse_args()
    try:
        named = dict(standard_corpus())
        g = named[args.groupoid] if args.groupoid in named else io.load_groupoid(args.groupoid)
        tables = [enumerate_monoid(g, side) for side in SIDES]
    except GpdError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return 2

    def fresh_ctx():
        ctx = _Ctx(g, DEFAULT_MONOID_CAP)
        for side, t in zip(ctx.sides, tables):
            side.table = dataclasses.replace(t)  # same arrays, no cached facts
        return ctx

    print(f"{g.name or args.groupoid}: |S| = {len(tables[0])}, |S'| = {len(tables[1])}, "
          f"best of {REPEATS}, ms")
    print(f"{'tables':<10}{best_ms(lambda _: [enumerate_monoid(g, side) for side in SIDES]):10.2f}")
    for t in tables:
        cert = _certificate(_Kernel(g), t.side)
        ms = best_ms(lambda side: _certificate(_Kernel(g), side), lambda: t.side)
        print(f"{'cert ' + t.side:<10}{ms:10.2f}")
        ms = best_ms(lambda c: _cayley_table(_product_columns(c, len(t)), c.pos, c.strides, len(t)), lambda: cert)
        print(f"{'fill ' + t.side:<10}{ms:10.2f}")
    total = 0.0
    for cid in CHECK_IDS:
        ms = best_ms(_CHECKS[cid], fresh_ctx)
        total += ms
        print(f"{cid:<10}{ms:10.2f}")
    print(f"{'checks':<10}{total:10.2f}")
    for name, to_dict in (("monoid", io.monoid_to_dict), ("rep", io.rep_to_dict)):
        for t in tables:
            ms = best_ms(lambda t: io.dump_bytes(to_dict(t)), lambda: t)
            print(f"{name + ' ' + t.side:<10}{ms:10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
