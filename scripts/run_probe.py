#!/usr/bin/env python3
"""Run the census and converse probe up to a given order and print the table.

Usage:
  python scripts/run_probe.py --max-order 5
  python scripts/run_probe.py --max-order 6 -o probe.json

Exits 1 when the forward implication fails, and 2 with one ``error:`` line
on stderr for an order outside the census (below 1 or above its cap) or one
``i/o error:`` line when the report cannot be written, as ``gpd search`` does.
"""

import argparse
import sys
import time

from gpd.census import principal_converse_search
from gpd.errors import OperationalError
from gpd.io import probe_to_dict, write_json


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-order", type=int, default=5)
    ap.add_argument("-o", "--output", default=None, help="write the JSON report here")
    args = ap.parse_args()

    t0 = time.time()
    try:
        report = principal_converse_search(args.max_order)
    except OperationalError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    elapsed = time.time() - t0

    header = "intersect"
    print(f"{'order':>5}  {'groupoid':<14} {'principal':>9} {header:>9}  candidate")
    for row in report.rows:
        print(f"{row.order:>5}  {row.name:<14} {str(row.principal):>9} "
              f"{row.intersection_size:>9}  {row.candidate}")
    print(f"\nforward implication (principal => intersection {{j}}): "
          f"{'holds' if report.forward_holds else 'FAILS'}")
    if report.candidates:
        print(f"counterexample candidates: {', '.join(report.candidates)}")
    else:
        print(f"no counterexample up to order {report.max_order}")
    print(f"({elapsed:.2f}s)")

    if args.output:
        try:
            write_json(args.output, probe_to_dict(report))
        except OSError as err:
            print(f"i/o error: {err}", file=sys.stderr)
            return 2
    return 0 if report.forward_holds else 1


if __name__ == "__main__":
    sys.exit(main())
