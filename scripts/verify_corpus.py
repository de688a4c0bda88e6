#!/usr/bin/env python3
"""Run the whole check suite over the standard corpus and print a verdict grid.

The pair(3) member has 19683 monoid elements, too many for a stored Cayley
table, so it gets the bulk law scan instead of the table-based checks.  The
scan builds no member array: its associativity comes from the L3.7
translation certificate, which evaluates each distinct condition once
(81 per side) and so covers every (f, g, x) and all |S|^3 triples exactly.

Usage:
  python scripts/verify_corpus.py
  python scripts/verify_corpus.py -o corpus_report.json
"""

import argparse
import sys
import time

from gpd.corpus import standard_corpus
from gpd.endo import law_scan
from gpd.io import write_json
from gpd.report import CHECK_IDS, full_report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-o", "--output", default=None)
    args = ap.parse_args()

    results = {}
    all_ok = True
    t0 = time.time()
    for name, g in standard_corpus():
        if name == "pair(3)":
            scans = [law_scan(g, side) for side in ("S", "S'")]
            ok = all(s.identity_ok and s.closure_ok and s.assoc_ok for s in scans)
            results[name] = {"mode": "law-scan", "pass": ok,
                             "monoid_size": scans[0].size,
                             "assoc": scans[0].assoc_mode,
                             "assoc_triples": scans[0].assoc_triples}
            print(f"{name:<12} law-scan {'PASS' if ok else 'FAIL'} "
                  f"(|S| = {scans[0].size}, associativity by {scans[0].assoc_mode} "
                  f"over {scans[0].assoc_triples} triples)")
        else:
            report = full_report(g)
            ok = report.all_passed
            results[name] = report.to_dict()
            failed = report.failed()
            line = "all checks PASS" if ok else f"FAILED: {', '.join(failed)}"
            print(f"{name:<12} |S| = {report.monoid_size:<6} {line}")
        all_ok &= ok
    print(f"\n{len(CHECK_IDS)} checks per groupoid, {time.time() - t0:.1f}s total")

    if args.output:
        write_json(args.output, results)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
