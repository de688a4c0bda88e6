"""The ``gpd`` command line tool.

Subcommands: validate, build, monoid, verify, rep, search.  Every command
is deterministic: identical inputs produce byte-identical outputs.  Exit
codes: 0 on success / all checks passing, 1 on a mathematical failure
(an axiom, a verified law or search's forward implication fails on the
given data), 2 on operational failure (I/O, malformed input, exceeded or
non-positive caps, usage).  Each subcommand takes only the options it
reads: -o for all, --format for all but build, --cap-monoid for monoid,
verify and rep, --cap-order for search.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io
from .census import MAX_CENSUS_ORDER, census_through, converse_probe
from .corpus import cyclic
from .endo import DEFAULT_MONOID_CAP, certified_members, enumerate_monoid
from .errors import MathError, OperationalError
from .groupoid import (
    disjoint_union,
    is_principal,
    pair_groupoid,
    transformation_groupoid,
    unit_groupoid,
)
from .report import CHECK_IDS, full_report

EXIT_OK = 0
EXIT_MATH = 1
EXIT_OPERATIONAL = 2


def _emit(args, payload: dict, text_lines):
    if args.format == "json":
        data = io.dump_bytes(payload)
        if args.output:
            with open(args.output, "wb") as fh:
                fh.write(data)
        else:
            sys.stdout.write(data.decode("utf-8"))
    else:
        text = "\n".join(text_lines) + "\n"
        if args.output:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def cmd_validate(args) -> int:
    try:
        g = io.load_groupoid(args.path)
    except MathError as err:
        payload = {"valid": False, "error": str(err)}
        _emit(args, payload, [f"INVALID: {err}"])
        return EXIT_MATH
    payload = {
        "valid": True,
        "name": g.name,
        "size": g.size,
        "units": list(g.units),
        "principal": is_principal(g),
    }
    _emit(args, payload, [f"VALID: {g.name or 'groupoid'} "
                          f"({g.size} elements, {len(g.units)} units)"])
    return EXIT_OK


# kind -> (number of parameters, the groupoid built from them)
_BUILDS = {
    "cyclic": (1, lambda n: cyclic(int(n))),
    "pair": (1, lambda n: pair_groupoid(int(n))),
    "union": (2, lambda a, b: disjoint_union(io.load_groupoid(a), io.load_groupoid(b))),
    "transform": (1, lambda path: transformation_groupoid(io.load_action(path))),
    "unitset": (1, lambda n: unit_groupoid(int(n))),
}


def cmd_build(args) -> int:
    if not args.output:
        raise OperationalError("build needs -o/--output")
    arity, build = _BUILDS[args.kind]
    try:
        if len(args.params) != arity:
            raise ValueError(f"takes {arity} parameter{'s' * (arity > 1)}, got {len(args.params)}")
        g = build(*args.params)
    except ValueError as exc:
        raise OperationalError(f"bad parameters for build {args.kind}: {exc}") from None
    io.save_groupoid(args.output, g)
    return EXIT_OK


def cmd_monoid(args) -> int:
    g = io.load_groupoid(args.path)
    t = enumerate_monoid(g, args.side, args.cap_monoid)
    payload = io.monoid_to_dict(t)
    lines = [f"{t.side}-monoid of {g.name or 'groupoid'}: {len(t)} elements, "
             f"identity index {t.identity}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_verify(args) -> int:
    g = io.load_groupoid(args.path)
    checks = None
    if args.props != "all":
        checks = tuple(p.strip() for p in args.props.split(",") if p.strip())
        if not checks:
            raise OperationalError(f"--props {args.props!r} names no check id")
    report = full_report(g, checks, args.cap_monoid)
    payload = report.to_dict()
    lines = [f"{g.name or 'groupoid'}: |S| = {report.monoid_size}"]
    for cid, verdict in report.verdicts.items():
        if verdict.passed is None:
            lines.append(f"  {cid}: SKIPPED ({verdict.witness})")
        else:
            lines.append(f"  {cid}: {'PASS' if verdict.passed else 'FAIL'}")
    _emit(args, payload, lines)
    if checks is not None and any(v.passed is None for v in report.verdicts.values()):
        return EXIT_OPERATIONAL
    return EXIT_OK if report.all_passed else EXIT_MATH


def cmd_rep(args) -> int:
    g = io.load_groupoid(args.path)
    t = certified_members(g, args.side, args.cap_monoid)  # no Cayley table
    payload = io.rep_to_dict(t)
    lines = [f"{len(t)} operators of size {g.size}x{g.size}"]
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_search(args) -> int:
    censuses = census_through(args.order, args.cap_order)
    report = converse_probe(args.order, censuses)
    if args.census_dir:
        import os

        os.makedirs(args.census_dir, exist_ok=True)
        for census in censuses:
            io.write_json(os.path.join(args.census_dir, f"census-{census.order}.json"),
                          io.census_manifest(census))
            for g in census.representatives:
                io.save_groupoid(os.path.join(args.census_dir, f"{g.name}.json"), g)
    payload = io.probe_to_dict(report)
    lines = [f"census through order {report.max_order}: "
             f"forward implication {'holds' if report.forward_holds else 'FAILS'}"]
    for row in report.rows:
        mark = " CANDIDATE" if row.candidate else ""
        lines.append(f"  order {row.order} {row.name}: principal={row.principal} "
                     f"|intersection|={row.intersection_size}{mark}")
    if report.candidates:
        lines.append(f"counterexample candidates: {', '.join(report.candidates)}")
    else:
        lines.append(f"no counterexample up to order {report.max_order}")
    _emit(args, payload, lines)
    return EXIT_OK if report.forward_holds else EXIT_MATH


@functools.cache  # built once per process; parse_args leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gpd", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def option(*flags, **kwargs):  # a parent parser for the commands that read this option
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **kwargs)
        return parent

    cap_monoid = option("--cap-monoid", type=int, default=DEFAULT_MONOID_CAP,
                        help="largest monoid to enumerate (default 1000000)")
    cap_order = option("--cap-order", type=int, default=MAX_CENSUS_ORDER,
                       help=f"largest census order (default {MAX_CENSUS_ORDER})")
    fmt = option("--format", choices=("json", "text"), default="json")
    output = option("-o", "--output", default=None, help="write the report here")

    p = sub.add_parser("validate", parents=[fmt, output], help="check a groupoid file")
    p.add_argument("path")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("build", parents=[output], help="construct a groupoid file")
    p.add_argument("kind", choices=tuple(_BUILDS))
    p.add_argument("params", nargs="*")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("monoid", parents=[cap_monoid, fmt, output], help="enumerate one side")
    p.add_argument("path")
    p.add_argument("--side", choices=("S", "S'"), default="S")
    p.set_defaults(fn=cmd_monoid)

    p = sub.add_parser("verify", parents=[cap_monoid, fmt, output], help="run the check suite")
    p.add_argument("path")
    p.add_argument("--props", default="all",
                   help="comma-separated check ids (default: all); "
                        f"known ids: {', '.join(CHECK_IDS)}")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("rep", parents=[cap_monoid, fmt, output], help="export operator matrices")
    p.add_argument("path")
    p.add_argument("--side", choices=("S", "S'"), default="S")
    p.set_defaults(fn=cmd_rep)

    p = sub.add_parser("search", parents=[cap_order, fmt, output], help="census and converse probe")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--census-dir", default=None,
                   help="also write every census groupoid file plus a manifest per order")
    p.set_defaults(fn=cmd_search)
    return top


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OPERATIONAL if exc.code else EXIT_OK
    try:
        if min(getattr(args, "cap_monoid", 1), getattr(args, "cap_order", 1)) < 1:
            raise OperationalError("caps must be positive")
        return args.fn(args)
    except MathError as err:
        print(f"mathematical failure: {err}", file=sys.stderr)
        return EXIT_MATH
    except OperationalError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_OPERATIONAL


if __name__ == "__main__":
    sys.exit(main())
