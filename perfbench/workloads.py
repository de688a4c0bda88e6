"""The four workloads: inputs built from a seed, and checked operations.

An operation is one CLI command (``gpd.cli.main`` called in-process) or
one library call.  Each is a call into gpd, which the harness times, and a
check of its result, which returns the bytes produced and a list of
problems.  Every program function is looked up on its module at call time,
so the tracer's wrappers see the call.

The seed picks a random relabelling of each input groupoid's elements.
Every checked verdict, |S| and class count is invariant under relabelling,
so the expectations do not depend on the seed; the output bytes do, and
they must repeat exactly for one seed.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random

import expect

UNDEFINED = -1

# The 18 check ids of the paper's claims; a verify must report each as passed.
CHECK_IDS = (
    "P3.2", "P3.3.1", "P3.3.2", "P3.3.3", "P3.3.4", "P3.3.5", "P3.3.6",
    "P3.3.7", "P3.3.8", "L3.7", "P3.8", "P3.9", "P3.10", "P3.11",
    "P4.1", "P4.2", "C4.3", "CLOSING",
)
SIDES = ("S", "S'")
PROBE_ORDER = 6
CENSUS_ORDER = 7


@dataclasses.dataclass
class Input:
    """A relabelled groupoid, its raw table (for expectations) and its file."""

    name: str
    groupoid: object
    product: list
    inverse: list
    path: str | None = None


def relabel(gpd, g, seed):
    """Rebuild ``g`` with its elements permuted by a seeded permutation."""
    n = g.size
    sigma = list(range(n))
    random.Random(f"{seed}/{g.name}").shuffle(sigma)
    product = [[UNDEFINED] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            v = g.product[x][y]
            if v != UNDEFINED:
                product[sigma[x]][sigma[y]] = sigma[v]
    inverse = [0] * n
    for x in range(n):
        inverse[sigma[x]] = sigma[g.inverse[x]]
    h = gpd.groupoid.make_groupoid(n, product, inverse, g.name)
    return Input(g.name, h, product, inverse)


def _saved(gpd, inp, workdir, index):
    inp.path = os.path.join(workdir, f"in-{index}.json")
    gpd.io.save_groupoid(inp.path, inp.groupoid)
    return inp


def setup(gpd, workload, seed, workdir):
    """Build, relabel and write the inputs of one workload."""
    corpus = gpd.corpus
    if workload == "corpus":
        inputs = [relabel(gpd, g, seed) for _, g in corpus.standard_corpus()]
        return [inp if inp.name == "pair(3)" else _saved(gpd, inp, workdir, i)
                for i, inp in enumerate(inputs)]
    if workload == "wide":
        g = gpd.groupoid.disjoint_union(corpus.cyclic(3), corpus.cyclic(3), "C3+C3")
        return [_saved(gpd, relabel(gpd, g, seed), workdir, 0)]
    if workload == "census":
        return []
    if workload == "partial":
        return [_saved(gpd, relabel(gpd, g, seed), workdir, i)
                for i, g in enumerate((corpus.cyclic(4), corpus.klein_four()))]
    raise ValueError(f"unknown workload {workload!r}")


def probe_inputs(gpd, seed):
    """C4 and V4, relabelled: the groupoids of the per-check cost probe."""
    return [relabel(gpd, g, seed) for g in (gpd.corpus.cyclic(4), gpd.corpus.klein_four())]


# ---------------------------------------------------------------------------
# operations


def operations(gpd, workload, inputs, workdir):
    """The ordered (label, call, check) triples of one pass.

    ``call()`` runs the program and returns its result; ``check(result)``
    returns (output bytes, problems).
    """
    ops = []
    if workload in ("corpus", "wide"):
        for inp in inputs:
            if inp.path is None:
                for side in SIDES:
                    ops.append(_law_scan_op(gpd, inp, side))
            else:
                ops.append(_verify_op(gpd, inp, workdir, None))
    elif workload == "census":
        ops.append(_probe_op(gpd))
        ops.append(_census_op(gpd))
    elif workload == "partial":
        for inp in inputs:
            for side in SIDES:
                ops.append(_cli_op(gpd, inp, workdir, "monoid", side, _check_monoid))
                ops.append(_cli_op(gpd, inp, workdir, "rep", side, _check_rep))
            ops.append(_verify_op(gpd, inp, workdir, "CLOSING"))
    return ops


def _cli_op(gpd, inp, workdir, command, side, check):
    out = os.path.join(workdir, f"out-{command}-{inp.name}-{side}.json")
    argv = [command, inp.path, "--side", side, "-o", out]

    def call():
        if os.path.exists(out):
            os.remove(out)
        return gpd.cli.main(argv)

    def checked(rc):
        data = _read(out)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if data is None:
            return b"", problems + ["no output file"]
        return data, problems + check(json.loads(data), inp, side)

    return f"{command} {inp.name} {side}", call, checked


def _verify_op(gpd, inp, workdir, props):
    out = os.path.join(workdir, f"out-verify-{inp.name}.json")
    argv = ["verify", inp.path, "-o", out] + (["--props", props] if props else [])
    wanted = set(props.split(",")) if props else set(CHECK_IDS)

    def call():
        if os.path.exists(out):
            os.remove(out)
        return gpd.cli.main(argv)

    def checked(rc):
        data = _read(out)
        problems = [] if rc == 0 else [f"exit code {rc}"]
        if data is None:
            return b"", problems + ["no output file"]
        report = json.loads(data)
        checks = report.get("checks", {})
        missing = sorted(wanted - set(checks))
        if missing:
            problems.append(f"checks not run: {missing}")
        if props and set(checks) != wanted:
            problems.append(f"unselected checks ran: {sorted(set(checks) - wanted)}")
        not_passed = sorted(c for c, v in checks.items() if v.get("pass") is not True)
        if not_passed:
            problems.append(f"checks failed or skipped: {not_passed}")
        problems += _size_problems(report.get("monoid_size"), inp, SIDES)
        return data, problems

    label = f"verify {inp.name}" + (f" --props {props}" if props else "")
    return label, call, checked


def _law_scan_op(gpd, inp, side):
    def call():
        return gpd.endo.law_scan(inp.groupoid, side)

    def checked(scan):
        problems = []
        for law in ("identity_ok", "closure_ok", "assoc_ok"):
            if getattr(scan, law) is not True:
                problems.append(f"{law} is {getattr(scan, law)}")
        problems += _size_problems(scan.size, inp, (side,))
        data = json.dumps(dataclasses.asdict(scan), sort_keys=True, default=str)
        return data.encode(), problems

    return f"law_scan {inp.name} {side}", call, checked


def _probe_op(gpd):
    expected = expect.census_counts(PROBE_ORDER)

    def call():
        return gpd.census.principal_converse_search(PROBE_ORDER)

    def checked(report):
        rows = [[r.order, r.name, r.principal, r.intersection_size, r.candidate]
                for r in report.rows]
        problems = []
        per_order = {n: sum(1 for r in rows if r[0] == n) for n in expected}
        if per_order != expected:
            problems.append(f"probe rows per order {per_order}, expected {expected}")
        if report.forward_holds is not True:
            problems.append("forward implication reported as failing")
        if report.candidates or any(r[4] for r in rows):
            problems.append(f"unexpected candidates {list(report.candidates)}")
        data = json.dumps({"rows": rows, "forward": report.forward_holds,
                           "candidates": list(report.candidates)}, sort_keys=True)
        return data.encode(), problems

    return f"principal_converse_search {PROBE_ORDER}", call, checked


def _census_op(gpd):
    expected = expect.census_counts(CENSUS_ORDER)[CENSUS_ORDER]

    def call():
        return gpd.census.enumerate_groupoids(CENSUS_ORDER, max_order=CENSUS_ORDER)

    def checked(census):
        problems = []
        if census.count != expected:
            problems.append(f"{census.count} classes of order {CENSUS_ORDER}, "
                            f"expected {expected}")
        data = json.dumps({
            "count": census.count,
            "total_found": census.total_found,
            "representatives": [[g.name, g.product, g.inverse]
                                for g in census.representatives],
        }, sort_keys=True)
        return data.encode(), problems

    return f"enumerate_groupoids {CENSUS_ORDER}", call, checked


# ---------------------------------------------------------------------------
# checks on exported files


def _check_monoid(payload, inp, side):
    problems = []
    elements = payload.get("elements", [])
    if payload.get("side") != side:
        problems.append(f"side {payload.get('side')!r}, expected {side!r}")
    problems += _size_problems(len(elements), inp, (side,))
    ident = payload.get("identity")
    if not (isinstance(ident, int) and 0 <= ident < len(elements)) or \
            elements[ident] != expect.identity_map(inp.product, inp.inverse, side):
        problems.append(f"identity index {ident} is not the identity map")
    op = payload.get("op", [])
    if len(op) != len(elements) or any(len(row) != len(elements) for row in op):
        problems.append("Cayley table shape does not match the element count")
    return problems


def _check_rep(payload, inp, side):
    operators = payload.get("operators", [])
    problems = _size_problems(len(operators), inp, (side,))
    n = len(inp.inverse)
    for entry in operators:
        matrix = entry.get("matrix", [])
        if len(matrix) != n or any(len(row) != n or sum(row) != 1 or set(row) - {0, 1}
                                   for row in matrix):
            problems.append(f"operator of {entry.get('fn')} is not a 0/1 map matrix")
            break
    return problems


def _size_problems(size, inp, sides):
    return [f"|{side}| = {size}, predicted {want}"
            for side in sides
            if size != (want := expect.predicted_size(inp.product, inp.inverse, side))]


def _read(path):
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None
