"""Spans around gpd's public functions, recorded from outside the package.

Each target function is wrapped at every gpd module attribute bound to it,
so calls made inside the package (``gpd.report.enumerate_monoid``,
``gpd.census.canonical_form``) are timed as well as calls from the
harness, and no source file is edited.  A target that no longer exists is
reported as absent, never as zero, and never fails the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

# layer (gpd module) -> functions wrapped in it
TARGETS = {
    "groupoid": ("make_groupoid",),
    "endo": ("enumerate_monoid", "law_scan", "involution_star", "star"),
    "structure": (
        "ideal_check", "group_of_units", "units_crosscheck", "dense_submonoid",
        "special_elements", "left_zero_criterion", "antihom_classification",
        "subgroupoid_semigroup", "range_domain_criterion", "intersection_analysis",
    ),
    "operators": ("representation_audit",),
    "report": ("full_report",),
    "census": (
        "enumerate_groupoids", "canonical_form", "groupoid_from_canonical",
        "principal_converse_search", "intersection_size",
    ),
    "io": ("load_groupoid", "dump_bytes"),
    "cli": ("main", "cmd_verify", "cmd_monoid", "cmd_rep"),
}


# wrapped function -> (counter names, values read off its result or arguments)
COUNTERS = {
    "endo.enumerate_monoid": (("endo.monoid_elements",), lambda res, a, k: (len(res),)),
    "endo.law_scan": (("endo.closure_conditions", "endo.assoc_triples"),
                      lambda res, a, k: (res.closure_conditions, res.assoc_triples)),
    # computed, not measured: three |S| x |S| batches of matrix products per audit
    "operators.representation_audit": (("operators.matrix_products",),
                                       lambda res, a, k: (3 * len(a[0] if a else k["ts"]) ** 2,)),
    "census.enumerate_groupoids": (("census.labelled_found", "census.classes"),
                                   lambda res, a, k: (res.total_found, res.count)),
    "io.dump_bytes": (("io.bytes_out",), lambda res, a, k: (len(res),)),
}

COUNT_NAMES = frozenset(name for names, _ in COUNTERS.values() for name in names)


def is_count(metric):
    """Counts repeat exactly for one commit and seed; times do not."""
    return metric.endswith("_calls") or metric in COUNT_NAMES


# metric -> span names whose self time (span minus its wrapped children) it sums
SELF_TIMES = {
    "report.self_s": ("report.full_report",),
    "cli.self_s": tuple(f"cli.{fn}" for fn in TARGETS["cli"]),
    # the children of enumerate_groupoids are canonical forms, validation and
    # from-canonical rebuilds, so its self time is the backtracking search
    "census.backtrack_s": ("census.enumerate_groupoids",),
}


def metric_prefix(qual):
    """``cli.cmd_verify`` is reported as ``cli.verify``."""
    layer, fn = qual.split(".", 1)
    return f"{layer}.{fn.removeprefix('cmd_')}"


class Tracer:
    """Keeps spans in memory while installed; ``pass_no`` tags each span."""

    def __init__(self):
        self.spans = []          # [id, parent, name, start, end, pass_no]
        self.pass_no = 0
        self.counts = defaultdict(Counter)   # pass_no -> counter name -> amount
        self.absent = set()      # functions or counters that no longer exist
        self._stack = []
        self._patches = []

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "gpd" or name.startswith("gpd."))]
        for layer, names in TARGETS.items():
            home = sys.modules.get(f"gpd.{layer}")
            for fn in names:
                qual = f"{layer}.{fn}"
                orig = getattr(home, fn, None)
                if not callable(orig):
                    self.absent.add(qual)
                    self.absent.update(COUNTERS.get(qual, ((), None))[0])
                    continue
                wrapper = self._wrap(qual, orig)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        while self._patches:
            mod, attr, orig = self._patches.pop()
            setattr(mod, attr, orig)

    def _open(self, name):
        span = [len(self.spans), self._stack[-1] if self._stack else None,
                name, time.perf_counter(), None, self.pass_no]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qual, fn):
        names, read = COUNTERS.get(qual, ((), None))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if read is not None:
                try:
                    values = read(result, args, kwargs)
                except (AttributeError, KeyError, TypeError, IndexError):
                    self.absent.update(names)     # a renamed result field
                else:
                    self.counts[self.pass_no].update(dict(zip(names, values)))
            return result

        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A harness-level span around one operation."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def pass_metrics(self, pass_no):
        """Per-layer numbers of one traced pass, derived from its spans.

        Absent functions and counters are left out, so they read as absent.
        """
        spans = [s for s in self.spans if s[5] == pass_no]
        child_time = Counter()
        for s in spans:
            if s[1] is not None:
                child_time[s[1]] += s[4] - s[3]
        incl, calls, own = Counter(), Counter(), Counter()
        for s in spans:
            incl[s[2]] += s[4] - s[3]
            calls[s[2]] += 1
            own[s[2]] += s[4] - s[3] - child_time[s[0]]

        out = {}
        for layer, names in TARGETS.items():
            for fn in names:
                qual = f"{layer}.{fn}"
                if qual not in self.absent:
                    out[f"{metric_prefix(qual)}_s"] = incl[qual]
                    out[f"{metric_prefix(qual)}_calls"] = calls[qual]
        for metric, names in SELF_TIMES.items():
            if not all(n in self.absent for n in names):
                out[metric] = sum(own[n] for n in names)
        for name in COUNT_NAMES - self.absent:
            out[name] = self.counts[pass_no][name]
        return out

    def write_jsonl(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"header": header}) + "\n")
            for sid, parent, name, start, end, pass_no in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "pass": pass_no}) + "\n")


def median_metrics(per_pass):
    """Median over passes of each metric present in every pass."""
    if not per_pass:
        return {}
    keys = set.intersection(*(set(m) for m in per_pass))
    return {k: statistics.median(m[k] for m in per_pass) for k in keys}
