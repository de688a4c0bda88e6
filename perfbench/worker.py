"""One benchmark process: set up a workload, run timed passes, check them.

Started by run.py in a fresh process, so that ``peak_rss_mb`` belongs to
this workload alone; it writes its numbers as JSON to ``--result``.

    python3 perfbench/worker.py --root . --workload corpus --seed 1 \
        --seconds 10 --trace 0 --result out.json [--setup-only]

Importing gpd is part of set-up, so nothing here imports numpy or gpd
before the set-up clock starts.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MAX_PROBLEM_LINES = 20


class Ledger:
    """Counts attempted and failed operations; compares repeated output bytes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        self._printed = 0

    def fail(self, label, why):
        self.failed += 1
        if self._printed < MAX_PROBLEM_LINES:
            print(f"perfbench: FAILED {label}: {why}", file=sys.stderr)
            self._printed += 1

    def run(self, label, call, check):
        """Run one operation; return the seconds spent inside gpd."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.fail(label, traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            data, problems = check(result)
        except Exception:
            self.fail(label, "output unreadable: " + traceback.format_exc(limit=2)
                      .strip().replace("\n", " | "))
            return elapsed
        digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(label, digest)
        if digest != first:
            problems.append("output bytes differ from the first repetition")
        if problems:
            self.fail(label, "; ".join(problems))
        return elapsed


def timed_passes(ledger, ops, seconds, tracer=None):
    """Run whole passes until the next one would end after ``seconds``.

    At least one pass runs.  Returns the time spent in gpd per pass.
    """
    walls = []
    start = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.pass_no += 1
        wall = 0.0
        for label, call, check in ops:
            if tracer is None:
                wall += ledger.run(label, call, check)
            else:
                with tracer.span(f"op:{label}"):
                    wall += ledger.run(label, call, check)
        walls.append(wall)
        if time.perf_counter() - start + walls[-1] > seconds:
            return walls


def check_cost_probe(gpd, ledger, seed):
    """Extra wall time of ``full_report(g, (id,))`` over ``full_report(g, ())``.

    One repetition on C4 and on V4, with the empty report timed before and
    after the selected ones; the value per id is the median of its samples.
    """
    known = set(getattr(gpd.report, "CHECK_IDS", ()))
    samples = {cid: [] for cid in workloads.CHECK_IDS if cid in known}

    def timed(inp, checks):
        label = f"full_report {inp.name} {','.join(checks) or '()'}"

        def check(report):
            bad = [c for c, v in report.verdicts.items() if v.passed is not True]
            return b"", [f"checks not passed: {bad}"] if bad else []

        return ledger.run(label, lambda: gpd.report.full_report(inp.groupoid, checks), check)

    for inp in workloads.probe_inputs(gpd, seed):
        gc.collect()
        before = timed(inp, ())
        times = {cid: timed(inp, (cid,)) for cid in samples}
        base = (before + timed(inp, ())) / 2
        for cid, t in times.items():
            samples[cid].append(t - base)
    return {f"report.check.{cid}_s": statistics.median(v) for cid, v in samples.items()}


def source_digest(root):
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment(root, seed):
    """What a result needs to be reproduced: seed, machine, versions, commit."""
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_digest": source_digest(root),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def compare_record(ledger, path, outputs, counts):
    """Outputs and counts must repeat across runs of the same source and seed."""
    record = {"outputs": {}, "counts": {}}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    for kind, now in (("outputs", outputs), ("counts", counts)):
        before = record.setdefault(kind, {})
        for key, value in now.items():
            if key in before and before[key] != value:
                ledger.fail(key, f"{kind[:-1]} {value!r} differs from an earlier run's "
                                 f"{before[key]!r} with the same seed")
            before.setdefault(key, value)
    tmp = path + f".{os.getpid()}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, sort_keys=True, indent=1)
    os.replace(tmp, path)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = os.path.join(args.root, ".bench_out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        result = run(args, out_dir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def run(args, out_dir, workdir):
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(args.root, "src"))
    import gpd
    import gpd.cli  # noqa: F401  (the CLI and the modules it loads)
    import gpd.corpus  # noqa: F401
    inputs = workloads.setup(gpd, args.workload, args.seed, workdir)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        return {"setup_s": setup_s}

    ledger = Ledger()
    ops = workloads.operations(gpd, args.workload, inputs, workdir)
    result = {"setup_s": setup_s, "env": environment(args.root, args.seed)}
    counts = {}
    if args.trace:
        # Traced passes come first, so the first one starts from the state
        # every run starts from: its counts are the ones compared between runs
        # (a later pass may legitimately do less work, e.g. behind a cache).
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_passes(ledger, ops, args.seconds, tracer)
        finally:
            tracer.uninstall()
        walls = timed_passes(ledger, ops, args.seconds)
        per_pass = [tracer.pass_metrics(p) for p in range(1, len(traced) + 1)]
        counts = {k: v for k, v in per_pass[0].items() if tracing.is_count(k)}
        layers = {**tracing.median_metrics(per_pass), **counts}
        layers.update(check_cost_probe(gpd, ledger, args.seed))
        layers["trace.overhead_s"] = statistics.median(traced) - statistics.median(walls)
        result["layers"] = layers
        tracer.write_jsonl(
            os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl"),
            {"workload": args.workload, "passes": len(traced), **result["env"]})
    else:
        walls = timed_passes(ledger, ops, args.seconds)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["wall_s"] = statistics.median(walls)
    result["passes"] = len(walls)

    digest = result["env"]["source_digest"]
    records = os.path.join(out_dir, "records")
    os.makedirs(records, exist_ok=True)
    compare_record(ledger,
                   os.path.join(records, f"{args.workload}-seed{args.seed}-{digest[:16]}.json"),
                   ledger.digests, counts)
    result["attempted"] = ledger.attempted
    result["failed"] = ledger.failed
    return result


if __name__ == "__main__":
    main()
