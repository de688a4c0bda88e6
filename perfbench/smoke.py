#!/usr/bin/env python3
"""Smoke test of the benchmark itself; takes about three minutes.

Run from the root of a checkout:

    python3 perfbench/smoke.py

It runs every workload at minimal length and requires a correct result
with every end-to-end metric; runs ``partial`` traced and requires every
per-layer metric; shows that a wrapped function that has disappeared is
reported as absent; and shows that a planted wrong expectation makes
operations fail (``failed / attempted`` above 0) without stopping the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import expect  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

ROOT = os.getcwd()
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def require_metrics(result, wanted, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, \
        (label, result)
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], (label, m["name"], got)
        assert isinstance(got["value"], (int, float)), (label, m["name"], got)


def check_absent_reporting():
    """A target that a later change renames away is absent, not zero."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gpd.cli  # noqa: F401
    import gpd.corpus

    saved = dict(tracing.TARGETS)
    tracing.TARGETS["endo"] = saved["endo"] + ("renamed_away",)
    try:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.pass_no = 1
            gpd.endo.law_scan(gpd.corpus.cyclic(2), "S")
        finally:
            tracer.uninstall()
    finally:
        tracing.TARGETS.clear()
        tracing.TARGETS.update(saved)
    metrics = tracer.pass_metrics(1)
    assert "endo.renamed_away" in tracer.absent
    assert "endo.renamed_away_s" not in metrics
    assert metrics["endo.law_scan_calls"] == 1 and metrics["endo.closure_conditions"] > 0
    assert gpd.endo.law_scan.__name__ == "law_scan" and not tracer._patches


def planted_run(workload):
    """Run one pass in-process with a wrong expectation planted."""
    real_size, real_groups = expect.predicted_size, dict(expect.GROUP_COUNTS)
    expect.predicted_size = lambda *a: real_size(*a) + 1
    expect.GROUP_COUNTS[7] = 2          # claims a second group of order 7
    out_dir = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
    args = argparse.Namespace(root=ROOT, workload=workload, seed=7, seconds=0, trace=0,
                              setup_only=False)
    try:
        return worker.run(args, out_dir, out_dir)
    finally:
        expect.predicted_size = real_size
        expect.GROUP_COUNTS.clear()
        expect.GROUP_COUNTS.update(real_groups)
        shutil.rmtree(out_dir, ignore_errors=True)


def main():
    for workload in WORKLOADS:
        require_metrics(bench(workload, 0), SPEC["end_to_end"], workload)
        print(f"ok   {workload}: correct, every end-to-end metric reported")
    require_metrics(bench("partial", 1), SPEC["per_layer"], "partial traced")
    print("ok   partial traced: every per-layer metric reported")
    check_absent_reporting()
    print("ok   a vanished function is reported absent")
    normal_ops = {"corpus": 11, "wide": 1, "census": 2, "partial": 10}
    for workload in WORKLOADS:
        res = planted_run(workload)
        assert res["attempted"] == normal_ops[workload], res
        assert res["failed"] / res["attempted"] > 0, res
        print(f"ok   {workload}: planted wrong expectation gives fail_frac "
              f"{res['failed'] / res['attempted']:.2f}, run completed")
    assert workloads.CHECK_IDS == tuple(m["name"][len("report.check."):-2]
                                        for m in SPEC["per_layer"]
                                        if m["name"].startswith("report.check."))
    return 0


if __name__ == "__main__":
    sys.exit(main())
