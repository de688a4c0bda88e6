#!/usr/bin/env python3
"""The gpd benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``corpus``,
``wide``, ``census`` and ``partial``.  Each runs in one fresh process with
one thread, as a closed loop: the next call starts when the previous one
returns.  Set-up is repeated in separate fresh processes and reported as
the median.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics, and spans are written to
``.bench_out/trace-<workload>-seed<seed>.jsonl``.  A metric whose program
function no longer exists is reported with value null and ``"absent": true``.

The line before the result records the seed, machine and versions.  The
exit code is nonzero, with no result line, if the checkout holds no gpd
sources or the worker does not finish.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("corpus", "wide", "census", "partial")
SETUP_RUNS = 9            # set-up-only processes besides the measuring one
DEADLINE_S = 170          # the whole run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker(args, root, result_path, extra, timeout, env):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--result", result_path] + extra
    # worker output goes to stderr: the last stdout line is reserved for the result
    proc = subprocess.run(cmd, stdout=sys.stderr, env=env, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gpd", "__init__.py")):
        print("perfbench: no gpd sources under src/gpd in the current directory",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    os.makedirs(os.path.join(root, ".bench_out"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(root, ".bench_out")) as tmp:
        def remaining():
            return max(1.0, DEADLINE_S - (time.monotonic() - start))

        try:
            setups = []
            if not args.trace:
                for i in range(SETUP_RUNS):
                    setups.append(_worker(args, root, os.path.join(tmp, f"setup{i}.json"),
                                          ["--setup-only"], remaining(), env)["setup_s"])
            res = _worker(args, root, os.path.join(tmp, "result.json"), [], remaining(), env)
        except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as err:
            print(f"perfbench: run did not complete: {err}", file=sys.stderr)
            return 1

    if args.trace:
        wanted, values = spec["per_layer"], res["layers"]
    else:
        wanted = spec["end_to_end"]
        values = {"setup_s": statistics.median(setups + [res["setup_s"]]),
                  "wall_s": res["wall_s"], "peak_rss_mb": res["peak_rss_mb"]}
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        else:
            metrics[m["name"]] = {"value": None, "unit": m["unit"], "absent": True}

    attempted, failed = res["attempted"], res["failed"]
    print(f"perfbench: workload={args.workload} passes={res['passes']} "
          f"fail_frac={failed / max(1, attempted):.4g} env={json.dumps(res['env'])}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
