#!/usr/bin/env python3
"""hexspan benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload periodic-search --seed 1 --seconds 20 --trace 0

Run from the repository root.  The workloads (see workloads.py) are
periodic-search, reuse-battery, window-exact and oracle-sweep.  Every
workload runs in fresh interpreters started here: one that sets up and
runs timed passes, with a few that only set up before and after it, so
that the set-up samples (their median is ``setup_s``) span the run.
Pass and set-up times are reported at the reference core speed of
hostspeed.py; the measured seconds are on the record line.  Every output
is checked against pinned answers; a wrong or crashed operation makes
the run incorrect and reports no timing.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end ones (medians over the passes), with
``--trace 1`` the per-layer ones from layertrace.py.  The line before it
records the environment, each pass's wall and CPU seconds and probe-loop
time, and the error rate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layertrace import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ("periodic-search", "reuse-battery", "window-exact", "oracle-sweep")
SETUP_ONLY_RUNS = 4      # before and again after the measuring worker, plus
                         # its own set-up: 9 samples
TIME_LIMIT_S = 170.0     # the whole run, every child included


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model(),
    }


def summarize(out: dict, setup_samples: list[float], traced: bool) -> dict:
    """The result line for one worker's output.  A run with any failed
    operation is incorrect and carries no metrics."""
    passes = out["passes"] + out.get("untraced", [])
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    if traced:
        attempted += len(out["counts_repeat"])
        failed += out["counts_repeat"].count(False)
    result = {"correct": failed == 0 and attempted > 0,
              "attempted": attempted, "failed": failed, "metrics": {}}
    if not result["correct"]:
        return result
    med = statistics.median
    if traced:
        layers = out["layers"]
        layers_med = {name: med(layer[name] for layer in layers) for name in layers[0]}
        layers_med["trace_overhead_s"] = (med(p["wall_s"] for p in out["passes"])
                                          - med(p["wall_s"] for p in out["untraced"]))
        metrics = {name: {"value": layers_med[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "wall_ref_s": {"value": med(p["ref_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": med(setup_samples), "unit": "s"},
        }
    result["metrics"] = metrics
    return result


def run_worker(args, mode: str, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "hexspan" / "__init__.py").is_file():
        print(f"error: no hexspan sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [run_worker(args, "setup", deadline) for _ in range(SETUP_ONLY_RUNS)]
        out = run_worker(args, "traced" if args.trace else "untraced", deadline)
        setups += [run_worker(args, "setup", deadline) for _ in range(SETUP_ONLY_RUNS)]
    except subprocess.TimeoutExpired:
        print(f"error: {args.workload} did not finish within {TIME_LIMIT_S:.0f} s",
              file=sys.stderr)
        return 1
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(out)
    setup_samples = [s["setup_ref_s"] for s in setups]

    result = summarize(out, setup_samples, bool(args.trace))
    passes = out["passes"] + out.get("untraced", [])
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": [s["setup_s"] for s in setups], "setup_ref_s": setup_samples,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_cpu_s": [p["cpu_s"] for p in passes],
        "pass_loop_s": [p["loop_s"] for p in passes if "loop_s" in p],
        "error_rate": result["failed"] / result["attempted"] if result["attempted"] else 1.0,
        "failed_ops": sorted({op for p in passes for op in p["failed_ops"]}),
        "environment": {**environment(), "numpy": out["numpy"]},
    }
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
