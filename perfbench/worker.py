"""One workload in a fresh interpreter; prints one JSON object on stdout.

Started by run.py, never imported by it, so each workload's peak
resident memory is its own.  Set-up time runs from the first statement
below, before numpy or hexspan is imported, until the workload's inputs
are built.

The host-speed probe of hostspeed.py runs through the set-up and, in
untraced mode, through the passes, so that both are also reported at
the reference core speed.  Untraced mode runs passes until ``--seconds``
is spent, at least MIN_PASSES of them.  Traced mode runs one untraced
pass without the probe, then traced passes until the time is spent, at
least MIN_PASSES of them so that their work counts can be compared; a
traced pass whose counts differ from the first one's counts as a failed
operation.
"""

import time

T0, C0 = time.perf_counter(), time.process_time()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from hostspeed import SpeedProbe  # noqa: E402

PROBE = SpeedProbe()
PROBE.run()
SETUP_MARK = PROBE.start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

# single-threaded numpy/BLAS, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy  # noqa: E402
import workloads  # noqa: E402  (imports hexspan)
from layertrace import Tracer  # noqa: E402

MIN_PASSES = 2


def timed_pass(run_pass, inputs, probe: SpeedProbe | None = None) -> dict:
    mark = probe.start() if probe is not None else 0
    w0, c0 = time.perf_counter(), time.process_time()
    outcomes = run_pass(inputs)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    failed = [name for name, ok in outcomes if not ok]
    times = {"wall_s": wall, "cpu_s": cpu} if probe is None else probe.finish(mark, wall, cpu)
    return {**times, "attempted": len(outcomes),
            "failed": len(failed), "failed_ops": failed[:10]}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "untraced", "traced"), required=True)
    args = ap.parse_args()

    setup, run_pass = workloads.WORKLOADS[args.workload]
    inputs = setup(args.seed, workloads.load_pins())
    setup_times = PROBE.finish(SETUP_MARK, time.perf_counter() - T0, time.process_time() - C0)
    PROBE.stop()
    out = {"setup_s": setup_times["wall_s"], "setup_ref_s": setup_times["ref_s"]}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    start = time.perf_counter()

    def more(passes: list) -> bool:
        """Another pass if the minimum is not met or one more fits in the time."""
        if len(passes) < MIN_PASSES:
            return True
        left = args.seconds - (time.perf_counter() - start)
        return statistics.median(p["wall_s"] for p in passes) <= left

    if args.mode == "untraced":
        passes = []
        with PROBE:
            while more(passes):
                passes.append(timed_pass(run_pass, inputs, PROBE))
        out["passes"] = passes
    else:
        untraced = [timed_pass(run_pass, inputs)]
        traced, layers = [], []
        while more(traced):
            with Tracer() as tracer:
                traced.append(timed_pass(run_pass, inputs))
            layers.append(tracer.summary())
        # every value but the times is an exact count of work done
        counts = [{k: v for k, v in s.items() if not k.endswith("_s")} for s in layers]
        out.update(untraced=untraced, passes=traced, layers=layers,
                   counts_repeat=[c == counts[0] for c in counts[1:]])

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
