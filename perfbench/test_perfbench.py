"""Self-tests of the benchmark: layers still fire, pins still bite.

    python3 -m pytest perfbench -q

The layer test runs one traced pass of every workload (about half a
minute), so a rename or move in ``hexspan`` that silently drops a span
fails here instead of shrinking the trace.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import hexspan.coloring as coloring  # noqa: E402
import hexspan.solver as solver  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import SpeedProbe  # noqa: E402
from layertrace import Tracer  # noqa: E402


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_names_match_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in layertrace.PER_LAYER]
    out = {"passes": [{"wall_s": 1.0, "cpu_s": 1.0, "ref_s": 1.0,
                       "attempted": 1, "failed": 0}], "peak_rss_mb": 1.0}
    metrics = run.summarize(out, [0.1], traced=False)["metrics"]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, v["unit"]) for name, v in metrics.items()]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_expected_layer_fires(name):
    setup, run_pass = workloads.WORKLOADS[name]
    inputs = setup(0, workloads.load_pins())
    with Tracer() as tracer:
        outcomes = run_pass(inputs)
    assert [op for op, ok in outcomes if not ok] == []
    summary = tracer.summary()
    assert set(summary) | {"trace_overhead_s"} == {m[0] for m in layertrace.PER_LAYER}
    silent = [m for m in workloads.EXPECTED_NONZERO[name] if not summary[m] > 0]
    assert silent == []


def test_wrappers_sit_on_the_callers_names_and_come_off():
    original = solver.greedy_clique
    with Tracer():
        assert coloring.greedy_clique is not original
        assert coloring.greedy_clique is solver.greedy_clique
    assert coloring.greedy_clique is original and solver.greedy_clique is original


def test_self_times_partition_the_root_spans():
    with Tracer() as tracer:
        coloring.exact_window_span(4, 3, 10)
    roots = sum(end - start for _, start, end, parent in tracer.spans if parent < 0)
    summary = tracer.summary()
    total_self = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    assert total_self == pytest.approx(roots, rel=1e-9, abs=1e-12)
    # pairwise_distances runs inside window_conflicts and is not part of its self time
    assert summary["grid.pairwise_distances.calls"] >= 1
    assert summary["coloring.window_conflicts.calls"] == 1


def test_probe_samples_during_a_pass_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        mark = probe.start()
        w0, c0 = time.perf_counter(), time.process_time()
        while time.perf_counter() - w0 < 0.3:
            sum(i * i for i in range(1000))
        wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        times = probe.finish(mark, wall, cpu)
    assert signal.getsignal(signal.SIGALRM) is previous
    assert times["probe_n"] >= 5 and len(probe.samples) == times["probe_n"] + 2
    assert 0 < times["probe_s"] < 0.1 * wall
    assert times["wall_s"] == pytest.approx(wall - times["probe_s"])
    assert times["ref_s"] == pytest.approx(
        times["wall_s"] * hostspeed.REFERENCE_LOOP_S / times["loop_s"])


def test_a_perturbed_pin_is_an_error_and_reports_no_timing():
    pins = workloads.load_pins()
    inst = dict(pins["window-exact"][0], feasible=not pins["window-exact"][0]["feasible"])
    outcomes = workloads.window_pass({"instances": [inst]})
    failed = sum(not ok for _, ok in outcomes)
    assert failed >= 1
    out = {"passes": [{"wall_s": 1.0, "cpu_s": 1.0, "attempted": len(outcomes),
                       "failed": failed, "failed_ops": []}], "peak_rss_mb": 1.0}
    result = run.summarize(out, [0.1], traced=False)
    assert result["correct"] is False and result["failed"] / result["attempted"] > 0
    assert result["metrics"] == {}


def test_counts_that_differ_between_traced_passes_are_an_error():
    layers = {"grid.distance_field.calls": 5, "grid.distance_field.self_s": 0.1}
    out = {"untraced": [{"wall_s": 1.0, "cpu_s": 1.0, "attempted": 1, "failed": 0}],
           "passes": [{"wall_s": 1.0, "cpu_s": 1.0, "attempted": 1, "failed": 0}] * 2,
           "layers": [layers, layers], "counts_repeat": [False]}
    assert run.summarize(out, [0.1], traced=True)["correct"] is False


def test_the_seed_changes_order_and_position_only():
    pins = workloads.load_pins()
    a = workloads.window_setup(1, pins)["instances"]
    b = workloads.window_setup(2, pins)["instances"]
    key = lambda i: (i["l"], i["radius"], i["budget"])  # noqa: E731
    assert sorted(a, key=key) == sorted(b, key=key)
    base = workloads.oracle_setup(0, pins)["cells"]
    for seed in (1, 2, 3):
        moved = workloads.oracle_setup(seed, pins)["cells"]
        shifts = {(u[0] - v[0], u[1] - v[1]) for u, v in zip(moved, base)}
        assert len(shifts) == 1 and sum(shifts.pop()) % 2 == 0


def test_traced_run_end_to_end():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "oracle-sweep",
         "--seed", "4", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m[0] for m in layertrace.PER_LAYER]
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert {"python", "numpy", "nproc", "cpu_model"} <= set(record["environment"])


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
