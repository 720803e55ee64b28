"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``.

The tests of ``run.py`` run each workload on the 3x3 ``--tiny`` mesh, traced,
and the end-to-end mode once; the rest check the span arithmetic on
synthetic trees and the seed mapping.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import probes  # noqa: E402
from catalog import SEED_POOL, WORKLOADS, workload_seed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def drive(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench/run.py"),
                           *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- span arithmetic ---------------------------------------------------------
def test_self_time_subtracts_union_of_children_and_tallies():
    spans = [
        ["root", 0.0, 10.0, -1, 1],
        ["a", 1.0, 4.0, 0, 1],
        ["b", 3.0, 6.0, 0, 1],      # overlaps a: the union is [1, 6]
        ["a.child", 2.0, 3.0, 1, 1],
        ["late", 9.0, 12.0, 0, 1],  # clipped to the parent's end
    ]
    covered = [1.0, 0.0, 0.5, 0.0, 0.0]
    assert probes.self_times(spans, covered) == [
        10.0 - 5.0 - 1.0 - 1.0, 3.0 - 1.0, 3.0 - 0.5, 1.0, 3.0]


def test_layer_self_times_partition_the_root_span():
    rec = probes.Recorder()
    clock = iter(range(100))
    probes.perf_counter, saved = (lambda: float(next(clock))), \
        probes.perf_counter
    try:
        step = rec.tally(lambda: None, lambda args: "noc.step.single")
        inner = rec.span("noc.batch", lambda: step())
        outer = rec.span("runner.run", lambda: inner())
        outer()
    finally:
        probes.perf_counter = saved
    # runner.run [0, 5], noc.batch [1, 4], tallied step [2, 3]
    layers = rec.layer_self_s()
    assert layers["runner"] == 2.0
    assert layers["noc"] == 3.0
    assert sum(layers.values()) == 5.0


def test_merge_reparents_another_process_spans():
    rec, other = probes.Recorder(), probes.Recorder()
    rec.spans.append(["runner.run", 0.0, 5.0, -1, 1])
    rec.covered.append(0.0)
    other.spans += [["runner.execute_group", 1.0, 4.0, -1, 2],
                    ["noc.batch", 1.5, 3.5, 0, 2]]
    other.covered += [0.0, 1.0]
    other.tallies["noc.step.batched"] = [10, 1.0]
    rec.merge(json.loads(json.dumps(other.dump())))
    assert [s[3] for s in rec.spans] == [-1, -1, 1]
    assert rec.tallies["noc.step.batched"] == [10, 1.0]
    metrics = rec.metrics()
    assert metrics["runner.group_batch_s"] == 2.0
    assert metrics["noc.step_calls.batched"] == 10


def test_workload_seed_keeps_pool_seeds_and_skips_the_rest():
    assert all(workload_seed(s) == s for s in SEED_POOL)
    assert workload_seed(5) == 6
    assert workload_seed(64 + 3) == 3
    assert workload_seed(-1) == 63


# --- run.py ------------------------------------------------------------------
@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_tiny_run_reports_every_per_layer_metric(workload):
    out = result_line(drive("--workload", workload, "--tiny",
                            "--trace", "1"))
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    assert metrics["noc.step_calls.batched"] > 0
    assert metrics["noc.batch_replicas"] == metrics["runner.batched_units"]
    if workload == "fig4-paper":
        assert metrics["analysis.saturation_probes"] > 0
        assert metrics["analysis.dmsd_probes"] > 0
        assert metrics["noc.step_calls.single"] > 0
    else:
        assert metrics["analysis.dmsd_probes"] == 0
        assert metrics["traffic.arrivals_calls"] > 0
    distributed = workload.endswith("-distributed")
    assert (metrics["distributed.tasks"] > 0) == distributed
    trace = ROOT / ".perfbench_out" / f"{workload}-seed3-tiny.trace.json"
    events = json.loads(trace.read_text())["traceEvents"]
    assert events and all(e["ph"] == "X" for e in events)


def test_end_to_end_tiny_run_reports_every_end_to_end_metric():
    out = result_line(drive("--workload", "matrix-8x8", "--tiny",
                            "--seconds", "0", "--seed", "7"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == 72
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = drive("--workload", "matrix-8x8", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
