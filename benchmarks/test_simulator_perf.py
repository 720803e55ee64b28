"""Microbenchmarks of the simulator itself.

Not a paper figure: these measure the reproduction's own substrate
(cycles/second of the cycle-level model, work units/second of the
sweep runner) so performance regressions in the hot loop are caught.
Unlike the figure benches these use several rounds, since they measure
wall-clock speed, not scientific output.
"""

import os
import time

import pytest

from repro.analysis import NoDvfsSteadyState, sweep_units
from repro.noc import NocConfig, PAPER_BASELINE, SimBudget, Simulation
from repro.runner import ExecutionContext
from repro.traffic import PatternTraffic, make_pattern


def run_sim(config, rate, cycles):
    traffic = PatternTraffic(make_pattern("uniform", config.make_mesh()),
                             rate)
    sim = Simulation(config, traffic, seed=1)
    return sim.run(warmup_cycles=100, measure_cycles=cycles,
                   drain_cycles=2000)


def test_perf_small_mesh_low_load(benchmark):
    cfg = NocConfig(width=4, height=4, num_vcs=2, vc_buf_depth=4,
                    packet_length=4)
    res = benchmark.pedantic(lambda: run_sim(cfg, 0.1, 2000),
                             rounds=3, iterations=1)
    assert res.complete


def test_perf_baseline_mid_load(benchmark):
    res = benchmark.pedantic(lambda: run_sim(PAPER_BASELINE, 0.2, 1500),
                             rounds=3, iterations=1)
    assert res.complete


def test_perf_baseline_near_saturation(benchmark):
    res = benchmark.pedantic(lambda: run_sim(PAPER_BASELINE, 0.4, 1000),
                             rounds=2, iterations=1)
    assert res.measured_delivered > 0


def test_perf_8x8_mesh(benchmark):
    cfg = PAPER_BASELINE.with_(width=8, height=8)
    res = benchmark.pedantic(lambda: run_sim(cfg, 0.15, 800),
                             rounds=2, iterations=1)
    assert res.measured_delivered > 0


# --- sweep-runner throughput -------------------------------------------

def _runner_units(num_points=8):
    """A realistic sweep workload: independent fixed-frequency units."""
    cfg = NocConfig(width=4, height=4, num_vcs=2, vc_buf_depth=4,
                    packet_length=4)
    mesh = cfg.make_mesh()
    rates = [round(0.04 + 0.03 * i, 4) for i in range(num_points)]
    return sweep_units(cfg, lambda r: PatternTraffic(
        make_pattern("uniform", mesh), r), rates, NoDvfsSteadyState(),
        SimBudget(400, 1500, 4000), seed=1)


def _fingerprint(unit_result):
    r = unit_result.result
    return (unit_result.x, unit_result.freq_hz, unit_result.seed,
            r.mean_delay_ns, r.mean_latency_cycles,
            r.measured_delivered, r.accepted_node_rate)


def test_perf_runner_serial_throughput(benchmark):
    """Baseline units/second of the runner's in-process path."""
    units = _runner_units()
    runner = ExecutionContext(jobs=1, cache=None).runner
    out = benchmark.pedantic(lambda: runner.run(units),
                             rounds=2, iterations=1)
    assert len(out) == len(units)
    assert runner.last_report.units_per_s > 0


def test_perf_runner_parallel_speedup(benchmark):
    """Parallel execution: identical results, faster on multi-core.

    The determinism half of the assertion holds everywhere; the
    speedup half only where there are cores to win on.
    """
    units = _runner_units()
    cores = os.cpu_count() or 1

    serial = ExecutionContext(jobs=1, cache=None).runner
    start = time.perf_counter()
    serial_out = serial.run(units)
    serial_s = time.perf_counter() - start

    parallel = ExecutionContext(jobs=min(4, max(2, cores)),
                                cache=None).runner
    parallel_out = benchmark.pedantic(lambda: parallel.run(units),
                                      rounds=1, iterations=1)

    assert ([_fingerprint(r) for r in serial_out]
            == [_fingerprint(r) for r in parallel_out])
    # Only claim a speedup where one is possible: multiple cores AND
    # the pool actually ran (hosts without multiprocessing fall back
    # to serial by design, with identical results).
    if cores >= 2 and parallel.last_report.parallel:
        assert parallel.last_report.elapsed_s < 0.9 * serial_s, (
            f"parallel run ({parallel.last_report.elapsed_s:.2f}s, "
            f"jobs={parallel.context.jobs}) not faster than serial "
            f"({serial_s:.2f}s) on a {cores}-core host")
