"""Sweep-level backend benchmark: batched vs serial.

Where ``test_kernel_bench.py`` measures the raw engines, this measures
the *execution backends* end to end: the same 8x8-mesh three-policy
sweep submitted through ``run_sweep`` under three
:class:`~repro.runner.ExecutionContext` configurations —

* ``serial`` — the per-unit fast path (one ``run_fixed_point`` per
  work unit, in process);
* ``batched`` — the whole sweep planned into batch groups and executed
  through :func:`repro.noc.fastsim.run_fixed_batch`;
* ``batched`` at ``jobs > 1`` ("sharded") — the batch groups split
  into shards fanned out to worker processes.

A separate case runs the same sweep through the ``distributed``
backend (shared-directory work queue, self-spawned local workers) for
worker counts {1, 2, 4} and asserts bit-identity against serial — the
paper-scale end of the distributed acceptance gate (the tiny-mesh
matrix incl. fault injection lives in ``tests/test_distributed.py``).

All backends produce bit-identical results (asserted below; the
differential backend tests enforce it exhaustively), so the only
difference is wall time.  Results land in ``BENCH_sweep.json`` at the
repository root (CI uploads it next to ``BENCH_kernel.json``).

The sweep grid is capped at the pattern's measured ``lambda_max`` for
this mesh — exactly what ``Workbench.rate_grid`` does for the real
figures.  (The 8x8 mesh saturates near 0.29 flits/cycle under uniform
traffic, well below the 5x5 baseline's 0.42.)
"""

from __future__ import annotations

import contextlib
import json
import os
import platform
import statistics
import time
from pathlib import Path

from repro.analysis import (NoDvfsSteadyState, RmsdSteadyState,
                            SteadyStateStrategy, sweep_units)
from repro.noc import PAPER_BASELINE, SimBudget
from repro.runner import ExecutionContext, default_jobs
from repro.traffic import PatternTraffic, make_pattern

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"

CONFIG = PAPER_BASELINE.with_(width=8, height=8)
BUDGET = SimBudget(150, 400, 800)

#: Measured saturation of the 8x8 uniform scenario at Fmax is ~0.288
#: flits/node-cycle (bisection, seed 3); lambda_max applies the
#: paper's 10% margin.
LAMBDA_MAX = 0.259

#: Sweep grid: twelve rates up to lambda_max, as Workbench.rate_grid
#: builds for the real figures.
RATES = tuple(round(LAMBDA_MAX * (i + 1) / 12, 4) for i in range(12))

SEED = 3

#: The headline gate: the batched backend must beat the serial
#: per-unit fast path by at least this factor on this sweep.
REQUIRED_BATCHED_SPEEDUP = 3.0

#: Timed serial/batched pairs behind the gate, after one warm-up run
#: of each backend: the gate compares their medians, since one pair of
#: sub-second wall times on a shared host measures the host as much as
#: the code.
TIMED_PAIRS = 5

_results: dict = {}

#: Memoized serial reference run — the most expensive stage, shared
#: by the speedup and distributed cases instead of paid twice.
_serial_reference: tuple | None = None


def _serial_run():
    global _serial_reference
    if _serial_reference is None:
        _serial_reference = _run_backend("serial")
    return _serial_reference


class DmsdLikeSteadyState(SteadyStateStrategy):
    """Closed-form stand-in for the DMSD operating point.

    This strategy reproduces the kind of mid-range operating points
    DMSD reaches, from eq. (2)-style scaling, without any search
    simulation.  The numbers this benchmark records are therefore
    kernel-only: they time executing the measured fixed-frequency
    units and nothing else.  They are not an end-to-end figure time.
    The real DMSD search runs in lockstep probe rounds on the batched
    backend and one probe at a time on serial; ``perfbench/`` measures
    that end to end on the ``fig4-paper`` workload.
    """

    name = "dmsd-like"

    def frequency_for(self, config, traffic, budget, seed,
                      engine="reference"):
        rate = traffic.mean_node_rate()
        return min(config.f_max_hz,
                   max(config.f_min_hz,
                       rate / LAMBDA_MAX * 1.15 * config.f_max_hz))

    def spec_key(self):
        return (self.name, repr(LAMBDA_MAX))


#: Strategies the benchmark sweeps, in submission order.
_STRATEGIES = (NoDvfsSteadyState(), RmsdSteadyState(LAMBDA_MAX),
               DmsdLikeSteadyState())

#: Scenario record written into every BENCH_sweep.json entry.
SCENARIO = {"pattern": "uniform",
            "policies": [s.name for s in _STRATEGIES]}


def _three_policy_units(engine: str = "fast"):
    mesh = CONFIG.make_mesh()
    pattern = make_pattern("uniform", mesh)
    factory = lambda rate: PatternTraffic(pattern, rate)  # noqa: E731
    units = []
    for strategy in _STRATEGIES:
        units.extend(sweep_units(CONFIG, factory, list(RATES), strategy,
                                 BUDGET, SEED, engine))
    return units


def _run_backend(backend: str, jobs: int = 1, units=None,
                 **context_kwargs):
    context = ExecutionContext(backend=backend, jobs=jobs, cache=None,
                               engine="fast", **context_kwargs)
    units = _three_policy_units() if units is None else units
    start = time.perf_counter()
    try:
        results = context.run(units)
    finally:
        context.close()
    elapsed = time.perf_counter() - start
    return results, elapsed, context.runner.last_report


def _fingerprint(results):
    return [(r.policy, r.x, r.freq_hz, r.seed,
             r.result.mean_delay_ns, r.result.accepted_node_rate)
            for r in results]


def test_backend_sweep_speedups():
    """Batched >= 3x over the serial per-unit fast path, as the ratio
    of the median wall times of alternating warm runs; batched sharded
    over worker processes recorded alongside."""
    # One run of each backend warms it up (imports, kernel load,
    # cached topology tables) and is not timed for the gate.
    serial_results, warmup_serial_s, _ = _serial_run()
    reference = _fingerprint(serial_results)
    _, warmup_batched_s, _ = _run_backend("batched")

    pairs = []
    for _ in range(TIMED_PAIRS):
        results, serial_s, _ = _run_backend("serial")
        assert _fingerprint(results) == reference
        batched_results, batched_s, batched_report = _run_backend(
            "batched")
        # Identical science on every backend (the differential backend
        # tests enforce full bit-identity; this keeps the benchmark
        # honest).
        assert _fingerprint(batched_results) == reference
        pairs.append((serial_s, batched_s))
    assert batched_report.groups >= 1
    assert batched_report.batched_units == len(batched_results)

    sharded_jobs = min(4, default_jobs())
    sharded_results, sharded_s, _ = _run_backend("batched",
                                                 jobs=sharded_jobs)
    assert _fingerprint(sharded_results) == reference

    serial_s = statistics.median(serial for serial, _ in pairs)
    batched_s = statistics.median(batched for _, batched in pairs)
    batched_speedup = serial_s / batched_s
    _results["sweep"] = {
        "mesh": f"{CONFIG.width}x{CONFIG.height}",
        # The scenario under test, so the perf trajectory stays
        # interpretable as scenarios diversify: pattern plus the
        # policies whose units the sweep ran (in submission order).
        "scenario": SCENARIO,
        "points": len(serial_results),
        "lambda_max": LAMBDA_MAX,
        "budget": [BUDGET.warmup_cycles, BUDGET.measure_cycles,
                   BUDGET.drain_cycles],
        "warmup_serial_s": round(warmup_serial_s, 3),
        "warmup_batched_s": round(warmup_batched_s, 3),
        # Every timed (serial_s, batched_s) pair, in run order.
        "pairs": [[round(serial, 3), round(batched, 3)]
                  for serial, batched in pairs],
        "serial_s": round(serial_s, 3),
        "sharded_s": round(sharded_s, 3),
        "sharded_jobs": sharded_jobs,
        "batched_s": round(batched_s, 3),
        "batched_groups": batched_report.groups,
        "sharded_speedup": round(serial_s / sharded_s, 2),
        "batched_speedup": round(batched_speedup, 2),
    }
    assert batched_speedup >= REQUIRED_BATCHED_SPEEDUP, (
        f"batched backend {batched_speedup:.2f}x over the serial "
        f"per-unit fast path; the execution-backend contract requires "
        f">= {REQUIRED_BATCHED_SPEEDUP}x on the 8x8 three-policy sweep")


@contextlib.contextmanager
def _benchmarks_importable():
    """Export this directory on PYTHONPATH for worker subprocesses.

    Worker processes unpickle the shards, so this module (which
    defines ``DmsdLikeSteadyState``) must be importable on them —
    exactly the deployment rule README "Distributed execution" states
    for user-defined strategies.
    """
    bench_dir = str(Path(__file__).resolve().parent)
    saved = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = (bench_dir + os.pathsep + saved
                                if saved else bench_dir)
    try:
        yield
    finally:
        if saved is None:
            del os.environ["PYTHONPATH"]
        else:
            os.environ["PYTHONPATH"] = saved


def test_distributed_backend_bit_identical_for_any_worker_count():
    """The distributed acceptance gate on the paper-scale sweep: the
    8x8 three-policy sweep through the shared-directory work queue is
    bit-identical to serial for worker counts {1, 2, 4} (self-spawned
    local worker subprocesses, a fresh queue each) — and, with enough
    cores, adding workers is never a slowdown (the PR-6 inverse
    scaling stays fixed)."""
    import tempfile

    serial_results, serial_s, _ = _serial_run()
    reference = _fingerprint(serial_results)
    timings = {}
    with _benchmarks_importable():
        for workers in (1, 2, 4):
            with tempfile.TemporaryDirectory() as queue_dir:
                results, elapsed, report = _run_backend(
                    "distributed", queue=queue_dir, workers=workers)
            assert _fingerprint(results) == reference, (
                f"distributed run with {workers} worker(s) diverged "
                f"from serial")
            assert report.executed == len(results)
            timings[f"distributed_{workers}w_s"] = round(elapsed, 3)
    _results["distributed"] = {"scenario": SCENARIO,
                               "serial_s": round(serial_s, 3),
                               "cores": default_jobs(),
                               **timings}
    if default_jobs() >= 4:
        # Cold fleets (a fresh context per count), so allow slack — the bug
        # this pins was 1.9x *slower* at 4 workers, not 20%.
        assert (timings["distributed_4w_s"]
                <= timings["distributed_1w_s"] * 1.2), (
            f"4 workers ({timings['distributed_4w_s']}s) slower than "
            f"1 worker ({timings['distributed_1w_s']}s): the "
            f"distributed backend is inverse-scaling again")


def test_matrix_workload_benchmark():
    """The PR-10 scenario-matrix runner at paper scale: two policies
    crossed with plain + bursty + app workloads on the 8x8 mesh,
    submitted as ONE planned run through the batched backend (with a
    deliberately duplicated cell and a repeated rate).  Records wall
    time and the dedupe proof — executed units == distinct digests —
    in BENCH_sweep.json's "matrix" section."""
    from repro.runner import UnitCache
    from repro.scenario import ScenarioSpec

    scenarios = [ScenarioSpec.build(policy, "uniform", config=CONFIG,
                                    workload=workload)
                 for policy in ("no-dvfs",
                                f"rmsd:lambda_max={LAMBDA_MAX}")
                 for workload in (None, "mmoo", "filexfer")]
    rates = RATES[:6] + RATES[:1]            # repeated rate point
    units = []
    for spec in scenarios + scenarios[:1]:   # duplicated cell
        units.extend(spec.units(rates, BUDGET, SEED, "fast"))
    distinct = len({u.digest() for u in units})
    assert distinct < len(units)             # the dedupe has work
    context = ExecutionContext(backend="batched", cache=UnitCache(),
                               engine="fast")
    start = time.perf_counter()
    try:
        results = context.run(units)
    finally:
        context.close()
    elapsed = time.perf_counter() - start
    report = context.runner.last_report
    assert len(results) == len(units)
    assert report.executed == distinct, (
        f"matrix dedupe broken: {report.executed} executed for "
        f"{distinct} distinct units")
    _results["matrix"] = {
        "mesh": f"{CONFIG.width}x{CONFIG.height}",
        "scenario": {"pattern": "uniform",
                     "policies": ["no-dvfs", "rmsd"],
                     "workloads": ["none", "mmoo", "filexfer"]},
        "submitted_units": len(units),
        "distinct_units": distinct,
        "executed_units": report.executed,
        "batched_s": round(elapsed, 3),
    }


# --- the 16x16 warm-pool scaling gate (its own CI step) ---------------

CONFIG_16 = PAPER_BASELINE.with_(width=16, height=16)
BUDGET_16 = SimBudget(100, 250, 500)

#: The full scenario matrix: every benchmark policy crossed with a
#: spread of registered traffic patterns.  Rates stay in the stable
#: region for all four patterns on this mesh; the fixed budget bounds
#: per-unit cost regardless.
PATTERNS_16 = ("uniform", "transpose", "tornado", "bitcomp")
RATES_16 = (0.025, 0.05, 0.075, 0.1)

#: The PR-6 acceptance gate: four warm workers over one warm worker on
#: the 16x16 matrix.
REQUIRED_POOL_SCALING = 2.5


def _matrix_units_16():
    mesh = CONFIG_16.make_mesh()
    units = []
    for pattern_name in PATTERNS_16:
        pattern = make_pattern(pattern_name, mesh)
        factory = lambda rate: PatternTraffic(pattern, rate)  # noqa: E731
        for strategy in _STRATEGIES:
            units.extend(sweep_units(CONFIG_16, factory,
                                     list(RATES_16), strategy,
                                     BUDGET_16, SEED, "fast"))
    return units


def _warmup_units_16():
    """A small distinct sweep to pay fleet spawn + imports before the
    timed round (warm means warm)."""
    mesh = CONFIG_16.make_mesh()
    pattern = make_pattern("uniform", mesh)
    factory = lambda rate: PatternTraffic(pattern, rate)  # noqa: E731
    return sweep_units(CONFIG_16, factory, [0.015], _STRATEGIES[0],
                       BUDGET_16, SEED, "fast")


def test_pool_scaling_16x16_full_matrix():
    """Warm-pool scaling on the 16x16 full scenario matrix.

    For 1 and 4 warm workers: spawn the fleet, amortize startup on a
    warmup round, then time the matrix sweep.  Results must be
    bit-identical to serial for every worker count; on hosts with >= 4
    cores (CI), 4 warm workers must beat 1 by
    :data:`REQUIRED_POOL_SCALING`.
    """
    import tempfile

    units = _matrix_units_16()
    serial_results, serial_s, _ = _run_backend("serial", units=units)
    reference = _fingerprint(serial_results)
    timings = {}
    with _benchmarks_importable():
        for workers in (1, 4):
            with tempfile.TemporaryDirectory() as queue_dir:
                context = ExecutionContext(
                    backend="distributed", queue=queue_dir,
                    workers=workers, claim_batch=2,
                    cache=None, engine="fast")
                try:
                    context.run(_warmup_units_16())
                    start = time.perf_counter()
                    results = context.run(_matrix_units_16())
                    elapsed = time.perf_counter() - start
                finally:
                    context.close()
            assert _fingerprint(results) == reference, (
                f"16x16 pool run with {workers} worker(s) diverged "
                f"from serial")
            timings[f"pool_{workers}w_s"] = round(elapsed, 3)
    scaling = round(timings["pool_1w_s"] / timings["pool_4w_s"], 2)
    section = {
        "mesh": f"{CONFIG_16.width}x{CONFIG_16.height}",
        "scenario": {"patterns": list(PATTERNS_16),
                     "policies": [s.name for s in _STRATEGIES]},
        "points": len(units),
        "budget": [BUDGET_16.warmup_cycles, BUDGET_16.measure_cycles,
                   BUDGET_16.drain_cycles],
        "serial_s": round(serial_s, 3),
        "cores": default_jobs(),
        "pool_scaling_4w_over_1w": scaling,
        **timings,
    }
    # This test also runs standalone (its own CI step), so it writes
    # its section itself instead of relying on the module-level
    # writer test.
    _write_bench_sections({"scaling_16x16": section})
    if default_jobs() >= 4:
        assert scaling >= REQUIRED_POOL_SCALING, (
            f"4 warm workers only {scaling}x over 1 on the 16x16 "
            f"matrix; the PR-6 gate requires "
            f">= {REQUIRED_POOL_SCALING}x")


def _write_bench_sections(sections: dict) -> None:
    """Merge sections into ``BENCH_sweep.json`` (read-modify-write),
    so the main benchmark job and the separate scaling-gate job can
    both report without clobbering each other."""
    payload = {}
    if BENCH_PATH.exists():
        try:
            payload = json.loads(BENCH_PATH.read_text())
        except ValueError:
            payload = {}
    payload.update({
        "benchmark": "sweep-backend-walltime",
        "python": platform.python_version(),
        "machine": platform.machine(),
    })
    payload.update(sections)
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def test_write_bench_sweep_json():
    """Persist the numbers (runs last: depends on the tests above)."""
    assert "sweep" in _results, (
        "run the whole module: test_backend_sweep_speedups fills "
        "_results")
    _write_bench_sections(_results)
    assert (json.loads(BENCH_PATH.read_text())["sweep"]["batched_speedup"]
            > 0)
