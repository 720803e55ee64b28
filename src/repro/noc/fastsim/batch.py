"""Batched fixed-frequency runs: many sweep points, one engine.

The struct-of-arrays engine is size-agnostic: ``B`` independent sweep
points become ``B`` disjoint replicas of the mesh inside one
:class:`FastNetwork` (block-diagonal topology tables), so one cycle
step advances the whole batch and its fixed per-cycle overhead is
shared by every point.  This is the engine's intended
execution mode for sweeps: the batched execution backend
(:mod:`repro.runner.backends`) routes eligible work-unit groups here,
runs its lockstep frequency searches here round by round
(:func:`run_probe_round`), and it is what
``BENCH_kernel.json``/``BENCH_sweep.json`` benchmark.

Every point keeps its own network clock, node-clock cursor, RNG and
injection process, and the replicas share no simulation state, so each
per-point result is *identical* to running that point alone with
``engine="fast"`` (the equivalence suite enforces this) — including
its power windows, which integrate per-replica activity counters.
The engine draws, queues and accounts every packet inside its step
(:meth:`FastNetwork.bind_sources`; compiled for uniform and
permutation patterns, optionally under rate steps), and the results
are built from its packet records once the run ends.  A lone fast
``run_fixed_point`` is this driver's one-replica case.
The moment a replica's measured packets have all drained (where a
standalone run would terminate) the engine retires it
(:meth:`FastNetwork.freeze_copy`), so long-running stragglers do not
pay stepping costs for finished points.  In a probe batch a replica
already proven saturated when the measurement window closes retires
there too, as its standalone probe run would.  One restriction versus
the one-run kernel remains: heterogeneous node clocks are not
supported (those units fall back to per-unit execution).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ...traffic.injection import InjectionProcess, TrafficSpec
from ..clock import NetworkClock
from ..config import NocConfig
from ..stats import PowerWindow
from .engine import FastNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..budget import SimBudget
    from ..simulator import SimResult


@dataclass(frozen=True)
class BatchPoint:
    """One fixed-frequency simulation of a batched run."""

    traffic: TrafficSpec
    freq_hz: float
    seed: int


def run_fixed_batch(config: NocConfig, points: list[BatchPoint],
                    budget: "SimBudget", *,
                    probe: bool = False) -> list["SimResult"]:
    """Run every point at its pinned frequency in one batched engine.

    Returns one :class:`~repro.noc.simulator.SimResult` per point,
    equal to ``run_fixed_point(..., engine="fast", probe=probe)`` on
    the same arguments, per-replica power windows included.  With
    ``probe=True`` (search probes only) a replica proven saturated
    when the measurement window closes stops there with
    ``complete=False`` (:meth:`~repro.noc.simulator.Simulation.run`).
    """
    return drive(config, points, budget, probe)


def drive(config: NocConfig, points: list[BatchPoint],
          budget: "SimBudget", probe: bool = False) -> list["SimResult"]:
    """The fixed-frequency driver behind :func:`run_fixed_batch` and
    fast ``run_fixed_point`` (its one-replica case).

    The engine draws, queues and accounts every packet itself
    (:meth:`FastNetwork.bind_sources`), so the loop below makes one
    engine call per cycle; each result is built once, at the end, from
    the packet records.  Fixed-frequency results carry no control
    ``samples``.
    """
    # Runtime import: repro.noc.simulator imports the engine registry,
    # which imports this package.
    from ..simulator import SimResult, backlog_diverged

    if config.node_freqs_hz is not None:
        raise NotImplementedError(
            "heterogeneous node clocks are not supported in batched runs")
    count = len(points)
    if not count:
        return []

    net = FastNetwork(config, copies=count)
    clocks = [NetworkClock(p.freq_hz, config.f_min_hz, config.f_max_hz)
              for p in points]
    net.bind_sources([InjectionProcess(p.traffic, config.packet_length,
                                       np.random.default_rng(p.seed))
                      for p in points],
                     [clock.period_ns for clock in clocks])

    # Budget validity is SimBudget.__post_init__'s job.
    warmup = budget.warmup_cycles
    measure = budget.measure_cycles
    measure_end = warmup + measure
    hard_end = measure_end + budget.drain_cycles

    # Per-copy activity attribution costs a few tallies per event;
    # power windows only need measurement-phase deltas.
    net.attribute_activity = False
    complete = [False] * count
    active = list(range(count))         # replicas still simulating
    step = net.step_cycle
    cycle = 0
    while True:
        if cycle == warmup:
            # Same boundary placement as Simulation.run: snapshots are
            # taken before this cycle's arrivals and network step.
            net.measuring = net.attribute_activity = True
            start = _snapshot(net)
        step(cycle, 0.0)
        cycle += 1
        if cycle < measure_end:
            continue
        if cycle == measure_end:
            net.measuring = net.attribute_activity = False
            end = _snapshot(net)
            saturated = [probe and backlog_diverged(
                config, point.traffic.mean_node_rate(),
                max(1, end[i][1] - start[i][1]), end[i][3] - start[i][3])
                for i, point in enumerate(points)]
        delivered = net.measured_delivered_by_copy.tolist()
        created = net.measured_created_by_copy.tolist()
        still = []
        for i in active:
            complete[i] = delivered[i] >= created[i]
            if complete[i] or (cycle == measure_end and saturated[i]):
                # All of this point's measured packets arrived, or this
                # probe is proven saturated; a standalone run would
                # terminate here, so retire the replica.
                if count > 1:
                    net.freeze_copy(i)
            else:
                still.append(i)
        active = still
        if not active or cycle >= hard_end:
            break

    results = []
    for i, (point, stats) in enumerate(zip(points, net.measured_stats())):
        t_start, nc_start, ej_start, bl_start, act_start = start[i]
        t_end, nc_end, ej_end, bl_end, act_end = end[i]
        delays = stats.measured_delays_ns
        node_cycles_meas = max(1, nc_end - nc_start)
        window = PowerWindow(
            duration_ns=t_end - t_start,
            cycles=measure,
            freq_hz=clocks[i].freq_hz,
            activity=act_end - act_start)
        results.append(SimResult(
            config=config,
            seed=point.seed,
            offered_node_rate=point.traffic.mean_node_rate(),
            warmup_cycles=warmup,
            measure_cycles=measure,
            mean_latency_cycles=(stats.mean_latency_cycles()
                                 if delays else None),
            mean_delay_ns=stats.mean_delay_ns() if delays else None,
            p99_delay_ns=(float(np.percentile(delays, 99))
                          if delays else None),
            mean_hops=stats.mean_hops() if delays else None,
            measured_created=stats.measured_created,
            measured_delivered=stats.measured_delivered,
            complete=complete[i],
            accepted_node_rate=((ej_end - ej_start)
                                / (node_cycles_meas * config.num_nodes)),
            measure_duration_ns=t_end - t_start,
            measure_node_cycles=node_cycles_meas,
            backlog_delta_flits=bl_end - bl_start,
            freq_trace=[(0.0, clocks[i].freq_hz)],
            power_windows=[window],
        ))
    return results


def _snapshot(net: FastNetwork) -> list[tuple]:
    """Per replica: time, next node cycle, ejected flits, source
    backlog and activity, as of now."""
    return [(time_ns, node_cycle, net.ejected_flits_of(i),
             net.backlog_of(i), net.activity_of(i))
            for i, (time_ns, node_cycle) in enumerate(zip(
                net.time_by_copy.tolist(), net.next_node_cycle.tolist()))]


def run_probe_round(config: NocConfig,
                    probes: list[tuple[BatchPoint, "SimBudget"]]
                    ) -> list["SimResult"]:
    """One lockstep round of frequency-search probes.

    Each probe is a point and the budget of the search that asked for
    it.  One engine runs one budget, so the probes bucket by budget
    and each bucket runs as one ``probe=True`` :func:`run_fixed_batch`:
    a probe proven saturated stops when its measurement window closes.
    Results come back in probe order, each equal to the probe's single
    fast ``probe=True`` run.
    """
    buckets: dict[SimBudget, list[int]] = {}
    for i, (_, budget) in enumerate(probes):
        buckets.setdefault(budget, []).append(i)
    results: list[SimResult | None] = [None] * len(probes)
    for budget, members in buckets.items():
        sims = run_fixed_batch(config, [probes[i][0] for i in members],
                               budget, probe=True)
        for i, sim in zip(members, sims):
            results[i] = sim
    return results
