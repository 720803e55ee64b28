"""Batched fixed-frequency runs: many sweep points, one engine.

The struct-of-arrays engine is size-agnostic: ``B`` independent sweep
points become ``B`` disjoint replicas of the mesh inside one
:class:`FastNetwork` (block-diagonal topology tables), so the per-cycle
NumPy dispatch overhead — the fast engine's dominant remaining cost —
is amortized over the whole batch.  This is the engine's intended
execution mode for sweeps: the batched execution backend
(:mod:`repro.runner.backends`) routes eligible work-unit groups here,
runs its lockstep frequency searches here round by round
(:func:`run_probe_round`), and it is what
``BENCH_kernel.json``/``BENCH_sweep.json`` benchmark.

Every point keeps its own network clock, node-clock bridge, RNG and
injection process, and the replicas share no simulation state, so each
per-point result is *identical* to running that point alone with
``engine="fast"`` (the equivalence suite enforces this) — including
its power windows, which integrate per-replica activity counters.
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
from ..clock import NetworkClock, NodeClockBridge
from ..config import NocConfig
from ..flit import Packet
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
    # Runtime import: repro.noc.simulator imports the engine registry,
    # which imports this package.
    from ..simulator import SimResult, backlog_diverged

    if config.node_freqs_hz is not None:
        raise NotImplementedError(
            "heterogeneous node clocks are not supported in batched runs")
    count = len(points)
    if not count:
        return []

    local_nodes = config.num_nodes
    packet_length = config.packet_length
    net = FastNetwork(config, copies=count)
    clocks = [NetworkClock(p.freq_hz, config.f_min_hz, config.f_max_hz)
              for p in points]
    injections = [InjectionProcess(p.traffic, packet_length,
                                   np.random.default_rng(p.seed))
                  for p in points]
    # All replicas share the node clock, so one NodeClockBridge worth
    # of state is kept as arrays/lists and advanced for all copies at
    # once (element-wise identical to per-replica bridges).
    node_period = NodeClockBridge(config.f_node_hz).period_ns
    next_node_cycle = [0] * count

    # Budget validity is SimBudget.__post_init__'s job; ad-hoc range
    # checks used to live here.
    warmup = budget.warmup_cycles
    measure = budget.measure_cycles
    measure_start = warmup
    measure_end = warmup + measure
    hard_end = measure_end + budget.drain_cycles

    # All clocks are fixed-frequency, so absolute time advances by one
    # per-replica vector add per cycle — element-wise this accumulates
    # bit-identically to each replica's own ``NetworkClock.tick``.
    periods = np.array([1e9 / c.freq_hz for c in clocks])
    times = np.zeros(count)
    net.time_by_copy = times
    # Per-copy activity attribution costs a few bincounts per cycle;
    # power windows only need measurement-phase deltas.
    net.attribute_activity = False
    sims = range(count)
    tagging = False
    closed = False
    complete = [False] * count
    active = list(sims)                 # replicas still simulating
    meas_start_ns = [0.0] * count
    meas_end_ns = [0.0] * count
    nc_start = [0] * count
    nc_end = [0] * count
    ej_start = [0] * count
    ej_end = [0] * count
    bl_start = [0] * count
    bl_end = [0] * count
    act_start = [None] * count
    act_end = [None] * count

    cycle = 0
    while True:
        if cycle == measure_start:
            # Same boundary placement as Simulation.run: snapshots are
            # taken before this cycle's arrivals and network step.
            tagging = True
            net.attribute_activity = True
            for i in sims:
                meas_start_ns[i] = times[i]
                nc_start[i] = next_node_cycle[i]
                ej_start[i] = net.ejected_flits_of(i)
                bl_start[i] = net.backlog_of(i)
                act_start[i] = net.activity_of(i)

        # Node cycles completed per replica, all copies in one pass
        # (NodeClockBridge.elapsed_node_cycles, vectorized: same
        # division, same epsilon, same truncation).
        completed = (times / node_period + 1e-9).astype(np.int64).tolist()
        for i in active:
            start = next_node_cycle[i]
            num_cycles = completed[i] + 1 - start
            if num_cycles > 0:
                next_node_cycle[i] = completed[i] + 1
                offset_node = i * local_nodes
                for offset, src, dst in \
                        injections[i].arrivals(num_cycles):
                    packet = Packet(
                        offset_node + src, offset_node + dst,
                        packet_length, created_cycle=cycle,
                        created_ns=(start + offset) * node_period,
                        measured=tagging)
                    net.enqueue_packet(packet)

        net.step_cycle(cycle, 0.0)
        times += periods
        cycle += 1

        if cycle >= measure_end:
            if not closed:
                closed = True
                tagging = False
                net.attribute_activity = False
                for i in sims:
                    meas_end_ns[i] = times[i]
                    nc_end[i] = next_node_cycle[i]
                    ej_end[i] = net.ejected_flits_of(i)
                    bl_end[i] = net.backlog_of(i)
                    act_end[i] = net.activity_of(i)
            still = []
            for i in active:
                stats = net.stats_by_copy[i]
                complete[i] = (stats.measured_delivered
                               >= stats.measured_created)
                if complete[i] or (
                        probe and cycle == measure_end
                        and backlog_diverged(
                            config, points[i].traffic.mean_node_rate(),
                            max(1, nc_end[i] - nc_start[i]),
                            bl_end[i] - bl_start[i])):
                    # All of this point's measured packets arrived (its
                    # statistics are frozen), or this probe is proven
                    # saturated; a standalone run would terminate here,
                    # so retire the replica.
                    if count > 1:
                        net.freeze_copy(i)
                else:
                    still.append(i)
            active = still
            if not active or cycle >= hard_end:
                break

    results = []
    for i, point in enumerate(points):
        stats = net.stats_by_copy[i]
        delays = stats.measured_delays_ns
        node_cycles_meas = max(1, nc_end[i] - nc_start[i])
        window = PowerWindow(
            duration_ns=meas_end_ns[i] - meas_start_ns[i],
            cycles=measure,
            freq_hz=clocks[i].freq_hz,
            activity=act_end[i] - act_start[i])
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
            accepted_node_rate=((ej_end[i] - ej_start[i])
                                / (node_cycles_meas * local_nodes)),
            measure_duration_ns=meas_end_ns[i] - meas_start_ns[i],
            measure_node_cycles=node_cycles_meas,
            backlog_delta_flits=bl_end[i] - bl_start[i],
            freq_trace=[(0.0, clocks[i].freq_hz)],
            power_windows=[window],
        ))
    return results


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
