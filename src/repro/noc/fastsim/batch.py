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

The batch runs through the one simulation driver
(:func:`repro.noc.simulator.drive`), of which a lone
``run_fixed_point`` is the one-replica case.  Every point keeps its
own network clock, node clocks, RNG and injection process, and the
replicas share no simulation state, so each per-point result is
*identical* to running that point alone with ``engine="fast"`` (the
equivalence suite enforces this), heterogeneous node clocks and power
windows included.  The engine draws, queues and accounts every packet
inside its step (:meth:`FastNetwork.bind_sources`; compiled for
uniform and permutation patterns on homogeneous node clocks,
optionally under rate steps), and the results are built from its
packet records once the run ends.  The moment a replica's measured
packets have all drained (where a standalone run would terminate) the
engine retires it (:meth:`FastNetwork.freeze_copy`), so long-running
stragglers do not pay stepping costs for finished points.  In a probe
batch a replica already proven saturated when the measurement window
closes retires there too, as its standalone probe run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ...traffic.injection import TrafficSpec
from ..config import NocConfig
from .engine import FastNetwork

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..budget import SimBudget
    from ..simulator import SimResult


@dataclass(frozen=True)
class BatchPoint:
    """One replica of a driven run: its traffic, its initial (for a
    batch, pinned) network frequency and its seed."""

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
    from ..simulator import drive

    if not points:
        return []
    return drive(FastNetwork(config, copies=len(points)), points, budget,
                 probe)


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
