"""Batched fixed-frequency runs: many sweep points, few engines.

The struct-of-arrays engine is size-agnostic: ``B`` independent sweep
points become ``B`` disjoint replicas of the mesh inside one
:class:`FastNetwork` (block-diagonal topology tables), so one cycle
step advances the whole batch.  The Python draws pay a cost per engine
per cycle, which width spreads over the batch; the compiled step costs
about the same per replica-cycle at any width, but its stepping state
grows with width.  So when the compiled step runs every replica in
whole segments (:func:`runs_whole_segments`),
the batch runs as consecutive, evenly sized engines, each holding at
most :data:`ENGINE_STATE_BYTES` of stepping state and so staying in a
core's cache; otherwise it runs as one engine (splitting a batch with
Python-drawn replicas, timed against one engine, gained on some batch
shapes and lost on others).  This is the engine's intended execution
mode for sweeps: the batched execution backend
(:mod:`repro.runner.backends`) routes eligible work-unit groups here,
runs its lockstep frequency searches here round by round
(:func:`run_probe_round`), and it is what
``BENCH_kernel.json``/``BENCH_sweep.json`` benchmark.  A group fanned
out to several workers is planned as shards of at most one engine
(:func:`engine_width`), so each task runs one engine.

Each engine runs through the one simulation driver
(:func:`repro.noc.simulator.drive`), of which a lone
``run_fixed_point`` is the one-replica case.  Every point keeps its
own network clock, node clocks, RNG and injection process, and the
replicas share no simulation state, so each per-point result is
*identical* to running that point alone with ``engine="fast"``,
whatever engine it ran in (the equivalence suite enforces this),
heterogeneous node clocks and power windows included.  The engine
draws, queues and accounts every packet inside its step
(:meth:`FastNetwork.bind_sources`; compiled for uniform and
permutation patterns on homogeneous node clocks, optionally under
rate steps), and the results are built from its packet records once
the run ends.  The moment a replica's measured
packets have all drained (where a standalone run would terminate) the
engine retires it (:meth:`FastNetwork.freeze_copy`), so long-running
stragglers do not pay stepping costs for finished points.  In a probe
batch a replica already proven saturated when the measurement window
closes retires there too, as its standalone probe run would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ...traffic.injection import TrafficSpec
from ..config import NocConfig
from .engine import FastNetwork, replica_bytes, runs_whole_segments

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..budget import SimBudget
    from ..simulator import SimResult

#: The most stepping state one engine of a batch holds, in bytes
#: (:func:`~repro.noc.fastsim.engine.replica_bytes` per replica): half
#: of a 2 MiB per-core L2 cache, so a compiled engine's state stays in
#: cache from cycle to cycle.
ENGINE_STATE_BYTES = 1 << 20


def even_widths(count: int, most: int) -> list[int]:
    """Widths of the fewest consecutive parts of ``count`` items with
    at most ``most`` each, spread evenly: widths differ by at most one,
    the wider parts first (13 items at ``most=6`` make ``[5, 4, 4]``,
    not ``[6, 6, 1]``)."""
    if most < 1:
        raise ValueError("a part holds at least one item")
    if not count:
        return []
    parts = -(-count // most)
    base, extra = divmod(count, parts)
    return [base + (i < extra) for i in range(parts)]


def engine_width(config: NocConfig, specs: Sequence[TrafficSpec]) -> int:
    """The most replicas one engine of a batch of ``specs`` holds: as
    many as fit :data:`ENGINE_STATE_BYTES` of stepping state when the
    compiled step runs them in whole segments, else all of them."""
    if not runs_whole_segments(config, specs):
        return len(specs)
    return max(1, ENGINE_STATE_BYTES // replica_bytes(config))


def engine_widths(config: NocConfig, points: list[BatchPoint]
                  ) -> list[int]:
    """The widths of the engines :func:`run_fixed_batch` runs
    ``points`` as, in order: :func:`engine_width` at most, evenly
    sized."""
    if not points:
        return []
    return even_widths(len(points),
                       engine_width(config, [p.traffic for p in points]))


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
    """Run every point at its pinned frequency in batched engines.

    The points run as consecutive engines of :func:`engine_widths`,
    one after another, each through the simulation driver.  Returns
    one :class:`~repro.noc.simulator.SimResult` per point, in point
    order, equal to ``run_fixed_point(..., engine="fast",
    probe=probe)`` on the same arguments, per-replica power windows
    included.  With ``probe=True`` (search probes only) a replica
    proven saturated when the measurement window closes stops there
    with ``complete=False``
    (:meth:`~repro.noc.simulator.Simulation.run`).
    """
    # Runtime import: repro.noc.simulator imports the engine registry,
    # which imports this package.
    from ..simulator import drive

    results: list[SimResult] = []
    for width in engine_widths(config, points):
        part = points[len(results):len(results) + width]
        results += drive(FastNetwork(config, copies=width), part, budget,
                         probe)
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
