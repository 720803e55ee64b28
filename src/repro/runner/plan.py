"""Execution planning: cache hits, batch groups, shards.

An :class:`ExecutionPlan` is the runner's decision of *what actually
needs to run* for a list of submitted work units:

1. **Cache pass** — units whose spec digest is already cached are
   served immediately; duplicate submissions of one spec collapse onto
   a single pending execution (exactly one unit runs per digest).
2. **Grouping pass** — pending units that are *batch-eligible* (fast
   engine) and share ``(config, budget, engine)`` form
   :class:`BatchGroup`\\ s, which a batched backend can execute as
   one :func:`repro.noc.fastsim.run_fixed_batch` call.
   Everything else stays on the per-unit path (``singles``).
3. **Sharding pass** — oversized groups split into shards so they can
   also fan out across a process pool, and so one enormous submission
   does not build an unboundedly wide engine.  A shard fanned out to
   several workers is at most one engine wide, so the workers, taking
   one task at a time, even out the work themselves.

Plans are pure data: backends consume ``plan.groups``/``plan.singles``
(or ``plan.todo`` for per-unit backends) and report each finished
:class:`~repro.runner.units.UnitResult` back through the runner, which
owns result placement, caching and progress.  Because every unit
carries its own spec-digest-derived seed, none of these decisions can
change any result — grouping and sharding are performance choices
only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..noc.budget import SimBudget
from ..noc.config import NocConfig
from ..noc.fastsim.batch import engine_width, even_widths
from .cache import UnitCache
from .units import UnitResult, WorkUnit

#: Most units in one shard, one ``run_fixed_batch`` call: groups wider
#: than this split even on a single worker.  It bounds a shard's unit
#: count, so a worker's task and its results stay small; the engines a
#: shard runs as are bounded by their stepping state instead
#: (:data:`repro.noc.fastsim.batch.ENGINE_STATE_BYTES`).
MAX_SHARD_POINTS = 96

#: Narrowest shard worth carving out of a batch-eligible group when
#: fanning out.  The floor dates from the NumPy step, when one wide
#: batch ran >=5x faster than its points one by one; the compiled step
#: costs about the same per replica-cycle at any width, and whether
#: the floor still pays there is unmeasured.  It applies below the
#: one-engine cap of ``group_batches``, so it binds only where an
#: engine holds more than 6 replicas: for groups that run as one
#: engine (Python-drawn laws, heterogeneous node clocks), and
#: otherwise for shard widths between 6 and an engine's
#: width (10 on the 5x5 baseline; an 8x8 engine holds 4).  There, when
#: ``jobs`` exceeds ``len(group) / MIN_SHARD_POINTS``, sharding
#: deliberately leaves workers idle rather than shred the group into
#: degenerate slivers (the inverse-scaling bug the distributed backend
#: exhibited when many workers split a ~36-unit group into singles).
MIN_SHARD_POINTS = 6


def batch_eligible(unit: WorkUnit) -> bool:
    """Can this unit run as a replica of a batched engine?

    Requires the fast engine: the batched kernel is its replicated
    form, and the reference engine is one replica.
    """
    return unit.engine == "fast"


@dataclass
class BatchGroup:
    """Pending units sharing one batched-engine invocation."""

    config: NocConfig
    budget: SimBudget
    engine: str
    units: list[WorkUnit]

    def split(self, shard_size: int) -> list["BatchGroup"]:
        """Shards of at most ``shard_size`` units (submission order).

        Units spread *evenly* over ``ceil(len / shard_size)`` shards —
        widths differ by at most one — instead of filling shards to
        ``shard_size`` and leaving a runt remainder: a 13-unit group
        at ``shard_size=6`` becomes ``[5, 4, 4]``, not ``[6, 6, 1]``.
        Even widths keep the slowest shard (the executor's critical
        path) as narrow as possible and never strand a near-empty
        batched-engine invocation.
        """
        if shard_size < 1:
            raise ValueError("shard size must be >= 1")
        if len(self.units) <= shard_size:
            return [self]
        out: list[BatchGroup] = []
        start = 0
        for width in even_widths(len(self.units), shard_size):
            out.append(BatchGroup(self.config, self.budget, self.engine,
                                  self.units[start:start + width]))
            start += width
        return out


class ExecutionPlan:
    """What must execute (and how it groups) for one submission."""

    def __init__(self, units: list[WorkUnit],
                 cache: UnitCache | None = None) -> None:
        self.units = list(units)
        self.digests = [u.digest() for u in self.units]
        #: final results in submission order (filled by the runner)
        self.results: list[UnitResult | None] = [None] * len(self.units)
        #: digest -> submission indices awaiting that digest's result
        self.pending: dict[str, list[int]] = {}
        self.cache_hits = 0
        for i, (unit, digest) in enumerate(zip(self.units, self.digests)):
            found = cache.get(digest) if cache is not None else None
            if found is not None:
                self.results[i] = found
                self.cache_hits += 1
            else:
                self.pending.setdefault(digest, []).append(i)
        #: unique units that must actually execute (one per digest)
        self.todo: list[WorkUnit] = [
            self.units[indices[0]] for indices in self.pending.values()]
        #: batch groups (after :meth:`group_batches`; empty otherwise)
        self.groups: list[BatchGroup] = []
        #: units left on the per-unit path
        self.singles: list[WorkUnit] = list(self.todo)

    # ------------------------------------------------------------------
    def group_batches(self, jobs: int = 1,
                      max_shard: int = MAX_SHARD_POINTS,
                      min_shard: int = MIN_SHARD_POINTS) -> None:
        """Partition ``todo`` into batch groups and per-unit singles.

        ``jobs`` steers sharding: a group is split into roughly
        ``jobs`` equal shards (never wider than ``max_shard``) so a
        pool-backed batched backend keeps every worker busy — but
        never narrower than ``min_shard``, because a shard below the
        kernel's efficient width costs more in lost batching than it
        buys in parallelism.  When the two pull against each other
        (many workers, small group) the floor wins: better three
        efficient shards than twenty-four degenerate singles.

        When ``jobs > 1`` no shard is wider than one of the engines
        the group runs as (``engine_width``; the whole group when it
        runs as one engine).  Equal unit counts are not equal work:
        points near saturation run several times longer than the
        rest, so two contiguous halves of a sweep can split its work
        a third to two thirds.  One-engine tasks, claimed one at a
        time, let the workers even that out, at almost no cost in
        batching, since a compiled group runs as engines of that
        width anyway.
        """
        grouped: dict[tuple, BatchGroup] = {}
        self.singles = []
        order: list[BatchGroup] = []
        for unit in self.todo:
            if not batch_eligible(unit):
                self.singles.append(unit)
                continue
            key = (unit.config, unit.budget, unit.engine)
            group = grouped.get(key)
            if group is None:
                group = grouped[key] = BatchGroup(
                    unit.config, unit.budget, unit.engine, [])
                order.append(group)
            group.units.append(unit)
        self.groups = []
        for group in order:
            if len(group.units) == 1:
                # A lone unit gains nothing from the batched kernel.
                self.singles.extend(group.units)
                continue
            shard_size = max_shard
            if jobs > 1:
                per_worker = -(-len(group.units) // jobs)  # ceil div
                # A group smaller than the floor is its own floor: it
                # still runs as one shard rather than splitting.
                floor = min(min_shard, len(group.units))
                one_engine = engine_width(
                    group.config, [u.traffic for u in group.units])
                shard_size = min(max_shard, max(floor, per_worker),
                                 one_engine)
            self.groups.extend(group.split(shard_size))

    # ------------------------------------------------------------------
    @property
    def total_units(self) -> int:
        return len(self.units)

    @property
    def executed(self) -> int:
        """Unique units that will run (cache misses)."""
        return len(self.todo)

    @property
    def batched_units(self) -> int:
        """Units that execute inside batch groups."""
        return sum(len(g.units) for g in self.groups)
