"""The ``distributed`` execution backend: queue-fed multi-host sweeps.

``DistributedBackend`` publishes an execution plan's shards to a
shared-directory :class:`~repro.runner.distributed.queue.WorkQueue`,
waits for workers to drain it, and feeds the collected results back
through the runner exactly like any other backend.  Who the workers
are is the deployment's choice:

* ``workers=N`` (CLI ``--workers N``) self-spawns ``N`` local workers
  — zero-setup multi-process distribution on one machine.  Each is a
  fork of this process (:mod:`.pool`), so it starts with the driver's
  imports, registered plugins and loaded kernel.  The fleet spawns for
  the first ``execute()`` call that publishes work and serves every
  later one (a Workbench regenerating several figures, repeated sweeps
  in one session).  It retires on ``close()`` (via
  ``ExecutionContext.close()``), or when the backend is collected or
  the interpreter exits: no worker outlives its driver;
* ``workers=0`` publishes and waits for *external* workers: processes
  started by hand, by a cluster scheduler, or on other hosts sharing
  the queue directory (``python -m repro.experiments worker --queue
  DIR`` on each).

The knobs arrive validated (:func:`repro.runner.context.check_knobs`).
Self-spawned workers are babysat from the collector's poll hook: a
worker that dies while shards remain is respawned (within a bounded,
per-round budget), and if no worker can be forked at all the driver
degrades to draining the queue in-process — the same "the runner still
works, just without the speedup" guarantee the batched backend's
process pool gives.  A task that needs the compiled kernel where it
cannot be built stops that drain with the loader's
:class:`~repro.noc.fastsim.kernel.KernelBuildError`.
Teardown is graceful: the driver publishes a shutdown sentinel, idle
workers read it within a tenth of a second and exit on their own, and
only stragglers are terminated.  Results are bit-identical to
``serial`` for any worker count, claim batch size, crash schedule or
claim interleaving, because every unit's seed derives from its spec
digest alone.
"""

from __future__ import annotations

import weakref
from pathlib import Path

from ..backends import BackendRun, FinishFn
from ..plan import ExecutionPlan
from .broker import publish_plan
from .collector import Collector
from .lease import DEFAULT_LEASE_TTL_S
from .pool import WorkerPool
from .queue import DEFAULT_MAX_ATTEMPTS, WorkQueue
from .worker import Worker

#: Sharding fan-out assumed for external fleets (``workers=0``): the
#: driver cannot know how many hosts will drain the queue, and one
#: giant shard would serialize them all.  ``jobs`` raises it further.
EXTERNAL_SHARD_FANOUT = 8


class DistributedBackend:
    """Execute plans through a shared-directory work queue."""

    name = "distributed"

    def __init__(self, queue_dir: str | Path, workers: int = 0,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 poll_s: float = 0.05,
                 timeout_s: float | None = None,
                 claim_batch: int = 1) -> None:
        self.queue_dir = Path(queue_dir)
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.claim_batch = claim_batch
        #: the self-spawned fleet, kept across execute() calls
        self._pool: WorkerPool | None = None
        self._retire: weakref.finalize | None = None

    # ------------------------------------------------------------------
    def _fleet(self) -> WorkerPool:
        """The self-spawned fleet, spawned on first use."""
        if self._pool is None:
            self._pool = WorkerPool(
                self.queue_dir, self.workers,
                lease_ttl_s=self.lease_ttl_s, poll_s=self.poll_s,
                max_attempts=self.max_attempts,
                claim_batch=self.claim_batch)
            # The fleet retires with its driver: at close(), or when
            # this backend is collected or the interpreter exits.
            self._retire = weakref.finalize(self, self._pool.close)
        return self._pool

    def close(self) -> None:
        """Retire the self-spawned fleet (no-op if none was spawned)."""
        if self._retire is not None:
            self._retire()
        self._pool = self._retire = None

    # ------------------------------------------------------------------
    def execute(self, plan: ExecutionPlan, jobs: int,
                finish: FinishFn) -> BackendRun:
        queue = WorkQueue(self.queue_dir,
                          lease_ttl_s=self.lease_ttl_s).ensure()
        # A sentinel left by an earlier fleet's teardown must not
        # retire the workers serving this round.
        queue.clear_shutdown()
        # Shard so every worker stays busy; a lone worker still
        # batches.  With an external fleet (workers=0) the count is
        # unknowable, so shard for a reasonable one.
        fanout = (max(self.workers, jobs) if self.workers
                  else max(EXTERNAL_SHARD_FANOUT, jobs))
        plan.group_batches(jobs=fanout)
        run = BackendRun(groups=len(plan.groups),
                         batched_units=plan.batched_units)
        tasks, enqueued = publish_plan(queue, plan)
        if not tasks:
            return run
        fallback = Worker(queue, max_attempts=self.max_attempts,
                          claim_batch=self.claim_batch)
        fleet: WorkerPool | None = None
        peak_alive = 0
        if self.workers and enqueued:
            # A plan served wholly from pre-existing results/ needs no
            # fleet at all — don't fork N workers for it.
            fleet = self._fleet()
            fleet.reset_budget()
            peak_alive = fleet.ensure()

        def tend(outstanding: set) -> None:
            """Collector poll hook: babysit the self-spawned fleet."""
            nonlocal peak_alive
            if fleet is None:
                return              # external workers own the queue,
                #                     or everything is already on disk
            alive = fleet.ensure()
            peak_alive = max(peak_alive, alive)
            if not alive:
                # No worker can run (restricted host, or the respawn
                # budget is spent): drain in-process so the sweep
                # still completes, identically.
                fallback.run_once()
                if fallback.kernel_error is not None:
                    # The task went back to todo/; no one here can
                    # run it.
                    raise fallback.kernel_error

        Collector(queue, [t.task_id for t in tasks],
                  max_attempts=self.max_attempts, poll_s=self.poll_s,
                  timeout_s=self.timeout_s).collect(finish, on_poll=tend)
        # Honest accounting: a plan served wholly from pre-existing
        # results/ (enqueued == 0) never left this process.
        run.parallel = peak_alive > 0 or (self.workers == 0
                                          and enqueued > 0)
        run.workers = self.workers if peak_alive > 0 else 0
        return run
