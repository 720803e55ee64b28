"""The ``distributed`` execution backend: queue-fed multi-host sweeps.

``DistributedBackend`` publishes an execution plan's shards to a
shared-directory :class:`~repro.runner.distributed.queue.WorkQueue`,
waits for workers to drain it, and feeds the collected results back
through the runner exactly like any other backend.  Who the workers
are is the deployment's choice:

* ``workers=N`` (CLI ``--workers N``) self-spawns ``N`` local worker
  subprocesses — zero-setup multi-process distribution on one machine;
* ``workers=N, pool=True`` (CLI ``--pool``) keeps that fleet **warm**:
  the subprocesses spawn once and serve every subsequent ``execute()``
  call (a Workbench regenerating several figures, repeated sweeps in
  one session) instead of paying interpreter+import startup per sweep
  — the cost that made small multi-worker sweeps *slower* than one
  worker.  ``close()`` (via ``ExecutionContext.close()``) retires the
  fleet;
* ``workers=0`` publishes and waits for *external* workers: processes
  started by hand, by a cluster scheduler, or on other hosts sharing
  the queue directory (``python -m repro.experiments worker --queue
  DIR`` on each).

Self-spawned workers are babysat from the collector's poll hook: a
worker that dies while shards remain is respawned (within a bounded,
per-round budget), and if no subprocess can run at all the driver
degrades to draining the queue in-process — the same "the runner still
works, just without the speedup" guarantee the batched backend's
process pool gives.
Teardown is graceful: the driver publishes a shutdown sentinel, idle
workers exit on their own within the poll cap, and only stragglers are
terminated.  Results are bit-identical to ``serial`` for any worker
count, pool lifetime, claim batch size, crash schedule or claim
interleaving, because every unit's seed derives from its spec digest
alone.
"""

from __future__ import annotations

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
                 pool: bool = False,
                 claim_batch: int = 1) -> None:
        if workers < 0:
            raise ValueError("workers must be >= 0")
        if pool and workers < 1:
            raise ValueError("pool=True needs self-spawned workers "
                             "(workers >= 1); external fleets manage "
                             "their own lifecycle")
        if claim_batch < 1:
            raise ValueError("claim_batch must be >= 1")
        self.queue_dir = Path(queue_dir)
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.max_attempts = max_attempts
        self.poll_s = poll_s
        self.timeout_s = timeout_s
        self.pool = pool
        self.claim_batch = claim_batch
        #: the warm fleet, kept across execute() calls when pool=True
        self._pool: WorkerPool | None = None

    # ------------------------------------------------------------------
    def _fleet(self) -> WorkerPool:
        """The fleet for this round: warm (reused) or one-shot."""
        if self.pool:
            if self._pool is None or self._pool.closed:
                self._pool = WorkerPool(
                    self.queue_dir, self.workers,
                    lease_ttl_s=self.lease_ttl_s, poll_s=self.poll_s,
                    max_attempts=self.max_attempts,
                    claim_batch=self.claim_batch)
            return self._pool
        return WorkerPool(
            self.queue_dir, self.workers,
            lease_ttl_s=self.lease_ttl_s, poll_s=self.poll_s,
            max_attempts=self.max_attempts,
            claim_batch=self.claim_batch,
            max_idle_s=max(WorkerPool.ONESHOT_MAX_IDLE_S,
                           5.0 * self.lease_ttl_s))

    def close(self) -> None:
        """Retire the warm fleet (no-op without ``pool=True``)."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    # ------------------------------------------------------------------
    def execute(self, plan: ExecutionPlan, jobs: int,
                finish: FinishFn) -> BackendRun:
        queue = WorkQueue(self.queue_dir,
                          lease_ttl_s=self.lease_ttl_s).ensure()
        # A sentinel left by an earlier round's teardown must not
        # retire workers spawned for this one.
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
            # fleet at all — don't pay N interpreter startups for it.
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
                # No subprocess can run (restricted host, or the
                # respawn budget is spent): drain in-process so the
                # sweep still completes, identically.
                fallback.run_once()

        try:
            Collector(queue, [t.task_id for t in tasks],
                      max_attempts=self.max_attempts,
                      poll_s=self.poll_s,
                      timeout_s=self.timeout_s).collect(
                finish, on_poll=tend)
        finally:
            if fleet is not None and not self.pool:
                # One-shot fleet: sentinel-retire it now.  A warm pool
                # stays up for the next round (close() ends it).
                fleet.close()
                queue.clear_shutdown()
        # Honest accounting: a plan served wholly from pre-existing
        # results/ (enqueued == 0) never left this process.
        run.parallel = peak_alive > 0 or (self.workers == 0
                                          and enqueued > 0)
        run.workers = self.workers if peak_alive > 0 else 0
        return run
