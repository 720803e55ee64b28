"""Worker pools: local worker subprocesses that outlive a sweep.

Spawning a worker costs an interpreter start and the package's
imports, more than the work itself on a small sweep.  A
:class:`WorkerPool` spawns the fleet **once** and keeps it alive
across any number of published plans: workers idle between rounds
(cheap — idle polling backs off exponentially) and pick the next
plan's shards up within the bounded poll cap.

Lifecycle:

* ``ensure()`` — reap exited workers and respawn up to the target
  count, within a per-round respawn budget (the budget resets each
  round via ``reset_budget()``, so a long-lived pool is not starved by
  crashes in earlier sweeps, while a host that cannot spawn at all
  still exhausts quickly and lets the caller fall back in-process).
* ``close()`` — publish the queue's shutdown sentinel, give workers a
  grace period to exit on their own (they always drain claimable work
  first; an idle one reads the sentinel within
  :data:`~repro.runner.distributed.worker.SENTINEL_POLL_S`), then
  terminate stragglers.  Workers exiting via the sentinel
  finish cleanly: logs flushed, exit code 0.

If the driver dies so hard that ``close()`` never runs (SIGKILL, OOM),
workers self-exit after :attr:`WorkerPool.MAX_IDLE_S` without
claimable work — the orphan bound.  A worker that idles out between
two rounds of a live driver costs only a respawn: ``ensure()`` tops
the fleet back up when the next round publishes.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from .lease import DEFAULT_LEASE_TTL_S
from .queue import DEFAULT_MAX_ATTEMPTS, WorkQueue


def _worker_command(queue_root: Path, lease_ttl_s: float,
                    poll_s: float, max_attempts: int,
                    max_idle_s: float, claim_batch: int,
                    spawned_at: float) -> list[str]:
    return [sys.executable, "-m", "repro.experiments", "worker",
            "--queue", str(queue_root),
            "--lease-ttl", repr(lease_ttl_s),
            "--poll", repr(poll_s),
            "--max-attempts", str(max_attempts),
            "--max-idle", repr(max_idle_s),
            "--claim-batch", str(claim_batch),
            "--since", repr(spawned_at)]


def _worker_env() -> dict[str, str]:
    """The subprocess environment, with ``repro`` importable."""
    import repro

    src_root = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    paths = env.get("PYTHONPATH", "")
    if src_root not in paths.split(os.pathsep):
        env["PYTHONPATH"] = (src_root + os.pathsep + paths if paths
                             else src_root)
    return env


class WorkerPool:
    """A persistent fleet of local worker subprocesses on one queue."""

    #: Orphan bound: a worker idle this long (or five lease TTLs, if
    #: longer) exits on its own; it matters only if the driver died
    #: without retiring the fleet.
    MAX_IDLE_S = 60.0

    def __init__(self, queue_dir: str | Path, workers: int,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
                 poll_s: float = 0.05,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 claim_batch: int = 1) -> None:
        if workers < 1:
            raise ValueError("a worker pool needs workers >= 1")
        self.queue_dir = Path(queue_dir)
        self.workers = workers
        self.lease_ttl_s = lease_ttl_s
        self.poll_s = poll_s
        self.max_attempts = max_attempts
        self.claim_batch = claim_batch
        self.max_idle_s = max(self.MAX_IDLE_S, 5.0 * lease_ttl_s)
        self.procs: list[subprocess.Popen] = []
        self._spawned = 0
        self.spawns_left = 0
        self.reset_budget()
        self.closed = False

    # ------------------------------------------------------------------
    def reset_budget(self) -> None:
        """Refill the respawn budget for a new round of work."""
        self.spawns_left = max(2 * self.workers, 4)

    def alive(self) -> int:
        """Reap exited workers; how many are currently running."""
        self.procs = [p for p in self.procs if p.poll() is None]
        return len(self.procs)

    def _spawn(self) -> bool:
        if self.spawns_left <= 0:
            return False
        # A failed attempt also consumes budget: a host that truly
        # cannot spawn exhausts it within a few polls and drops to the
        # caller's in-process fallback, while a transient fork error
        # just retries on the next poll.
        self.spawns_left -= 1
        log_path = (self.queue_dir / "logs" /
                    f"worker-{self._spawned}.log")
        # The spawn time, not the worker's own start, dates the
        # sentinels it honours: a worker still importing when a short
        # round ends must exit on that round's sentinel, not idle out.
        command = _worker_command(self.queue_dir, self.lease_ttl_s,
                                  self.poll_s, self.max_attempts,
                                  self.max_idle_s, self.claim_batch,
                                  spawned_at=time.time())
        try:
            with open(log_path, "ab") as log:
                self.procs.append(subprocess.Popen(
                    command, env=_worker_env(), stdout=log, stderr=log))
        except OSError:
            return False
        self._spawned += 1
        return True

    def ensure(self) -> int:
        """Top the fleet back up to the target count; live workers."""
        if self.closed:
            raise RuntimeError("worker pool is closed")
        while self.alive() < self.workers and self._spawn():
            pass
        return self.alive()

    # ------------------------------------------------------------------
    def close(self, grace_s: float = 5.0) -> None:
        """Retire the fleet: sentinel first, termination as backstop.

        Idempotent.  The sentinel is left on disk afterwards — it
        marks the queue as quiesced, and the next driver round clears
        it before publishing (a *stale* sentinel never kills a younger
        fleet: workers ignore sentinels older than their own start).
        """
        if self.closed:
            return
        self.closed = True
        if not self.procs:
            return
        queue = WorkQueue(self.queue_dir,
                          lease_ttl_s=self.lease_ttl_s).ensure()
        queue.request_shutdown()
        deadline = time.monotonic() + grace_s
        for proc in self.procs:
            try:
                proc.wait(timeout=max(0.0,
                                      deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.procs = []

    def __enter__(self) -> "WorkerPool":
        self.ensure()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
