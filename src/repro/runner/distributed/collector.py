"""The driver-side collector: block until a published plan completes.

The collector owns the fault-tolerance half of the queue protocol.  On
every poll it

1. serves any newly written result files through the runner's
   ``finish`` callback (results arrive in whatever order workers
   produce them; the runner's plan maps each back to its submission
   slots by digest);
2. re-enqueues claimed tasks whose lease expired — a dead worker's
   shards go back to ``todo/`` with their attempt count incremented —
   and, on the same cadence, reclaims ``tmp/`` staging files orphaned
   by workers that crashed mid-atomic-write.  These sweeps run every
   ``max(poll_s, lease_ttl_s / 4)`` seconds, not every poll;
3. surfaces tasks whose retry budget is exhausted as a
   :class:`FailedUnitError` carrying the full error history, rather
   than letting the sweep hang on work that can never finish.

An ``on_poll`` hook runs once per iteration; the distributed backend
uses it to babysit self-spawned workers (respawn dead ones, fall back
to in-process execution when no worker can run).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Iterable

from ..backends import FinishFn
from .queue import DEFAULT_MAX_ATTEMPTS, QueueError, WorkQueue


class FailedUnitError(QueueError):
    """Tasks exhausted their retry budget; the sweep cannot complete."""

    def __init__(self, failures: dict[str, dict]) -> None:
        self.failures = failures
        lines = []
        for task_id, ticket in sorted(failures.items()):
            errors = ticket.get("errors") or ["no error recorded"]
            lines.append(f"  {task_id} ({ticket.get('attempts', '?')} "
                         f"attempts): {errors[-1]}")
        super().__init__(
            "distributed execution failed for "
            f"{len(failures)} task(s):\n" + "\n".join(lines))


class CollectTimeout(QueueError):
    """The plan did not complete within the collector's deadline."""


@dataclass(frozen=True)
class CollectStats:
    """Bookkeeping of one collection."""

    tasks: int
    requeues: int
    polls: int


#: Per-iteration hook; receives the task ids still outstanding.
PollHook = Callable[[set], None]


class Collector:
    """Waits on one published plan's tasks in one queue."""

    def __init__(self, queue: WorkQueue, task_ids: Iterable[str],
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 poll_s: float = 0.05,
                 timeout_s: float | None = None) -> None:
        self.queue = queue
        self.task_ids = tuple(task_ids)
        self.max_attempts = max_attempts
        self.poll_s = poll_s
        self.timeout_s = timeout_s

    def collect(self, finish: FinishFn,
                on_poll: PollHook | None = None) -> CollectStats:
        """Serve every task's results through ``finish``; block until
        the plan is complete.  Raises :class:`FailedUnitError` when a
        task exhausts its retries, :class:`CollectTimeout` past the
        deadline."""
        outstanding = set(self.task_ids)
        deadline = (None if self.timeout_s is None
                    else time.time() + self.timeout_s)
        # The per-poll cost is one results/ listing (plus one failed/
        # listing); the claimed-directory expiry sweep runs on its own,
        # coarser cadence.  A few sweeps per lease TTL is enough to
        # keep worst-case crash-recovery latency a fraction of the TTL,
        # which matters on the network filesystems multi-host queues
        # live on.
        sweep_interval_s = max(self.poll_s, self.queue.lease_ttl_s / 4.0)
        last_sweep = 0.0
        requeues = polls = 0
        while outstanding:
            for task_id in sorted(self.queue.result_ids()
                                  & outstanding):
                for result in self.queue.load_results(task_id):
                    finish(result)
                outstanding.discard(task_id)
            if not outstanding:
                break
            failures = self.queue.failed_tickets(outstanding)
            if failures:
                raise FailedUnitError(failures)
            now = time.time()
            if now - last_sweep >= sweep_interval_s:
                last_sweep = now
                report = self.queue.requeue_expired(self.max_attempts,
                                                    now=now)
                requeues += len(report.requeued)
                # Same cadence: reclaim staging files orphaned by
                # workers that crashed mid-atomic-write (they would
                # otherwise accumulate in tmp/ forever).
                self.queue.sweep_stale_tmp(now)
            if on_poll is not None:
                on_poll(outstanding)
            now = time.time()
            if deadline is not None and now >= deadline:
                raise CollectTimeout(
                    f"{len(outstanding)} task(s) still outstanding "
                    f"after {self.timeout_s:.1f}s: "
                    f"{', '.join(sorted(outstanding))}")
            polls += 1
            # Clamp the final sleep to the remaining deadline: with a
            # poll interval coarser than the timeout, sleeping a full
            # poll would fire CollectTimeout up to one whole poll_s
            # late (the deadline is only checked between sleeps).
            sleep_s = self.poll_s
            if deadline is not None:
                sleep_s = min(sleep_s, max(deadline - now, 0.0))
            time.sleep(sleep_s)
        return CollectStats(tasks=len(self.task_ids),
                            requeues=requeues, polls=polls)
