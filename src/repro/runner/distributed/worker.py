"""The worker loop: claim shards, execute, write results back.

A worker is stateless and crash-safe by construction: everything it
holds is re-derivable from the queue directory.  If it dies mid-task
its lease expires and the collector re-enqueues the shard; if it dies
between tasks nothing is lost at all.  Any number of workers — local
subprocesses the backend self-spawned, or processes on other hosts
pointed at a shared directory — can drain one queue concurrently.

Execution reuses the existing backends' kernels verbatim
(:func:`~repro.runner.backends._execute_group` for batch shards, one
``unit.execute()`` per lone unit), so a distributed run produces
bit-identical results to a serial one: seeds derive from spec digests
and never from which worker ran what, when.

Queue round-trips are kept off the critical path two ways:

* ``claim_batch=N`` claims up to N tasks per round — one ``todo/``
  listing, one lease heartbeat — and executes them back to back, with
  each task still completed (or failed) individually, so the retry
  protocol is per-task exactly as before.  A worker that dies holding
  a batch loses the whole batch to lease expiry; each co-claimed task
  costs one attempt, the same bounded price a wide shard already pays.
* Idle polling backs off exponentially with jitter instead of statting
  the queue at a fixed rate: an idle fleet converges to a few listings
  per second *total*, not per worker, while a freshly published plan
  is still picked up within the (bounded) backoff cap.  Between two
  listings an idle worker reads only the shutdown sentinel, every
  :data:`SENTINEL_POLL_S`, so a retiring fleet exits at once instead
  of at its next backed-off listing.

A worker that claims a fast-engine task on a host that cannot build
the compiled kernel hands the task back unspent and stops claiming, so
the task waits for a worker that can run it instead of burning its
attempts here.

:func:`worker_main` is the ``worker`` verb's entry point, shared by the
CLI and by the pool's forked workers (see ``python -m
repro.experiments worker --help``)::

    python -m repro.experiments worker --queue DIR
"""

from __future__ import annotations

import itertools
import random
import sys
import threading
import time

from ...noc.fastsim.kernel import KernelBuildError
from .lease import DEFAULT_LEASE_TTL_S
from .queue import (Claim, DEFAULT_MAX_ATTEMPTS, QueueError, WorkQueue,
                    default_worker_id)

_worker_counter = itertools.count()

#: Hard cap on the idle-poll backoff, so a worker never lags a newly
#: published plan by more than this many seconds.
MAX_IDLE_POLL_S = 2.0

#: How often an idle worker reads the shutdown sentinel while it
#: waits for its next ``todo/`` listing.
SENTINEL_POLL_S = 0.1


class Worker:
    """Claims tasks from one queue and executes them to completion."""

    def __init__(self, queue: WorkQueue, worker_id: str | None = None,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 claim_batch: int = 1) -> None:
        self.queue = queue
        self.worker_id = (worker_id or
                          f"{default_worker_id()}-{next(_worker_counter)}")
        self.max_attempts = max_attempts
        self.claim_batch = claim_batch
        self.executed = 0
        self.failed = 0
        #: Why this host cannot run a task it claimed (the kernel
        #: loader's error); once set, the worker claims no more.
        self.kernel_error: KernelBuildError | None = None
        # Owned jitter source for idle-poll backoff: OS-entropy
        # seeded, so a fleet's polls decorrelate without touching the
        # process-global RNG (whose state user code may have seeded).
        self._jitter = random.Random()

    # ------------------------------------------------------------------
    def run_once(self) -> bool:
        """Claim up to ``claim_batch`` tasks and finish (or fail) each;
        False when the queue had nothing claimable."""
        claims = self.queue.claim_batch(self.claim_batch,
                                        self.worker_id)
        if not claims:
            return False
        self.execute_claims(claims)
        return True

    def execute_claim(self, claim: Claim) -> None:
        """Execute one claimed task (see :meth:`execute_claims`)."""
        self.execute_claims([claim])

    def execute_claims(self, claims: list[Claim]) -> None:
        """Execute claimed tasks back to back under one lease heartbeat.

        A single background thread renews every *still-held* lease in
        the batch each tick (TTL/3 of the shortest claim), so
        arbitrarily long shards never expire under a healthy worker —
        only a *dead* worker's leases lapse.  A claim leaves the
        heartbeat set (under the lock, so a tick can never resurrect
        it) immediately before its completion or release is written.

        An execution error does not kill the worker and does not
        abandon the rest of the batch: the failing ticket goes back to
        the queue (or to ``failed/`` once its attempt budget is spent,
        carrying the error history for the collector to surface) and
        execution moves on to the next claimed task.  A
        :class:`KernelBuildError` is no fault of the task: it and every
        claim still held go back to ``todo/`` with their attempt counts
        unchanged, and the worker records the error in
        :attr:`kernel_error` and stops.
        """
        held = list(claims)
        lock = threading.Lock()
        stop = threading.Event()
        interval = max(min(c.ttl_s for c in claims) / 3.0, 0.02)

        def heartbeat() -> None:
            while not stop.wait(interval):
                with lock:
                    try:
                        self.queue.renew_many(held)
                    except OSError:  # pragma: no cover - transient fs
                        pass         # error; the next beat retries

        beat = threading.Thread(target=heartbeat, daemon=True)
        beat.start()

        def release(claim: Claim) -> None:
            with lock:
                held.remove(claim)

        try:
            for index, claim in enumerate(claims):
                try:
                    task = self.queue.load_payload(claim)
                    results = list(task.iter_results())
                except KernelBuildError as exc:
                    self.kernel_error = exc
                    for unrun in claims[index:]:
                        release(unrun)
                        self.queue.release(unrun)
                    break
                except Exception as exc:  # noqa: BLE001 — task faults
                    # must not take down the worker; they are reported
                    # via the ticket.
                    release(claim)
                    outcome = self.queue.release_error(
                        claim, f"{type(exc).__name__}: {exc}",
                        self.max_attempts)
                    if outcome == "failed":
                        self.failed += 1
                    continue
                release(claim)
                self.queue.complete(claim, results)
                self.executed += 1
        finally:
            stop.set()
            beat.join()

    def drain(self) -> int:
        """Execute until the queue has nothing claimable; rounds done."""
        done = 0
        while self.kernel_error is None and self.run_once():
            done += 1
        return done

    def run(self, poll_s: float = 0.2, max_tasks: int | None = None,
            max_idle_s: float | None = None,
            since: float | None = None) -> int:
        """The long-running loop: claim, execute, back off when idle.

        Exits after ``max_tasks`` executed-or-failed tasks (``None`` =
        unbounded), once a task could not run for want of the kernel
        (:attr:`kernel_error`), after ``max_idle_s`` seconds without claimable work
        (``None`` = wait forever), or as soon as the queue is idle and
        the driver has published a shutdown sentinel at or after
        ``since`` (the self-spawned fleet's teardown — workers
        always drain claimable work before honouring it).  ``since``
        defaults to this loop's start; a spawning driver passes the
        spawn time instead, so a sentinel published while the worker
        was still starting up retires it too.  Returns the number of
        tasks handled.

        Idle polls start at ``poll_s`` and double (with +-50% jitter,
        so a fleet's polls decorrelate instead of stampeding the
        filesystem together) up to :data:`MAX_IDLE_POLL_S`; any
        successful claim resets the backoff.  A sentinel published
        during the wait ends it early (:meth:`_idle`), and the loop
        lists ``todo/`` once more before it exits.
        """
        handled = 0
        started = time.time() if since is None else since
        idle_since: float | None = None
        delay = poll_s
        cap = max(poll_s, MAX_IDLE_POLL_S)
        while max_tasks is None or handled < max_tasks:
            before = self.executed + self.failed
            if self.run_once():
                handled += self.executed + self.failed - before
                if self.kernel_error is not None:
                    break
                idle_since = None
                delay = poll_s
                continue
            now = time.time()
            idle_since = idle_since if idle_since is not None else now
            if (max_idle_s is not None
                    and now - idle_since >= max_idle_s):
                break
            if self.queue.shutdown_requested(since=started):
                break
            self._idle(delay * self._jitter.uniform(0.5, 1.5), started)
            delay = min(delay * 2.0, cap)
        return handled

    def _idle(self, seconds: float, since: float) -> None:
        """Wait ``seconds``, or less once a shutdown sentinel at or
        after ``since`` appears (read every :data:`SENTINEL_POLL_S`)."""
        end = time.monotonic() + seconds
        while (left := end - time.monotonic()) > 0:
            time.sleep(min(left, SENTINEL_POLL_S))
            if self.queue.shutdown_requested(since=since):
                return


def worker_main(argv: list[str]) -> int:
    """``python -m repro.experiments worker``: drain a work queue.

    Also the entry point of the pool's forked workers, on the
    arguments :func:`~repro.runner.distributed.pool._worker_command`
    spells after ``worker``.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments worker",
        description="Claim and execute sweep shards from a shared "
                    "work-queue directory (see README 'Distributed "
                    "execution').")
    parser.add_argument("--queue", required=True, metavar="DIR",
                        help="work-queue directory shared with the "
                             "driver (created if missing)")
    parser.add_argument("--lease-ttl", type=float,
                        default=DEFAULT_LEASE_TTL_S, metavar="S",
                        help="lease time-to-live in seconds; a "
                             "heartbeat renews it every TTL/3 while a "
                             "task executes (default "
                             f"{DEFAULT_LEASE_TTL_S:g})")
    parser.add_argument("--poll", type=float, default=0.2, metavar="S",
                        help="idle poll interval in seconds "
                             "(default 0.2)")
    parser.add_argument("--max-tasks", type=int, default=None,
                        metavar="N",
                        help="exit after handling N tasks (default: "
                             "unbounded)")
    parser.add_argument("--max-idle", type=float, default=None,
                        metavar="S",
                        help="exit after S seconds without claimable "
                             "work (default: wait forever)")
    parser.add_argument("--max-attempts", type=int,
                        default=DEFAULT_MAX_ATTEMPTS, metavar="N",
                        help="per-task attempt budget before a task "
                             f"is marked failed (default "
                             f"{DEFAULT_MAX_ATTEMPTS})")
    parser.add_argument("--claim-batch", type=int, default=1,
                        metavar="N",
                        help="tasks to claim per queue round-trip "
                             "(default 1; higher cuts filesystem "
                             "chatter on shared/network queues — see "
                             "README 'Distributed execution')")
    parser.add_argument("--since", type=float, default=None,
                        metavar="T",
                        help="honour shutdown sentinels published at "
                             "or after wall-clock time T (seconds "
                             "since the epoch; default: when the loop "
                             "starts).  Self-spawning drivers pass the "
                             "spawn time")
    args = parser.parse_args(argv)
    if args.lease_ttl <= 0:
        parser.error("--lease-ttl must be > 0")
    if args.poll <= 0:
        parser.error("--poll must be > 0")
    if args.max_attempts < 1:
        parser.error("--max-attempts must be >= 1")
    if args.claim_batch < 1:
        parser.error("--claim-batch must be >= 1")
    if args.max_tasks is not None and args.max_tasks < 1:
        parser.error("--max-tasks must be >= 1")
    if args.max_idle is not None and args.max_idle < 0:
        parser.error("--max-idle must be >= 0")
    try:
        queue = WorkQueue(args.queue,
                          lease_ttl_s=args.lease_ttl).ensure()
    except QueueError as exc:
        parser.error(str(exc))
    worker = Worker(queue, max_attempts=args.max_attempts,
                    claim_batch=args.claim_batch)
    handled = worker.run(poll_s=args.poll, max_tasks=args.max_tasks,
                         max_idle_s=args.max_idle, since=args.since)
    print(f"[worker {worker.worker_id}: {handled} task(s) handled, "
          f"{worker.failed} failed]", file=sys.stderr)
    if worker.kernel_error is not None:
        print(f"[worker {worker.worker_id}: stopped claiming, its "
              f"tasks went back to the queue: {worker.kernel_error}]",
              file=sys.stderr)
    # Non-zero when this worker exhausted any task's retry budget or
    # cannot run the queue's tasks, so supervisors (CI steps, cluster
    # schedulers) notice a worker that can only burn attempts.
    return 1 if worker.failed or worker.kernel_error else 0
