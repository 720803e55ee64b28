"""Worker pools: local worker processes that outlive a sweep.

A self-spawned worker is a **fork of its driver**.  It starts with
everything the driver has imported, its registered plugins and its
loaded kernel, so its first claim follows the spawn at once, where a
fresh interpreter would first spend a quarter of a second importing
the package.  The child runs the ``worker`` verb's own entry point
(:func:`~repro.runner.distributed.worker.worker_main`) on the arguments
:func:`_worker_command` spells after ``worker``, so it parses, polls,
retires and logs exactly like ``python -m repro.experiments worker``.
Its stdout and stderr go to ``logs/worker-N.log``, stdin to
``/dev/null``, and its process name (what ``pgrep`` matches without
``-f``) is ``repro-worker``: it keeps its driver's command line.  It
leaves only through ``os._exit``, so it never returns into the
driver's stack and never runs the driver's ``atexit`` handlers or
``weakref.finalize`` callbacks (the driver's pool finalizer would
retire the whole fleet from inside one worker).  The driver forks only
where none of this package's threads runs: the in-process fallback
joins its heartbeat thread before it returns.  A platform without
``os.fork`` cannot spawn, and the backend drains the queue in
process.

A :class:`WorkerPool` spawns the fleet **once** and keeps it alive
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

import ctypes
import gc
import os
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NoReturn

from .lease import DEFAULT_LEASE_TTL_S
from .queue import DEFAULT_MAX_ATTEMPTS, WorkQueue
from .worker import worker_main

#: A forked worker's process name, for ``pgrep -x repro-worker``.
WORKER_PROCESS_NAME = b"repro-worker"


def _worker_command(queue_root: Path, lease_ttl_s: float,
                    poll_s: float, max_attempts: int,
                    max_idle_s: float, claim_batch: int,
                    spawned_at: float) -> list[str]:
    """A self-spawned worker's settings, spelled as the command line of
    the ``worker`` verb it runs."""
    return [sys.executable, "-m", "repro.experiments", "worker",
            "--queue", str(queue_root),
            "--lease-ttl", repr(lease_ttl_s),
            "--poll", repr(poll_s),
            "--max-attempts", str(max_attempts),
            "--max-idle", repr(max_idle_s),
            "--claim-batch", str(claim_batch),
            "--since", repr(spawned_at)]


class ForkedWorker:
    """A forked worker's handle: the part of ``subprocess.Popen`` the
    pool uses (``pid``, ``returncode``, ``poll``, ``wait``,
    ``terminate``, ``kill``)."""

    def __init__(self, pid: int) -> None:
        self.pid = pid
        self.returncode: int | None = None

    def poll(self) -> int | None:
        """Reap the child if it has exited; its exit code, or None."""
        if self.returncode is None:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:   # reaped elsewhere: gone, and
                pid, status = self.pid, 0   # its status with it
            if pid:
                self.returncode = os.waitstatus_to_exitcode(status)
        return self.returncode

    def wait(self, timeout: float | None = None) -> int:
        """Block until the child exits; ``subprocess.TimeoutExpired``
        after ``timeout`` seconds."""
        deadline = None if timeout is None else time.monotonic() + timeout
        delay = 0.0005
        while self.poll() is None:
            left = (float("inf") if deadline is None
                    else deadline - time.monotonic())
            if left <= 0:
                raise subprocess.TimeoutExpired(f"worker {self.pid}",
                                                timeout)
            time.sleep(min(delay, left))
            delay = min(delay * 2.0, 0.05)
        return self.returncode

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def _signal(self, signum: int) -> None:
        if self.poll() is None:         # never a reaped, reusable pid
            os.kill(self.pid, signum)


def _fork_worker(command: list[str], log_path: Path) -> ForkedWorker:
    """Fork a worker that runs ``command``'s ``worker`` arguments and
    logs to ``log_path``; ``OSError`` where the driver cannot fork."""
    fork = getattr(os, "fork", None)
    if fork is None:
        raise OSError("this platform cannot fork a worker")
    argv = command[command.index("worker") + 1:]
    # The child never writes the driver's buffered output, but a
    # flushed buffer cannot be written twice by anyone.
    _flush_std_streams()
    with open(log_path, "ab") as log:
        # SIGINT/SIGTERM stay blocked until the child has restored
        # their default handling: a Ctrl-C landing between the fork
        # and the child's entry must not raise into the driver's stack.
        mask = signal.pthread_sigmask(
            signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
        try:
            pid = fork()
            if pid == 0:
                _worker_child(argv, log.fileno(), mask)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, mask)
    return ForkedWorker(pid)


def _worker_child(argv: list[str], log_fd: int, mask) -> NoReturn:
    """A forked worker's whole life: run the ``worker`` verb, then
    ``os._exit`` with its exit code, whatever happens."""
    code = 1
    # The driver's streams stay referenced until the exit, so rebinding
    # the names below cannot flush or close them.
    driver_streams = (sys.stdin, sys.stdout, sys.stderr)
    try:
        for signum in (signal.SIGINT, signal.SIGTERM):
            signal.signal(signum, signal.SIG_DFL)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        null = os.open(os.devnull, os.O_RDONLY)
        os.dup2(null, 0)
        os.close(null)
        os.dup2(log_fd, 1)
        os.dup2(log_fd, 2)
        sys.stdin = open(0, closefd=False)
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, closefd=False,
                          errors="backslashreplace")
        # Objects inherited from the driver are never collected here,
        # so none of the driver's finalizers can run in a worker.
        gc.freeze()
        _name_process(WORKER_PROCESS_NAME)
        code = worker_main(argv)
    except SystemExit as exc:           # argparse's usage errors
        code = _exit_code(exc)
    except BaseException:  # noqa: BLE001 — reported in the log; the
        traceback.print_exc()   # child must reach os._exit regardless
    finally:
        _flush_std_streams()
        os._exit(code)


def _exit_code(exc: SystemExit) -> int:
    """The status a ``SystemExit`` would give the interpreter."""
    if exc.code is None:
        return 0
    if isinstance(exc.code, int):
        return exc.code
    print(exc.code, file=sys.stderr)
    return 1


def _flush_std_streams() -> None:
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (AttributeError, ValueError, OSError):
            pass            # no stream, or a closed one: nothing held


def _name_process(name: bytes) -> None:
    """Set this process's name (Linux ``prctl(PR_SET_NAME)``); a no-op
    where that is unavailable."""
    if not sys.platform.startswith("linux"):
        return
    try:
        ctypes.CDLL(None).prctl(15, name, 0, 0, 0)  # 15: PR_SET_NAME
    except (OSError, AttributeError):
        pass


class WorkerPool:
    """A persistent fleet of forked local workers on one queue."""

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
        self.procs: list[ForkedWorker] = []
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
        # sentinels it honours: a worker still starting when a short
        # round ends must exit on that round's sentinel, not idle out.
        command = _worker_command(self.queue_dir, self.lease_ttl_s,
                                  self.poll_s, self.max_attempts,
                                  self.max_idle_s, self.claim_batch,
                                  spawned_at=time.time())
        try:
            self.procs.append(_fork_worker(command, log_path))
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
