"""The shared-directory work queue: claims, leases, results, retries.

One queue is one directory, usable by any number of workers that can
see it (local processes, or hosts sharing a network filesystem).  All
coordination is plain files and two POSIX guarantees: ``rename`` is
atomic, and renaming a path that another renamer already consumed
fails.  There is no server and no locking.

Layout::

    queue/
      tasks/    task payloads (``<id>.pkl``), immutable once published
      todo/     claim tickets (``<id>.json``) — present = claimable
      claimed/  tickets a worker has claimed (rename target)
      leases/   lease files for claimed tickets (see ``lease.py``)
      results/  completed tasks (``<id>.pkl``: pickled UnitResults)
      failed/   tickets whose retry budget is exhausted
      tmp/      staging area for atomic writes
      logs/     self-spawned worker logs

Protocol:

* **publish** — write the payload, then a ticket into ``todo/``.  A
  task whose result file already exists is *not* re-enqueued: task ids
  derive from the unit spec digests, so the results directory doubles
  as a digest-keyed on-disk extension of the
  :class:`~repro.runner.cache.UnitCache`.
* **claim** — rename the ticket ``todo/ -> claimed/``.  Exactly one
  renamer wins; losers see the source vanish and move on.  The winner
  writes a lease and starts executing.
* **complete** — write the results atomically (tmp + rename), then
  drop the ticket and lease.  Because results are deterministic,
  completion is idempotent: duplicate executions (an expired lease
  whose worker was merely slow) overwrite the file with identical
  bytes.
* **requeue/fail** — an error or an expired lease sends the ticket
  back to ``todo/`` with its attempt count incremented, until
  ``max_attempts`` is exhausted and the ticket lands in ``failed/``
  for the collector to surface.

Payloads cross the directory as pickles, exactly as work units cross
process-pool boundaries; only point a queue at directories you trust.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import pickle
import socket
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .lease import DEFAULT_LEASE_TTL_S, Lease, read_lease

#: How many times a task may be attempted (first run + retries)
#: before it is declared failed.
DEFAULT_MAX_ATTEMPTS = 3

_QUEUE_DIRS = ("tasks", "todo", "claimed", "leases", "results",
               "failed", "tmp", "logs", "control")

_tmp_counter = itertools.count()


class QueueError(RuntimeError):
    """A work-queue operation could not proceed."""


def default_worker_id() -> str:
    """A worker identity unique across hosts and processes."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class Claim:
    """One worker's successful claim of one task."""

    task_id: str
    worker_id: str
    ticket: dict
    ttl_s: float

    @property
    def attempts(self) -> int:
        """Attempts already spent *before* this claim."""
        return int(self.ticket.get("attempts", 0))


@dataclass(frozen=True)
class RequeueReport:
    """What one expiry sweep did."""

    requeued: tuple[str, ...] = ()
    failed: tuple[str, ...] = ()


class WorkQueue:
    """A shared-directory work queue rooted at ``root``."""

    def __init__(self, root: str | Path,
                 lease_ttl_s: float = DEFAULT_LEASE_TTL_S) -> None:
        self.root = Path(root)
        self.lease_ttl_s = lease_ttl_s
        #: driver-side: when each leaseless claimed ticket was first
        #: observed (grace clock for workers that died before their
        #: lease write — see :meth:`requeue_expired`)
        self._unleased_since: dict[str, float] = {}

    # --- layout -------------------------------------------------------
    def ensure(self) -> "WorkQueue":
        """Create the queue layout (idempotent); validate the root."""
        if self.root.exists() and not self.root.is_dir():
            raise QueueError(
                f"queue root {str(self.root)!r} exists and is not a "
                f"directory")
        try:
            for name in _QUEUE_DIRS:
                (self.root / name).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise QueueError(
                f"cannot initialise work queue at {str(self.root)!r}: "
                f"{exc}") from exc
        return self

    def _dir(self, name: str) -> Path:
        return self.root / name

    def payload_path(self, task_id: str) -> Path:
        return self._dir("tasks") / f"{task_id}.pkl"

    def result_path(self, task_id: str) -> Path:
        return self._dir("results") / f"{task_id}.pkl"

    def lease_path(self, task_id: str) -> Path:
        return self._dir("leases") / f"{task_id}.json"

    # --- atomic writes ------------------------------------------------
    def _write_atomic(self, path: Path, data: bytes) -> None:
        tmp = self._dir("tmp") / (
            f"{path.name}.{os.getpid()}.{next(_tmp_counter)}")
        tmp.write_bytes(data)
        os.replace(tmp, path)

    def _write_ticket(self, directory: str, ticket: dict) -> None:
        self._write_atomic(
            self._dir(directory) / f"{ticket['task']}.json",
            json.dumps(ticket).encode())

    # --- publishing ---------------------------------------------------
    def pending_ticket(self, task_id: str) -> bool:
        """Is a claim ticket for this task live (todo or claimed)?"""
        return any((self._dir(where) / f"{task_id}.json").exists()
                   for where in ("todo", "claimed"))

    def publish(self, task_id: str, payload: Any) -> bool:
        """Publish one task; returns False when its result already
        exists (nothing to run — the collector serves it directly).

        Republishing resets the task's fate: a stale ``failed/``
        ticket from an earlier run (whose cause the operator has since
        fixed) is cleared, so the fresh attempt budget actually
        applies instead of the old failure poisoning the new plan.

        A task whose ticket is already *live* — queued in ``todo/`` or
        claimed by a worker right now — is not re-ticketed: a second
        publisher (another client submitting an overlapping sweep to a
        shared queue) must neither reset the in-flight ticket's
        attempt count nor race a duplicate ticket past the claim
        dedupe.  The call still returns True, because the task is
        outstanding work the caller has to wait on.
        """
        if self.has_result(task_id):
            return False
        if self.pending_ticket(task_id):
            return True
        try:
            (self._dir("failed") / f"{task_id}.json").unlink()
        except OSError:
            pass
        self._write_atomic(self.payload_path(task_id),
                           pickle.dumps(payload))
        self._write_ticket("todo", {"task": task_id, "attempts": 0,
                                    "errors": []})
        return True

    # --- claiming -----------------------------------------------------
    def claim(self, worker_id: str | None = None,
              ttl_s: float | None = None) -> Claim | None:
        """Claim one task by atomic rename; ``None`` when nothing is
        claimable.  Exactly one claimant wins each ticket."""
        claims = self.claim_batch(1, worker_id, ttl_s)
        return claims[0] if claims else None

    def claim_batch(self, n: int, worker_id: str | None = None,
                    ttl_s: float | None = None) -> list[Claim]:
        """Claim up to ``n`` tasks in one ``todo/`` listing.

        One directory scan serves the whole batch, so a worker asking
        for several tasks per round pays one round-trip of filesystem
        stats instead of ``n`` — the difference between dispatch-bound
        and worker-bound on the network filesystems shared queues live
        on.  Each task still gets its own ticket rename and lease, so
        the claim/expiry protocol (and every fault-tolerance guarantee
        built on it) is unchanged; losing a rename race skips to the
        next ticket.
        """
        worker_id = worker_id or default_worker_id()
        ttl_s = self.lease_ttl_s if ttl_s is None else ttl_s
        todo, claimed = self._dir("todo"), self._dir("claimed")
        claims: list[Claim] = []
        for name in sorted(os.listdir(todo)):
            if len(claims) >= n:
                break
            if not name.endswith(".json"):
                continue
            src, dst = todo / name, claimed / name
            try:
                os.rename(src, dst)
            except OSError:
                continue        # another claimant won this ticket
            try:
                ticket = json.loads(dst.read_text())
            except (OSError, ValueError):
                # The ticket is unreadable (a torn write), so the true
                # attempt count is lost.  Fabricate a replacement, but
                # *charge the fabrication as one attempt* — resetting
                # to zero would hand a crash-looping task a fresh
                # retry budget every time its ticket tears, letting it
                # retry forever.  The fabricated ticket is also
                # written back to ``claimed/`` so the rest of the
                # protocol (release_error's ownership check, the
                # expiry sweep's requeue) can read it; leaving the
                # torn bytes in place would strand the task in
                # ``claimed/`` unretirable.
                ticket = {"task": name[:-len(".json")], "attempts": 1,
                          "errors": ["ticket unreadable at claim; "
                                     "attempt count fabricated"]}
                self._write_ticket("claimed", ticket)
            if self.has_result(ticket["task"]):
                # A leftover ticket for an already-completed task (a
                # zombie's late requeue racing the real completion):
                # results are deterministic, so drop it, don't redo it.
                self._drop_claim(ticket["task"])
                continue
            claim = Claim(task_id=ticket["task"], worker_id=worker_id,
                          ticket=ticket, ttl_s=ttl_s)
            self.renew(claim)
            claims.append(claim)
        return claims

    def renew(self, claim: Claim) -> None:
        """Extend the claim's lease by its TTL from now."""
        lease = Lease.granted(claim.task_id, claim.worker_id,
                              claim.ttl_s)
        self._write_atomic(self.lease_path(claim.task_id),
                           lease.to_json())

    def renew_many(self, claims: list[Claim]) -> None:
        """Renew several held claims in one heartbeat tick."""
        for claim in claims:
            self.renew(claim)

    def load_payload(self, claim: Claim) -> Any:
        try:
            data = self.payload_path(claim.task_id).read_bytes()
        except OSError as exc:
            raise QueueError(f"task {claim.task_id!r} has no payload "
                             f"file: {exc}") from exc
        return pickle.loads(data)

    # --- completion / failure -----------------------------------------
    def _drop_claim(self, task_id: str) -> None:
        for path in ((self._dir("claimed") / f"{task_id}.json"),
                     self.lease_path(task_id)):
            try:
                path.unlink()
            except OSError:
                pass            # already dropped by a requeue sweep

    def complete(self, claim: Claim, results: list) -> None:
        """Record the task's results and release the claim."""
        self._write_atomic(self.result_path(claim.task_id),
                           pickle.dumps(list(results)))
        self._drop_claim(claim.task_id)

    def release_error(self, claim: Claim, error: str,
                      max_attempts: int = DEFAULT_MAX_ATTEMPTS) -> str:
        """An attempt failed: requeue or, out of budget, mark failed.

        Only the claim's *current owner* may retire it: if the expiry
        sweep already stole this claim and re-issued it (the on-disk
        ticket's attempt count moved past our snapshot, or the lease
        belongs to another worker), the late report is obsolete — the
        live claimant owns the task's fate now, and retiring with the
        stale snapshot would both steal its claim and regress the
        attempt counter below the true count.

        Returns ``"requeued"`` or ``"failed"``.
        """
        if not self._owns(claim):
            return "requeued"
        ticket = dict(claim.ticket)
        ticket["attempts"] = claim.attempts + 1
        ticket["errors"] = list(ticket.get("errors", ())) + [error]
        return self._retire(ticket, max_attempts,
                            expected_attempts=claim.attempts)

    def release(self, claim: Claim) -> None:
        """Hand a claim back unattempted: its ticket returns to
        ``todo/`` with its attempt count unchanged, for a worker that
        can run it.  Only the claim's current owner may (see
        :meth:`release_error`)."""
        if self._owns(claim):
            # No attempt was spent, so no budget can run out.
            self._retire(dict(claim.ticket), math.inf,
                         expected_attempts=claim.attempts)

    def _owns(self, claim: Claim) -> bool:
        """Is ``claim`` still its task's live claim (not retired,
        completed, or stolen by the expiry sweep and re-issued)?"""
        try:
            current = json.loads(
                (self._dir("claimed") / f"{claim.task_id}.json")
                .read_text())
        except (OSError, ValueError):
            return False        # already retired or completed
        if int(current.get("attempts", 0)) != claim.attempts:
            return False        # stolen and re-claimed; not ours
        lease = read_lease(self.lease_path(claim.task_id))
        return lease is None or lease.worker_id == claim.worker_id

    def _retire(self, ticket: dict, max_attempts: float,
                expected_attempts: int | None = None) -> str:
        """Route an updated ticket back to ``todo/`` or to ``failed/``.

        The ticket is rewritten *in place* in ``claimed/`` and then
        moved by one atomic rename, so it exists in exactly one
        directory at every instant: a fresh claimant renaming the new
        ``todo/`` ticket can never be silently clobbered by a
        straggling cleanup (write-then-delete would open exactly that
        window), and a crash mid-retire leaves the ticket recoverable
        in ``claimed/`` for the next expiry sweep.

        ``expected_attempts`` re-verifies ownership immediately before
        the overwrite: if the on-disk ticket's attempt count moved
        past the caller's snapshot while it stalled (the expiry sweep
        stole and re-issued the claim), the retire is obsolete and
        becomes a no-op.  Plain files cannot close this window fully,
        but re-checking here shrinks it from "since the claim" to
        microseconds, and the remaining race only costs a duplicate
        execution — never a lost task or a wrong result.
        """
        task_id = ticket["task"]
        destination = ("failed" if ticket["attempts"] >= max_attempts
                       else "todo")
        claimed_path = self._dir("claimed") / f"{task_id}.json"
        try:
            on_disk = json.loads(claimed_path.read_text())
        except (OSError, ValueError):
            # Someone else (a zombie worker vs the expiry sweep)
            # already retired this claim; nothing to route.
            return "requeued"
        if (expected_attempts is not None
                and int(on_disk.get("attempts", 0)) != expected_attempts):
            return "requeued"   # claim was stolen and re-issued
        self._write_atomic(claimed_path, json.dumps(ticket).encode())
        try:
            os.rename(claimed_path,
                      self._dir(destination) / f"{task_id}.json")
        except OSError:
            return "requeued"   # lost the retire race; ticket moved
        try:
            self.lease_path(task_id).unlink()
        except OSError:
            pass
        return "failed" if destination == "failed" else "requeued"

    # --- expiry (driver side) -----------------------------------------
    def requeue_expired(self, max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                        now: float | None = None) -> RequeueReport:
        """Re-enqueue claimed tasks whose lease has expired.

        A claimed ticket without a readable lease (the worker died in
        the claim/lease window, or the lease file is corrupt) gets a
        full TTL of grace from the sweep that *first observes* it in
        that state — the ticket file's own mtime is useless here, as
        rename preserves it from publish time, which would make any
        task that queued longer than the TTL look instantly expired.
        Each expiry costs one attempt; exhausted tickets move to
        ``failed/``.
        """
        now = time.time() if now is None else now
        requeued: list[str] = []
        failed: list[str] = []
        claimed = self._dir("claimed")
        for name in sorted(os.listdir(claimed)):
            if not name.endswith(".json"):
                continue
            task_id = name[:-len(".json")]
            if self.has_result(task_id):
                # A slow-but-alive worker finished after its lease
                # expired; nothing to retry.
                self._drop_claim(task_id)
                self._unleased_since.pop(task_id, None)
                continue
            lease = read_lease(self.lease_path(task_id))
            if lease is not None:
                self._unleased_since.pop(task_id, None)
                expired = lease.expired(now)
            else:
                first_seen = self._unleased_since.setdefault(task_id,
                                                             now)
                expired = now - first_seen > self.lease_ttl_s
            if not expired:
                continue
            self._unleased_since.pop(task_id, None)
            try:
                ticket = json.loads((claimed / name).read_text())
            except (OSError, ValueError):
                continue
            ticket["attempts"] = int(ticket.get("attempts", 0)) + 1
            ticket["errors"] = (list(ticket.get("errors", ()))
                                + [f"lease expired (worker "
                                   f"{lease.worker_id if lease else 'unknown'})"])
            if self._retire(ticket, max_attempts,
                            expected_attempts=ticket["attempts"] - 1) \
                    == "failed":
                failed.append(task_id)
            else:
                requeued.append(task_id)
        return RequeueReport(requeued=tuple(requeued),
                             failed=tuple(failed))

    def sweep_stale_tmp(self, now: float | None = None) -> tuple[str, ...]:
        """Delete orphaned ``tmp/`` staging files older than the TTL.

        Every queue write stages under ``tmp/`` and atomically renames
        into place; a worker crashing between the write and the rename
        strands the staging file forever.  Anything in ``tmp/`` whose
        mtime is older than the lease TTL cannot still be mid-write (a
        healthy write-then-rename is sub-second, and even the slowest
        writer would have renamed or died within one lease), so the
        collector's periodic sweep reclaims it.  Returns the names
        removed.
        """
        now = time.time() if now is None else now
        removed: list[str] = []
        tmp_dir = self._dir("tmp")
        try:
            names = sorted(os.listdir(tmp_dir))
        except OSError:
            return ()
        for name in names:
            path = tmp_dir / name
            try:
                if now - path.stat().st_mtime <= self.lease_ttl_s:
                    continue  # fresh: possibly an in-flight write
                path.unlink()
            except OSError:
                # Renamed into place or already reclaimed by a
                # concurrent sweep — either way it is gone.
                continue
            removed.append(name)
        return tuple(removed)

    # --- shutdown sentinel (driver side) ------------------------------
    def shutdown_path(self) -> Path:
        return self._dir("control") / "shutdown.json"

    def request_shutdown(self, now: float | None = None) -> None:
        """Ask idle workers to exit (a self-spawned fleet's teardown).

        The sentinel is timestamped so only workers that started
        *before* the request honour it: a stale sentinel left on disk
        (a driver that died between requesting and clearing) must not
        instantly kill the next fleet pointed at the queue.  Workers
        only check it when idle, so in-flight work always drains
        first.
        """
        now = time.time() if now is None else now
        self._write_atomic(self.shutdown_path(),
                           json.dumps({"requested_at": now}).encode())

    def clear_shutdown(self) -> None:
        """Withdraw the shutdown request (start of a new round)."""
        try:
            self.shutdown_path().unlink()
        except OSError:
            pass

    def shutdown_requested(self, since: float | None = None) -> bool:
        """Is a shutdown sentinel newer than ``since`` present?

        ``since`` is the caller's start time: a worker passes when it
        began, so sentinels predating its own spawn are ignored (see
        :meth:`request_shutdown`).  Clock comparisons cross hosts with
        the same NTP-level tolerance the leases already assume.
        """
        try:
            payload = json.loads(self.shutdown_path().read_text())
            requested_at = float(payload["requested_at"])
        except (OSError, ValueError, KeyError, TypeError):
            return False
        return since is None or requested_at >= since

    # --- inspection ---------------------------------------------------
    def has_result(self, task_id: str) -> bool:
        return self.result_path(task_id).exists()

    def result_ids(self) -> set[str]:
        """Every task id with a recorded result (one directory scan —
        the collector's per-poll primitive).  The scan is sorted so
        traversal order is host-independent even though the result is
        a set."""
        return {name[:-len(".pkl")]
                for name in sorted(os.listdir(self._dir("results")))
                if name.endswith(".pkl")}

    def load_results(self, task_id: str) -> list:
        try:
            return pickle.loads(self.result_path(task_id).read_bytes())
        except OSError as exc:
            raise QueueError(f"no result recorded for task "
                             f"{task_id!r}: {exc}") from exc

    def todo_ids(self) -> tuple[str, ...]:
        return self._ids("todo")

    def claimed_ids(self) -> tuple[str, ...]:
        return self._ids("claimed")

    def failed_tickets(self, task_ids=None) -> dict[str, dict]:
        """Exhausted tickets by task id (with their error history).

        ``task_ids`` restricts which tickets are *opened*: a
        long-lived shared queue accumulates failures from unrelated
        sweeps, and a polling collector must not pay to re-read them.
        """
        out: dict[str, dict] = {}
        for name in sorted(os.listdir(self._dir("failed"))):
            if not name.endswith(".json"):
                continue
            task_id = name[:-len(".json")]
            if task_ids is not None and task_id not in task_ids:
                continue
            try:
                out[task_id] = json.loads(
                    (self._dir("failed") / name).read_text())
            except (OSError, ValueError):
                out[task_id] = {"errors": ["unreadable"]}
        return out

    def _ids(self, directory: str) -> tuple[str, ...]:
        return tuple(
            name[:-len(".json")]
            for name in sorted(os.listdir(self._dir(directory)))
            if name.endswith(".json"))
