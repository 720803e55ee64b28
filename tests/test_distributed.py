"""Tests for the distributed execution backend (queue, worker, collector).

The contract under test is the PR-1/PR-3 determinism guarantee
extended across process and host boundaries: a sweep executed through
the shared-directory work queue is **bit-identical** to a serial run
for any worker count, crash schedule or claim interleaving.  The
fault-injection harness simulates workers that die after claiming
shards (the lease-expiry recovery path) and workers whose tasks always
fail (the retry-exhaustion path), and asserts the sweep either
completes identically or surfaces a :class:`FailedUnitError` — never
hangs, never drops or corrupts a unit.
"""

import contextlib
import json
import os
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.analysis import NoDvfsSteadyState, SteadyStateStrategy
from repro.runner import (ExecutionContext, ExecutionPlan, UnitCache,
                          backend_names, make_backend)
from repro.runner.distributed import (CollectTimeout, Collector,
                                      DistributedBackend,
                                      FailedUnitError, Lease, QueueError,
                                      ShardTask, Worker, WorkQueue,
                                      plan_tasks, publish_plan,
                                      read_lease)
from repro.noc.fastsim.kernel import KernelBuildError
from repro.runner.distributed import pool as pool_mod
from repro.runner.distributed.pool import WorkerPool
from repro.runner.distributed.worker import worker_main
from test_backends import (KNOB_RULES, MESH_8X8,  # noqa: F401
                           POLICY_STRATEGIES, check_knob_message,
                           factory, fingerprint, group_units, make_units,
                           rule_knobs, spell)

#: Short lease so expiry-recovery tests run in milliseconds.
FAST_TTL = 0.15

#: The environment of a driver subprocess, with ``repro`` importable.
DRIVER_ENV = {**os.environ,
              "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}


class ExplodingStrategy(SteadyStateStrategy):
    """A strategy whose units always fail (retry-path fuel)."""

    name = "exploding"

    def frequency_for(self, config, traffic, budget, seed,
                      engine="reference"):
        raise RuntimeError("boom: injected unit fault")


class SlowTask:
    """A task payload that outlives its lease TTL several times over
    (duck-typed: the worker only needs ``iter_results``)."""

    def __init__(self, duration_s):
        self.duration_s = duration_s

    def iter_results(self):
        time.sleep(self.duration_s)
        yield "slow-result"


class CrashingWorker(Worker):
    """Dies while holding its ``crash_on``-th claim.

    Models a worker process killed after claiming a shard but before
    completing it: the claim ticket stays in ``claimed/`` and the
    lease is never renewed, so recovery *must* come from the
    collector's expiry sweep.  With ``claim_batch > 1`` the worker
    dies holding the *whole* batch — every co-claimed ticket is
    abandoned at once, the worst case multi-claim leases add.
    """

    class Died(RuntimeError):
        pass

    def __init__(self, queue, crash_on=1, **kwargs):
        super().__init__(queue, **kwargs)
        self.crash_on = crash_on
        self.claims = 0

    def run_once(self):
        claims = self.queue.claim_batch(self.claim_batch,
                                        self.worker_id)
        if not claims:
            return False
        self.claims += len(claims)
        if self.claims >= self.crash_on:
            raise CrashingWorker.Died([c.task_id for c in claims])
        self.execute_claims(claims)
        return True


def three_policy_units(config, factory):
    units = []
    for strategy in POLICY_STRATEGIES:
        units.extend(make_units(config, factory,
                                rates=(0.05, 0.1, 0.15),
                                strategy=strategy))
    return units


#: Serial reference fingerprints, memoized on the units' digests —
#: several tests compare against the same three-policy sweep.
_serial_memo: dict = {}


def serial_fingerprints(units):
    key = tuple(u.digest() for u in units)
    if key not in _serial_memo:
        ctx = ExecutionContext(backend="serial", cache=None,
                               engine="fast")
        _serial_memo[key] = [fingerprint(r) for r in ctx.run(units)]
    return _serial_memo[key]


def run_distributed_inprocess(units, tmp_path, n_workers,
                              crash_on=None, lease_ttl=FAST_TTL,
                              claim_batch=1):
    """Execute ``units`` through the queue with ``n_workers``
    round-robin in-process workers (one optionally crashing), then
    collect.  Returns results in submission order."""
    queue = WorkQueue(tmp_path / "q", lease_ttl_s=lease_ttl).ensure()
    plan = ExecutionPlan(list(units), None)
    # Shard finer than the worker count (overriding the efficiency
    # floor) so every crash schedule can observe a worker claiming
    # more than one task.
    plan.group_batches(jobs=max(n_workers, 4), max_shard=2,
                       min_shard=1)
    tasks, _ = publish_plan(queue, plan)
    workers = [Worker(queue, claim_batch=claim_batch)
               for _ in range(n_workers)]
    if crash_on is not None:
        workers[0] = CrashingWorker(queue, crash_on=crash_on,
                                    claim_batch=claim_batch)
    with pytest.raises(CrashingWorker.Died) if crash_on is not None \
            else contextlib.nullcontext():
        while True:
            ran = [w.run_once() for w in workers]
            if not any(ran):
                break
    healthy = Worker(queue)

    def finish(result):
        for i in plan.pending[result.digest]:
            plan.results[i] = result

    Collector(queue, [t.task_id for t in tasks], poll_s=0.02,
              timeout_s=60).collect(
        finish, on_poll=lambda outstanding: healthy.run_once())
    assert all(r is not None for r in plan.results)
    return plan.results


# ---------------------------------------------------------------------
class TestQueuePrimitives:
    def test_layout_created_and_idempotent(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure().ensure()
        for sub in ("tasks", "todo", "claimed", "leases", "results",
                    "failed", "tmp", "logs"):
            assert (tmp_path / "q" / sub).is_dir()
        assert queue.todo_ids() == ()

    def test_root_must_be_a_directory(self, tmp_path):
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("x")
        with pytest.raises(QueueError, match="not a directory"):
            WorkQueue(not_a_dir).ensure()
        with pytest.raises(QueueError, match="cannot initialise"):
            WorkQueue(not_a_dir / "nested").ensure()

    def test_publish_claim_complete_roundtrip(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        assert queue.publish("t1", {"payload": 1})
        assert queue.todo_ids() == ("t1",)
        claim = queue.claim("w1", ttl_s=5.0)
        assert claim is not None and claim.task_id == "t1"
        assert claim.attempts == 0
        assert queue.todo_ids() == () and queue.claimed_ids() == ("t1",)
        assert queue.load_payload(claim) == {"payload": 1}
        lease = read_lease(queue.lease_path("t1"))
        assert lease is not None and lease.worker_id == "w1"
        assert not lease.expired()
        queue.complete(claim, ["r1", "r2"])
        assert queue.claimed_ids() == ()
        assert queue.has_result("t1")
        assert queue.load_results("t1") == ["r1", "r2"]
        assert not queue.lease_path("t1").exists()

    def test_claim_on_empty_queue_returns_none(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        assert queue.claim("w1") is None

    def test_concurrent_claim_exactly_one_winner(self, tmp_path):
        """The atomic-rename race: many claimants, one ticket."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("contended", {"payload": 1})
        n = 8
        barrier = threading.Barrier(n)
        claims = [None] * n

        def contend(i):
            barrier.wait()
            claims[i] = queue.claim(f"w{i}", ttl_s=5.0)

        threads = [threading.Thread(target=contend, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        winners = [c for c in claims if c is not None]
        assert len(winners) == 1
        assert winners[0].task_id == "contended"

    def test_claims_follow_sorted_ticket_order(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        for tid in ("b-2", "a-1", "c-3"):
            queue.publish(tid, tid)
        order = [queue.claim("w").task_id for _ in range(3)]
        assert order == ["a-1", "b-2", "c-3"]

    def test_directory_scans_are_sorted(self, tmp_path, monkeypatch):
        """Traversal order must not depend on the filesystem.

        ``os.listdir`` order is an implementation detail of the
        backing filesystem (inode order on ext4, creation order on
        tmpfs, ...).  Every queue scan sorts it away; simulate a
        hostile host by reversing whatever the real listing returns.
        """
        queue = WorkQueue(tmp_path / "q").ensure()
        for tid in ("c-3", "a-1", "b-2"):
            queue.publish(tid, tid)
        for tid in ("beta", "alpha"):
            (queue._dir("failed") / f"{tid}.json").write_text(
                json.dumps({"errors": ["boom"]}))
            (queue._dir("results") / f"{tid}.pkl").write_bytes(b"")

        real_listdir = os.listdir

        def reversed_listdir(path):
            return list(reversed(real_listdir(path)))

        monkeypatch.setattr(os, "listdir", reversed_listdir)
        assert queue.todo_ids() == ("a-1", "b-2", "c-3")
        assert list(queue.failed_tickets()) == ["alpha", "beta"]
        assert queue.result_ids() == {"alpha", "beta"}

    def test_lease_renewal_keeps_task_alive(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.2).ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        for _ in range(3):
            time.sleep(0.1)
            queue.renew(claim)
            # Renewed within the TTL: never expired, never requeued.
            assert queue.requeue_expired().requeued == ()
        assert queue.claimed_ids() == ("t1",)
        assert not read_lease(queue.lease_path("t1")).expired()

    def test_expired_lease_requeues_with_attempt_count(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.05).ensure()
        queue.publish("t1", 1)
        queue.claim("w1")
        time.sleep(0.1)
        report = queue.requeue_expired()
        assert report.requeued == ("t1",)
        assert queue.claimed_ids() == ()
        reclaim = queue.claim("w2")
        assert reclaim.task_id == "t1"
        assert reclaim.attempts == 1
        assert "lease expired" in reclaim.ticket["errors"][0]

    def test_missing_lease_gets_grace_then_requeues(self, tmp_path):
        """A worker that died between rename and lease-write is still
        recovered: the ticket gets one TTL of grace from the sweep
        that first observes it leaseless (the ticket's own mtime is
        publish time — rename preserves it — so age-based expiry would
        spuriously fire for anything that queued longer than the TTL)."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.05).ensure()
        queue.publish("t1", 1)
        queue.claim("w1")
        queue.lease_path("t1").unlink()
        time.sleep(0.1)     # ticket is old, but grace starts at first
        assert queue.requeue_expired().requeued == ()     # observation
        time.sleep(0.1)
        assert queue.requeue_expired().requeued == ("t1",)

    def test_renewed_lease_cancels_the_grace_clock(self, tmp_path):
        """A claimant that was merely slow to write its lease is not
        expired by an armed grace clock once the lease appears."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.05).ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        queue.lease_path("t1").unlink()
        assert queue.requeue_expired().requeued == ()     # clock armed
        queue.renew(claim)                                # lease lands
        time.sleep(0.02)
        assert queue.requeue_expired().requeued == ()

    def test_expiry_of_completed_task_is_not_retried(self, tmp_path):
        """A slow-but-alive worker that completed after its lease
        expired must not cause a retry."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.05).ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        queue._write_atomic(queue.result_path("t1"), b"\x80\x04N.")
        time.sleep(0.1)
        report = queue.requeue_expired()
        assert report.requeued == () and report.failed == ()
        assert queue.claimed_ids() == ()
        queue.complete(claim, [])           # idempotent completion

    def test_retry_budget_exhaustion_lands_in_failed(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.02).ensure()
        queue.publish("t1", 1)
        for attempt in range(3):
            claim = queue.claim("w1")
            assert claim is not None and claim.attempts == attempt
            time.sleep(0.05)
            queue.requeue_expired(max_attempts=3)
        assert queue.todo_ids() == () and queue.claimed_ids() == ()
        failures = queue.failed_tickets()
        assert set(failures) == {"t1"}
        assert failures["t1"]["attempts"] == 3

    def test_release_error_requeues_then_fails(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        assert queue.release_error(claim, "boom 1",
                                   max_attempts=2) == "requeued"
        claim = queue.claim("w1")
        assert claim.attempts == 1
        assert queue.release_error(claim, "boom 2",
                                   max_attempts=2) == "failed"
        assert queue.failed_tickets()["t1"]["errors"] == ["boom 1",
                                                          "boom 2"]

    def test_publish_skips_tasks_with_results(self, tmp_path):
        """The results directory is a digest-keyed on-disk cache: a
        republished task with a recorded result is not re-enqueued."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        queue.complete(claim, ["r"])
        assert not queue.publish("t1", 1)
        assert queue.todo_ids() == ()

    def test_stale_release_cannot_steal_a_live_claim(self, tmp_path):
        """A zombie worker reporting an error *after* the collector
        stole and re-issued its claim is a no-op: the live claimant's
        ticket, lease and attempt counter are untouched."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.02).ensure()
        queue.publish("t1", 1)
        stale = queue.claim("w1")
        time.sleep(0.05)
        assert queue.requeue_expired().requeued == ("t1",)
        fresh = queue.claim("w2")
        assert fresh is not None and fresh.attempts == 1
        assert queue.release_error(stale, "late zombie error") \
            == "requeued"
        # The live claim survives with its history intact:
        assert queue.claimed_ids() == ("t1",)
        assert read_lease(queue.lease_path("t1")).worker_id == "w2"
        queue.complete(fresh, ["r"])
        assert queue.has_result("t1")
        assert queue.todo_ids() == () and queue.claimed_ids() == ()

    def test_claim_drops_tickets_for_completed_tasks(self, tmp_path):
        """A leftover duplicate ticket for an already-completed task
        self-cleans at claim time instead of re-executing the work."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        queue.complete(queue.claim("w1"), ["r"])
        queue._write_ticket("todo", {"task": "t1", "attempts": 1,
                                     "errors": []})
        assert queue.claim("w2") is None
        assert queue.todo_ids() == () and queue.claimed_ids() == ()

    def test_concurrent_retires_keep_ticket_in_one_place(self,
                                                         tmp_path):
        """The expiry sweep and a zombie's release racing each other
        resolve by atomic rename: one wins, the loser is a no-op."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.02).ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        time.sleep(0.05)
        assert queue.requeue_expired().requeued == ("t1",)
        # The ticket already moved back to todo/: a straggling release
        # for the same (stolen) claim finds nothing claimed to retire.
        assert queue.release_error(claim, "late") == "requeued"
        assert queue.todo_ids() == ("t1",)
        assert queue.claim("w2").attempts == 1

    def test_republish_clears_stale_failed_ticket(self, tmp_path):
        """Republishing a previously failed task resets its fate: the
        old failed/ ticket must not poison the new run's collector."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        assert queue.release_error(claim, "transient outage",
                                   max_attempts=1) == "failed"
        assert set(queue.failed_tickets()) == {"t1"}
        assert queue.publish("t1", 1)
        assert queue.failed_tickets() == {}
        assert queue.todo_ids() == ("t1",)
        assert queue.claim("w2").attempts == 0

    def test_publish_skips_live_todo_ticket(self, tmp_path):
        """Republishing a task whose ticket is queued must not reset
        its attempt budget (two clients submitting overlapping sweeps
        to a shared queue would otherwise grant crash-looping tasks
        unlimited retries)."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        assert queue.release_error(claim, "boom") == "requeued"
        assert queue.publish("t1", 1)   # still outstanding work...
        ticket = json.loads(
            (queue._dir("todo") / "t1.json").read_text())
        assert ticket["attempts"] == 1  # ...but the budget survives
        assert ticket["errors"] == ["boom"]

    def test_publish_skips_claimed_ticket(self, tmp_path):
        """Publishing over an in-flight claim races no duplicate
        ticket into todo/ — the running execution is the dedupe."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        claim = queue.claim("w1")
        assert queue.publish("t1", 1)
        assert queue.todo_ids() == ()
        assert queue.claimed_ids() == ("t1",)
        queue.complete(claim, ["r"])
        assert not queue.publish("t1", 1)


class TestUnreadableTickets:
    """A torn todo/ ticket must cost an attempt, not grant a reset."""

    def _corrupt_todo_ticket(self, queue, task_id):
        # Truncated JSON, as a writer crashing mid-write (on a
        # filesystem without atomic rename) or a partial NFS page
        # would leave it.
        (queue._dir("todo") / f"{task_id}.json").write_text(
            '{"task": "t1", "atte')

    def test_fabricated_ticket_charges_an_attempt(self, tmp_path):
        """Regression: claim_batch used to fabricate attempts=0 for
        unreadable tickets, silently handing the task a fresh retry
        budget every time its ticket tore."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        self._corrupt_todo_ticket(queue, "t1")
        claim = queue.claim("w1")
        assert claim is not None and claim.task_id == "t1"
        assert claim.attempts == 1
        assert "unreadable" in claim.ticket["errors"][0]
        # The fabricated ticket is rewritten to claimed/ readable, so
        # the rest of the protocol can route it.
        on_disk = json.loads(
            (queue._dir("claimed") / "t1.json").read_text())
        assert on_disk["attempts"] == 1

    def test_fabricated_ticket_release_protocol_still_works(
            self, tmp_path):
        """Regression: the torn bytes used to be *left* in claimed/,
        so release_error could not parse them and silently no-opped —
        the task was stranded in claimed/ until lease expiry."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t1", 1)
        self._corrupt_todo_ticket(queue, "t1")
        claim = queue.claim("w1")
        assert queue.release_error(claim, "boom",
                                   max_attempts=3) == "requeued"
        assert queue.todo_ids() == ("t1",)
        again = queue.claim("w1")
        assert again.attempts == 2      # 1 fabricated + 1 failed run
        assert queue.release_error(again, "boom again",
                                   max_attempts=3) == "failed"
        errors = queue.failed_tickets()["t1"]["errors"]
        assert "unreadable" in errors[0]
        assert errors[1:] == ["boom", "boom again"]

    def test_fabricated_ticket_recovered_by_expiry(self, tmp_path):
        """A worker dying right after claiming a torn ticket leaves a
        *readable* fabricated ticket behind, so the expiry sweep can
        requeue it (with both the fabrication and the expiry charged)."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.02).ensure()
        queue.publish("t1", 1)
        self._corrupt_todo_ticket(queue, "t1")
        assert queue.claim("w1").attempts == 1   # then the worker dies
        time.sleep(0.05)
        assert queue.requeue_expired(max_attempts=3).requeued == ("t1",)
        assert queue.claim("w2").attempts == 2


class FlakyTask:
    """Fails until its file-based run counter passes ``succeed_after``
    (picklable fault-injection fuel that survives republishes)."""

    def __init__(self, counter_path, succeed_after):
        self.counter_path = str(counter_path)
        self.succeed_after = succeed_after

    def iter_results(self):
        from pathlib import Path

        path = Path(self.counter_path)
        runs = int(path.read_text()) if path.exists() else 0
        path.write_text(str(runs + 1))
        if runs < self.succeed_after:
            raise RuntimeError(f"flaky failure #{runs + 1}")
        yield "flaky-result"


class TestRepublishAfterFailure:
    """The failed-ticket-reset path end-to-end through the collector."""

    def test_republish_grants_fresh_budget_and_completes(
            self, tmp_path):
        """A task that exhausts its budget surfaces as FailedUnitError;
        republishing it (the operator fixed the cause) clears the stale
        failed/ ticket, and the fresh attempt budget lets the collector
        complete the plan instead of re-surfacing the old verdict."""
        queue = WorkQueue(tmp_path / "q").ensure()
        flaky = FlakyTask(tmp_path / "runs", succeed_after=2)
        queue.publish("t-flaky", flaky)
        worker = Worker(queue, max_attempts=2)
        worker.drain()                  # burns both attempts
        with pytest.raises(FailedUnitError, match="flaky failure #2"):
            Collector(queue, ["t-flaky"], poll_s=0.01,
                      timeout_s=10).collect(lambda r: None)
        assert queue.publish("t-flaky", flaky)
        assert queue.failed_tickets() == {}
        got = []
        Collector(queue, ["t-flaky"], poll_s=0.01, timeout_s=30).collect(
            got.append, on_poll=lambda outstanding: worker.run_once())
        assert got == ["flaky-result"]
        assert queue.todo_ids() == () and queue.claimed_ids() == ()


class TestLease:
    def test_expiry_math(self):
        lease = Lease.granted("t", "w", ttl_s=10.0, now=1000.0)
        assert lease.expires_at == 1010.0
        assert not lease.expired(now=1009.9)
        assert lease.expired(now=1010.1)

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            Lease.granted("t", "w", ttl_s=0.0)

    def test_corrupt_lease_reads_as_none(self, tmp_path):
        path = tmp_path / "lease.json"
        path.write_text("{not json")
        assert read_lease(path) is None
        assert read_lease(tmp_path / "missing.json") is None


# ---------------------------------------------------------------------
class TestBroker:
    def test_tasks_cover_plan(self, tiny_config, factory):
        fast = make_units(tiny_config, factory, engine="fast")
        ref = make_units(tiny_config, factory, engine="reference")
        plan = ExecutionPlan(fast + ref, None)
        plan.group_batches()
        tasks = plan_tasks(plan)
        group_tasks = [t for t in tasks if t.group is not None]
        unit_tasks = [t for t in tasks if t.units]
        assert len(group_tasks) == len(plan.groups)
        assert len(unit_tasks) == len(plan.singles)
        covered = sorted(
            u.digest()
            for t in tasks
            for u in (t.group.units if t.group is not None else t.units))
        assert covered == sorted(u.digest() for u in plan.todo)
        assert len({t.task_id for t in tasks}) == len(tasks)

    def test_task_ids_are_content_derived(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        ids = []
        for _ in range(2):
            plan = ExecutionPlan(list(units), None)
            plan.group_batches()
            ids.append([t.task_id for t in plan_tasks(plan)])
        assert ids[0] == ids[1]

    def test_task_ids_are_version_salted(self, tiny_config, factory,
                                         monkeypatch):
        """Upgrading the package must invalidate the queue's on-disk
        results store (spec digests alone can't see code changes)."""
        import repro

        units = make_units(tiny_config, factory)
        plan = ExecutionPlan(list(units), None)
        plan.group_batches()
        before = [t.task_id for t in plan_tasks(plan)]
        monkeypatch.setattr(repro, "__version__", "999.0.0-test")
        plan = ExecutionPlan(list(units), None)
        plan.group_batches()
        assert [t.task_id for t in plan_tasks(plan)] != before

    def test_shard_task_validates(self):
        with pytest.raises(ValueError):
            ShardTask(task_id="bad")
        with pytest.raises(ValueError):
            ShardTask(task_id="bad", group=object(), units=(object(),))


# ---------------------------------------------------------------------
class TestWorkerLoop:
    def test_drain_executes_everything_and_counts(self, tmp_path,
                                                  tiny_config, factory):
        units = make_units(tiny_config, factory)
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(units, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        worker = Worker(queue)
        assert worker.drain() == len(tasks)
        assert worker.executed == len(tasks) and worker.failed == 0
        assert all(queue.has_result(t.task_id) for t in tasks)
        assert queue.claim("another") is None

    def test_worker_without_the_kernel_hands_its_claims_back(
            self, tmp_path, tiny_config, factory, no_compiler, capsys):
        """A worker that cannot build the kernel spends no attempt: the
        fast task it failed on and the rest of its claimed batch go
        back to ``todo/`` unspent, and it stops with the loader's
        reason, for a worker that can run them."""
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(make_units(tiny_config, factory,
                                        rates=(0.05, 0.1)), None)
        plan.group_batches(jobs=2, max_shard=1, min_shard=1)
        tasks, _ = publish_plan(queue, plan)
        assert len(tasks) == 2
        assert worker_main(["--queue", str(tmp_path / "q"),
                            "--claim-batch", "2", "--max-idle", "0"]) == 1
        assert queue.failed_tickets() == {}
        assert set(queue.todo_ids()) == {t.task_id for t in tasks}
        for task in tasks:
            ticket = json.loads((tmp_path / "q" / "todo" /
                                 f"{task.task_id}.json").read_text())
            assert ticket["attempts"] == 0
        assert not queue.claimed_ids()
        err = capsys.readouterr().err
        assert "0 task(s) handled" in err
        assert "no C compiler" in err

    def test_run_loop_max_tasks_and_max_idle(self, tmp_path,
                                             tiny_config, factory):
        units = make_units(tiny_config, factory, engine="reference")
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(units, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        assert Worker(queue).run(poll_s=0.01, max_tasks=1) == 1
        # remaining tasks drain, then the loop exits on idle timeout
        assert Worker(queue).run(poll_s=0.01,
                                 max_idle_s=0.05) == len(tasks) - 1

    def test_heartbeat_outlasts_the_lease_ttl(self, tmp_path):
        """A healthy worker on a long task is never expired: the
        heartbeat renews the lease while the task blocks, so the
        collector's expiry sweep burns no attempts."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.15).ensure()
        queue.publish("slow", SlowTask(duration_s=0.6))
        worker = Worker(queue)
        done = threading.Event()

        def execute():
            worker.run_once()
            done.set()

        thread = threading.Thread(target=execute, daemon=True)
        thread.start()
        requeued = 0
        while not done.is_set():
            requeued += len(queue.requeue_expired().requeued)
            time.sleep(0.03)
        thread.join(timeout=5)
        assert requeued == 0
        assert worker.executed == 1
        assert queue.load_results("slow") == ["slow-result"]

    def test_worker_survives_task_faults(self, tmp_path, tiny_config,
                                         factory):
        """A unit that raises does not kill the worker; the ticket
        burns its attempts and lands in failed/."""
        bad = make_units(tiny_config, factory, rates=(0.1,),
                         strategy=ExplodingStrategy(),
                         engine="reference")
        good = make_units(tiny_config, factory, rates=(0.05,),
                          engine="reference")
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(bad + good, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        worker = Worker(queue, max_attempts=2)
        drained = worker.drain()
        assert drained == 3          # bad task twice, good task once
        assert worker.executed == 1 and worker.failed == 1
        failures = queue.failed_tickets()
        assert len(failures) == 1
        (ticket,) = failures.values()
        assert all("boom" in err for err in ticket["errors"])

    def test_retry_exhaustion_raises_failed_unit_error(
            self, tmp_path, tiny_config, factory):
        """The collector surfaces exhausted tasks instead of hanging."""
        bad = make_units(tiny_config, factory, rates=(0.1,),
                         strategy=ExplodingStrategy(),
                         engine="reference")
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(bad, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        Worker(queue, max_attempts=2).drain()
        with pytest.raises(FailedUnitError, match="boom") as excinfo:
            Collector(queue, [t.task_id for t in tasks], poll_s=0.01,
                      timeout_s=30).collect(lambda r: None)
        assert tasks[0].task_id in str(excinfo.value)

    def test_collector_deadline_raises_instead_of_hanging(
            self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t-orphan", 1)    # nobody will ever execute it
        with pytest.raises(CollectTimeout, match="t-orphan"):
            Collector(queue, ["t-orphan"], poll_s=0.01,
                      timeout_s=0.05).collect(lambda r: None)

    def test_collector_timeout_not_late_by_a_full_poll(self, tmp_path):
        """Regression: with a poll interval coarser than the timeout,
        the final sleep used to run a full poll_s past the deadline
        before CollectTimeout fired (the deadline was only checked
        between whole sleeps)."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.publish("t-orphan", 1)
        start = time.monotonic()
        with pytest.raises(CollectTimeout):
            Collector(queue, ["t-orphan"], poll_s=5.0,
                      timeout_s=0.2).collect(lambda r: None)
        elapsed = time.monotonic() - start
        # Pre-fix this took ~poll_s (5s); the clamped sleep fires the
        # timeout at ~timeout_s.  Generous bound for slow CI hosts.
        assert 0.2 <= elapsed < 2.0


# ---------------------------------------------------------------------
class TestFaultInjection:
    """The harness of the PR's acceptance gate: crash schedules."""

    @pytest.mark.parametrize("crash_on", [1, 2])
    def test_crashed_worker_shard_is_retried_and_bit_identical(
            self, tmp_path, tiny_config, factory, crash_on):
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        results = run_distributed_inprocess(
            units, tmp_path, n_workers=2, crash_on=crash_on)
        assert [fingerprint(r) for r in results] == serial

    @pytest.mark.parametrize("crash_on", [1, 3])
    def test_crash_holding_a_multi_claim_batch_is_recovered(
            self, tmp_path, tiny_config, factory, crash_on):
        """A worker dying with several co-claimed leases abandons the
        whole batch; expiry recovers every ticket, bit-identically."""
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        results = run_distributed_inprocess(
            units, tmp_path, n_workers=2, crash_on=crash_on,
            claim_batch=3)
        assert [fingerprint(r) for r in results] == serial

    def test_abandoned_batch_leaves_a_lease_per_ticket(
            self, tmp_path, tiny_config, factory):
        """White-box: every co-claimed ticket of a crashed batch sits
        in claimed/ with its own (dead) lease and is requeued, each
        costing exactly one attempt."""
        units = three_policy_units(tiny_config, factory)
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=FAST_TTL).ensure()
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=4, max_shard=2, min_shard=1)
        tasks, _ = publish_plan(queue, plan)
        crasher = CrashingWorker(queue, crash_on=1, claim_batch=3)
        with pytest.raises(CrashingWorker.Died):
            crasher.run_once()
        abandoned = queue.claimed_ids()
        assert len(abandoned) == 3
        assert all(read_lease(queue.lease_path(t)) is not None
                   for t in abandoned)
        time.sleep(FAST_TTL + 0.1)
        assert set(queue.requeue_expired().requeued) == set(abandoned)
        reclaims = queue.claim_batch(len(tasks), "healthy")
        # every abandoned ticket burned exactly one attempt; the rest
        # of the plan none
        by_id = {c.task_id: c.attempts for c in reclaims}
        assert all(by_id[t] == 1 for t in abandoned)
        assert all(a == 0 for t, a in by_id.items()
                   if t not in abandoned)
        healthy = Worker(queue, claim_batch=3)
        healthy.execute_claims(reclaims)
        assert all(queue.has_result(t.task_id) for t in tasks)

    def test_lease_expiry_observable_before_recovery(
            self, tmp_path, tiny_config, factory):
        """White-box: the crashed claim sits in claimed/ with a dead
        lease, is requeued with attempts=1, then completes."""
        units = make_units(tiny_config, factory)
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=FAST_TTL).ensure()
        plan = ExecutionPlan(units, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        crasher = CrashingWorker(queue, crash_on=1)
        with pytest.raises(CrashingWorker.Died):
            crasher.run_once()
        (abandoned,) = queue.claimed_ids()
        lease = read_lease(queue.lease_path(abandoned))
        assert lease is not None
        time.sleep(FAST_TTL + 0.1)
        assert lease.expired()
        report = queue.requeue_expired()
        assert report.requeued == (abandoned,)
        reclaim = queue.claim("healthy")
        assert reclaim.task_id == abandoned and reclaim.attempts == 1
        Worker(queue).execute_claim(reclaim)
        assert queue.has_result(abandoned)


# ---------------------------------------------------------------------
class TestStaleTmpSweep:
    """A crash between a staging write and its atomic rename must not
    leak ``tmp/`` entries forever (they are reclaimed on the
    collector's sweep cadence, never while possibly in-flight)."""

    @staticmethod
    def _orphan(queue, name, age_s):
        """Plant a staging file as a crashed ``_write_atomic`` would
        leave it, backdated ``age_s`` seconds."""
        path = queue.root / "tmp" / name
        path.write_bytes(b"half-written payload")
        stamp = time.time() - age_s
        os.utime(path, (stamp, stamp))
        return path

    def test_stale_entries_are_swept(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=FAST_TTL).ensure()
        stale = self._orphan(queue, "unit.pkl.4242.7", age_s=10.0)
        assert queue.sweep_stale_tmp() == ("unit.pkl.4242.7",)
        assert not stale.exists()

    def test_fresh_entries_survive(self, tmp_path):
        """An entry younger than the TTL may be an in-flight write of
        a live worker — it must be left alone."""
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=FAST_TTL).ensure()
        fresh = self._orphan(queue, "unit.pkl.4242.8", age_s=0.0)
        assert queue.sweep_stale_tmp() == ()
        assert fresh.exists()

    def test_sweep_on_missing_tmp_dir_is_harmless(self, tmp_path):
        queue = WorkQueue(tmp_path / "q")  # never ensure()d
        assert queue.sweep_stale_tmp() == ()

    def test_collector_reclaims_crash_orphans_bit_identically(
            self, tmp_path, tiny_config, factory):
        """Fault injection: a worker dies mid-atomic-write (staging
        file written, rename never happened).  The collection must
        finish bit-identically AND leave tmp/ clean."""
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=FAST_TTL).ensure()
        plan = ExecutionPlan(list(units), None)
        plan.group_batches(jobs=4, max_shard=2, min_shard=1)
        tasks, _ = publish_plan(queue, plan)
        # The crash artifact: a payload staged before the sweep starts,
        # older than any plausible in-flight write.
        self._orphan(queue, "result.pkl.999.0", age_s=10.0)
        healthy = Worker(queue)

        def finish(result):
            for i in plan.pending[result.digest]:
                plan.results[i] = result

        Collector(queue, [t.task_id for t in tasks], poll_s=0.02,
                  timeout_s=60).collect(
            finish, on_poll=lambda outstanding: healthy.run_once())
        assert [fingerprint(r) for r in plan.results] == serial
        assert os.listdir(queue.root / "tmp") == []


# ---------------------------------------------------------------------
class TestDistributedBitIdentity:
    """Acceptance: distributed == serial for worker counts {1, 2, 4}."""

    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_three_policy_sweep_bit_identical(self, tmp_path,
                                              tiny_config, factory,
                                              n_workers):
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        results = run_distributed_inprocess(units, tmp_path, n_workers)
        assert [fingerprint(r) for r in results] == serial

    def test_mixed_engines_cover_group_and_unit_tasks(self, tmp_path,
                                                      tiny_config,
                                                      factory):
        units = (make_units(tiny_config, factory, engine="fast")
                 + make_units(tiny_config, factory, engine="reference"))
        serial = serial_fingerprints(units)
        results = run_distributed_inprocess(units, tmp_path, 2)
        assert [fingerprint(r) for r in results] == serial

    def test_results_reused_across_runs_in_same_queue(self, tmp_path,
                                                      tiny_config,
                                                      factory):
        """Second publication of the same plan costs zero execution:
        the queue's results directory is digest-keyed."""
        units = make_units(tiny_config, factory)
        first = run_distributed_inprocess(units, tmp_path, 1)
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(list(units), None)
        # Same sharding as the first run -> same content-derived ids.
        plan.group_batches(jobs=4, max_shard=2, min_shard=1)
        tasks, enqueued = publish_plan(queue, plan)
        assert enqueued == 0
        collected = []
        Collector(queue, [t.task_id for t in tasks], poll_s=0.01,
                  timeout_s=30).collect(collected.append)
        by_digest = {r.digest: fingerprint(r) for r in first}
        assert len(collected) == len(units)
        assert all(fingerprint(r) == by_digest[r.digest]
                   for r in collected)


# ---------------------------------------------------------------------
class TestDistributedBackend:
    """The registered backend end to end, through ExecutionContext."""

    def test_registered_and_lazily_loaded(self, tmp_path):
        assert "distributed" in backend_names()
        backend = make_backend("distributed",
                               queue_dir=tmp_path / "q", workers=1)
        assert isinstance(backend, DistributedBackend)
        assert backend.name == "distributed"

    def test_context_requires_queue(self):
        with pytest.raises(ValueError, match="requires queue"):
            ExecutionContext(backend="distributed")
        with pytest.raises(ValueError, match="workers"):
            ExecutionContext(workers=-1)

    def test_env_rejects_orphan_queue_like_the_cli(self, monkeypatch,
                                                   tmp_path, no_compiler):
        """``REPRO_*`` enforces every knob rule the CLI does, naming the
        variable; ``REPRO_JOBS=0`` means all cores, as ``--jobs 0``
        does; and ``REPRO_POOL`` is no longer read."""
        from repro.runner import context_from_env, default_jobs
        from repro.runner.context import KNOBS

        def environ(**knobs):
            for knob in KNOBS:
                monkeypatch.delenv(spell("env", knob), raising=False)
            for knob, value in knobs.items():
                monkeypatch.setenv(spell("env", knob), str(value))

        for rule in KNOB_RULES:
            environ(**rule_knobs(rule, tmp_path))
            with pytest.raises(ValueError) as excinfo:
                context_from_env()
            check_knob_message(str(excinfo.value), rule, "env")
        environ(backend="distributed", queue=tmp_path / "q")
        ctx = context_from_env()
        assert ctx.resolved_backend() == "distributed"
        assert ctx.queue == str(tmp_path / "q")
        environ(jobs=0, pool="false")
        ctx = context_from_env()
        assert ctx.jobs == default_jobs()
        assert not hasattr(ctx, "pool")

    def test_env_integer_knobs_fail_readably(self, monkeypatch,
                                             tmp_path):
        """Regression: a malformed REPRO_WORKERS surfaced as a bare
        ``invalid literal for int()`` naming neither the variable nor
        the value; the error must say exactly what to fix."""
        from repro.runner import context_from_env

        monkeypatch.setenv("REPRO_BACKEND", "distributed")
        monkeypatch.setenv("REPRO_QUEUE", str(tmp_path / "q"))
        monkeypatch.setenv("REPRO_WORKERS", "two")
        with pytest.raises(ValueError, match="REPRO_WORKERS='two'"):
            context_from_env()
        monkeypatch.setenv("REPRO_WORKERS", "2")
        monkeypatch.setenv("REPRO_CLAIM_BATCH", "1.5")
        with pytest.raises(ValueError, match="REPRO_CLAIM_BATCH='1.5'"):
            context_from_env()
        monkeypatch.setenv("REPRO_CLAIM_BATCH", "2")
        monkeypatch.setenv("REPRO_JOBS", "")
        with pytest.raises(ValueError, match="REPRO_JOBS=''"):
            context_from_env()
        monkeypatch.setenv("REPRO_JOBS", "3")
        ctx = context_from_env()
        assert (ctx.workers, ctx.claim_batch, ctx.jobs) == (2, 2, 3)

    def test_backend_options_only_for_distributed(self, tmp_path):
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=3)
        assert ctx.backend_options() == {
            "queue_dir": str(tmp_path / "q"), "workers": 3,
            "claim_batch": 1}
        assert ExecutionContext().backend_options() == {}
        assert ExecutionContext(backend="batched").backend_options() == {}

    def test_spawned_workers_end_to_end_bit_identical(
            self, tmp_path, tiny_config, factory):
        """Two self-spawned local workers, zero setup."""
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=UnitCache(), engine="fast")
        try:
            results = ctx.run(units)
        finally:
            ctx.close()
        assert [fingerprint(r) for r in results] == serial
        report = ctx.runner.last_report
        assert report.backend == "distributed"
        assert report.executed == len(units)
        assert report.groups >= 1
        # A warm-queue rerun (fresh context, same queue) is served
        # from results/ without spawning any worker.
        rerun_ctx = ExecutionContext(backend="distributed",
                                     queue=str(tmp_path / "q"),
                                     workers=2, cache=None,
                                     engine="fast")
        try:
            assert ([fingerprint(r) for r in rerun_ctx.run(units)]
                    == serial)
        finally:
            rerun_ctx.close()
        assert rerun_ctx.runner.last_report.parallel is False

    def test_8x8_group_publishes_one_task_per_engine(self, tmp_path):
        """Fanned out to a fleet, a compiled 8x8 group is one task per
        4-replica engine, and its results equal serial execution."""
        units = group_units(MESH_8X8, 16)
        serial = serial_fingerprints(units)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=None, engine="fast")
        try:
            results = ctx.run(units)
        finally:
            ctx.close()
        assert [fingerprint(r) for r in results] == serial
        assert ctx.runner.last_report.groups == 4
        assert len(list((tmp_path / "q" / "results").glob("group-*"))) \
            == 4

    def test_falls_back_in_process_when_spawning_impossible(
            self, tmp_path, tiny_config, factory, monkeypatch):
        """Hosts that cannot fork still complete the sweep,
        identically, in process."""
        def no_fork():
            raise OSError("forking disabled for this test")

        monkeypatch.setattr(pool_mod.os, "fork", no_fork)
        units = make_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=None, engine="fast")
        try:
            results = ctx.run(units)
        finally:
            ctx.close()
        assert [fingerprint(r) for r in results] == serial
        assert ctx.runner.last_report.parallel is False

    def test_falls_back_in_process_without_os_fork(
            self, tmp_path, tiny_config, factory, monkeypatch):
        """A platform without ``os.fork`` cannot spawn a worker, and
        the sweep completes in process."""
        monkeypatch.delattr(pool_mod.os, "fork")
        units = make_units(tiny_config, factory)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=None, engine="fast")
        try:
            results = ctx.run(units)
        finally:
            ctx.close()
        assert [fingerprint(r) for r in results] == \
            serial_fingerprints(units)
        assert ctx.runner.last_report.parallel is False

    def test_fleet_without_the_kernel_raises_its_error(
            self, tmp_path, tiny_config, factory, no_compiler):
        """Where no worker, nor the driver, can build the kernel, the
        sweep fails with the loader's error instead of waiting for a
        worker that can, and no task's attempts were spent."""
        backend = DistributedBackend(tmp_path / "q", workers=1,
                                     poll_s=0.01, timeout_s=60)
        plan = ExecutionPlan(make_units(tiny_config, factory), None)
        try:
            with pytest.raises(KernelBuildError, match="no C compiler"):
                backend.execute(plan, jobs=1, finish=lambda r: None)
        finally:
            backend.close()
        assert WorkQueue(tmp_path / "q").failed_tickets() == {}

    def test_empty_plan_skips_queue_entirely(self, tmp_path,
                                             tiny_config, factory):
        cache = UnitCache()
        units = make_units(tiny_config, factory)
        ExecutionContext(backend="serial", cache=cache,
                         engine="fast").run(units)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=cache, engine="fast")
        try:
            again = ctx.run(units)
        finally:
            ctx.close()
        assert all(r.from_cache for r in again)
        assert ctx.runner.last_report.executed == 0

    def test_external_mode_shards_for_a_fleet(self, tiny_config,
                                              factory, tmp_path,
                                              monkeypatch):
        """workers=0 cannot assume one consumer: a wide plan must
        split into several shards so external hosts share the work."""
        import repro.runner.distributed.backend as backend_mod

        rates = tuple(0.01 + 0.002 * i for i in range(32))
        units = make_units(tiny_config, factory, rates=rates)
        serial = serial_fingerprints(units)
        queue_dir = tmp_path / "q"
        backend = DistributedBackend(queue_dir, workers=0, poll_s=0.01,
                                     timeout_s=60)
        plan = ExecutionPlan(units, None)
        results = {}
        worker_queue = WorkQueue(queue_dir).ensure()
        drainer = Worker(worker_queue)
        monkeypatch.setattr(
            backend_mod.Collector, "collect",
            _drain_then_collect(backend_mod.Collector.collect, drainer))
        run = backend.execute(plan, jobs=1,
                              finish=lambda r: results.update(
                                  {r.digest: r}))
        assert len(plan.groups) >= backend_mod.EXTERNAL_SHARD_FANOUT // 2
        assert run.parallel is True     # external workers executed it
        assert ([fingerprint(results[u.digest()]) for u in units]
                == serial)
        # A re-run against the same queue is served entirely from
        # results/ — no worker participates, and the run says so.
        monkeypatch.undo()
        rerun = backend.execute(ExecutionPlan(units, None), jobs=1,
                                finish=lambda r: None)
        assert rerun.parallel is False

    def test_distributed_package_loads_lazily(self):
        """`import repro.runner` must not pay for the queue machinery;
        the registry's module:class spec resolves on first use."""
        import subprocess
        import sys

        code = (
            "import sys\n"
            "import repro.runner\n"
            "assert 'repro.runner.distributed' not in sys.modules\n"
            "from repro.runner import WorkQueue\n"
            "assert 'repro.runner.distributed' in sys.modules\n"
            "import repro.runner as r\n"
            "try:\n"
            "    r.NoSuchName\n"
            "except AttributeError:\n"
            "    pass\n"
            "else:\n"
            "    raise SystemExit('missing AttributeError')\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=DRIVER_ENV, capture_output=True,
                              text=True)
        assert proc.returncode == 0, proc.stderr


def _drain_then_collect(real_collect, drainer):
    """Wrap Collector.collect so an 'external' worker drains the queue
    just before the driver starts waiting (workers=0 test rig)."""
    def wrapper(self, finish, on_poll=None):
        drainer.drain()
        return real_collect(self, finish, on_poll=on_poll)
    return wrapper


# ---------------------------------------------------------------------
class TestClaimBatch:
    """Multi-claim leases: one todo/ listing serves up to N tasks."""

    def test_claim_batch_claims_up_to_n_in_order(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        for tid in ("e-5", "b-2", "a-1", "d-4", "c-3"):
            queue.publish(tid, tid)
        first = queue.claim_batch(3, "w1")
        assert [c.task_id for c in first] == ["a-1", "b-2", "c-3"]
        # every co-claimed task holds its own live lease
        assert all(read_lease(queue.lease_path(c.task_id)) is not None
                   for c in first)
        rest = queue.claim_batch(10, "w2")
        assert [c.task_id for c in rest] == ["d-4", "e-5"]
        assert queue.claim_batch(1, "w3") == []

    def test_renew_many_extends_every_lease(self, tmp_path):
        queue = WorkQueue(tmp_path / "q", lease_ttl_s=0.2).ensure()
        for tid in ("t1", "t2", "t3"):
            queue.publish(tid, tid)
        claims = queue.claim_batch(3, "w1")
        for _ in range(3):
            time.sleep(0.1)
            queue.renew_many(claims)
            # all renewed within the TTL: nothing ever expires
            assert queue.requeue_expired().requeued == ()
        assert all(not read_lease(queue.lease_path(c.task_id)).expired()
                   for c in claims)

    def test_multi_claim_drain_is_bit_identical(self, tmp_path,
                                                tiny_config, factory):
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        results = run_distributed_inprocess(units, tmp_path,
                                            n_workers=2, claim_batch=4)
        assert [fingerprint(r) for r in results] == serial

    def test_batch_task_fault_does_not_abandon_the_rest(
            self, tmp_path, tiny_config, factory):
        """One failing task inside a claimed batch burns only its own
        ticket; its batch-mates still complete in the same round."""
        bad = make_units(tiny_config, factory, rates=(0.1,),
                         strategy=ExplodingStrategy(),
                         engine="reference")
        good = make_units(tiny_config, factory,
                          rates=(0.05, 0.15), engine="reference")
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(bad + good, None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        worker = Worker(queue, max_attempts=1, claim_batch=len(tasks))
        assert worker.run_once() is True    # one claim round for all
        assert worker.executed == 2 and worker.failed == 1
        assert len(queue.failed_tickets()) == 1
        assert sum(queue.has_result(t.task_id) for t in tasks) == 2


# ---------------------------------------------------------------------
class TestShutdownSentinel:
    """Driver-published teardown: workers exit when the queue drains."""

    def test_sentinel_roundtrip_and_staleness(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        assert queue.shutdown_requested() is False
        queue.request_shutdown(now=100.0)
        assert queue.shutdown_requested() is True
        # A sentinel older than the observer's start is stale: it must
        # never retire a fleet spawned after it was written.
        assert queue.shutdown_requested(since=100.0) is True
        assert queue.shutdown_requested(since=100.1) is False
        queue.clear_shutdown()
        queue.clear_shutdown()          # idempotent
        assert queue.shutdown_requested() is False

    def test_worker_loop_exits_promptly_on_sentinel(self, tmp_path):
        queue = WorkQueue(tmp_path / "q").ensure()
        for tid in ("t1", "t2"):
            queue.publish(tid, _EchoTask(tid))
        handled = []
        worker = Worker(queue)
        thread = threading.Thread(
            target=lambda: handled.append(
                worker.run(poll_s=0.01)),   # no max_idle: sentinel or
            daemon=True)                    # bust
        thread.start()
        deadline = time.time() + 10
        while worker.executed < 2 and time.time() < deadline:
            time.sleep(0.01)
        assert worker.executed == 2
        queue.request_shutdown()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert handled == [2]

    def test_worker_ignores_stale_sentinel_and_still_drains(
            self, tmp_path):
        """A sentinel left by an earlier round's teardown neither
        retires a younger worker nor starves published work."""
        queue = WorkQueue(tmp_path / "q").ensure()
        queue.request_shutdown(now=time.time() - 60)
        for tid in ("t1", "t2"):
            queue.publish(tid, _EchoTask(tid))
        worker = Worker(queue)
        # Exits via max_idle (stale sentinel ignored), work done.
        assert worker.run(poll_s=0.01, max_idle_s=0.1) == 2
        assert worker.executed == 2

    def test_worker_dates_sentinels_from_its_spawn(self, tmp_path):
        """A worker whose loop starts only after its fleet's sentinel
        (it was still starting up when a short round ended) exits on
        it when told its spawn time."""
        queue = WorkQueue(tmp_path / "q").ensure()
        spawned_at = time.time() - 2.0
        queue.request_shutdown(now=spawned_at + 1.0)
        handled = []
        worker = Worker(queue)
        thread = threading.Thread(
            target=lambda: handled.append(
                worker.run(poll_s=0.01, since=spawned_at)),
            daemon=True)
        thread.start()
        thread.join(timeout=5)
        assert not thread.is_alive()
        assert handled == [0]


class _EchoTask:
    """The least possible executable payload (duck-typed like
    :class:`SlowTask`)."""

    def __init__(self, value):
        self.value = value

    def iter_results(self):
        yield self.value


class _FakeProc:
    """A forked-worker handle stand-in for pool-logic tests (no forks):
    ``_fork_worker(command, log_path)`` returns one."""

    def __init__(self, command, log_path):
        self.command = command
        self.returncode = None
        self.terminated = self.killed = False

    def poll(self):
        return self.returncode

    def wait(self, timeout=None):
        if self.returncode is None and not (self.terminated
                                            or self.killed):
            raise __import__("subprocess").TimeoutExpired("worker",
                                                          timeout)
        self.returncode = self.returncode if self.returncode is not None \
            else (-15 if self.terminated else -9)
        return self.returncode

    def exit(self, code=0):
        self.returncode = code

    def terminate(self):
        self.terminated = True

    def kill(self):
        self.killed = True


# ---------------------------------------------------------------------
class TestWorkerPool:
    """Pool lifecycle logic, with forking stubbed out."""

    @pytest.fixture
    def fake_pool(self, tmp_path, monkeypatch):
        WorkQueue(tmp_path / "q").ensure()
        monkeypatch.setattr(pool_mod, "_fork_worker", _FakeProc)
        return WorkerPool(tmp_path / "q", workers=2, lease_ttl_s=0.5)

    def test_validates_worker_count(self, tmp_path):
        from repro.runner.distributed.pool import WorkerPool
        with pytest.raises(ValueError, match="workers >= 1"):
            WorkerPool(tmp_path / "q", workers=0)

    def test_ensure_tops_up_and_respawns(self, fake_pool):
        assert fake_pool.ensure() == 2
        procs = list(fake_pool.procs)
        assert fake_pool.ensure() == 2          # steady state: no spawn
        assert fake_pool.procs == procs
        procs[0].exit(1)                        # one worker dies
        assert fake_pool.ensure() == 2          # ...and is replaced
        assert procs[0] not in fake_pool.procs
        assert procs[1] in fake_pool.procs

    def test_workers_date_sentinels_from_their_spawn(self, fake_pool):
        before = time.time()
        fake_pool.ensure()
        after = time.time()
        for proc in fake_pool.procs:
            flag = proc.command.index("--since")
            assert before <= float(proc.command[flag + 1]) <= after

    def test_respawn_budget_bounds_crash_loops(self, fake_pool):
        assert fake_pool.spawns_left == 4       # max(2*workers, 4)
        fake_pool.ensure()
        for _ in range(5):                      # crash-loop the fleet
            for proc in fake_pool.procs:
                proc.exit(1)
            fake_pool.ensure()
        assert fake_pool.spawns_left == 0
        assert fake_pool.ensure() == 0          # budget spent: give up
        fake_pool.reset_budget()                # a new round refills it
        assert fake_pool.ensure() == 2

    def test_close_writes_sentinel_and_reaps(self, fake_pool,
                                             tmp_path):
        fake_pool.ensure()
        procs = list(fake_pool.procs)

        # Fake workers exit the moment the sentinel lands, like real
        # idle workers inside the grace period.
        real_request = WorkQueue.request_shutdown

        def request_and_exit(queue, now=None):
            real_request(queue, now)
            for proc in procs:
                proc.exit(0)

        import unittest.mock
        with unittest.mock.patch.object(WorkQueue, "request_shutdown",
                                        request_and_exit):
            fake_pool.close(grace_s=5.0)
        assert fake_pool.closed
        assert fake_pool.procs == []
        assert all(p.returncode == 0 and not p.terminated
                   for p in procs)
        assert WorkQueue(tmp_path / "q").shutdown_requested()
        fake_pool.close()                       # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            fake_pool.ensure()

    def test_close_terminates_stragglers(self, fake_pool):
        fake_pool.ensure()
        procs = list(fake_pool.procs)
        fake_pool.close(grace_s=0.0)            # nobody honours the
        assert all(p.terminated for p in procs)  # sentinel in time


def _running(pid: int) -> bool:
    """Is ``pid`` a live (not zombie) process?"""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


# ---------------------------------------------------------------------
class TestWarmPool:
    """Self-spawned fleets end to end: one fleet serves every round of
    its context and retires with it (the PR-6 inverse-scaling fix)."""

    @pytest.fixture
    def record_spawns(self, monkeypatch):
        """Record every worker the pool module forks."""
        spawned = []
        real_fork_worker = pool_mod._fork_worker

        def recording(*args, **kwargs):
            proc = real_fork_worker(*args, **kwargs)
            spawned.append(proc)
            return proc

        monkeypatch.setattr(pool_mod, "_fork_worker", recording)
        return spawned

    def test_fleet_gone_after_close(
            self, tmp_path, tiny_config, factory, record_spawns):
        """``close()`` leaves no worker process behind — and the
        sentinel retires them gracefully (exit 0), not by SIGTERM."""
        units = three_policy_units(tiny_config, factory)
        serial = serial_fingerprints(units)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               cache=None, engine="fast")
        try:
            results = ctx.run(units)
        finally:
            ctx.close()
        assert [fingerprint(r) for r in results] == serial
        assert record_spawns, "fleet never spawned"
        for proc in record_spawns:
            assert proc.poll() is not None, "live worker after close()"
            assert proc.returncode == 0, "worker was terminated, " \
                "not sentinel-retired"

    def test_warm_pool_reuses_workers_across_rounds(
            self, tmp_path, tiny_config, factory, record_spawns):
        """Two sweeps, one fleet — the processes serving round 2 are
        the same ones spawned for round 1, and both rounds are
        bit-identical to serial."""
        units_a = make_units(tiny_config, factory,
                             rates=(0.04, 0.08, 0.12))
        units_b = make_units(tiny_config, factory,
                             rates=(0.05, 0.09, 0.13))
        serial_a = serial_fingerprints(units_a)
        serial_b = serial_fingerprints(units_b)
        ctx = ExecutionContext(backend="distributed",
                               queue=str(tmp_path / "q"), workers=2,
                               claim_batch=2, cache=None, engine="fast")
        try:
            assert ([fingerprint(r) for r in ctx.run(units_a)]
                    == serial_a)
            backend = ctx.make_backend()
            round1_procs = list(backend._pool.procs)
            round1_pids = sorted(p.pid for p in round1_procs)
            assert len(round1_pids) == 2
            assert ([fingerprint(r) for r in ctx.run(units_b)]
                    == serial_b)
            assert sorted(p.pid for p in backend._pool.procs) \
                == round1_pids, "round 2 respawned the fleet"
            assert len(record_spawns) == 2, "spawned more than once"
        finally:
            ctx.close()
        # close() retires the fleet: gracefully, and completely.
        for proc in record_spawns:
            assert proc.poll() is not None
            assert proc.returncode == 0
        # A closed context still works: the next run builds a fresh
        # backend (and fleet) transparently.
        try:
            assert ([fingerprint(r) for r in ctx.run(units_a)]
                    == serial_a)
        finally:
            ctx.close()

    def test_idle_fleet_retires_promptly(self, tmp_path):
        """A fleet idling at its backoff cap retires at once: a worker
        reads the shutdown sentinel while it waits for its next
        ``todo/`` listing, and exits cleanly."""
        WorkQueue(tmp_path / "q").ensure()
        # A 10 s poll is also the backoff cap: every idle wait is
        # 5-15 s, so a worker that saw the sentinel only at its next
        # listing would hold close() for seconds.
        pool = WorkerPool(tmp_path / "q", workers=2, poll_s=10.0)
        pool.ensure()
        procs = list(pool.procs)
        time.sleep(2.5)             # both workers start, then wait
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 1.0
        assert [proc.returncode for proc in procs] == [0, 0]
        logs = sorted((tmp_path / "q" / "logs").glob("worker-*.log"))
        assert len(logs) == 2
        assert all("task(s) handled" in log.read_text() for log in logs)

    def test_fleet_retires_with_its_driver(self, tmp_path):
        """A driver that never calls ``close()`` still leaves no
        worker behind: a collected context retires its fleet, and so
        does an interpreter that exits holding one — at once, not
        after the orphan bound (``WorkerPool.MAX_IDLE_S``)."""
        import subprocess
        import sys

        script = textwrap.dedent("""
            import gc, json, sys
            from repro.analysis import NoDvfsSteadyState, sweep_units
            from repro.noc import NocConfig, SimBudget
            from repro.runner import ExecutionContext
            from repro.traffic import PatternTraffic, make_pattern

            config = NocConfig(width=3, height=3, num_vcs=2,
                               vc_buf_depth=2, packet_length=3)
            pattern = make_pattern("uniform", config.make_mesh())

            def fleet(queue, rate):
                ctx = ExecutionContext(backend="distributed",
                                       queue=queue, workers=1,
                                       cache=None, engine="fast")
                ctx.run(sweep_units(
                    config, lambda r: PatternTraffic(pattern, r),
                    [rate], NoDvfsSteadyState(),
                    SimBudget(200, 500, 1500), 7, "fast"))
                return ctx, list(ctx.make_backend()._pool.procs)

            ctx, procs = fleet(sys.argv[1] + "/collected", 0.05)
            del ctx
            gc.collect()
            print(json.dumps([p.poll() for p in procs]))
            ctx, procs = fleet(sys.argv[1] + "/exited", 0.1)
            print(json.dumps([p.pid for p in procs]))
            """)
        proc = subprocess.run(
            [sys.executable, "-c", script, str(tmp_path)],
            env=DRIVER_ENV, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        collected_codes, exited_pids = map(json.loads,
                                           proc.stdout.splitlines())
        assert collected_codes == [0], "collection did not retire " \
            "the fleet gracefully"
        deadline = time.monotonic() + 5.0
        while (any(_running(pid) for pid in exited_pids)
               and time.monotonic() < deadline):
            time.sleep(0.1)
        assert not any(_running(pid) for pid in exited_pids), \
            "a worker outlived its driver"
        # Both fleets exited through the sentinel, logging their tally.
        for name in ("collected", "exited"):
            logs = "".join(path.read_text() for path in
                           (tmp_path / name / "logs").glob("*.log"))
            assert logs.count("task(s) handled") == 1, logs

    def test_forked_workers_are_named(self, tmp_path):
        """A forked worker keeps its driver's command line, so it
        carries a process name of its own for ``pgrep -x``."""
        WorkQueue(tmp_path / "q").ensure()
        pool = WorkerPool(tmp_path / "q", workers=1)
        pool.ensure()
        try:
            comm = Path(f"/proc/{pool.procs[0].pid}/comm")
            if not comm.exists():
                pytest.skip("no /proc here")
            deadline = time.monotonic() + 10.0
            while (comm.read_text().strip() != "repro-worker"
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert comm.read_text().strip() == "repro-worker"
        finally:
            pool.close()

    def test_warm_rounds_survive_mid_round_crash_inprocess(
            self, tmp_path, tiny_config, factory):
        """The in-process analogue with fault injection: one persistent
        worker set serves two publish_plan rounds; a worker dies
        mid-round-2 holding a multi-claim batch; both rounds stay
        bit-identical to serial."""
        units_a = make_units(tiny_config, factory,
                             rates=(0.04, 0.08, 0.12))
        units_b = make_units(tiny_config, factory,
                             rates=(0.05, 0.09, 0.13))
        queue = WorkQueue(tmp_path / "q",
                          lease_ttl_s=FAST_TTL).ensure()
        crasher = CrashingWorker(queue, crash_on=10 ** 9,
                                 claim_batch=2)
        pool_workers = [crasher, Worker(queue, claim_batch=2)]

        def run_round(units, crash_after_round):
            if crash_after_round:           # arm the crash mid-round
                crasher.crash_on = crasher.claims + 1
            plan = ExecutionPlan(list(units), None)
            plan.group_batches(jobs=4, max_shard=2, min_shard=1)
            tasks, _ = publish_plan(queue, plan)
            with pytest.raises(CrashingWorker.Died) \
                    if crash_after_round else contextlib.nullcontext():
                while True:
                    if not any(w.run_once() for w in pool_workers):
                        break
            healthy = Worker(queue, claim_batch=2)

            def finish(result):
                for i in plan.pending[result.digest]:
                    plan.results[i] = result

            Collector(queue, [t.task_id for t in tasks], poll_s=0.02,
                      timeout_s=60).collect(
                finish, on_poll=lambda out: healthy.run_once())
            return plan.results

        round_a = run_round(units_a, crash_after_round=False)
        round_b = run_round(units_b, crash_after_round=True)
        assert ([fingerprint(r) for r in round_a]
                == serial_fingerprints(units_a))
        assert ([fingerprint(r) for r in round_b]
                == serial_fingerprints(units_b))


# ---------------------------------------------------------------------
class TestForkHazards:
    """A forked worker shares its driver's memory image, so it must
    leave nothing of the driver's own to run or to write: no exit
    handler, no finalizer, no buffered output."""

    def _drive(self, script, tmp_path):
        import subprocess
        import sys

        # The driver's stdout is a pipe, so it is block-buffered
        # unless the environment asks otherwise.
        env = {name: value for name, value in DRIVER_ENV.items()
               if name != "PYTHONUNBUFFERED"}
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(script),
             str(tmp_path)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        return proc

    def test_worker_exit_runs_no_driver_exit_handler(self, tmp_path):
        """A worker retiring on its own (here through ``--max-tasks``)
        runs neither the driver's ``atexit`` handlers nor the pool's
        finalizer, which would publish the shutdown sentinel and retire
        its sibling: the sibling keeps serving."""
        proc = self._drive("""
            import atexit, json, os, sys, time
            from repro.runner.distributed import (DistributedBackend,
                                                  WorkQueue)
            from repro.runner.distributed import pool as pool_mod

            root = sys.argv[1]

            def record_exit():
                with open(root + "/atexit.log", "a") as log:
                    log.write(f"{os.getpid()}\\n")

            atexit.register(record_exit)

            class Echo:
                def __init__(self, value):
                    self.value = value

                def iter_results(self):
                    yield self.value

            one_task = pool_mod._worker_command
            pool_mod._worker_command = (
                lambda *args, **kwargs: one_task(*args, **kwargs)
                + ["--max-tasks", "1"])
            backend = DistributedBackend(root + "/q", workers=2,
                                         poll_s=0.01)
            fleet = backend._fleet()    # registers the pool finalizer
            queue = WorkQueue(root + "/q").ensure()
            fleet.ensure()
            procs = list(fleet.procs)

            def wait_for(exits):
                deadline = time.monotonic() + 30
                while (sum(p.poll() is not None for p in procs) < exits
                       and time.monotonic() < deadline):
                    time.sleep(0.01)

            queue.publish("t1", Echo("t1"))
            wait_for(1)
            time.sleep(0.5)             # a sentinel is read in 0.1 s
            first = [p.poll() for p in procs]
            sentinel = queue.shutdown_requested()
            queue.publish("t2", Echo("t2"))
            wait_for(2)
            print(json.dumps({"first": first, "sentinel": sentinel,
                              "codes": [p.poll() for p in procs],
                              "done": sorted(queue.result_ids()),
                              "driver": os.getpid()}))
            backend.close()
            """, tmp_path)
        report = json.loads(proc.stdout)
        assert sorted(report["first"], key=str) == [0, None], \
            "one worker's exit retired its sibling"
        assert report["sentinel"] is False
        assert report["codes"] == [0, 0]
        assert report["done"] == ["t1", "t2"]
        assert (tmp_path / "atexit.log").read_text().split() == \
            [str(report["driver"])], "a worker ran the driver's atexit"

    def test_unflushed_driver_output_prints_once(self, tmp_path):
        """Output the driver buffered before its fleet forked reaches
        the driver's stdout exactly once and never a worker's log."""
        proc = self._drive("""
            import sys
            from repro.analysis import NoDvfsSteadyState, sweep_units
            from repro.noc import NocConfig, SimBudget
            from repro.runner import ExecutionContext
            from repro.traffic import PatternTraffic, make_pattern

            config = NocConfig(width=3, height=3, num_vcs=2,
                               vc_buf_depth=2, packet_length=3)
            pattern = make_pattern("uniform", config.make_mesh())
            sys.stdout.write("driver output before the fork\\n")
            ctx = ExecutionContext(backend="distributed",
                                   queue=sys.argv[1] + "/q", workers=1,
                                   cache=None, engine="fast")
            try:
                ctx.run(sweep_units(
                    config, lambda r: PatternTraffic(pattern, r),
                    [0.05], NoDvfsSteadyState(),
                    SimBudget(200, 500, 1500), 7, "fast"))
                assert ctx.runner.last_report.parallel
            finally:
                ctx.close()
            print("driver done")
            """, tmp_path)
        assert proc.stdout.splitlines() == [
            "driver output before the fork", "driver done"]
        logs = list((tmp_path / "q" / "logs").glob("worker-*.log"))
        assert len(logs) == 1
        log = logs[0].read_text()
        assert "task(s) handled" in log
        assert "driver output" not in log
