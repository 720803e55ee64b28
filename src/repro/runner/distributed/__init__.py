"""Distributed execution: a shared-directory work queue for sweeps.

The PR-1/PR-3 work-unit scheme was built to be process- and
machine-independent — every unit's seed and cache key derive from its
spec digest alone — so distributing a sweep is "only" a scheduling
problem.  This package solves it with files:

* :mod:`.queue` — the :class:`WorkQueue`: atomic-rename claims,
  idempotent completion, bounded retries; one directory, no server;
* :mod:`.lease` — time-bounded worker holds with expiry, so dead
  workers' shards are recoverable;
* :mod:`.broker` — publish an :class:`~repro.runner.plan.ExecutionPlan`
  as content-addressed shard tasks;
* :mod:`.worker` — the claim/execute/complete loop behind
  ``python -m repro.experiments worker --queue DIR``, with multi-claim
  leases (``--claim-batch``) and backed-off idle polling;
* :mod:`.pool` — :class:`WorkerPool`: fleets of workers forked from
  the driver that outlive a single sweep and retire via the queue's
  shutdown sentinel;
* :mod:`.collector` — the driver side: block until the plan completes,
  re-enqueue expired leases, surface exhausted retries;
* :mod:`.backend` — :class:`DistributedBackend`, registered as
  ``backend="distributed"`` (CLI ``--backend distributed --queue DIR
  --workers N [--claim-batch N]``); its self-spawned fleet lives as
  long as its execution context.

The determinism guarantee extends unchanged: a distributed sweep is
bit-identical to a serial one for any worker count, claim batch size,
crash schedule or claim interleaving — enforced by the fault-injection
harness in ``tests/test_distributed.py``.
"""

from .backend import DistributedBackend
from .broker import ShardTask, plan_tasks, publish_plan
from .collector import (CollectStats, CollectTimeout, Collector,
                        FailedUnitError)
from .lease import DEFAULT_LEASE_TTL_S, Lease, read_lease
from .pool import WorkerPool
from .queue import (Claim, DEFAULT_MAX_ATTEMPTS, QueueError,
                    RequeueReport, WorkQueue, default_worker_id)
from .worker import Worker

__all__ = [
    "Claim",
    "CollectStats",
    "CollectTimeout",
    "Collector",
    "DEFAULT_LEASE_TTL_S",
    "DEFAULT_MAX_ATTEMPTS",
    "DistributedBackend",
    "FailedUnitError",
    "Lease",
    "QueueError",
    "RequeueReport",
    "ShardTask",
    "Worker",
    "WorkerPool",
    "WorkQueue",
    "default_worker_id",
    "plan_tasks",
    "publish_plan",
    "read_lease",
]
