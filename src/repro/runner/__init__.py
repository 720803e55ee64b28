"""Parallel sweep runner: deterministic, planned, multi-backend.

Every evaluation figure of the paper is a sweep whose points are
independent simulations.  This package turns each point into a
:class:`WorkUnit`, derives a per-unit random seed from the run seed
and the unit's spec hash (:mod:`repro.runner.seeding`), caches results
by that hash (:class:`UnitCache`), plans what must actually run
(:class:`ExecutionPlan`: cache hits, batch groups, shards) and
executes the plan on an interchangeable :class:`Backend` (serial;
batched through :func:`repro.noc.fastsim.run_fixed_batch`, with
per-unit work and shards fanned out on a process pool; or distributed
across processes and hosts via a shared-directory work queue —
:mod:`repro.runner.distributed`) — with the guarantee that the
execution mode can never change a result.  An
:class:`ExecutionContext` carries the whole configuration (backend,
jobs, cache, engine, progress) from the CLI or benchmark harness down
to the runner in one object.
"""

from .backends import (BACKENDS, Backend, BackendRun, BatchedBackend,
                       SerialBackend, backend_names, make_backend)
from .cache import CacheStats, UnitCache
from .context import ExecutionContext, context_from_env, default_jobs
from .executor import RunReport, RunTotals, SweepRunner, print_progress
from .plan import (BatchGroup, ExecutionPlan, MAX_SHARD_POINTS,
                   MIN_SHARD_POINTS, batch_eligible)
from .seeding import derive_unit_seed, unit_generator, unit_seed_sequence
from .units import FrequencyStrategy, UnitResult, WorkUnit, strategy_key

#: Distributed-execution names re-exported lazily (PEP 562): a
#: serial-only import of ``repro.runner`` never loads the queue
#: machinery, matching the registry's lazy ``module:class`` spec for
#: ``backend="distributed"``.
_DISTRIBUTED_EXPORTS = frozenset({
    "CollectTimeout", "Collector", "DistributedBackend",
    "FailedUnitError", "QueueError", "Worker", "WorkerPool",
    "WorkQueue",
})


def __getattr__(name: str):
    if name in _DISTRIBUTED_EXPORTS:
        from . import distributed
        return getattr(distributed, name)
    raise AttributeError(f"module {__name__!r} has no attribute "
                         f"{name!r}")

__all__ = [
    "BACKENDS",
    "Backend",
    "BackendRun",
    "BatchGroup",
    "BatchedBackend",
    "CacheStats",
    "CollectTimeout",
    "Collector",
    "DistributedBackend",
    "ExecutionContext",
    "ExecutionPlan",
    "FailedUnitError",
    "FrequencyStrategy",
    "MAX_SHARD_POINTS",
    "MIN_SHARD_POINTS",
    "QueueError",
    "RunReport",
    "RunTotals",
    "SerialBackend",
    "SweepRunner",
    "UnitCache",
    "UnitResult",
    "WorkQueue",
    "WorkUnit",
    "Worker",
    "WorkerPool",
    "backend_names",
    "batch_eligible",
    "context_from_env",
    "default_jobs",
    "derive_unit_seed",
    "make_backend",
    "print_progress",
    "strategy_key",
    "unit_generator",
    "unit_seed_sequence",
]
