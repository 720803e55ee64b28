"""Execution backends: interchangeable unit-execution strategies.

A backend takes an :class:`~repro.runner.plan.ExecutionPlan` and
executes everything the plan says must run, reporting each finished
:class:`~repro.runner.units.UnitResult` through a callback (the runner
owns caching, result placement and progress).  Three backends register
here, mirroring how simulation engines register in
:mod:`repro.noc.engines`:

``serial``
    One unit at a time, in process.  No pool, no pickling — the
    per-unit oracle every other backend is diffed against.
``batched``
    Batch groups execute as *one*
    :func:`repro.noc.fastsim.run_fixed_batch` call per shard — the
    fast engine's intended sweep mode — and the per-replica results
    fan back into per-unit results.  The shard's frequency searches
    (DMSD, ``utility``) run before it in lockstep, one batched probe
    round at a time.  Units that cannot batch (reference engine) run
    per unit.  Shards and per-unit work fan
    out onto a ``ProcessPoolExecutor`` when ``jobs > 1``, falling back
    to serial execution when the host cannot create a pool or the
    pool dies mid-run.
``distributed``
    Shards publish to a shared-directory work queue
    (:mod:`repro.runner.distributed`) that any number of worker
    processes — self-spawned locally or started on other hosts — drain
    concurrently, with lease-based crash recovery.

Every unit's seed derives from its spec digest, so backend choice,
shard boundaries and worker count can never change a result — the
differential backend tests enforce bit-identity against serial
execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Protocol, runtime_checkable

from ..noc.fastsim import BatchPoint, run_fixed_batch, run_probe_round
from .plan import BatchGroup, ExecutionPlan
from .units import UnitResult, WorkUnit

#: Called once per finished unit result (the runner's sink).
FinishFn = Callable[[UnitResult], None]


def _execute_unit(unit: WorkUnit) -> UnitResult:
    """Top-level trampoline so units cross process boundaries."""
    return unit.execute()


def _search_in_lockstep(group: BatchGroup,
                        seeds: list[int]) -> dict[int, tuple[float, float]]:
    """Drive the group's frequency searches together, round by round.

    Returns ``{unit index: (frequency, seconds)}`` for every unit whose
    strategy offers ``frequency_search``; a unit's seconds are an
    equal share of each probe round it took part in.
    """
    searches = {}
    for i, unit in enumerate(group.units):
        if hasattr(unit.strategy, "frequency_search"):
            searches[i] = unit.strategy.frequency_search(unit.config,
                                                         unit.budget)
    resolved = {}
    seconds = dict.fromkeys(searches, 0.0)
    sent = dict.fromkeys(searches)      # sending None starts a search
    while sent:
        probes = {}
        for i, result in sent.items():
            try:
                probes[i] = searches[i].send(result)
            except StopIteration as done:
                resolved[i] = (done.value, seconds[i])
        if not probes:
            break
        t0 = time.perf_counter()
        sims = run_probe_round(
            group.config,
            [(BatchPoint(group.units[i].traffic, freq, seeds[i]), budget)
             for i, (freq, budget) in probes.items()])
        share = (time.perf_counter() - t0) / len(probes)
        for i in probes:
            seconds[i] += share
        sent = dict(zip(probes, sims))
    return resolved


def _execute_group(group: BatchGroup) -> list[UnitResult]:
    """Execute one batch group: shared engine, per-unit results.

    Frequencies resolve first.  A strategy that offers a
    ``frequency_search(config, budget)`` probe generator (DMSD and
    ``utility``) is driven in lockstep with the group's other
    searches: each round gathers every live search's next probe and
    runs the probes as batched engines, one per search budget, each
    probe with its unit's own traffic and seed.  Any other strategy
    resolves per unit through ``frequency_for`` (closed-form ones are
    instant).  Then every unit's fixed-frequency measurement runs as
    one replica of a single batched engine.

    Batched replicas equal single fast runs bit for bit, so digests,
    seeds, chosen frequencies and results are identical to per-unit
    execution.  Each unit's ``elapsed_s`` is its frequency resolution
    (for a lockstep search, its shares of the probe rounds) plus its
    share of the measurement batch.
    """
    units = group.units
    seeds = [unit.seed() for unit in units]
    resolved = _search_in_lockstep(group, seeds)
    freqs: list[float] = []
    search_s: list[float] = []
    for i, unit in enumerate(units):
        if i in resolved:
            freq, seconds = resolved[i]
        else:
            t0 = time.perf_counter()
            freq = unit.steady_frequency(seeds[i])
            seconds = time.perf_counter() - t0
        freqs.append(freq)
        search_s.append(seconds)
    t0 = time.perf_counter()
    sims = run_fixed_batch(
        group.config,
        [BatchPoint(unit.traffic, freq, seed)
         for unit, freq, seed in zip(units, freqs, seeds)],
        group.budget)
    share = (time.perf_counter() - t0) / len(units)
    return [
        UnitResult(policy=unit.policy, x=unit.x, freq_hz=freq,
                   seed=seed, digest=unit.digest(), result=sim,
                   elapsed_s=search + share)
        for unit, freq, seed, sim, search
        in zip(units, freqs, seeds, sims, search_s)
    ]


@dataclass
class BackendRun:
    """What a backend did with one plan (report bookkeeping)."""

    parallel: bool = False      # a pool executed at least one task
    groups: int = 0             # batch groups (shards) executed
    batched_units: int = 0      # units that ran inside batch groups
    workers: int = 0            # external worker processes used
    #                             (0 = the context's jobs count applies)


@runtime_checkable
class Backend(Protocol):
    """What the runner requires of an execution backend."""

    name: str

    def execute(self, plan: ExecutionPlan, jobs: int,
                finish: FinishFn) -> BackendRun:
        """Run everything pending in ``plan``; report through
        ``finish`` (in any order); return run bookkeeping."""


def _run_tasks_on_pool(tasks: list[tuple], workers: int,
                       consume: Callable) -> list[tuple]:
    """Execute ``(fn, arg)`` tasks on a process pool.

    ``consume(fn, result)`` is called per finished task.  Returns the
    tasks that still need serial execution: all of them when no pool
    could be created, the unfinished remainder if the pool broke.

    The executor module's ``ProcessPoolExecutor`` reference is looked
    up lazily so tests (and restricted hosts) can stub pool creation
    in one place.
    """
    from concurrent.futures import FIRST_COMPLETED, wait
    from concurrent.futures.process import BrokenProcessPool

    from . import executor

    try:
        pool = executor.ProcessPoolExecutor(max_workers=workers)
    except (OSError, PermissionError, ValueError):
        # Hosts without working multiprocessing primitives: the
        # runner still works, just without the speedup.
        return list(tasks)
    unfinished = {}
    try:
        with pool:
            for fn, arg in tasks:
                unfinished[pool.submit(fn, arg)] = (fn, arg)
            pending_futures = set(unfinished)
            while pending_futures:
                finished, pending_futures = wait(
                    pending_futures, return_when=FIRST_COMPLETED)
                for future in finished:
                    consume(unfinished[future][0], future.result())
                    del unfinished[future]
    except BrokenProcessPool:
        return list(unfinished.values())
    return []


class SerialBackend:
    """Everything in process, one unit at a time."""

    name = "serial"

    def execute(self, plan: ExecutionPlan, jobs: int,
                finish: FinishFn) -> BackendRun:
        for unit in plan.todo:
            finish(_execute_unit(unit))
        return BackendRun()


class BatchedBackend:
    """Batch groups through ``run_fixed_batch``; the rest per unit."""

    name = "batched"

    def execute(self, plan: ExecutionPlan, jobs: int,
                finish: FinishFn) -> BackendRun:
        plan.group_batches(jobs)
        run = BackendRun(groups=len(plan.groups),
                         batched_units=plan.batched_units)

        def consume(fn, result) -> None:
            if fn is _execute_group:
                for unit_result in result:
                    finish(unit_result)
            else:
                finish(result)

        tasks = ([(_execute_group, group) for group in plan.groups]
                 + [(_execute_unit, unit) for unit in plan.singles])
        remaining = list(tasks)
        if jobs > 1 and len(tasks) > 1:
            remaining = _run_tasks_on_pool(
                tasks, min(jobs, len(tasks)), consume)
        run.parallel = len(remaining) < len(tasks)
        for fn, arg in remaining:   # serial path and pool fallback
            consume(fn, fn(arg))
        return run


#: Registered backends.  A string value is a lazy import spec
#: (``module:class``) resolved on first use — the distributed backend
#: lives in a subpackage that itself imports this module.
BACKENDS: dict[str, type | str] = {
    "serial": SerialBackend,
    "batched": BatchedBackend,
    "distributed": "repro.runner.distributed.backend:DistributedBackend",
}


def backend_names() -> tuple[str, ...]:
    """Registered backend names (the CLI adds ``auto`` on top)."""
    return tuple(BACKENDS)


def make_backend(name: str, **options) -> Backend:
    """Instantiate the backend registered under ``name``.

    ``options`` are backend-specific constructor keywords; the
    built-in in-process backends take none, the distributed backend
    takes its queue directory and worker count (the context supplies
    them via :meth:`~repro.runner.context.ExecutionContext.backend_options`).
    """
    try:
        cls = BACKENDS[name]
    except KeyError:
        known = ", ".join(backend_names())
        raise ValueError(f"unknown backend {name!r}; known: {known}") \
            from None
    if isinstance(cls, str):
        from importlib import import_module

        module_name, _, class_name = cls.partition(":")
        cls = getattr(import_module(module_name), class_name)
        BACKENDS[name] = cls
    return cls(**options)
