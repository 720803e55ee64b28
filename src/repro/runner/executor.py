"""The sweep runner: planned, cached, backend-driven unit execution.

``SweepRunner.run`` takes a list of :class:`~repro.runner.units.WorkUnit`
and returns their results *in submission order*.  Under the hood it

1. builds an :class:`~repro.runner.plan.ExecutionPlan` — cache hits are
   served immediately, duplicates collapse, and (for a batched backend)
   the remainder groups into batch shards;
2. hands the plan to the :class:`~repro.runner.backends.Backend`
   selected by its :class:`~repro.runner.context.ExecutionContext`
   (``serial``, ``batched``, ``distributed``, or ``auto``);
3. reports progress and timing through an optional callback and a
   :class:`RunReport`.

Determinism: each unit carries its own derived seed (see
:mod:`repro.runner.seeding`), so neither the backend, the shard
boundaries nor the worker schedule can leak into the results —
``backend="batched"`` with ``jobs=8`` is bit-identical to ``jobs=1``
serial.  If the host cannot create a process pool (restricted
sandboxes, missing semaphores) or the pool dies mid-run, execution
falls back to in-process work with identical results.

Callers build an :class:`~repro.runner.context.ExecutionContext` once
and use its shared runner (``context.runner``); ``Workbench`` and
``run_sweep`` take the context whole.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import ProcessPoolExecutor  # noqa: F401  (see
# backends._run_tasks_on_pool: pool creation resolves through this
# module so restricted-host tests can stub it in one place)
from dataclasses import dataclass, field
from typing import Sequence

from .context import ExecutionContext
from .plan import ExecutionPlan
from .units import UnitResult, WorkUnit


def print_progress(done: int, total: int, latest: UnitResult) -> None:
    """Simple stderr progress line, usable as a ``progress`` callback."""
    origin = "cache" if latest.from_cache else f"{latest.elapsed_s:.1f}s"
    print(f"  [{done}/{total}] {latest.policy} @ x={latest.x:.4g} "
          f"({origin})", file=sys.stderr)


@dataclass(frozen=True)
class RunReport:
    """Timing and accounting of one ``SweepRunner.run`` call."""

    total_units: int
    executed: int
    cache_hits: int
    jobs: int
    parallel: bool
    elapsed_s: float
    #: summed single-unit execution time; with ``parallel`` this can
    #: exceed ``elapsed_s`` — the ratio is the realized speedup
    busy_s: float = 0.0
    #: backend that executed the plan ("serial", "batched",
    #: "distributed")
    backend: str = "serial"
    #: batch groups (shards) executed, one ``run_fixed_batch`` each
    groups: int = 0
    #: executed units that ran inside batch groups
    batched_units: int = 0

    @property
    def units_per_s(self) -> float:
        return self.executed / self.elapsed_s if self.elapsed_s > 0 else 0.0

    @property
    def speedup(self) -> float:
        """Realized parallel speedup over running the same units serially."""
        return self.busy_s / self.elapsed_s if self.elapsed_s > 0 else 1.0

    def render(self) -> str:
        mode = self.backend
        if self.groups:
            mode += f" x{self.groups} groups"
        if self.parallel:
            mode += f", {self.jobs} workers"
        return (f"{self.total_units} units ({self.cache_hits} cached, "
                f"{self.executed} run, {mode}) in {self.elapsed_s:.1f}s"
                + (f", speedup {self.speedup:.1f}x" if self.parallel
                   else ""))


@dataclass
class RunTotals:
    """Accumulated accounting across every run of one runner."""

    total_units: int = 0
    executed: int = 0
    cache_hits: int = 0
    elapsed_s: float = 0.0
    busy_s: float = 0.0
    groups: int = 0
    batched_units: int = 0
    reports: list[RunReport] = field(default_factory=list)

    def add(self, report: RunReport) -> None:
        self.total_units += report.total_units
        self.executed += report.executed
        self.cache_hits += report.cache_hits
        self.elapsed_s += report.elapsed_s
        self.busy_s += report.busy_s
        self.groups += report.groups
        self.batched_units += report.batched_units
        self.reports.append(report)

    def render(self) -> str:
        batched = (f", {self.batched_units} batched in {self.groups} "
                   f"groups" if self.groups else "")
        return (f"{self.total_units} units total, "
                f"{self.cache_hits} cache hits, "
                f"{self.executed} executed in {self.elapsed_s:.1f}s"
                + batched)


class SweepRunner:
    """Executes work units under an :class:`ExecutionContext`."""

    def __init__(self, context: ExecutionContext) -> None:
        self.context = context
        if context._runner is None:
            # Make ``context.runner`` resolve to this runner, so code
            # holding either object shares cache and totals.
            context._runner = self
        self.last_report: RunReport | None = None
        self.totals = RunTotals()

    def run(self, units: Sequence[WorkUnit]) -> list[UnitResult]:
        """Execute every unit; results come back in submission order."""
        start = time.perf_counter()
        context = self.context
        plan = ExecutionPlan(list(units), context.cache)
        done_count = plan.cache_hits
        busy_s = 0.0

        def finish(result: UnitResult) -> None:
            nonlocal done_count, busy_s
            busy_s += result.elapsed_s
            if context.cache is not None:
                context.cache.put(result)
            indices = plan.pending[result.digest]
            for i in indices:
                plan.results[i] = (result if i == indices[0]
                                   else result.cached())
            done_count += len(indices)
            if context.progress is not None:
                context.progress(done_count, plan.total_units, result)

        backend_name = context.resolved_backend()
        # The context memoizes its backend, so backend-held state (the
        # distributed backend's self-spawned fleet) spans run() calls.
        outcome = context.make_backend().execute(
            plan, context.jobs, finish)

        elapsed = time.perf_counter() - start
        report = RunReport(
            total_units=plan.total_units, executed=plan.executed,
            cache_hits=plan.cache_hits,
            jobs=outcome.workers or context.jobs,
            parallel=outcome.parallel, elapsed_s=elapsed, busy_s=busy_s,
            backend=backend_name, groups=outcome.groups,
            batched_units=outcome.batched_units)
        self.last_report = report
        self.totals.add(report)
        assert all(r is not None for r in plan.results)
        return plan.results  # type: ignore[return-value]
