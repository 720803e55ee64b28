"""Span recorder wrapped around each layer's public entry points.

Nothing under ``src/`` is instrumented: :func:`install` replaces the
entry points of each layer with timing wrappers from here, and
:meth:`Recorder.stop` puts the originals back.  Functions imported by
value are wrapped in every module that looks them up.

Two kinds of record are kept in memory and written out at the end:

* **spans** (name, start, end, parent) around coarse calls — Workbench
  stages, searches, runner passes, queue operations, whole simulations;
* **tallies** (calls, seconds) for hot calls made thousands of times per
  simulation — ``FastNetwork.step_cycle`` and
  ``InjectionProcess.arrivals`` — whose time is also charged to the
  innermost open span so self time stays a partition of wall time.

Self-spawned distributed workers are traced too (:func:`trace_workers`):
each writes its own record when it exits, and the spawning process
merges them, so per-layer busy and self times sum over processes.

A span's self time is its duration minus the part of it covered by
child spans and tallied calls.  The layer of a span or tally is its name
up to the first dot.
"""

from __future__ import annotations

import functools
import json
import os
from collections import defaultdict
from time import perf_counter

LAYERS = ("experiments", "analysis", "runner", "distributed", "noc",
          "traffic")

#: Per-layer metrics a traced run reports (BENCHMARK.json ``per_layer``
#: adds ``trace.overhead_ratio`` and ``failed_ratio``, which ``run.py``
#: computes across runs).
METRICS = (
    "experiments.saturation_s", "experiments.dmsd_target_s",
    "experiments.sweep_s",
    "analysis.saturation_probes", "analysis.dmsd_probes",
    "analysis.dmsd_searches", "analysis.dmsd_search_s",
    "runner.plan_s", "runner.units_submitted", "runner.units_executed",
    "runner.cache_hit_ratio", "runner.batch_groups",
    "runner.batched_units", "runner.group_search_s",
    "runner.group_batch_s",
    "distributed.publish_s", "distributed.fleet_spawn_s",
    "distributed.collect_wait_s", "distributed.fleet_close_s",
    "distributed.tasks",
    "distributed.task_attempts", "distributed.tasks_failed",
    "noc.fixed_point_runs", "noc.fixed_point_s", "noc.batch_runs",
    "noc.batch_replicas", "noc.batch_s", "noc.step_calls.single",
    "noc.step_calls.batched", "noc.step_us.single",
    "noc.step_us.batched", "noc.packets_enqueued",
    "traffic.arrivals_calls", "traffic.arrivals_s",
) + tuple(f"{layer}.self_s" for layer in LAYERS)

#: Modules that look ``run_fixed_point`` up as a global of their own.
FIXED_POINT_USERS = ("repro.noc.budget", "repro.analysis.saturation",
                     "repro.analysis.sweep", "repro.runner.units",
                     "repro.experiments.common")


def self_times(spans, covered=None) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    (clipped to the span) and its ``covered`` tallied time."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append((span[1], span[2]))
    out = []
    for i, span in enumerate(spans):
        start, end = span[1], span[2]
        busy, cursor = 0.0, start
        for c_start, c_end in sorted(children[i]):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                busy += c_end - c_start
                cursor = c_end
        extra = covered[i] if covered else 0.0
        out.append(end - start - busy - extra)
    return out


class Recorder:
    """In-memory spans, tallies and counts for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start, end, parent, pid]
        self.covered: list[float] = []     # tallied time inside a span
        self.tallies: dict[str, list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # --- wrappers ---------------------------------------------------------
    def span(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` may count."""
        spans, covered, stack = self.spans, self.covered, self._stack
        pid = os.getpid()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else -1, pid])
            covered.append(0.0)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = perf_counter()
            if after is not None:
                after(result, args)
            return result
        return wrapper

    def tally(self, fn, name_of):
        """``fn`` wrapped in a call counter and timer (no span)."""
        tallies, covered, stack = self.tallies, self.covered, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                entry = tallies[name_of(args)]
                entry[0] += 1
                entry[1] += elapsed
                if stack:
                    covered[stack[-1]] += elapsed
        return wrapper

    def counter(self, fn, name: str):
        """``fn`` wrapped in a bare call counter."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def stop(self) -> None:
        """Restore every patched entry point (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self) -> dict:
        """Raw record, for :meth:`merge` in another process."""
        return {"spans": self.spans, "covered": self.covered,
                "tallies": dict(self.tallies), "counts": dict(self.counts)}

    def merge(self, other: dict) -> None:
        """Add another process's :meth:`dump` (its spans become roots
        of their own; ``perf_counter`` is system-wide on Linux)."""
        offset = len(self.spans)
        for name, start, end, parent, pid in other["spans"]:
            if end is None:         # exited inside a span
                end = start
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else -1,
                               pid])
        self.covered.extend(other["covered"])
        for name, (calls, seconds) in other["tallies"].items():
            entry = self.tallies[name]
            entry[0] += calls
            entry[1] += seconds
        for name, value in other["counts"].items():
            self.counts[name] += value

    # --- derived metrics --------------------------------------------------
    def _ancestors(self, index: int):
        parent = self.spans[index][3]
        while parent >= 0:
            yield self.spans[parent][0]
            parent = self.spans[parent][3]

    def _under(self, name: str, ancestor: str) -> list[int]:
        return [i for i, span in enumerate(self.spans)
                if span[0] == name and ancestor in self._ancestors(i)]

    def _total(self, indices) -> float:
        return sum(self.spans[i][2] - self.spans[i][1] for i in indices)

    def _named(self, name: str) -> list[int]:
        return [i for i, span in enumerate(self.spans) if span[0] == name]

    def _first(self, name: str) -> float:
        found = self._named(name)
        return self._total(found[:1])

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans,
                             self_times(self.spans, self.covered)):
            layer = span[0].partition(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        for name, (_, seconds) in self.tallies.items():
            layer = name.partition(".")[0]
            out[layer] = out.get(layer, 0.0) + seconds
        return out

    def metrics(self, bench=None) -> dict[str, float]:
        """Every name in :data:`METRICS`; 0 where a layer was idle."""
        step = {kind: self.tallies.get(f"noc.step.{kind}", [0, 0.0])
                for kind in ("single", "batched")}
        arrivals = self.tallies.get("traffic.arrivals", [0, 0.0])
        fixed = self._named("noc.fixed_point")
        batches = self._named("noc.batch")
        searches = self._named("analysis.dmsd_search")
        m = {
            "experiments.saturation_s": self._first(
                "experiments.saturation"),
            "experiments.dmsd_target_s": self._first(
                "experiments.dmsd_target"),
            "experiments.sweep_s": self._first("experiments.sweep"),
            "analysis.saturation_probes": len(self._under(
                "noc.fixed_point", "analysis.saturation_search")),
            "analysis.dmsd_probes": len(self._under(
                "noc.fixed_point", "analysis.dmsd_search")),
            "analysis.dmsd_searches": len(searches),
            "analysis.dmsd_search_s": self._total(searches),
            "runner.plan_s": self._total(self._named("runner.plan")),
            "runner.group_search_s": self._total(self._under(
                "runner.steady_frequency", "runner.execute_group")),
            "runner.group_batch_s": self._total(self._under(
                "noc.batch", "runner.execute_group")),
            "distributed.publish_s": self._total(
                self._named("distributed.publish")),
            "distributed.fleet_spawn_s": self._first(
                "distributed.fleet_ensure"),
            "distributed.collect_wait_s": self._total(
                self._named("distributed.collect")),
            "distributed.fleet_close_s": self._total(
                self._named("distributed.fleet_close")),
            "noc.fixed_point_runs": len(fixed),
            "noc.fixed_point_s": self._total(fixed),
            "noc.batch_runs": len(batches),
            "noc.batch_s": self._total(batches),
            "noc.step_calls.single": step["single"][0],
            "noc.step_calls.batched": step["batched"][0],
            "noc.step_us.single": _mean_us(step["single"]),
            "noc.step_us.batched": _mean_us(step["batched"]),
            "traffic.arrivals_calls": arrivals[0],
            "traffic.arrivals_s": arrivals[1],
        }
        for name in ("noc.batch_replicas", "noc.packets_enqueued",
                     "distributed.tasks", "distributed.task_attempts",
                     "distributed.tasks_failed"):
            m[name] = self.counts.get(name, 0)
        m["runner.units_submitted"] = m["runner.units_executed"] = 0
        m["runner.batch_groups"] = m["runner.batched_units"] = 0
        m["runner.cache_hit_ratio"] = 0.0
        if bench is not None:
            totals = bench.runner.totals
            m["runner.units_submitted"] = totals.total_units
            m["runner.units_executed"] = totals.executed
            m["runner.batch_groups"] = totals.groups
            m["runner.batched_units"] = totals.batched_units
            cache = bench.context.cache
            if cache is not None:
                m["runner.cache_hit_ratio"] = cache.stats.hit_rate
        for layer, seconds in self.layer_self_s().items():
            m[f"{layer}.self_s"] = seconds
        return m

    # --- export -----------------------------------------------------------
    def chrome_events(self) -> list[dict]:
        """Spans as Chrome trace-event "complete" events (microseconds)."""
        if not self.spans:
            return []
        origin = min(span[1] for span in self.spans)
        return [{"name": name, "cat": name.partition(".")[0], "ph": "X",
                 "ts": (start - origin) * 1e6,
                 "dur": (end - start) * 1e6, "pid": pid, "tid": 0,
                 "args": {"parent": parent}}
                for name, start, end, parent, pid in self.spans]

    def write(self, path: str, meta: dict | None = None) -> None:
        """Chrome trace JSON; tallies and counts ride in ``otherData``."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {
                **(meta or {}),
                "tallies": {k: {"calls": v[0], "seconds": v[1]}
                            for k, v in sorted(self.tallies.items())},
                "counts": dict(sorted(self.counts.items())),
                "layer_self_s": self.layer_self_s(),
            },
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)


def _mean_us(entry) -> float:
    calls, seconds = entry
    return seconds / calls * 1e6 if calls else 0.0


def install(rec: Recorder) -> None:
    """Wrap every layer's entry points; :meth:`Recorder.stop` undoes it."""
    import importlib

    from repro.analysis.sweep import DmsdSteadyState
    from repro.experiments.common import Workbench
    from repro.noc.fastsim.engine import FastNetwork
    from repro.runner import backends
    from repro.runner.executor import SweepRunner
    from repro.runner.plan import ExecutionPlan
    from repro.runner.units import WorkUnit
    from repro.traffic.injection import InjectionProcess

    def method(owner, attr, name, after=None):
        rec.patch(owner, attr, rec.span(name, getattr(owner, attr), after))

    # experiments: the Workbench stages
    method(Workbench, "saturation", "experiments.saturation")
    method(Workbench, "dmsd_target_ns", "experiments.dmsd_target")
    method(Workbench, "policy_comparison", "experiments.sweep")
    method(Workbench, "scenario_matrix", "experiments.sweep")

    # analysis: the two bisection searches
    common = importlib.import_module("repro.experiments.common")
    method(common, "find_saturation_rate", "analysis.saturation_search")
    method(DmsdSteadyState, "frequency_for", "analysis.dmsd_search")

    # runner: plan, run, batch groups, frequency resolution
    method(SweepRunner, "run", "runner.run")
    method(ExecutionPlan, "__init__", "runner.plan")
    method(ExecutionPlan, "group_batches", "runner.plan")
    method(backends, "_execute_group", "runner.execute_group")
    method(WorkUnit, "steady_frequency", "runner.steady_frequency")

    # noc: whole simulations, engine steps, packets
    fixed = rec.span("noc.fixed_point",
                     importlib.import_module(
                         "repro.noc.budget").run_fixed_point)
    for module in FIXED_POINT_USERS:
        rec.patch(importlib.import_module(module), "run_fixed_point",
                  fixed)

    def count_replicas(result, args):
        rec.counts["noc.batch_replicas"] += len(args[1])

    method(backends, "run_fixed_batch", "noc.batch", count_replicas)
    rec.patch(FastNetwork, "step_cycle", rec.tally(
        FastNetwork.step_cycle,
        lambda args: ("noc.step.single" if args[0].copies == 1
                      else "noc.step.batched")))
    rec.patch(FastNetwork, "enqueue_packet", rec.counter(
        FastNetwork.enqueue_packet, "noc.packets_enqueued"))

    # traffic: the injection process
    rec.patch(InjectionProcess, "arrivals", rec.tally(
        InjectionProcess.arrivals, lambda args: "traffic.arrivals"))

    _install_distributed(rec, method)


def _install_distributed(rec: Recorder, method) -> None:
    from repro.runner.distributed import backend
    from repro.runner.distributed.collector import Collector
    from repro.runner.distributed.pool import WorkerPool

    def count_tasks(result, args):
        rec.counts["distributed.tasks"] += len(result[0])

    def read_queue(stats, args):
        # Completed tickets are deleted, so attempts are rebuilt from
        # what the queue keeps: one per result on disk, one per lease
        # the collector re-enqueued, and the failed tickets' counts.
        collector = args[0]
        ids = set(collector.task_ids)
        failed = collector.queue.failed_tickets(ids)
        done = len(ids & collector.queue.result_ids())
        rec.counts["distributed.tasks_failed"] += len(failed)
        rec.counts["distributed.task_attempts"] += (
            done + stats.requeues
            + sum(int(t.get("attempts", 1)) for t in failed.values()))

    method(backend, "publish_plan", "distributed.publish", count_tasks)
    method(WorkerPool, "ensure", "distributed.fleet_ensure")
    method(WorkerPool, "close", "distributed.fleet_close")
    method(Collector, "collect", "distributed.collect", read_queue)


def trace_workers(rec: Recorder, out_dir: str) -> None:
    """Start self-spawned workers under ``traced_worker.py``, which
    records them like this process and dumps into ``out_dir``."""
    import sys

    from repro.runner.distributed import pool

    script = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "traced_worker.py")
    command = pool._worker_command

    @functools.wraps(command)
    def traced(*args, **kwargs):
        # [python, -m, repro.experiments, worker, ...]
        return [sys.executable, script, out_dir] + command(
            *args, **kwargs)[3:]

    rec.patch(pool, "_worker_command", traced)


def merge_workers(rec: Recorder, out_dir: str) -> int:
    """Merge every worker dump in ``out_dir``; how many were found."""
    found = 0
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                rec.merge(json.load(handle))
            found += 1
    return found
