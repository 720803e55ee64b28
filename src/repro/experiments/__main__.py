"""Command-line figure regeneration.

Usage::

    python -m repro.experiments fig5
    python -m repro.experiments fig2 fig4 fig6
    python -m repro.experiments --profile full --jobs 8 fig7
    python -m repro.experiments --tiny --jobs 2 fig2   # CI smoke run
    python -m repro.experiments all

Prints each regenerated figure as a text table.  Figures sharing
simulations (2/4/6) share one memoized workbench, so requesting them
together costs little more than the most expensive one.

``--jobs N`` evaluates sweep points on ``N`` worker processes through
the parallel sweep runner; results are bit-identical to ``--jobs 1``
because every work unit derives its own seed from the run seed and the
unit spec (see :mod:`repro.runner`).  ``--no-cache`` disables the
runner's per-unit result cache (the workbench still memoizes whole
sweeps, but nothing is reused across different sweep grids).
``--tiny`` swaps in a small 3x3 configuration — not the
paper's numbers, just a fast end-to-end smoke of the whole pipeline.
``--engine fast`` runs every simulation on the vectorized array engine
(see README "Simulation engines"); results agree with the reference
engine within the tolerances enforced by the equivalence test suite.
``--backend`` selects the execution backend (README "Execution
backends"): the default ``auto`` batches whole sweeps through the fast
engine's ``run_fixed_batch`` whenever ``--engine fast`` is active —
bit-identical to per-unit execution, several times faster.

``--backend distributed --queue DIR`` publishes sweep shards to a
shared-directory work queue instead of executing in process;
``--workers N`` self-spawns ``N`` local worker subprocesses, while
``--workers 0`` waits for externally started workers (one per host or
process, sharing ``DIR``)::

    python -m repro.experiments worker --queue DIR

runs such a worker until stopped (``--max-tasks`` / ``--max-idle``
bound it).  Results stay bit-identical to serial execution for any
worker count or crash schedule (README "Distributed execution").

``--policy NAME[:key=value,...]`` (repeatable) selects which
registered DVFS policies the figures sweep — the paper's three by
default — and ``--pattern NAME[:key=value,...]`` overrides the
traffic pattern of pattern-based figures.  ``--register MODULE``
imports a plugin module first, so user-defined policies and patterns
(see ``examples/scenario_plugin.py`` and README "Scenarios") flow
through any backend::

    python -m repro.experiments list-scenarios

prints every registered policy, pattern and workload with its
parameters.

The scenario-matrix runner sweeps a whole cross product of policies,
patterns and workloads (README "Workloads") as one planned
submission — shared units execute exactly once::

    python -m repro.experiments matrix --policy rmsd --policy dmsd \\
        --pattern uniform --workload none --workload mmoo \\
        --rates 0.05,0.1

``record`` captures one scenario's injection stream to a versioned
trace file and ``replay`` re-drives a mesh from it, bit-exactly::

    python -m repro.experiments record --out u.trace --rate 0.1 --tiny
    python -m repro.experiments replay --trace u.trace --tiny
"""

from __future__ import annotations

import argparse
import importlib
import sys
import time
from pathlib import Path

from ..core.registry import POLICY_REGISTRY, Ref
from ..noc.config import NocConfig, PAPER_BASELINE
from ..noc.engines import DEFAULT_ENGINE, engine_names
from ..runner import (ExecutionContext, UnitCache, backend_names,
                      print_progress)
from ..runner.context import KNOBS, check_knobs
from ..traffic.patterns import PATTERN_REGISTRY
from .common import FULL, QUICK, Workbench
from .fig2 import figure2
from .fig4 import figure4
from .fig5 import figure5
from .fig6 import figure6
from .fig7 import figure7
from .fig8 import figure8
from .fig10 import figure10
from .headline import headline_report
from .render import render_figures

FIGURES = ("fig2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10",
           "headline")

#: The --tiny smoke configuration: small and fast, same code paths.
TINY_CONFIG = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                        packet_length=3)


def run_figure(name: str, bench: Workbench,
               config: NocConfig = PAPER_BASELINE,
               patterns: tuple[str, ...] | None = None) -> str:
    """Regenerate one figure by name and return its rendering.

    ``patterns`` overrides the figure's default traffic: single-pattern
    figures (2, 4, 6, headline) use the first entry; Fig. 7 sweeps the
    whole list.  Figures whose workload is fixed by construction
    (5: analytic, 8: uniform sensitivity, 10: app matrices) ignore it.
    """
    pattern = patterns[0] if patterns else "uniform"
    if name == "fig2":
        return render_figures(figure2(bench, config, pattern))
    if name == "fig4":
        return render_figures(figure4(bench, config, pattern))
    if name == "fig5":
        return render_figures([figure5()])
    if name == "fig6":
        return render_figures([figure6(bench, config, pattern)])
    if name == "fig7":
        # Transpose/tornado need the full panel set only on square
        # meshes; the standard pattern set works for any config.
        if patterns:
            return render_figures(figure7(bench, config, patterns))
        return render_figures(figure7(bench, config))
    if name == "fig8":
        return render_figures(figure8(bench, config))
    if name == "fig10":
        return render_figures(figure10(bench, config))
    if name == "headline":
        return headline_report(bench, config, pattern).render()
    raise ValueError(f"unknown figure {name!r}; known: "
                     f"{', '.join(FIGURES)}")


def register_modules(modules: list[str] | None,
                     error) -> None:
    """Import plugin modules that register policies/patterns.

    ``error`` is the parser's ``error`` callable, so a bad module name
    exits with a usage message instead of a traceback.
    """
    for module in modules or []:
        try:
            importlib.import_module(module)
        except ImportError as exc:
            error(f"cannot import --register module {module!r}: {exc}")
        except ValueError as exc:
            # e.g. a plugin re-registering an existing name
            error(f"--register module {module!r} failed: {exc}")


def _parse_refs(values: list[str] | None, validate, flag: str,
                error) -> tuple[Ref, ...] | None:
    if not values:
        return None
    refs = []
    for value in values:
        try:
            refs.append(validate(value))
        except ValueError as exc:
            error(f"{flag} {value!r}: {exc}")
    return tuple(refs)


def _parse_workloads(values: list[str] | None,
                     error) -> tuple[Ref | None, ...]:
    """``--workload`` values as refs; ``"none"`` = plain traffic."""
    from ..workload import as_workload_ref

    if not values:
        return (None,)
    out: list[Ref | None] = []
    for value in values:
        if value == "none":
            out.append(None)
            continue
        try:
            out.append(as_workload_ref(value))
        except ValueError as exc:
            error(f"--workload {value!r}: {exc}")
    return tuple(out)


def list_scenarios_main(argv: list[str]) -> int:
    """``python -m repro.experiments list-scenarios``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments list-scenarios",
        description="List registered DVFS policies, traffic patterns "
                    "and workloads (the scenario building blocks; see "
                    "README 'Scenarios' and 'Workloads').")
    parser.add_argument("--register", action="append", metavar="MODULE",
                        help="import MODULE first (a plugin that "
                             "registers policies/patterns/workloads); "
                             "repeatable")
    args = parser.parse_args(argv)
    register_modules(args.register, parser.error)

    def fmt_params(params):
        if params is None:
            return "any"
        return ", ".join(params) if params else "-"

    print("Policies (repro.core.registry; spell parameters as "
          "NAME:key=value,key=value):")
    for name in POLICY_REGISTRY.names():
        cls = POLICY_REGISTRY.factory(name)
        params = POLICY_REGISTRY.accepted_params(name)
        if POLICY_REGISTRY.has_strategy(name):
            sweep = ("sweep params: "
                     f"{fmt_params(POLICY_REGISTRY.strategy_params(name))}")
            if not POLICY_REGISTRY.is_default(name):
                # Opt-in policies sweep when named (--policy NAME) but
                # stay out of the default figure comparison.
                sweep += "; opt-in (not in default sweeps)"
        else:
            sweep = "transient only (no sweep strategy)"
        print(f"  {name:12s} {cls.__name__:20s} "
              f"controller params: {fmt_params(params)}; {sweep}")
    print()
    print("Traffic patterns (repro.traffic.patterns):")
    for name in PATTERN_REGISTRY.names():
        cls = PATTERN_REGISTRY.factory(name)
        params = PATTERN_REGISTRY.accepted_params(name,
                                                  skip_positional=1)
        line = (f"  {name:12s} {cls.__name__:20s} "
                f"params: {fmt_params(params)}")
        # Shape-constrained patterns (satisfied or not, the note is
        # static): building an incompatible ScenarioSpec raises at
        # validation with the scenario named.
        if getattr(cls, "requires", None):
            line += f"; requires {cls.requires}"
        print(line)
    print()
    print("Workloads (repro.workload; shape offered load over time, "
          "--workload NAME[:k=v,...]):")
    from ..workload import WORKLOAD_REGISTRY
    for name in WORKLOAD_REGISTRY.names():
        cls = WORKLOAD_REGISTRY.factory(name)
        params = WORKLOAD_REGISTRY.accepted_params(name,
                                                   skip_positional=1)
        print(f"  {name:12s} {cls.__name__:24s} "
              f"params: {fmt_params(params)}")
    return 0


def worker_main(argv: list[str]) -> int:
    """``python -m repro.experiments worker``: drain a work queue.

    The entry point lives beside the worker loop, where the pool's
    forked workers run it too; it loads with the first call.
    """
    from ..runner.distributed.worker import worker_main as run_worker

    return run_worker(argv)


def _execution_flags() -> argparse.ArgumentParser:
    """Parent parser: the execution flags of the figure verb and
    ``matrix`` (turned into a context by :func:`_execution_context`)."""
    flags = argparse.ArgumentParser(add_help=False)
    flags.add_argument("--profile", choices=("quick", "full"),
                       default="quick",
                       help="simulation effort (default: quick)")
    flags.add_argument("--seed", type=int, default=3)
    flags.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                       help="worker processes for sweep points "
                            "(default 1 = serial; 0 = all cores); "
                            "results are identical for any value")
    flags.add_argument("--engine", choices=engine_names(),
                       default=DEFAULT_ENGINE,
                       help="simulation backend: 'reference' is the "
                            "object-per-router model, 'fast' the "
                            "vectorized array engine (default: "
                            f"{DEFAULT_ENGINE})")
    flags.add_argument("--backend", choices=backend_names() + ("auto",),
                       default="auto",
                       help="execution backend for sweep points: "
                            "'serial' runs one simulation per unit in "
                            "process, 'batched' runs whole groups in "
                            "one fast-engine invocation and fans the "
                            "rest out over --jobs processes; 'auto' "
                            "(default) picks batched for the fast "
                            "engine or --jobs > 1, serial otherwise — "
                            "results are identical either way")
    flags.add_argument("--queue", metavar="DIR", default=None,
                       help="shared work-queue directory for "
                            "--backend distributed (created if "
                            "missing; workers on any host sharing it "
                            "can execute sweep shards)")
    flags.add_argument("--workers", type=int, default=0, metavar="N",
                       help="local worker subprocesses to self-spawn "
                            "for --backend distributed, kept for every "
                            "sweep this run submits (default 0 = wait "
                            "for externally started workers)")
    flags.add_argument("--claim-batch", type=int, default=1,
                       metavar="N",
                       help="tasks each self-spawned worker claims per "
                            "queue round-trip (default 1; higher cuts "
                            "queue chatter on shared filesystems; needs "
                            "--workers >= 1)")
    flags.add_argument("--register", action="append", metavar="MODULE",
                       help="import MODULE before anything else (a "
                            "plugin registering custom policies, "
                            "patterns or workloads); repeatable.  With "
                            "--backend distributed the module must "
                            "also be importable on every worker")
    flags.add_argument("--no-cache", action="store_true",
                       help="disable the per-unit result cache (no "
                            "simulation reuse across different sweep "
                            "grids)")
    flags.add_argument("--tiny", action="store_true",
                       help="run on a tiny 3x3 mesh (smoke runs/CI, "
                            "not the paper's numbers)")
    flags.add_argument("--progress", action="store_true",
                       help="print per-unit progress to stderr")
    return flags


def _execution_context(args, error) -> ExecutionContext:
    """The :class:`ExecutionContext` the execution flags describe.

    ``error`` is the parser's ``error`` callable: a bad knob or an
    unusable queue directory exits with a usage message naming the
    flag, before any simulation runs.
    """
    knobs = {knob: getattr(args, knob) for knob in KNOBS}
    try:
        check_knobs("cli", **knobs)
    except ValueError as exc:
        error(str(exc))
    if args.backend == "distributed":
        from ..runner.distributed import QueueError, WorkQueue
        try:
            WorkQueue(args.queue).ensure()
        except QueueError as exc:
            error(str(exc))
    return ExecutionContext(
        cache=None if args.no_cache else UnitCache(),
        progress=print_progress if args.progress else None, **knobs)


def _scenario_grid(args, error):
    """``(scenarios, rates)``: the policy x pattern x workload cross
    product on the ``--tiny`` or paper mesh.  Bad values exit through
    ``error`` naming the offending flag."""
    from ..scenario import ScenarioSpec
    from ..traffic.patterns import as_pattern_ref
    from ..workload import make_workload

    policy_refs = _parse_refs(args.policy,
                              POLICY_REGISTRY.validate_sweep_ref,
                              "--policy", error)
    pattern_refs = _parse_refs(args.pattern or ["uniform"],
                               as_pattern_ref, "--pattern", error)
    workloads = _parse_workloads(args.workload, error)
    rates = _parse_rates(args.rates, error)
    config = TINY_CONFIG if args.tiny else PAPER_BASELINE
    try:
        scenarios = [ScenarioSpec.build(policy, pattern, config=config,
                                        workload=workload)
                     for policy in policy_refs
                     for pattern in pattern_refs
                     for workload in workloads]
    except ValueError as exc:
        error(str(exc))
    # Build each workload once here, so one that cannot load (a
    # missing or corrupt trace file) is a usage error before any queue
    # or worker exists.
    for workload in workloads:
        if workload is None:
            continue
        try:
            make_workload(workload, config)
        except ValueError as exc:
            error(f"--workload {workload.label}: {exc}")
    return scenarios, rates


def _parse_rates(text: str, error) -> tuple[float, ...]:
    try:
        rates = tuple(float(part) for part in text.split(",")
                      if part.strip())
    except ValueError:
        error(f"--rates {text!r}: not a comma-separated list of "
              f"numbers")
    if not rates:
        error("--rates needs at least one value")
    if any(rate <= 0 for rate in rates):
        error("--rates values must be positive injection rates")
    return rates


def _check_out_path(path: str | None, error) -> None:
    """Exit through ``error`` unless ``--out`` is a file path in an
    existing directory.  Checked before any simulation, so a mistyped
    path cannot cost a finished run its results."""
    if path is None:
        return
    out = Path(path)
    if out.is_dir():
        error(f"--out {path!r} is a directory, not a file")
    if not out.parent.is_dir():
        error(f"--out {path!r}: {str(out.parent)!r} is not an existing "
              f"directory")


def _parse_budget(text: str, error):
    from ..noc.budget import DEFAULT, FAST, THOROUGH, SimBudget

    named = {"fast": FAST, "default": DEFAULT, "thorough": THOROUGH}
    if text in named:
        return named[text]
    parts = text.split(":")
    try:
        if len(parts) != 3:
            raise ValueError(text)
        return SimBudget(*(int(part) for part in parts))
    except ValueError:
        error(f"--budget {text!r}: use fast, default, thorough or "
              f"WARMUP:MEASURE:DRAIN (cycle counts)")


def matrix_main(argv: list[str]) -> int:
    """``python -m repro.experiments matrix``: scenario cross product."""
    import json

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments matrix",
        parents=[_execution_flags()],
        description="Sweep the cross product of policies x patterns x "
                    "workloads over one rate grid as a SINGLE planned "
                    "submission: units shared between cells (or "
                    "repeated rates) execute exactly once, any "
                    "execution backend sees the whole matrix at once, "
                    "and the result is a per-cell delay table (plus an "
                    "optional JSON artifact).  See README 'Workloads'.")
    parser.add_argument("--policy", action="append", required=True,
                        metavar="NAME[:k=v,...]",
                        help="policy to sweep (repeatable; parameters "
                             "as key=value pairs, e.g. "
                             "rmsd:lambda_max=0.4)")
    parser.add_argument("--pattern", action="append",
                        metavar="NAME[:k=v,...]",
                        help="traffic pattern(s) to cross with the "
                             "policies (repeatable; default: uniform)")
    parser.add_argument("--workload", action="append",
                        metavar="NAME[:k=v,...]",
                        help="workload(s) to cross in as a third "
                             "dimension (repeatable; 'none' = plain "
                             "constant-rate traffic, the default — see "
                             "README 'Workloads')")
    parser.add_argument("--rates", required=True, metavar="R1,R2,...",
                        help="comma-separated injection rates "
                             "(flits/node-cycle), the sweep axis of "
                             "every scenario")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="also write the matrix artifact (per-cell "
                             "points + run report) as JSON to FILE")
    args = parser.parse_args(argv)
    _check_out_path(args.out, parser.error)
    register_modules(args.register, parser.error)
    scenarios, rates = _scenario_grid(args, parser.error)
    context = _execution_context(args, parser.error)
    bench = Workbench(profile=FULL if args.profile == "full" else QUICK,
                      seed=args.seed, context=context)
    try:
        result = bench.scenario_matrix(scenarios, rates)
    finally:
        context.close()
    print(result.render())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(result.to_payload(), handle, indent=2)
            handle.write("\n")
        print(f"[matrix artifact written to {args.out}]")
    return 0


def record_main(argv: list[str]) -> int:
    """``python -m repro.experiments record``: capture a trace."""
    from ..scenario import ScenarioSpec
    from ..workload import InjectionTrace

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments record",
        description="Record one scenario's injection stream (every "
                    "(cycle, src, dst) packet arrival) to a versioned "
                    "trace file that 'replay' — or any scenario with "
                    "--workload trace:path=FILE — re-drives "
                    "bit-exactly.  See README 'Workloads'.")
    parser.add_argument("--out", required=True, metavar="FILE",
                        help="trace file to write (conventionally "
                             "*.trace)")
    parser.add_argument("--pattern", default="uniform",
                        metavar="NAME[:k=v,...]",
                        help="spatial traffic pattern (default: "
                             "uniform)")
    parser.add_argument("--workload", default=None,
                        metavar="NAME[:k=v,...]",
                        help="shape the recorded stream with a "
                             "workload first (e.g. mmoo); default: "
                             "plain constant-rate traffic")
    parser.add_argument("--rate", type=float, required=True,
                        metavar="R",
                        help="mean injection rate in flits/node-cycle")
    parser.add_argument("--cycles", type=int, default=20_000,
                        metavar="N",
                        help="node cycles to record (default 20000); "
                             "replay offers nothing beyond them")
    parser.add_argument("--seed", type=int, default=1,
                        help="arrival RNG seed (default 1)")
    parser.add_argument("--tiny", action="store_true",
                        help="record on the tiny 3x3 smoke mesh "
                             "instead of the paper baseline")
    parser.add_argument("--register", action="append", metavar="MODULE",
                        help="import MODULE first (plugin patterns/"
                             "workloads); repeatable")
    args = parser.parse_args(argv)
    _check_out_path(args.out, parser.error)
    register_modules(args.register, parser.error)
    if args.rate <= 0:
        parser.error("--rate must be a positive injection rate")
    if args.cycles < 1:
        parser.error("--cycles must be >= 1")
    config = TINY_CONFIG if args.tiny else PAPER_BASELINE
    workload = (None if args.workload in (None, "none")
                else args.workload)
    try:
        spec = ScenarioSpec.build("no-dvfs", args.pattern,
                                  config=config, workload=workload)
        traffic = spec.traffic_factory()(args.rate)
    except ValueError as exc:
        parser.error(str(exc))
    trace = InjectionTrace.record(
        traffic, config.packet_length, args.cycles, args.seed,
        source=f"{spec.label} rate={args.rate:g} seed={args.seed}")
    path = trace.save(args.out)
    print(f"[recorded {len(trace.events)} arrivals over "
          f"{args.cycles} node cycles -> {path}]")
    print(f"[empirical mean rate "
          f"{trace.mean_node_rate():.4f} flits/node-cycle]")
    print(f"[digest {trace.digest()}]")
    return 0


#: How far ``replay --freq-rel`` may pass a bound and still be taken as
#: that bound: one unit in the fourth decimal, to which the usage error
#: rounds the bounds (Fmin/Fmax is 1/3 on both meshes).
_FREQ_REL_SLACK = 1e-4


def replay_main(argv: list[str]) -> int:
    """``python -m repro.experiments replay``: re-drive from a trace."""
    from ..noc.budget import run_fixed_point
    from ..workload import InjectionTrace, TraceError, TraceTraffic

    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments replay",
        description="Replay a recorded trace through one pinned-"
                    "frequency simulation and print the measured "
                    "delay/throughput.  The injected stream is the "
                    "recorded one, bit for bit, on every engine and "
                    "backend.")
    parser.add_argument("--trace", required=True, metavar="FILE",
                        help="trace file written by the record "
                             "subcommand")
    parser.add_argument("--freq-rel", type=float, default=1.0,
                        metavar="F",
                        help="network frequency as a fraction of Fmax, "
                             "from Fmin/Fmax to 1 (default 1.0)")
    parser.add_argument("--budget", default="default",
                        metavar="NAME|W:M:D",
                        help="simulation budget: fast, default, "
                             "thorough, or WARMUP:MEASURE:DRAIN "
                             "(default: default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--engine", choices=engine_names(),
                        default=DEFAULT_ENGINE,
                        help=f"simulation engine (default: "
                             f"{DEFAULT_ENGINE})")
    parser.add_argument("--tiny", action="store_true",
                        help="replay on the tiny 3x3 smoke mesh "
                             "(the trace must match its shape)")
    args = parser.parse_args(argv)
    budget = _parse_budget(args.budget, parser.error)
    config = TINY_CONFIG if args.tiny else PAPER_BASELINE
    lowest = config.f_min_hz / config.f_max_hz
    # The network clock would clip a value outside the range in silence.
    if not lowest - _FREQ_REL_SLACK <= args.freq_rel <= 1 + _FREQ_REL_SLACK:
        parser.error(f"--freq-rel must be within Fmin/Fmax-1, "
                     f"{lowest:.4f}-1 on this mesh; got {args.freq_rel:g}")
    freq_hz = min(max(args.freq_rel, lowest), 1.0) * config.f_max_hz
    try:
        trace = InjectionTrace.load(args.trace)
    except TraceError as exc:
        parser.error(str(exc))
    if trace.num_nodes != config.num_nodes:
        parser.error(f"trace records {trace.num_nodes} nodes but the "
                     f"selected config has {config.num_nodes} "
                     f"({config.width}x{config.height}); re-record or "
                     f"drop/add --tiny")
    if trace.packet_length != config.packet_length:
        parser.error(f"trace records packet length "
                     f"{trace.packet_length} but the selected config "
                     f"uses {config.packet_length}")
    result = run_fixed_point(config, TraceTraffic(trace), freq_hz, budget,
                             args.seed, engine=args.engine)
    delay = ("n/a" if result.mean_delay_ns is None
             else f"{result.mean_delay_ns:.2f} ns")
    print(f"[replayed {len(trace.events)} arrivals "
          f"(source: {trace.source or 'unknown'})]")
    print(f"[delivered {result.measured_delivered}/"
          f"{result.measured_created} measured packets; mean delay "
          f"{delay}; accepted rate {result.accepted_node_rate:.4f} "
          f"flits/node-cycle; saturated={result.saturated}]")
    return 0


_SUBCOMMANDS = {
    "worker": worker_main,
    "list-scenarios": list_scenarios_main,
    "matrix": matrix_main,
    "record": record_main,
    "replay": replay_main,
}


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        parents=[_execution_flags()],
        description="Regenerate figures of Casu & Giaccone, DATE 2015.")
    parser.add_argument("figures", nargs="+",
                        help=f"figures to regenerate: "
                             f"{', '.join(FIGURES)} or 'all'")
    parser.add_argument("--policy", action="append", metavar="NAME[:k=v,...]",
                        help="sweep this registered policy (repeatable; "
                             "parameters as key=value pairs, e.g. "
                             "dmsd:target_delay_ns=150); default: the "
                             "registry's default ordering — see the "
                             "list-scenarios subcommand")
    parser.add_argument("--pattern", action="append",
                        metavar="NAME[:k=v,...]",
                        help="traffic pattern for pattern-based figures "
                             "(repeatable; fig7 sweeps the whole list, "
                             "other figures use the first; default: "
                             "each figure's own)")
    args = parser.parse_args(argv)

    register_modules(args.register, parser.error)
    from ..traffic.patterns import as_pattern_ref
    # --policy refs feed sweeps, so validate against the sweep-strategy
    # factories: `--policy fixed` (no strategy) or a controller-only
    # parameter is a usage error here, not a mid-run traceback.
    policy_refs = _parse_refs(args.policy,
                              POLICY_REGISTRY.validate_sweep_ref,
                              "--policy", parser.error)
    pattern_refs = _parse_refs(args.pattern, as_pattern_ref,
                               "--pattern", parser.error)
    patterns = (tuple(ref.label for ref in pattern_refs)
                if pattern_refs else None)

    names = list(args.figures)
    if names == ["all"]:
        names = list(FIGURES)
    for name in names:
        if name not in FIGURES:
            parser.error(f"unknown figure {name!r}; known: "
                         f"{', '.join(FIGURES)} or 'all'")
    context = _execution_context(args, parser.error)
    bench = Workbench(profile=FULL if args.profile == "full" else QUICK,
                      seed=args.seed, context=context,
                      policies=policy_refs)
    config = TINY_CONFIG if args.tiny else PAPER_BASELINE
    try:
        for name in names:
            start = time.time()
            output = run_figure(name, bench, config, patterns)
            elapsed = time.time() - start
            print(output)
            print(f"[{name} regenerated in {elapsed:.1f}s]")
            print()
    finally:
        # Retire backend-held resources (the self-spawned worker
        # fleet) even when a figure fails mid-run.
        context.close()
    totals = bench.runner.totals
    if totals.total_units:
        print(f"[runner: {totals.render()}, jobs={context.jobs}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
