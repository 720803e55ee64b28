"""Shared experiment infrastructure.

Every paper figure is a combination of the same ingredients: find the
saturation rate of a scenario, derive ``lambda_max`` (RMSD) and the
DMSD target delay from it, then sweep the three policies.  The
``Workbench`` wires those steps together and memoizes every expensive
result, so e.g. Fig. 2, Fig. 4 and Fig. 6 — which the paper derives
from the *same* simulations — share one set of runs here too.

Benchmarks can select an effort profile via the environment variable
``REPRO_BENCH_PROFILE`` (``quick`` — default — or ``full``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from ..analysis.saturation import SaturationEstimate, find_saturation_rate
from ..analysis.sweep import (FAST, SimBudget, StrategyResources,
                              SweepSeries, run_fixed_point,
                              strategy_from_ref, sweep_series,
                              sweep_units)
from ..core.registry import (POLICY_REGISTRY, Ref, as_policy_ref,
                             default_policies)
from ..noc.config import NocConfig
from ..power.model import PowerModel
from ..runner import ExecutionContext, RunReport, context_from_env
from ..scenario import ScenarioSpec
from ..traffic.injection import PatternTraffic, TrafficSpec
from ..traffic.patterns import as_pattern_ref, make_pattern


def series_by_policy_name(sweeps: dict[str, SweepSeries]
                          ) -> dict[str, SweepSeries]:
    """Re-key a ``policy_comparison`` result by policy *name*.

    Comparison dicts are keyed by ref label (``"dmsd:iterations=8"``)
    for display; annotation code that asks "is DMSD in this sweep?"
    must match on the name so a parameterized spelling of a paper
    policy keeps its paper-ratio annotations.  When one policy appears
    with several parameterizations, the first (policy-order) one wins.
    """
    named: dict[str, SweepSeries] = {}
    for label, series in sweeps.items():
        named.setdefault(label.partition(":")[0], series)
    return named


@dataclass(frozen=True)
class Profile:
    """Effort profile for experiment drivers."""

    name: str
    budget: SimBudget
    sweep_points: int
    dmsd_iterations: int
    saturation_iterations: int


QUICK = Profile("quick", FAST, sweep_points=6, dmsd_iterations=5,
                saturation_iterations=5)
FULL = Profile("full", SimBudget(2500, 5000, 15000), sweep_points=9,
               dmsd_iterations=6, saturation_iterations=7)


def active_profile() -> Profile:
    """Profile selected by ``REPRO_BENCH_PROFILE`` (default quick)."""
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick").lower()
    if name == "full":
        return FULL
    if name == "quick":
        return QUICK
    raise ValueError(f"unknown REPRO_BENCH_PROFILE {name!r} "
                     "(expected 'quick' or 'full')")


class Workbench:
    """Memoizing driver for policy-comparison experiments.

    Simulations are submitted as work units through one shared
    :class:`~repro.runner.ExecutionContext` (default:
    ``ExecutionContext()``): its backend decides whether sweep points
    run serially, batched through the fast engine's
    :func:`~repro.noc.fastsim.run_fixed_batch` (fanning out over
    ``jobs`` worker processes), or on a work queue; its unit cache
    deduplicates simulations across figures on top of the workbench's
    own series-level memos.  Results are independent of the backend
    and worker count — see :mod:`repro.runner`.

    The context's ``engine`` selects the simulation backend
    (``"reference"`` or ``"fast"``) for every simulation the workbench
    runs — saturation searches, DMSD targets and sweep units alike.
    The engine is part of each unit's spec, so unit-cache entries
    never cross engines.

    ``policies`` selects which registered policies the comparison
    methods sweep (any mix of names, ``"name:key=value"`` strings and
    :class:`~repro.core.registry.Ref`s); the default is the policy
    registry's default ordering — the paper's three, plus any plugin
    policies registered with a sweep strategy at construction time.
    """

    def __init__(self, profile: Profile | None = None, seed: int = 3,
                 context: ExecutionContext | None = None,
                 policies: Sequence[Ref | str] | None = None) -> None:
        self.profile = profile or active_profile()
        self.seed = seed
        if policies is None:
            policies = default_policies()
        # Workbench policies always end up in sweeps, so validate
        # against the strategy factories (not just the names): a
        # sweep-incapable policy or a controller-only parameter fails
        # here, not mid-figure.
        self.policies = tuple(POLICY_REGISTRY.validate_sweep_ref(p)
                              for p in policies)
        self.context = (context if context is not None
                        else ExecutionContext())
        self.runner = self.context.runner
        self._saturation: dict = {}
        self._target: dict = {}
        self._sweeps: dict = {}
        self._power_models: dict[NocConfig, PowerModel] = {}

    @property
    def engine(self) -> str:
        """Simulation engine every workbench simulation runs on."""
        return self.context.engine

    # --- building blocks -------------------------------------------------
    def budget_for(self, config: NocConfig) -> SimBudget:
        """Cycle budget, normalized to the baseline's 25 nodes.

        Measurement precision scales with observed packets, which scale
        with nodes x cycles, so larger meshes reach the same precision
        in proportionally fewer cycles.  Budgets never grow above the
        profile's (small meshes just take longer to average).
        """
        scale = min(1.0, 25.0 / config.num_nodes)
        return (self.profile.budget if scale >= 1.0
                else self.profile.budget.scaled(scale))

    def power_model(self, config: NocConfig) -> PowerModel:
        if config not in self._power_models:
            self._power_models[config] = PowerModel(config)
        return self._power_models[config]

    def pattern_factory(self, config: NocConfig,
                        pattern: Ref | str) -> Callable[[float],
                                                        TrafficSpec]:
        ref = as_pattern_ref(pattern)
        pat = make_pattern(ref, config.make_mesh())
        return lambda rate: PatternTraffic(pat, rate)

    def scenario(self, config: NocConfig, pattern: Ref | str,
                 policy: Ref | str) -> ScenarioSpec:
        """The declarative spec for one (config, pattern, policy)."""
        return ScenarioSpec(as_policy_ref(policy),
                            as_pattern_ref(pattern), config)

    def saturation(self, config: NocConfig,
                   pattern: Ref | str) -> SaturationEstimate:
        """Saturation rate and ``lambda_max`` for a scenario (cached)."""
        return self.family_saturation(config, as_pattern_ref(pattern),
                                      self.pattern_factory(config, pattern))

    def family_saturation(self, config: NocConfig, family: Hashable,
                          traffic_at: Callable[[float], TrafficSpec],
                          hi: float = 1.0) -> SaturationEstimate:
        """:meth:`saturation` for any keyed traffic family (cached).

        ``family`` keys the memo with ``config`` (a pattern ref, or an
        application's matrix); ``traffic_at`` maps a mean node rate to
        the family's traffic and ``hi`` tops the bisection bracket.
        """
        key = (config, family)
        if key not in self._saturation:
            self._saturation[key] = find_saturation_rate(
                config, traffic_at, budget=self.budget_for(config),
                seed=self.seed,
                iterations=self.profile.saturation_iterations, hi=hi,
                engine=self.engine)
        return self._saturation[key]

    def dmsd_target_ns(self, config: NocConfig,
                       pattern: Ref | str) -> float:
        """The paper's DMSD target: RMSD delay at ``lambda_max``.

        At ``lambda_node = lambda_max`` RMSD runs at ``Fmax``, so the
        target is the full-speed delay at that rate (150 ns for the
        paper's baseline).
        """
        return self.family_target_ns(config, as_pattern_ref(pattern),
                                     self.pattern_factory(config, pattern))

    def family_target_ns(self, config: NocConfig, family: Hashable,
                         traffic_at: Callable[[float], TrafficSpec],
                         hi: float = 1.0) -> float:
        """:meth:`dmsd_target_ns` for any keyed traffic family (cached;
        arguments as for :meth:`family_saturation`)."""
        key = (config, family)
        if key not in self._target:
            lam_max = self.family_saturation(config, family, traffic_at,
                                             hi).lambda_max
            result = run_fixed_point(config, traffic_at(lam_max),
                                     config.f_max_hz,
                                     self.budget_for(config).scaled(1.5),
                                     self.seed, engine=self.engine)
            if result.mean_delay_ns is None:
                raise RuntimeError(
                    "no packets delivered while deriving the DMSD target")
            self._target[key] = result.mean_delay_ns
        return self._target[key]

    # --- sweeps -----------------------------------------------------------
    def resources_for(self, config: NocConfig,
                      pattern: Ref | str) -> StrategyResources:
        """Lazy scenario-derived inputs for strategy factories.

        The thunks close over the workbench memos, so a saturation
        search or DMSD target derivation runs at most once per
        (config, pattern) no matter how many strategies need it.
        """
        return StrategyResources(
            lambda_max=lambda: self.saturation(config,
                                               pattern).lambda_max,
            target_delay_ns=lambda: self.dmsd_target_ns(config, pattern),
            dmsd_iterations=self.profile.dmsd_iterations)

    def strategy_for(self, policy: Ref | str, config: NocConfig,
                     pattern: Ref | str):
        """Instantiate a steady-state strategy via the policy registry.

        Any registered policy resolves — the paper's three or a
        plugin's; unknown names raise ``ValueError`` listing the
        registry contents.
        """
        return strategy_from_ref(policy,
                                 self.resources_for(config, pattern))

    def sweeps(self, requests: Sequence[tuple[Hashable, Sequence[float]]],
               build: Callable[[Hashable], tuple]
               ) -> tuple[list[SweepSeries], RunReport | None]:
        """Memoized sweeps; the missing ones run as ONE submission.

        Each request is a ``(scenario, rates)`` pair, the sweep's memo
        key.  For each one not yet memoized — a repeated one too, so
        the planner collapses it — ``build(scenario)`` returns the
        sweep's ``(config, traffic_factory, strategy, metadata)``
        (``metadata`` rides on its units as ``WorkUnit.scenario``), and
        the units of all of them go to the runner in a single
        :meth:`~repro.runner.SweepRunner.run` call.  Each series is
        built from its own slice of the results by
        :func:`~repro.analysis.sweep.sweep_series`, as ``run_sweep``
        builds its one.  Returns the series in request order and the
        submission's report (``None`` when all were memoized).
        """
        requests = [(scenario, tuple(rates)) for scenario, rates in requests]
        todo = [(key, *build(key[0])) for key in requests
                if key not in self._sweeps]
        report = None
        if todo:
            units = [sweep_units(config, traffic, list(key[1]), strategy,
                                 self.budget_for(config), self.seed,
                                 self.engine, scenario=metadata)
                     for key, config, traffic, strategy, metadata in todo]
            results = iter(self.runner.run(
                [unit for sweep in units for unit in sweep]))
            report = self.runner.last_report
            for (key, config, _, strategy, _), sweep in zip(todo, units):
                self._sweeps.setdefault(key, sweep_series(
                    strategy.name, [next(results) for _ in sweep],
                    self.power_model(config)))
        return [self._sweeps[key] for key in requests], report

    def _scenario_parts(self, spec: ScenarioSpec) -> tuple:
        """What :meth:`sweeps` builds a :class:`ScenarioSpec`'s sweep from.

        Strategy resources (saturation searches, DMSD targets) derive
        per (config, pattern) from the *plain* pattern traffic — the
        workload dimension normalizes to the same mean rate, so cells
        sharing a pattern share one saturation search.
        """
        return (spec.config, spec.traffic_factory(),
                spec.strategy(self.resources_for(spec.config,
                                                 spec.pattern)), spec)

    def pattern_sweep(self, config: NocConfig, pattern: Ref | str,
                      policy: Ref | str,
                      rates: tuple[float, ...]) -> SweepSeries:
        """One policy's sweep over injection rates (cached)."""
        return self.scenario_sweep(self.scenario(config, pattern, policy),
                                   rates)

    def scenario_sweep(self, spec: ScenarioSpec,
                       rates: tuple[float, ...] | None = None
                       ) -> SweepSeries:
        """Sweep one :class:`ScenarioSpec` (rates default to its grid;
        cached)."""
        if rates is None:
            rates = self.rate_grid(spec.config, spec.pattern)
        return self.sweeps([(spec, rates)], self._scenario_parts)[0][0]

    def scenario_matrix(self, scenarios: Sequence[ScenarioSpec],
                        rates: tuple[float, ...]):
        """Run a scenario cross product as ONE planned submission.

        Every sweep unit of every scenario not yet memoized goes to the
        runner in a single :meth:`~repro.runner.SweepRunner.run` call
        (:meth:`sweeps`), with or without a unit cache: the planner
        deduplicates units shared between cells (and duplicate rate
        points), the backend sees the whole matrix at once, and the
        returned :class:`~repro.experiments.matrix.MatrixResult`
        carries the run report whose ``executed`` count proves each
        distinct unit ran exactly once.
        """
        from .matrix import MatrixResult
        scenarios = tuple(scenarios)
        rates = tuple(rates)
        series, report = self.sweeps([(spec, rates) for spec in scenarios],
                                     self._scenario_parts)
        return MatrixResult(scenarios=scenarios, rates=rates,
                            series={spec.label: cell for spec, cell
                                    in zip(scenarios, series)},
                            report=report)

    def policy_refs(self, policies: Sequence[Ref | str] | None = None
                    ) -> tuple[Ref, ...]:
        """The policy set a comparison sweeps, as validated refs."""
        if policies is None:
            return self.policies
        return tuple(POLICY_REGISTRY.validate_sweep_ref(p)
                     for p in policies)

    def policy_comparison(self, config: NocConfig, pattern: Ref | str,
                          rates: tuple[float, ...],
                          policies: Sequence[Ref | str] | None = None
                          ) -> dict[str, SweepSeries]:
        """The selected policies swept over the same rates.

        Returns ``{ref.label: series}`` in policy order (for the
        default registry ordering the keys are exactly the old
        ``"no-dvfs"/"rmsd"/"dmsd"`` strings).  Every policy's pending
        points go to the runner as *one* submission (:meth:`sweeps`),
        so the process pool (or the batched engine, or the work queue
        and the context's worker fleet) sees ``len(policies) x
        len(rates)`` independent units instead of separate sweeps.
        """
        refs = self.policy_refs(policies)
        series, _ = self.sweeps(
            [(self.scenario(config, pattern, ref), rates) for ref in refs],
            self._scenario_parts)
        return {ref.label: sweep for ref, sweep in zip(refs, series)}

    # --- standard rate grids -----------------------------------------------
    def rate_grid(self, config: NocConfig, pattern: str,
                  include_rmsd_peak: bool = True) -> tuple[float, ...]:
        """Sweep grid from low load up to just under saturation.

        Includes the RMSD clip boundary ``lambda_min`` where the
        non-monotonic delay peaks (Fig. 2(b)), so the anomaly is always
        sampled.
        """
        est = self.saturation(config, pattern)
        lam_max = est.lambda_max
        n = self.profile.sweep_points
        grid = [lam_max * (i + 1) / n for i in range(n)]
        if include_rmsd_peak:
            lam_min = lam_max * config.f_min_hz / config.f_max_hz
            grid.append(lam_min)
        # Round for stable cache keys, but never past lambda_max.
        return tuple(sorted({min(round(g, 4), round(lam_max, 6))
                             for g in grid}))


#: Module-level workbench shared by benchmarks within one process.
_SHARED: Workbench | None = None


def shared_workbench() -> Workbench:
    """Process-wide workbench (benchmarks reuse each other's runs).

    The execution context comes from the environment:
    ``REPRO_BACKEND`` (execution backend, default ``auto``),
    ``REPRO_JOBS`` (worker count, default 1) and ``REPRO_ENGINE``
    (simulation engine, default reference).  Results do not depend on
    any of them except the engine's documented tolerances.
    """
    global _SHARED
    if _SHARED is None:
        _SHARED = Workbench(context=context_from_env())
    return _SHARED
