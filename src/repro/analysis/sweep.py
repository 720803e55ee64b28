"""Steady-state sweeps: delay and power vs injection rate per policy.

Every evaluation figure of the paper is a sweep of the injection rate
(or app speed) under three policies.  For stationary traffic the
controllers converge to fixed operating points, so sweeps evaluate
each policy at its *steady-state frequency*:

* **No-DVFS** — ``Fmax`` by definition;
* **RMSD** — the open-loop law of eq. (2) applied to the offered rate
  (what the measurement loop of Fig. 1 converges to);
* **DMSD** — the fixed point ``delay(F*) = target`` of the PI loop of
  Fig. 3, found by bisection (delay in ns is strictly decreasing in
  ``F``: a faster clock both shortens the cycle and moves the network
  away from saturation).  The bisection is one probe generator
  (:meth:`DmsdSteadyState.frequency_search`): ``frequency_for`` runs
  its probes one ``run_fixed_point`` at a time, while the batched
  backend advances every search of a batch group in lockstep, one
  batched engine run per round.  Batched replicas equal single fast
  runs bit for bit, so both drivers choose the same frequency.  Both
  run their probes with ``probe=True``: a probe proven saturated stops
  when its measurement window closes, and ``probe_delay_ns`` reads
  only its verdict, so the chosen frequency is the one full runs
  give.  The transient PI loop itself is validated in tests and the
  ``dvfs_transient`` example.

Each point runs the cycle-level simulator at the chosen frequency and
reports latency, delay, accepted throughput and the power-model
breakdown.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Generator, Sequence

from ..control.adaptive import GCC_ALPHA
from ..core.registry import Ref, make_strategy, register_strategy
from ..core.rmsd import rmsd_frequency
from ..noc.budget import (DEFAULT, FAST, SimBudget, THOROUGH,
                          run_fixed_point)
from ..noc.config import NocConfig
from ..noc.engines import DEFAULT_ENGINE
from ..noc.simulator import SimResult
from ..power.model import PowerBreakdown, PowerModel
from ..runner.context import ExecutionContext
from ..runner.units import UnitResult, WorkUnit
from ..traffic.injection import TrafficSpec

__all__ = [
    "DEFAULT", "DmsdSteadyState", "FAST", "GccSteadyState",
    "NoDvfsSteadyState", "RmsdSteadyState", "SimBudget",
    "SteadyStateStrategy", "StrategyResources", "SweepPoint",
    "SweepSeries", "THOROUGH", "UtilitySteadyState", "point_from_unit",
    "probe_delay_ns", "run_fixed_point", "run_sweep", "strategy_from_ref",
    "sweep_series",
]


@dataclass
class SweepPoint:
    """One (policy, rate) operating point of a sweep."""

    policy: str
    x: float
    freq_hz: float
    voltage_v: float
    latency_cycles: float | None
    delay_ns: float | None
    power: PowerBreakdown | None
    accepted_rate: float
    saturated: bool
    result: SimResult

    @property
    def power_mw(self) -> float | None:
        return None if self.power is None else self.power.total_mw

    @property
    def freq_rel(self) -> float:
        return self.freq_hz / self.result.config.f_max_hz


@dataclass
class SweepSeries:
    """All points of one policy across the sweep axis."""

    policy: str
    points: list[SweepPoint]

    @property
    def xs(self) -> list[float]:
        return [p.x for p in self.points]

    def delays_ns(self) -> list[float | None]:
        return [p.delay_ns for p in self.points]

    def powers_mw(self) -> list[float | None]:
        return [p.power_mw for p in self.points]

    def point_at(self, x: float) -> SweepPoint:
        """The sweep point closest to ``x`` on the sweep axis."""
        if not self.points:
            raise ValueError("empty sweep series")
        return min(self.points, key=lambda p: abs(p.x - x))


class SteadyStateStrategy(ABC):
    """How a policy's steady-state frequency is found for one point."""

    name: str = "abstract"

    @abstractmethod
    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        """Steady-state network frequency (Hz) for this traffic.

        ``engine`` selects the simulation backend for any search
        simulations the strategy runs; closed-form strategies ignore
        it.  It never enters the strategy's ``spec_key`` — the work
        unit already carries the engine in its own spec.
        """

    def spec_key(self) -> tuple:
        """Canonical identity tuple (sweep-runner cache/seed key).

        Subclasses with parameters that influence the chosen frequency
        must extend the tuple with them.
        """
        return (self.name,)


class NoDvfsSteadyState(SteadyStateStrategy):
    name = "no-dvfs"

    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        return config.f_max_hz


class RmsdSteadyState(SteadyStateStrategy):
    """Eq. (2) applied to the mean offered node rate."""

    name = "rmsd"

    def __init__(self, lambda_max: float) -> None:
        if lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        self.lambda_max = lambda_max

    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        return rmsd_frequency(config, traffic.mean_node_rate(),
                              self.lambda_max)

    def spec_key(self) -> tuple:
        return (self.name, repr(self.lambda_max))


def probe_delay_ns(result: SimResult) -> float:
    """The delay a bisection probe reports to the search."""
    if result.saturated:
        # Saturated runs under-report delay (only delivered packets
        # count) and may deliver none at all; force the search upward.
        return float("inf")
    if result.mean_delay_ns is None:
        # No deliveries from a drained network: treat as zero delay so
        # the search keeps the frequency low (only happens at ~zero
        # load).
        return 0.0
    return result.mean_delay_ns


class DmsdSteadyState(SteadyStateStrategy):
    """Bisection for the PI loop's fixed point ``delay(F*) = target``."""

    name = "dmsd"

    def __init__(self, target_delay_ns: float, iterations: int = 6,
                 search_budget: SimBudget | None = None) -> None:
        if target_delay_ns <= 0:
            raise ValueError("target delay must be positive")
        if iterations < 1:
            raise ValueError("need at least one bisection iteration")
        self.target_delay_ns = target_delay_ns
        self.iterations = iterations
        self.search_budget = search_budget

    def spec_key(self) -> tuple:
        search = self.search_budget
        return (self.name, repr(self.target_delay_ns), self.iterations,
                None if search is None else
                (search.warmup_cycles, search.measure_cycles,
                 search.drain_cycles))

    def frequency_search(
            self, config: NocConfig, budget: SimBudget
    ) -> Generator[tuple[float, SimBudget], SimResult, float]:
        """The bisection as a probe generator.

        Yields ``(freq_hz, search_budget)`` per probe, receives the
        probe's :class:`SimResult` and returns the frequency.  It
        probes Fmin, then Fmax, then ``iterations`` midpoints; the
        caller runs each probe with the unit's own traffic and seed.
        :meth:`frequency_for` drives this serially; the batched
        backend drives many searches in lockstep.  A strategy offering
        this method promises that ``frequency_for`` is its serial
        driver.
        """
        search = self.search_budget or budget.scaled(0.6)
        target = self.target_delay_ns
        lo, hi = config.f_min_hz, config.f_max_hz
        if probe_delay_ns((yield lo, search)) <= target:
            return lo
        if probe_delay_ns((yield hi, search)) > target:
            return hi
        for _ in range(self.iterations):
            mid = 0.5 * (lo + hi)
            if probe_delay_ns((yield mid, search)) > target:
                lo = mid
            else:
                hi = mid
        return hi

    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        search = self.frequency_search(config, budget)
        result = None
        while True:
            try:
                freq_hz, probe_budget = search.send(result)
            except StopIteration as done:
                return done.value
            result = run_fixed_point(config, traffic, freq_hz,
                                     probe_budget, seed, engine=engine,
                                     probe=True)


class GccSteadyState(SteadyStateStrategy):
    """Steady state of the GCC delay-gradient controller.

    Under stationary traffic the INC/DEC/HOLD machine settles into a
    limit cycle: the utilization target probes up (INC) until the
    delay gradient trips the overuse detector, then snaps to
    ``alpha`` x the measured utilization (DEC) and holds.  The cycle
    averages out at ``alpha`` times the saturation-margin utilization
    — i.e. the controller *discovers online* the operating point RMSD
    is given offline, backed off by the GCC decrease factor.  The
    sweep therefore evaluates eq. (2) at an effective
    ``lambda_max' = alpha * lambda_max``, which keeps the strategy
    closed-form (and digest-stable) like RMSD's.
    """

    name = "gcc"

    def __init__(self, lambda_max: float,
                 alpha: float = GCC_ALPHA) -> None:
        if lambda_max <= 0:
            raise ValueError("lambda_max must be positive")
        if not 0.0 < alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        self.lambda_max = lambda_max
        self.alpha = alpha

    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        return rmsd_frequency(config, traffic.mean_node_rate(),
                              self.alpha * self.lambda_max)

    def spec_key(self) -> tuple:
        return (self.name, repr(self.lambda_max), repr(self.alpha))


class UtilitySteadyState(DmsdSteadyState):
    """Steady state of the utility-based delay-constrained controller.

    Dual ascent drives the delay price until the constraint is tight
    (or the price hits zero), so the steady-state operating point is
    ``delay(F*) = delay_budget_ns`` — exactly DMSD's fixed-point shape
    with the budget as the target, so the bisection search is reused
    wholesale under the ``utility`` name/spec key.
    """

    name = "utility"

    def __init__(self, delay_budget_ns: float, iterations: int = 6,
                 search_budget: SimBudget | None = None) -> None:
        super().__init__(delay_budget_ns, iterations=iterations,
                         search_budget=search_budget)
        self.delay_budget_ns = delay_budget_ns


@dataclass
class StrategyResources:
    """Scenario-derived quantities sweep-strategy factories may need.

    The expensive ones are **lazy callables** — a saturation search or
    a DMSD target derivation only runs when the strategy being built
    actually needs it (``no-dvfs`` never triggers either).  The
    ``Workbench`` supplies memoized thunks; explicit policy parameters
    (``Ref.of("rmsd", lambda_max=0.5)``) always win over resources.
    """

    lambda_max: Callable[[], float] | None = None
    target_delay_ns: Callable[[], float] | None = None
    dmsd_iterations: int | None = None


def _resolved(explicit, resources: StrategyResources | None,
              attr: str, policy: str, param: str):
    if explicit is not None:
        return explicit
    thunk = getattr(resources, attr, None) if resources else None
    if thunk is None:
        raise ValueError(
            f"policy {policy!r} needs a {param}= parameter (or scenario "
            f"resources that derive it, e.g. a Workbench sweep)")
    return thunk()


def _no_dvfs_strategy(resources: StrategyResources | None = None):
    return NoDvfsSteadyState()


def _rmsd_strategy(resources: StrategyResources | None = None,
                   lambda_max: float | None = None):
    return RmsdSteadyState(_resolved(lambda_max, resources, "lambda_max",
                                     "rmsd", "lambda_max"))


def _dmsd_strategy(resources: StrategyResources | None = None,
                   target_delay_ns: float | None = None,
                   iterations: int | None = None,
                   search_budget: SimBudget | None = None,
                   ki: float | None = None, kp: float | None = None):
    # ki/kp tune the transient PI loop only; the steady-state fixed
    # point delay(F*) = target is independent of them, so the sweep
    # strategy accepts and ignores them — one ref can drive both the
    # transient controller and the sweep.
    target = _resolved(target_delay_ns, resources, "target_delay_ns",
                       "dmsd", "target_delay_ns")
    if iterations is None:
        iterations = (resources.dmsd_iterations
                      if resources is not None
                      and resources.dmsd_iterations is not None else 6)
    return DmsdSteadyState(target, iterations=iterations,
                           search_budget=search_budget)


def _gcc_strategy(resources: StrategyResources | None = None,
                  lambda_max: float | None = None,
                  alpha: float | None = None,
                  k_up: float | None = None, k_down: float | None = None,
                  gamma_init: float | None = None,
                  gamma_min: float | None = None,
                  gamma_max: float | None = None,
                  overuse_windows: int | None = None,
                  eta: float | None = None,
                  u_init: float | None = None):
    # Only lambda_max (saturation margin) and alpha (GCC decrease
    # factor) shape the steady state; the detector/filter knobs
    # (k_up, eta, ...) tune the transient only, so — like dmsd's
    # ki/kp — the sweep strategy accepts and ignores them, letting one
    # ref drive both the transient controller and the sweep.
    return GccSteadyState(
        _resolved(lambda_max, resources, "lambda_max", "gcc",
                  "lambda_max"),
        alpha=alpha if alpha is not None else GCC_ALPHA)


def _utility_strategy(resources: StrategyResources | None = None,
                      delay_budget_ns: float | None = None,
                      budget_slack: float = 1.25,
                      iterations: int | None = None,
                      search_budget: SimBudget | None = None,
                      price_step: float | None = None,
                      power_weight: float | None = None):
    # price_step/power_weight shape the dual-ascent transient only;
    # the steady state is pinned by the (tight) delay constraint, so
    # they are accepted and ignored here (the dmsd ki/kp pattern).
    # Without an explicit budget, allow budget_slack x the scenario's
    # DMSD target: the utility controller tolerates more delay in
    # exchange for power, giving the figures a visibly distinct curve.
    if delay_budget_ns is None:
        delay_budget_ns = budget_slack * _resolved(
            None, resources, "target_delay_ns", "utility",
            "delay_budget_ns")
    if iterations is None:
        iterations = (resources.dmsd_iterations
                      if resources is not None
                      and resources.dmsd_iterations is not None else 6)
    return UtilitySteadyState(delay_budget_ns, iterations=iterations,
                              search_budget=search_budget)


register_strategy("no-dvfs", _no_dvfs_strategy)
register_strategy("rmsd", _rmsd_strategy)
register_strategy("dmsd", _dmsd_strategy)
# The adaptive family is opt-in (default=False): resolvable by name in
# every sweep consumer, but the paper figures keep their three-policy
# default comparison unless a caller asks for more.
register_strategy("gcc", _gcc_strategy, default=False)
register_strategy("utility", _utility_strategy, default=False)


def strategy_from_ref(policy: Ref | str,
                      resources: StrategyResources | None = None,
                      **extra) -> SteadyStateStrategy:
    """Build a steady-state strategy from the policy registry.

    This replaces the old if/elif dispatch on policy string literals:
    any policy registered with a strategy factory — the paper's three
    or a user plugin's — resolves here, with unknown names and
    parameters raising ``ValueError``s that list the alternatives.
    """
    return make_strategy(policy, resources, **extra)


def sweep_units(config: NocConfig,
                traffic_factory: Callable[[float], TrafficSpec],
                xs: list[float],
                strategy: SteadyStateStrategy,
                budget: SimBudget = DEFAULT,
                seed: int = 1,
                engine: str = DEFAULT_ENGINE,
                scenario: Any = None) -> list[WorkUnit]:
    """The work units of one policy's sweep, one per sweep position.

    ``scenario`` (a :class:`repro.scenario.ScenarioSpec`) rides along
    as unit metadata — it never enters the unit digest, which is
    already a function of the fields the scenario expands to.
    """
    return [WorkUnit(policy=strategy.name, x=x, config=config,
                     traffic=traffic_factory(x), strategy=strategy,
                     budget=budget, run_seed=seed, engine=engine,
                     scenario=scenario)
            for x in xs]


def point_from_unit(unit_result: UnitResult,
                    power_model: PowerModel) -> SweepPoint:
    """Fold one executed unit into a sweep point (adds power figures)."""
    result = unit_result.result
    power = (power_model.evaluate(result.power_windows)
             if result.power_windows else None)
    return SweepPoint(
        policy=unit_result.policy,
        x=unit_result.x,
        freq_hz=unit_result.freq_hz,
        voltage_v=power_model.technology.voltage_for(unit_result.freq_hz),
        latency_cycles=result.mean_latency_cycles,
        delay_ns=result.mean_delay_ns,
        power=power,
        accepted_rate=result.accepted_node_rate,
        saturated=result.saturated,
        result=result,
    )


def sweep_series(policy: str, results: Sequence[UnitResult],
                 power_model: PowerModel) -> SweepSeries:
    """One sweep's series from its unit results, in sweep order."""
    return SweepSeries(policy=policy,
                       points=[point_from_unit(out, power_model)
                               for out in results])


def run_sweep(config: NocConfig,
              traffic_factory: Callable[[float], TrafficSpec],
              xs: list[float],
              strategy: SteadyStateStrategy | Ref | str,
              budget: SimBudget = DEFAULT,
              seed: int = 1,
              power_model: PowerModel | None = None,
              context: ExecutionContext | None = None,
              scenario: Any = None) -> SweepSeries:
    """Evaluate one policy at every sweep position.

    ``traffic_factory`` maps the sweep coordinate (injection rate or
    app speed) to a traffic spec; ``strategy`` picks each point's
    steady-state frequency; the simulator then measures that operating
    point and, when a ``power_model`` is given, its power breakdown.
    ``strategy`` may also be a policy-registry name or
    :class:`~repro.core.registry.Ref` whose parameters pin everything
    the strategy needs (e.g. ``Ref.of("rmsd", lambda_max=0.5)``); it
    is resolved through :func:`strategy_from_ref`.

    ``context`` carries the whole execution configuration — backend,
    worker count, unit cache, simulation engine, progress — in one
    object (see :class:`repro.runner.ExecutionContext`); by default a
    serial, uncached context on the reference engine.  Results are
    identical for any backend and worker count: every unit's random
    stream derives from ``seed`` and the unit's own spec, never from
    the execution schedule.  The engine is part of each unit's spec,
    so cached results never cross engines.
    """
    if context is None:
        context = ExecutionContext(backend="serial", cache=None)
    if power_model is None:
        power_model = PowerModel(config)
    if not hasattr(strategy, "frequency_for"):
        strategy = strategy_from_ref(strategy)
    units = sweep_units(config, traffic_factory, xs, strategy, budget,
                        seed, context.engine, scenario=scenario)
    return sweep_series(strategy.name, context.runner.run(units),
                        power_model)
