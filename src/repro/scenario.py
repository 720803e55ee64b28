"""Declarative scenario specification: policy x traffic x mesh.

A :class:`ScenarioSpec` is the answer to "what are we simulating?" as
*data*: a policy reference, a traffic-pattern reference (both
:class:`~repro.core.registry.Ref`s — name plus structured parameters)
and a :class:`~repro.noc.config.NocConfig`.  It is frozen, hashable
and digestable, and everything the execution stack needs can be
derived from it fresh on demand:

* :meth:`ScenarioSpec.make_controller` — a new transient DVFS
  controller (never shared: controllers carry PI state);
* :meth:`ScenarioSpec.traffic_factory` — rate -> ``TrafficSpec``;
* :meth:`ScenarioSpec.strategy` — the steady-state sweep strategy;
* :meth:`ScenarioSpec.units` — the sweep's :class:`WorkUnit`s, with
  the spec embedded as metadata;
* :meth:`ScenarioSpec.simulation` — a ready-to-run ``Simulation``.

Because the spec only *names* registry entries, any policy or pattern
registered by a plugin module flows through every layer built on work
units — the planner, the batched fast-engine kernel and the
distributed work queue — without those layers knowing it exists.  The
digest contract is preserved in both directions: units expanded from a
spec carry byte-identical digests to hand-built ones (the scenario is
unit metadata, not key material), so caches and distributed task ids
for the paper's three policies match the pre-scenario era exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from .analysis.sweep import (SteadyStateStrategy, StrategyResources,
                             SweepSeries, run_sweep, strategy_from_ref,
                             sweep_units)
from .core.policy import DvfsPolicy
from .core.registry import Ref, as_policy_ref, make_policy
from .noc.budget import DEFAULT, SimBudget
from .noc.config import NocConfig, PAPER_BASELINE
from .noc.engines import DEFAULT_ENGINE
from .noc.simulator import Simulation
from .power.model import PowerModel
from .runner.context import ExecutionContext
from .runner.units import WorkUnit
from .traffic.injection import PatternTraffic, TrafficSpec
from .traffic.patterns import (PATTERN_REGISTRY, TrafficPattern,
                               as_pattern_ref)
from .workload import Workload, as_workload_ref, make_workload

__all__ = ["ScenarioSpec", "run_scenario_sweep"]

#: Sentinel for :meth:`ScenarioSpec.with_`: distinguishes "keep the
#: current workload" (the default) from "clear it" (``workload=None``).
_KEEP = object()


@dataclass(frozen=True)
class ScenarioSpec:
    """One scenario: a policy, a traffic pattern, a configuration.

    Construct with :meth:`build` (accepts plain names, ``name:k=v``
    strings or :class:`Ref`s, plus config overrides); both refs are
    validated against their registries on construction, so an unknown
    name fails here with the alternatives listed — not deep inside a
    worker process.
    """

    policy: Ref
    pattern: Ref
    config: NocConfig = PAPER_BASELINE
    workload: Ref | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", as_policy_ref(self.policy))
        object.__setattr__(self, "pattern", as_pattern_ref(self.pattern))
        if not isinstance(self.config, NocConfig):
            raise ValueError(
                f"config must be a NocConfig, got {self.config!r}")
        if self.workload is not None:
            object.__setattr__(self, "workload",
                               as_workload_ref(self.workload))
        # Shape-constrained patterns (transpose, bit-reverse, shuffle)
        # reject incompatible meshes — surface that here, naming the
        # scenario, instead of deep inside a sweep worker.
        try:
            PATTERN_REGISTRY.create(self.pattern, self.config.make_mesh())
        except ValueError as exc:
            raise ValueError(
                f"scenario {self.label!r}: pattern "
                f"{self.pattern.label!r} is incompatible with this "
                f"config ({self.config.width}x{self.config.height} "
                f"mesh): {exc}") from exc

    @classmethod
    def build(cls, policy: Ref | str = "no-dvfs",
              pattern: Ref | str = "uniform",
              config: NocConfig | None = None,
              workload: Ref | str | None = None,
              **overrides) -> "ScenarioSpec":
        """The ergonomic constructor.

        ``ScenarioSpec.build("dmsd:target_delay_ns=40", "hotspot",
        width=3, height=3)`` — overrides apply on top of ``config``
        (default: the paper's 5x5 baseline).  ``workload`` optionally
        names a registered workload (``"mmoo:gain=2.0"``) shaping
        offered load over time.
        """
        base = PAPER_BASELINE if config is None else config
        if overrides:
            base = base.with_(**overrides)
        return cls(Ref.coerce(policy), Ref.coerce(pattern), base,
                   Ref.coerce(workload) if workload is not None else None)

    def with_(self, policy: Ref | str | None = None,
              pattern: Ref | str | None = None,
              config: NocConfig | None = None,
              workload: "Ref | str | None" = _KEEP,
              **overrides) -> "ScenarioSpec":
        """A copy with some dimensions swapped out.

        Pass ``workload=None`` explicitly to drop the workload; by
        default the current one is kept.
        """
        cfg = self.config if config is None else config
        if overrides:
            cfg = cfg.with_(**overrides)
        if workload is _KEEP:
            wl = self.workload
        else:
            wl = Ref.coerce(workload) if workload is not None else None
        return ScenarioSpec(
            Ref.coerce(policy) if policy is not None else self.policy,
            Ref.coerce(pattern) if pattern is not None else self.pattern,
            cfg, wl)

    # --- JSON artifact --------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-ready form: the ``scenario`` entry of each cell in the
        ``matrix --out`` artifact
        (:meth:`~repro.experiments.matrix.MatrixResult.to_payload`).

        Refs serialize as their ``name:key=value`` surface labels
        (``Ref.parse`` is the documented inverse for literal-valued
        parameters) and the config as its field dict, so the artifact
        is human-readable and carries no pickles.
        """
        payload = {"policy": self.policy.label,
                   "pattern": self.pattern.label,
                   "config": self.config.to_dict()}
        if self.workload is not None:
            payload["workload"] = self.workload.label
        return payload

    # --- identity -------------------------------------------------------
    def spec_key(self) -> tuple:
        """Canonical identity tuple of the scenario.

        The workload entry is appended only when one is set, so every
        workload-free scenario keeps its pre-workload digest byte for
        byte.
        """
        key = (
            "scenario-v1",
            ("policy",) + self.policy.spec_key(),
            ("pattern",) + self.pattern.spec_key(),
            ("config",) + tuple(
                (f, repr(getattr(self.config, f)))
                for f in self.config.__dataclass_fields__),
        )
        if self.workload is not None:
            key += (("workload",) + self.workload.spec_key(),)
        return key

    def digest(self) -> str:
        """Stable hash of the scenario's identity."""
        return hashlib.sha256(repr(self.spec_key()).encode()).hexdigest()

    @property
    def label(self) -> str:
        """Short display label, e.g. ``dmsd/uniform@5x5`` (plus
        ``+mmoo`` when a workload shapes the load)."""
        suffix = (f"+{self.workload.label}"
                  if self.workload is not None else "")
        return (f"{self.policy.label}/{self.pattern.label}"
                f"@{self.config.width}x{self.config.height}{suffix}")

    # --- derived objects (always fresh instances) -----------------------
    def make_controller(self) -> DvfsPolicy:
        """A **new** transient controller (policy params applied)."""
        return make_policy(self.policy)

    def make_pattern(self) -> TrafficPattern:
        """A **new** traffic pattern bound to this config's mesh."""
        return PATTERN_REGISTRY.create(self.pattern,
                                       self.config.make_mesh())

    def make_workload(self) -> Workload | None:
        """A **new** workload instance, or None for plain traffic."""
        if self.workload is None:
            return None
        return make_workload(self.workload, self.config)

    def traffic_factory(self) -> Callable[[float], TrafficSpec]:
        """Sweep-axis coordinate (node rate) -> ``TrafficSpec``.

        With a workload set, the spatial base spec is routed through
        :meth:`Workload.traffic`, which shapes offered load over time
        (or, for trace replay, substitutes the recorded stream).
        """
        pattern = self.make_pattern()
        base = lambda rate: PatternTraffic(pattern, rate)
        workload = self.make_workload()
        if workload is None:
            return base
        return lambda rate: workload.traffic(base, rate)

    def strategy(self, resources: StrategyResources | None = None
                 ) -> SteadyStateStrategy:
        """The steady-state sweep strategy for this scenario's policy."""
        return strategy_from_ref(self.policy, resources)

    def units(self, rates, budget: SimBudget = DEFAULT, seed: int = 1,
              engine: str = DEFAULT_ENGINE,
              resources: StrategyResources | None = None
              ) -> list[WorkUnit]:
        """The sweep's work units, one per rate, spec embedded.

        Unit digests are byte-identical to hand-built units with the
        same policy/traffic/config — the scenario itself is metadata.
        """
        return sweep_units(self.config, self.traffic_factory(),
                           list(rates), self.strategy(resources), budget,
                           seed, engine, scenario=self)

    def simulation(self, rate: float, seed: int = 1,
                   control_period_node_cycles: int = 10_000,
                   engine: str = DEFAULT_ENGINE) -> Simulation:
        """A ready-to-run transient simulation at one traffic point."""
        return Simulation(self.config, self.traffic_factory()(rate),
                          controller=self.make_controller(), seed=seed,
                          control_period_node_cycles=
                          control_period_node_cycles, engine=engine)


def run_scenario_sweep(spec: ScenarioSpec, rates,
                       budget: SimBudget = DEFAULT, seed: int = 1,
                       power_model: PowerModel | None = None,
                       context: ExecutionContext | None = None,
                       resources: StrategyResources | None = None
                       ) -> SweepSeries:
    """Sweep one scenario through the full execution stack.

    The context decides *how* the units run — serial, process pool,
    batched fast-engine kernel or the distributed work queue — and the
    result is bit-identical for all of them (see README "Determinism
    guarantee").  This is the one-call spelling of what the figure
    drivers do through the ``Workbench``.
    """
    return run_sweep(spec.config, spec.traffic_factory(), list(rates),
                     spec.strategy(resources), budget=budget, seed=seed,
                     power_model=power_model, context=context,
                     scenario=spec)
