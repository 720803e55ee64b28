"""Work units: one (policy, traffic point, config) simulation each.

A :class:`WorkUnit` is the runner's unit of scheduling.  Executing it
finds the policy's steady-state frequency for its traffic point and
then measures that operating point with the cycle-level simulator —
exactly what one iteration of the old inline sweep loop did.  Units
are frozen, picklable and self-describing:

* :meth:`WorkUnit.spec_key` is a canonical tuple of everything that
  determines the unit's result;
* :meth:`WorkUnit.digest` hashes that tuple — the cache key and the
  input to per-unit seed derivation (:mod:`repro.runner.seeding`);
* :meth:`WorkUnit.execute` runs the unit and returns a
  :class:`UnitResult`.

Because the derived seed travels with the unit, *where* and *when* a
unit runs can never change its result.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

from ..noc.budget import SimBudget, run_fixed_point
from ..noc.config import NocConfig
from ..noc.engines import DEFAULT_ENGINE
from ..noc.simulator import SimResult
from ..traffic.injection import TrafficSpec
from .seeding import derive_unit_seed


@runtime_checkable
class FrequencyStrategy(Protocol):
    """What a unit requires of a steady-state policy strategy."""

    name: str

    def frequency_for(self, config: NocConfig, traffic: TrafficSpec,
                      budget: SimBudget, seed: int,
                      engine: str = DEFAULT_ENGINE) -> float:
        """Steady-state network frequency (Hz) for this traffic."""


def strategy_key(strategy: Any) -> tuple:
    """Canonical identity tuple of a steady-state strategy.

    Strategies advertise their identity via a ``spec_key()`` method
    (all built-ins do).  Unknown strategies degrade to their class name
    plus sorted public attributes, which covers plain value-object
    strategies written by users.
    """
    if hasattr(strategy, "spec_key"):
        return tuple(strategy.spec_key())
    attrs = tuple(sorted(
        (k, repr(v)) for k, v in vars(strategy).items()
        if not k.startswith("_")))
    return (type(strategy).__name__, attrs)


@dataclass(frozen=True)
class WorkUnit:
    """One steady-state evaluation of one policy at one traffic point."""

    policy: str
    x: float
    config: NocConfig
    traffic: TrafficSpec
    strategy: Any
    budget: SimBudget
    run_seed: int
    engine: str = DEFAULT_ENGINE
    #: The declarative :class:`repro.scenario.ScenarioSpec` this unit
    #: was expanded from, when it came through the scenario API.  Pure
    #: metadata: the spec's policy/pattern/config are already spelled
    #: out in the fields above, so it is deliberately excluded from
    #: ``spec_key()`` — digests (and therefore unit caches, batch-group
    #: keys and distributed task ids) stay byte-identical whether a
    #: unit was built by hand or from a scenario.
    scenario: Any = field(default=None, compare=False)

    def spec_key(self) -> tuple:
        """Everything that determines this unit's result, as a tuple."""
        key = (
            "unit-v1",
            self.policy,
            repr(float(self.x)),
            ("config",) + tuple(
                (f, repr(getattr(self.config, f)))
                for f in self.config.__dataclass_fields__),
            ("traffic",) + tuple(self.traffic.spec_key()),
            ("strategy",) + strategy_key(self.strategy),
            ("budget", self.budget.warmup_cycles,
             self.budget.measure_cycles, self.budget.drain_cycles),
            ("seed", int(self.run_seed)),
        )
        if self.engine != DEFAULT_ENGINE:
            # Cache entries and derived seeds must never mix engines.
            # Reference units keep their pre-engine-era digests, so the
            # recorded goldens (and any on-disk caches) stay valid.
            key += (("engine", self.engine),)
        return key

    def digest(self) -> str:
        """Stable hash of the spec — the cache key and seed input."""
        return hashlib.sha256(
            repr(self.spec_key()).encode()).hexdigest()

    def seed(self) -> int:
        """This unit's derived simulator seed (order-independent)."""
        return derive_unit_seed(self.run_seed, self.digest())

    def execute(self) -> "UnitResult":
        """Run the unit: pick the steady-state frequency, measure it."""
        start = time.perf_counter()
        seed = self.seed()
        freq_hz = self.steady_frequency(seed)
        result = run_fixed_point(self.config, self.traffic, freq_hz,
                                 self.budget, seed, engine=self.engine)
        return UnitResult(
            policy=self.policy,
            x=self.x,
            freq_hz=freq_hz,
            seed=seed,
            digest=self.digest(),
            result=result,
            elapsed_s=time.perf_counter() - start,
        )

    def steady_frequency(self, seed: int) -> float:
        """Ask the strategy for the steady-state frequency.

        Public because the batched backend resolves frequencies before
        handing the whole group to one ``run_fixed_batch`` call
        (strategies with a ``frequency_search`` generator it drives
        itself, in lockstep).

        The strategy runs any search simulations on the unit's engine.
        """
        return self.strategy.frequency_for(self.config, self.traffic,
                                           self.budget, seed,
                                           engine=self.engine)


@dataclass(frozen=True)
class UnitResult:
    """What executing one work unit produced."""

    policy: str
    x: float
    freq_hz: float
    seed: int
    digest: str
    result: SimResult
    #: Seconds spent on this unit.  Per-unit execution times the
    #: frequency search and the measurement.  In a batch group the
    #: measurement is an equal share of the group's batch, and a
    #: lockstep frequency search is an equal share of each probe round
    #: the unit's search took part in.
    elapsed_s: float
    from_cache: bool = field(default=False, compare=False)

    def cached(self) -> "UnitResult":
        """A copy marked as served from the cache."""
        if self.from_cache:
            return self
        return UnitResult(self.policy, self.x, self.freq_hz, self.seed,
                          self.digest, self.result, self.elapsed_s,
                          from_cache=True)
