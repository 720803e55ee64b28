"""Cycle budgets and single fixed-frequency simulation runs.

A ``SimBudget`` is the warmup/measure/drain cycle allocation of one
simulator invocation; ``run_fixed_point`` executes one simulation at a
pinned network frequency under such a budget, as the one-replica case
of the simulation driver (:func:`repro.noc.simulator.drive`).  Both
used to live in ``repro.analysis.sweep`` but are simulator-level
concepts: the parallel runner (``repro.runner``) schedules fixed-point
runs without depending on the analysis layer, so they sit next to the
kernel instead.  ``repro.analysis.sweep`` re-exports them for
compatibility.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..traffic.injection import TrafficSpec
from .config import NocConfig
from .engines import DEFAULT_ENGINE, make_engine
from .fastsim.batch import BatchPoint
from .simulator import SimResult, drive


@dataclass(frozen=True)
class SimBudget:
    """Cycle budget for one simulation run.

    Validated on construction — every execution path (single runs,
    batched runs, work units) relies on this instead of re-checking:
    ``warmup >= 0``, ``measure >= 1`` and ``drain >= 0``.
    """

    warmup_cycles: int = 2000
    measure_cycles: int = 4000
    drain_cycles: int = 10000

    def __post_init__(self) -> None:
        if (self.warmup_cycles < 0 or self.measure_cycles < 1
                or self.drain_cycles < 0):
            raise ValueError(
                f"invalid SimBudget({self.warmup_cycles}, "
                f"{self.measure_cycles}, {self.drain_cycles}): need "
                f"warmup >= 0, measure >= 1 and drain >= 0 cycles")

    def scaled(self, factor: float) -> "SimBudget":
        return SimBudget(max(200, int(self.warmup_cycles * factor)),
                         max(400, int(self.measure_cycles * factor)),
                         max(800, int(self.drain_cycles * factor)))


#: Budgets: FAST for benchmarks/sweeps, DEFAULT for normal studies,
#: THOROUGH for final numbers.
FAST = SimBudget(1200, 2500, 6000)
DEFAULT = SimBudget(2000, 4000, 10000)
THOROUGH = SimBudget(4000, 10000, 30000)


def run_fixed_point(config: NocConfig, traffic: TrafficSpec | float,
                    freq_hz: float, budget: SimBudget,
                    seed: int = 1,
                    engine: str = DEFAULT_ENGINE, *,
                    probe: bool = False) -> SimResult:
    """One simulation at a pinned network frequency.

    ``probe=True`` is for search probes: a run proven saturated stops
    when its measurement window closes (see :meth:`Simulation.run`).

    This is the one-replica case of the simulation driver
    (:func:`repro.noc.simulator.drive`) on either engine, and on the
    fast engine the one-replica batch: the same result as
    :meth:`Simulation.run` at ``freq_hz`` without control ``samples``,
    which a fixed-frequency run never reads.

    Also accepts the scenario spelling ``run_fixed_point(spec, rate,
    ...)``: a :class:`repro.scenario.ScenarioSpec` in the ``config``
    slot with the injection rate in the ``traffic`` slot (detected
    structurally to keep this simulator-level module free of
    scenario-layer imports).
    """
    if isinstance(traffic, (int, float)):
        if not hasattr(config, "traffic_factory"):
            raise TypeError(
                f"run_fixed_point got a numeric traffic argument "
                f"({traffic!r}); that spelling needs a ScenarioSpec "
                f"first — run_fixed_point(spec, rate, ...) — not "
                f"{type(config).__name__}")
        spec = config
        config, traffic = spec.config, spec.traffic_factory()(
            float(traffic))
    return drive(make_engine(engine, config),
                 [BatchPoint(traffic, freq_hz, seed)], budget, probe)[0]
