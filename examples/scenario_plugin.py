"""A scenario plugin: a fourth DVFS policy and a ninth traffic pattern.

Importing this module registers

* ``deadband`` — a delay-banded DVFS controller (transient form plus a
  steady-state sweep strategy), and
* ``diagonal`` — a deterministic one-hop-down-right permutation
  pattern,

into the process-wide registries, which makes them reachable from
every layer that accepts a registry name: ``Simulation``,
``ScenarioSpec``, ``Workbench`` sweeps, the figure drivers and the CLI
(``--register scenario_plugin --policy deadband --pattern diagonal``),
through any execution backend — serial, batched and the distributed
work queue.  Nothing in ``repro`` knows these classes
exist; the registries are the only coupling.

Deployment rule (same as for any user-defined strategy): with
``--backend distributed`` the worker processes unpickle sweep shards,
so this module must be importable (on ``PYTHONPATH``) on every worker
host.

Run standalone for a quick demonstration::

    PYTHONPATH=src:examples python examples/scenario_plugin.py
"""

from repro import NocConfig
from repro.analysis.sweep import (DmsdSteadyState, SteadyStateStrategy,
                                  StrategyResources)
from repro.core import DvfsPolicy
from repro.core.registry import register_policy, register_strategy
from repro.noc.engines import DEFAULT_ENGINE
from repro.noc.stats import MeasurementSample
from repro.traffic import TrafficPattern, register_pattern


@register_policy
class DeadbandPolicy(DvfsPolicy):
    """Step the clock up/down when delay leaves a tolerance band.

    A simpler alternative to the paper's PI loop: no gain tuning, but
    it limit-cycles and leaves up to the band width of delay slack
    unused (see ``examples/custom_policy.py`` for the comparison).
    """

    name = "deadband"

    def __init__(self, target_delay_ns: float, tolerance: float = 0.15,
                 step_hz: float = 50e6) -> None:
        super().__init__()
        if target_delay_ns <= 0:
            raise ValueError("target delay must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if step_hz <= 0:
            raise ValueError("step must be positive")
        self.target_delay_ns = target_delay_ns
        self.tolerance = tolerance
        self.step_hz = step_hz
        self._freq_hz = 0.0

    def reset(self, config: NocConfig) -> float:
        self._freq_hz = config.f_max_hz
        return super().reset(config)

    def update(self, sample: MeasurementSample) -> float:
        config = self._require_config()
        if sample.mean_delay_ns is not None:
            error = ((sample.mean_delay_ns - self.target_delay_ns)
                     / self.target_delay_ns)
            if error > self.tolerance:
                self._freq_hz += self.step_hz      # too slow: speed up
            elif error < -self.tolerance:
                self._freq_hz -= self.step_hz      # too fast: slow down
        self._freq_hz = min(config.f_max_hz,
                            max(config.f_min_hz, self._freq_hz))
        return self._freq_hz


class DeadbandSteadyState(SteadyStateStrategy):
    """Steady state of the deadband loop.

    Inside the band the controller holds still, so on stationary
    traffic it settles at the lowest frequency whose delay stays
    within the *upper* band edge — the same fixed-point problem DMSD's
    bisection solves, with the target moved to ``target * (1 + tol)``.
    """

    name = "deadband"

    def __init__(self, target_delay_ns: float,
                 tolerance: float = 0.15) -> None:
        if target_delay_ns <= 0:
            raise ValueError("target delay must be positive")
        if tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self.target_delay_ns = target_delay_ns
        self.tolerance = tolerance
        self._search = DmsdSteadyState(
            target_delay_ns * (1.0 + tolerance))

    def spec_key(self) -> tuple:
        return (self.name, repr(self.target_delay_ns),
                repr(self.tolerance))

    def frequency_for(self, config, traffic, budget, seed,
                      engine: str = DEFAULT_ENGINE) -> float:
        return self._search.frequency_for(config, traffic, budget, seed,
                                          engine=engine)


@register_strategy("deadband")
def _deadband_strategy(resources: StrategyResources | None = None,
                       target_delay_ns: float | None = None,
                       tolerance: float = 0.15,
                       step_hz: float | None = None):
    # step_hz shapes only the transient staircase; the settled band is
    # independent of it, so the sweep strategy accepts and ignores it.
    if target_delay_ns is None:
        if resources is None or resources.target_delay_ns is None:
            raise ValueError(
                "policy 'deadband' needs a target_delay_ns= parameter "
                "(or scenario resources that derive it)")
        target_delay_ns = resources.target_delay_ns()
    return DeadbandSteadyState(target_delay_ns, tolerance=tolerance)


@register_pattern
class DiagonalTraffic(TrafficPattern):
    """Deterministic permutation: one hop down-right with wraparound."""

    name = "diagonal"

    def dest(self, src: int, rng) -> int:
        c = self.mesh.coord(src)
        return self.mesh.node_at((c.x + 1) % self.mesh.width,
                                 (c.y + 1) % self.mesh.height)


def main() -> None:
    from repro import ScenarioSpec, SimBudget, run_scenario_sweep
    from repro.runner import ExecutionContext

    spec = ScenarioSpec.build("deadband:target_delay_ns=40", "diagonal",
                              width=3, height=3, num_vcs=2,
                              vc_buf_depth=2, packet_length=3)
    print(f"scenario {spec.label}  digest {spec.digest()[:12]}")
    context = ExecutionContext(backend="auto", engine="fast")
    series = run_scenario_sweep(spec, [0.05, 0.15, 0.25],
                                budget=SimBudget(200, 500, 1500),
                                seed=11, context=context)
    for point in series.points:
        print(f"  rate {point.x:.2f}  F* {point.freq_hz / 1e9:.3f} GHz  "
              f"delay {point.delay_ns:.1f} ns")


if __name__ == "__main__":
    main()
