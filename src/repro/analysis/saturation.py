"""Saturation-rate estimation.

RMSD needs a target rate ``lambda_max`` set "10% lower than the
saturation rate" (paper Sec. III; 0.42 for the 5x5 baseline, giving
``lambda_max ~ 0.378``).  This module estimates the saturation rate of
a configuration/pattern pair by bisection on the full-speed simulator:
a rate counts as *saturated* when the sources' backlog diverges, the
run fails to drain, the accepted throughput falls measurably short of
the offered load, or the latency explodes past a multiple of the
zero-load latency (the standard operational definitions).

Each probe is a ``probe=True`` run: one whose backlog has already
diverged when its measurement window closes stops there, since the
drain cannot change that verdict.  The search returns the same
estimate as with full runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..noc.budget import DEFAULT, SimBudget, run_fixed_point
from ..noc.config import NocConfig
from ..noc.engines import DEFAULT_ENGINE
from ..traffic.injection import TrafficSpec


@dataclass(frozen=True)
class SaturationEstimate:
    """Result of a saturation search."""

    saturation_rate: float
    lambda_max: float
    zero_load_latency_cycles: float


def is_saturated_at(config: NocConfig, traffic: TrafficSpec,
                    budget: SimBudget, seed: int,
                    zero_load_latency: float,
                    latency_factor: float = 8.0,
                    accept_tolerance: float = 0.93,
                    engine: str = DEFAULT_ENGINE) -> bool:
    """Operational saturation test at one offered load.

    Runs one ``probe=True`` simulation at Fmax.  A run proven saturated
    when its measurement window closes stops there; this test returns
    on ``saturated`` before it reads any drain-dependent field, so the
    answer is the full run's.
    """
    result = run_fixed_point(config, traffic, config.f_max_hz, budget,
                             seed, engine=engine, probe=True)
    if result.saturated:
        return True
    offered = result.offered_node_rate
    if offered > 0 and result.accepted_node_rate < accept_tolerance * offered:
        return True
    if result.mean_latency_cycles is None:
        return False
    return result.mean_latency_cycles > latency_factor * zero_load_latency


def find_saturation_rate(
        config: NocConfig,
        traffic_factory: Callable[[float], TrafficSpec],
        budget: SimBudget = DEFAULT,
        seed: int = 1,
        lo: float = 0.02,
        hi: float = 1.0,
        iterations: int = 7,
        margin: float = 0.9,
        engine: str = DEFAULT_ENGINE) -> SaturationEstimate:
    """Bisection for the saturation rate; returns it with ``lambda_max``.

    ``margin`` is the paper's 10% safety factor:
    ``lambda_max = margin * saturation_rate``.
    """
    if not 0 < lo < hi:
        raise ValueError("need 0 < lo < hi")
    zero_load = config.zero_load_latency_cycles()

    def saturated(rate: float) -> bool:
        return is_saturated_at(config, traffic_factory(rate), budget,
                               seed, zero_load, engine=engine)

    # Grow the bracket if even `hi` is unsaturated (tiny meshes), or
    # shrink if `lo` already saturates (pathological configs).
    if not saturated(hi):
        return SaturationEstimate(hi, margin * hi, zero_load)
    while saturated(lo):
        lo /= 2.0
        if lo < 1e-3:
            raise RuntimeError(
                "network saturates at negligible load; "
                "check the configuration")

    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if saturated(mid):
            hi = mid
        else:
            lo = mid
    saturation = 0.5 * (lo + hi)
    return SaturationEstimate(saturation, margin * saturation, zero_load)
