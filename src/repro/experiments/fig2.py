"""Fig. 2 — RMSD vs No-DVFS: latency (a) and delay (b), uniform 5x5.

Reproduces both panels of paper Fig. 2: under RMSD, the latency in
*network clock cycles* flattens to a plateau inside
``[lambda_min, lambda_max]`` (panel a) while the delay in *nanoseconds*
becomes non-monotonic with a peak around ``lambda_min`` roughly 9x the
No-DVFS delay (panel b).
"""

from __future__ import annotations

from ..core.rmsd import lambda_min_for
from ..noc.config import NocConfig, PAPER_BASELINE
from .common import Workbench
from .render import FigureResult, Series


def figure2(bench: Workbench,
            config: NocConfig = PAPER_BASELINE,
            pattern: str = "uniform") -> list[FigureResult]:
    """Regenerate Fig. 2(a) and Fig. 2(b)."""
    est = bench.saturation(config, pattern)
    lam_max = est.lambda_max
    lam_min = lambda_min_for(config, lam_max)
    rates = bench.rate_grid(config, pattern)

    sweeps = bench.policy_comparison(config, pattern, rates,
                                     policies=("no-dvfs", "rmsd"))
    no_dvfs, rmsd = sweeps["no-dvfs"], sweeps["rmsd"]

    latency_fig = FigureResult(
        figure_id="fig2a",
        title="NoC latency vs injection rate (No-DVFS vs RMSD)",
        x_label="rate (fl/cy)",
        y_label="packet latency (network clock cycles)",
        series=[
            Series("no-dvfs", list(rates),
                   [p.latency_cycles for p in no_dvfs.points]),
            Series("rmsd", list(rates),
                   [p.latency_cycles for p in rmsd.points]),
        ],
        annotations={"lambda_min": lam_min, "lambda_max": lam_max},
        notes=[f"saturation rate {est.saturation_rate:.3f} fl/cy "
               f"(paper: 0.42); lambda_max set 10% below"],
    )

    rmsd_delays = [p.delay_ns for p in rmsd.points]
    base_delays = [p.delay_ns for p in no_dvfs.points]
    peak_ratio = _peak_ratio(rmsd_delays, base_delays)
    delay_fig = FigureResult(
        figure_id="fig2b",
        title="NoC delay vs injection rate (No-DVFS vs RMSD)",
        x_label="rate (fl/cy)",
        y_label="packet delay (ns)",
        series=[
            Series("no-dvfs", list(rates), base_delays),
            Series("rmsd", list(rates), rmsd_delays),
        ],
        annotations={"lambda_min": lam_min, "lambda_max": lam_max,
                     "rmsd_peak_over_no_dvfs": peak_ratio},
        notes=["paper reports a non-monotonic RMSD delay with a peak "
               "about 9x the No-DVFS delay"],
    )
    return [latency_fig, delay_fig]


def _peak_ratio(rmsd_delays: list[float | None],
                base_delays: list[float | None]) -> float:
    """Largest per-rate RMSD/No-DVFS delay ratio (the '9x' annotation)."""
    ratios = [r / b for r, b in zip(rmsd_delays, base_delays)
              if r is not None and b is not None and b > 0]
    if not ratios:
        raise ValueError("no comparable delay points")
    return max(ratios)


def rmsd_plateau_latencies(fig2a: FigureResult, lam_min: float,
                           lam_max: float) -> list[float]:
    """Latencies of RMSD points inside the plateau region (for tests)."""
    series = fig2a.series_named("rmsd")
    return [y for x, y in zip(series.xs, series.ys)
            if y is not None and lam_min - 1e-9 <= x <= lam_max + 1e-9]
