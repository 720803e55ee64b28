"""Fig. 10 — Delay and power under multimedia traffic (H.264, VCE).

The application graphs of Fig. 9 drive the NoC through custom traffic
matrices; the x-axis is the application speed relative to the paper's
75 frames/second reference point.  RMSD still saves the most power
(paper: DMSD/RMSD ~ 1.4x) but at a delay penalty (paper: ~2x for
H.264 and ~2.1x for VCE at mid speeds).
"""

from __future__ import annotations

from ..analysis.sweep import StrategyResources, strategy_from_ref
from ..noc.config import NocConfig
from ..traffic.apps import ApplicationGraph, h264_encoder, vce_encoder
from ..traffic.injection import MatrixTraffic
from .common import Workbench, series_by_policy_name
from .render import FigureResult, Series

#: Speed grid of the sweep (relative units, as the paper's x-axis).
SPEED_GRID = (0.2, 0.4, 0.6, 0.8, 1.0)

#: Speed at which ratios are quoted (mid range, like the paper's marks).
REFERENCE_SPEED = 0.6


def app_config(app: ApplicationGraph, base: NocConfig) -> NocConfig:
    """The paper's mesh for this application, other knobs from base."""
    return base.with_(width=app.mesh_width, height=app.mesh_height)


def figure10_app(bench: Workbench, app: ApplicationGraph,
                 base: NocConfig,
                 speeds: tuple[float, ...] = SPEED_GRID
                 ) -> list[FigureResult]:
    """Delay + power panels for one application.

    The app's spatial traffic distribution differs from any synthetic
    pattern, so its ``lambda_max`` and DMSD target come from scaling
    the app matrix itself (the search coordinate is the mean node rate
    of the scaled matrix), memoized by the workbench like a pattern's.
    Strategies come from the policy registry with these app-derived
    resources, so plugin policies flow through the multimedia figure
    like any other sweep, and every policy's sweep runs in one
    submission.
    """
    config = app_config(app, base)
    base_matrix = app.traffic_at_speed(config, 1.0)
    mean_at_speed1 = base_matrix.mean_node_rate()
    family = ("app", app.name, base_matrix.digest())

    def traffic_at(mean_rate: float) -> MatrixTraffic:
        return MatrixTraffic(
            base_matrix.scaled(mean_rate / mean_at_speed1))

    hi = min(1.0, 3.0 * mean_at_speed1)
    lam_max = bench.family_saturation(config, family, traffic_at,
                                      hi).lambda_max
    target_ns = bench.family_target_ns(config, family, traffic_at, hi)
    resources = StrategyResources(
        lambda_max=lambda: lam_max,
        target_delay_ns=lambda: target_ns,
        dmsd_iterations=bench.profile.dmsd_iterations)

    def traffic_factory(speed: float) -> MatrixTraffic:
        return MatrixTraffic(app.traffic_at_speed(config, speed))

    series, _ = bench.sweeps(
        [((config, family, ref), speeds) for ref in bench.policies],
        lambda scenario: (config, traffic_factory,
                          strategy_from_ref(scenario[2], resources), None))
    sweeps = {ref.label: sweep
              for ref, sweep in zip(bench.policies, series)}
    ref = min(speeds, key=lambda s: abs(s - REFERENCE_SPEED))

    annotations: dict[str, float] = {
        "ref_speed": ref,
        "lambda_max": lam_max,
        "dmsd_target_ns": target_ns,
    }
    named = series_by_policy_name(sweeps)
    if "rmsd" in named and "dmsd" in named:
        rmsd_d = named["rmsd"].point_at(ref).delay_ns
        dmsd_d = named["dmsd"].point_at(ref).delay_ns
        if rmsd_d and dmsd_d:
            annotations["rmsd_over_dmsd_delay"] = rmsd_d / dmsd_d
        dmsd_p = named["dmsd"].point_at(ref).power_mw
        rmsd_p = named["rmsd"].point_at(ref).power_mw
        if dmsd_p and rmsd_p:
            annotations["dmsd_over_rmsd_power"] = dmsd_p / rmsd_p

    delay_fig = FigureResult(
        figure_id=f"fig10-delay-{app.name}",
        title=f"Packet delay vs app speed ({app.name})",
        x_label="app speed",
        y_label="packet delay (ns)",
        series=[Series(label, list(speeds),
                       [pt.delay_ns for pt in swp.points])
                for label, swp in sweeps.items()],
        annotations=annotations,
    )
    power_fig = FigureResult(
        figure_id=f"fig10-power-{app.name}",
        title=f"NoC power vs app speed ({app.name})",
        x_label="app speed",
        y_label="power (mW)",
        series=[Series(label, list(speeds),
                       [pt.power_mw for pt in swp.points])
                for label, swp in sweeps.items()],
        annotations=annotations,
    )
    return [delay_fig, power_fig]


def figure10(bench: Workbench, base: NocConfig,
             speeds: tuple[float, ...] = SPEED_GRID) -> list[FigureResult]:
    """Regenerate all four Fig. 10 panels (H.264 + VCE)."""
    figures: list[FigureResult] = []
    for make_app in (h264_encoder, vce_encoder):
        figures.extend(figure10_app(bench, make_app(), base, speeds))
    return figures
