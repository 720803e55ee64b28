"""Experiment drivers: one module per paper figure.

Each ``figureN`` function regenerates the data behind the paper's
figure N and returns :class:`~repro.experiments.render.FigureResult`
objects that ``render_figure`` formats as the rows/series the paper
plots.  The :class:`Workbench` memoizes simulations so figures that
share runs in the paper share them here.
"""

from .common import (FULL, Profile, QUICK, Workbench, active_profile,
                     shared_workbench)
from .fig2 import figure2, rmsd_plateau_latencies
from .fig4 import figure4
from .fig5 import figure5
from .fig6 import figure6
from .fig7 import FIG7_PATTERNS, figure7
from .fig8 import figure8, figure8_case
from .fig10 import SPEED_GRID, app_config, figure10, figure10_app
from .headline import HeadlineReport, headline_report
from .render import (FigureResult, Series, ascii_chart, render_figure,
                     render_figures)

__all__ = [
    "FIG7_PATTERNS",
    "FULL",
    "FigureResult",
    "HeadlineReport",
    "Profile",
    "QUICK",
    "SPEED_GRID",
    "Series",
    "Workbench",
    "active_profile",
    "app_config",
    "ascii_chart",
    "figure10",
    "figure10_app",
    "figure2",
    "figure4",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure8_case",
    "headline_report",
    "render_figure",
    "render_figures",
    "rmsd_plateau_latencies",
    "shared_workbench",
]
