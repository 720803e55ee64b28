"""Scenario-matrix runner: a cross product as ONE planned submission.

``python -m repro.experiments matrix --policy rmsd,dmsd --pattern
uniform,transpose --workload none,mmoo --rates 0.05,0.1`` expands the
cross product of policies x patterns x workloads into
:class:`~repro.scenario.ScenarioSpec`s, submits *every* sweep unit in
a single :meth:`~repro.runner.SweepRunner.run` call — so the planner
deduplicates shared units across cells and the backend (serial,
batched kernel or distributed queue) sees the whole matrix at once —
and renders a summary table plus an optional JSON artifact.

The executed-unit count in the report is the planner's proof of
dedupe: submitting the same scenario twice (or overlapping rate
grids) executes each distinct unit exactly once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis.sweep import SweepSeries
from ..runner.executor import RunReport
from ..scenario import ScenarioSpec

__all__ = ["MatrixResult", "render_matrix"]


@dataclass
class MatrixResult:
    """The outcome of one scenario-matrix run."""

    scenarios: tuple[ScenarioSpec, ...]
    rates: tuple[float, ...]
    series: dict[str, SweepSeries]
    report: RunReport | None

    def render(self) -> str:
        """The human-readable summary table."""
        return render_matrix(self)

    def to_payload(self) -> dict:
        """JSON-ready artifact: scenarios, per-cell delays, report."""
        cells = []
        for spec in self.scenarios:
            series = self.series[spec.label]
            cells.append({
                "scenario": spec.to_payload(),
                "label": spec.label,
                "digest": spec.digest(),
                "points": [{
                    "rate": p.x,
                    "freq_hz": p.freq_hz,
                    "mean_delay_ns": p.delay_ns,
                    "accepted_rate": p.accepted_rate,
                    "saturated": p.saturated,
                } for p in series.points],
            })
        payload = {"rates": list(self.rates), "cells": cells}
        if self.report is not None:
            payload["report"] = {
                "total_units": self.report.total_units,
                "executed": self.report.executed,
                "cache_hits": self.report.cache_hits,
                "backend": self.report.backend,
            }
        return payload


def _cell_text(point) -> str:
    if point.saturated:
        return "sat"
    if point.delay_ns is None:
        return "-"
    return f"{point.delay_ns:.1f}"


def render_matrix(result: MatrixResult) -> str:
    """Fixed-width table: one row per scenario, one column per rate."""
    headers = ["scenario"] + [f"{r:g}" for r in result.rates]
    rows = [headers]
    for spec in result.scenarios:
        series = result.series[spec.label]
        by_x = {p.x: p for p in series.points}
        rows.append([spec.label]
                    + [_cell_text(by_x[r]) if r in by_x else "-"
                       for r in result.rates])
    widths = [max(len(row[i]) for row in rows)
              for i in range(len(headers))]
    lines = []
    for n, row in enumerate(rows):
        lines.append("  ".join(
            cell.ljust(w) if i == 0 else cell.rjust(w)
            for i, (cell, w) in enumerate(zip(row, widths))))
        if n == 0:
            lines.append("  ".join("-" * w for w in widths))
    lines.append("")
    lines.append("(cells: steady-state mean packet delay in ns; "
                 "'sat' = saturated)")
    if result.report is not None:
        r = result.report
        lines.append(f"[matrix: {r.total_units} units, "
                     f"{r.executed} executed, {r.cache_hits} cached, "
                     f"backend={r.backend}]")
    return "\n".join(lines)
