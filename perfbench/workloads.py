"""The benchmark's workloads: what one run submits, and how it is checked.

Each workload is built in two steps, so set-up and run are timed apart:
:func:`prepare` imports the package and constructs the execution
context and :class:`~repro.experiments.common.Workbench` (that is
set-up), and :meth:`Prepared.run` submits the simulations and returns
the output sweep points.

``fig4-paper``
    Fig. 4 on the 5x5 paper baseline, uniform traffic, quick profile,
    fast engine, ``auto`` backend, ``jobs=1``, real DMSD strategy.
    Search-bound: a saturation bisection, the DMSD target run and one
    DMSD bisection per rate precede the single batched group.
``matrix-8x8``
    One ``Workbench.scenario_matrix`` submission on an 8x8 mesh: three
    closed-form policies x workloads {none, mmoo, vconf} x 8 rates, run
    batched in process.  Kernel-bound, no searches.
``matrix-8x8-distributed``
    The same submission through the ``distributed`` backend: a fresh
    queue directory and 2 self-spawned one-shot workers.

Correctness is checked three ways: a fingerprint of every output point
(compared with the one recorded for the default seed), an independent
single-copy ``run_fixed_point`` re-run of a few points, and invariants
every seed must satisfy.
"""

from __future__ import annotations

import hashlib
import math
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.saturation import is_saturated_at
from repro.core.rmsd import rmsd_frequency
from repro.experiments.common import QUICK, Workbench
from repro.experiments.fig4 import figure4
from repro.noc.budget import run_fixed_point
from repro.noc.config import PAPER_BASELINE, NocConfig
from repro.runner import ExecutionContext, UnitCache
from repro.scenario import ScenarioSpec

from catalog import EXPECTED_POINTS, WORKLOADS

MATRIX_CONFIG = NocConfig(width=8, height=8)
MATRIX_LAMBDA_MAX = 0.259
MATRIX_POLICIES = ("no-dvfs", f"rmsd:lambda_max={MATRIX_LAMBDA_MAX}",
                   f"gcc:lambda_max={MATRIX_LAMBDA_MAX}")
MATRIX_WORKLOADS = (None, "mmoo", "vconf")
MATRIX_RATES = tuple(round(MATRIX_LAMBDA_MAX * (i + 1) / 8, 4)
                     for i in range(8))
MATRIX_WORKERS = 2

#: Points per run re-simulated on the single-copy path as a spot check.
SPOT_CHECKS = 2


@dataclass
class Outcome:
    """What one workload run produced, ready for checking."""

    points: list                        # SweepPoint, in output order
    units: dict                         # (policy label, x) -> WorkUnit
    accuracy: dict = field(default_factory=dict)


@dataclass
class Prepared:
    """A constructed workload, ready to submit."""

    name: str
    seed: int
    tiny: bool
    bench: Workbench
    queue_dir: Path | None = None

    @property
    def config(self) -> NocConfig:
        if self.tiny:
            # The CLI's --tiny mesh; imported here so that full-size
            # runs do not pay for loading the CLI module during set-up.
            from repro.experiments.__main__ import TINY_CONFIG
            return TINY_CONFIG
        return PAPER_BASELINE if self.name == "fig4-paper" \
            else MATRIX_CONFIG

    def run(self) -> Outcome:
        if self.name == "fig4-paper":
            return self._run_fig4()
        return self._run_matrix()

    def _run_fig4(self) -> Outcome:
        bench, config = self.bench, self.config
        figures = figure4(bench, config, "uniform")
        rates = bench.rate_grid(config, "uniform")
        sweeps = bench.policy_comparison(config, "uniform", rates)
        points, units = [], {}
        for label, series in sweeps.items():
            spec = bench.scenario(config, "uniform", label)
            for unit in spec.units(rates, bench.budget_for(config),
                                   bench.seed, bench.engine,
                                   resources=bench.resources_for(
                                       config, "uniform")):
                units[(label, unit.x)] = unit
            points.extend((label, p) for p in series.points)
        notes = figures[1].annotations
        accuracy = {
            "dmsd_target_ns": notes.get("dmsd_target_ns"),
            "max_rmsd_over_dmsd": notes.get("max_rmsd_over_dmsd"),
            "lambda_max": bench.saturation(config, "uniform").lambda_max,
        }
        return Outcome(points, units, accuracy)

    def _run_matrix(self) -> Outcome:
        bench = self.bench
        specs = matrix_specs(self.config)
        result = bench.scenario_matrix(specs, MATRIX_RATES)
        points, units = [], {}
        for spec in specs:
            for unit in spec.units(MATRIX_RATES,
                                   bench.budget_for(spec.config),
                                   bench.seed, bench.engine):
                units[(spec.label, unit.x)] = unit
            points.extend((spec.label, p)
                          for p in result.series[spec.label].points)
        return Outcome(points, units)

    def close(self) -> None:
        """Retire backend resources and remove the temp queue."""
        self.bench.context.close()
        if self.queue_dir is not None:
            shutil.rmtree(self.queue_dir, ignore_errors=True)


def matrix_specs(config: NocConfig) -> list[ScenarioSpec]:
    return [ScenarioSpec.build(policy, "uniform", config,
                               workload=workload)
            for policy in MATRIX_POLICIES for workload in MATRIX_WORKLOADS]


def prepare(name: str, seed: int, tiny: bool = False,
            tmp_root: Path | None = None) -> Prepared:
    """Construct a fresh context and workbench for one run."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: "
                         f"{', '.join(WORKLOADS)}")
    queue_dir = None
    options = {}
    if name == "matrix-8x8-distributed":
        if tmp_root is not None:
            tmp_root.mkdir(parents=True, exist_ok=True)
        queue_dir = Path(tempfile.mkdtemp(prefix="queue-", dir=tmp_root))
        options = {"backend": "distributed", "queue": str(queue_dir),
                   "workers": MATRIX_WORKERS}
    context = ExecutionContext(**{"backend": "auto", "jobs": 1,
                                  "cache": UnitCache(), "engine": "fast",
                                  **options})
    bench = Workbench(profile=QUICK, seed=seed, context=context)
    return Prepared(name, seed, tiny, bench, queue_dir)


def seed_is_usable(seed: int, config: NocConfig = PAPER_BASELINE) -> bool:
    """Can ``fig4-paper`` run at this seed?

    ``find_saturation_rate`` halves its lower bracket from 0.02 while
    the low-load probe reads as saturated, and raises below 1e-3.  With
    the quick budget a low-load probe measures a few dozen packets, so
    for some seeds noise alone trips the accepted-rate test at every
    probe and the search raises.  Those probes are repeated here.
    """
    bench = prepare("fig4-paper", seed)
    traffic = bench.bench.pattern_factory(config, "uniform")
    zero_load = config.zero_load_latency_cycles()
    budget = bench.bench.budget_for(config)
    lo = 0.02
    while lo >= 1e-3:
        if not is_saturated_at(config, traffic(lo), budget, seed,
                               zero_load, engine="fast"):
            return True
        lo /= 2.0
    return False


# --- correctness -----------------------------------------------------------
def _num(value) -> str:
    return "None" if value is None else repr(float(value))


def point_record(label: str, point) -> tuple:
    """The fingerprinted fields of one output point."""
    return (label, _num(point.x), _num(point.freq_hz),
            _num(point.delay_ns), _num(point.accepted_rate),
            _num(point.power_mw))


def fingerprint(outcome: Outcome) -> str:
    """SHA-256 over every output point's simulated figures."""
    records = [point_record(label, p) for label, p in outcome.points]
    return hashlib.sha256(repr(records).encode()).hexdigest()


def check_outcome(prepared: Prepared, outcome: Outcome) -> list[str]:
    """Problems with one run's outputs (empty when all is well).

    Seed-independent: the invariants below hold for any seed, and the
    spot checks re-simulate a seed-chosen sample of points on the
    unbatched single-copy path, which must reproduce them exactly.
    """
    problems = []
    config = prepared.config
    expected = EXPECTED_POINTS[prepared.name]
    if not prepared.tiny and len(outcome.points) != expected:
        problems.append(f"{len(outcome.points)} points, expected "
                        f"{expected}")
    for label, p in outcome.points:
        where = f"{label} @ {p.x:g}"
        if not config.f_min_hz - 1 <= p.freq_hz <= config.f_max_hz + 1:
            problems.append(f"{where}: frequency {p.freq_hz} out of "
                            f"range")
        if p.delay_ns is None or not math.isfinite(p.delay_ns) \
                or p.delay_ns <= 0:
            problems.append(f"{where}: delay {p.delay_ns}")
        if p.power_mw is None or not p.power_mw > 0:
            problems.append(f"{where}: power {p.power_mw}")
        if not p.accepted_rate > 0:
            problems.append(f"{where}: accepted rate {p.accepted_rate}")
        name = label.partition(":")[0]
        if name == "no-dvfs" and p.freq_hz != config.f_max_hz:
            problems.append(f"{where}: no-dvfs below Fmax")
        if name.startswith("rmsd") and "lambda_max=" in label:
            law = rmsd_frequency(config, p.x, MATRIX_LAMBDA_MAX)
            if not math.isclose(p.freq_hz, law, rel_tol=1e-12):
                problems.append(f"{where}: rmsd frequency {p.freq_hz} "
                                f"!= eq. (2) {law}")
    rng = random.Random(prepared.seed)
    for label, p in rng.sample(outcome.points,
                               min(SPOT_CHECKS, len(outcome.points))):
        unit = outcome.units[(label, p.x)]
        single = run_fixed_point(unit.config, unit.traffic, p.freq_hz,
                                 unit.budget, unit.seed(), engine="fast")
        if (single.mean_delay_ns != p.delay_ns
                or single.accepted_node_rate != p.accepted_rate):
            problems.append(f"{label} @ {p.x:g}: batched result differs "
                            f"from the single-copy run")
    return problems


if __name__ == "__main__":
    import sys

    # Print the usable seeds below N (default 64): catalog.SEED_POOL.
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    print([seed for seed in range(limit) if seed_is_usable(seed)])
