"""The benchmark tracer's patch points exist and are restored.

``perfbench/probes.py`` times each layer by replacing entry points
under ``src/`` by attribute (``backends.run_fixed_batch``,
``pool._worker_command``, ...) and putting the originals back.  A
rename or move of one of them breaks every traced benchmark run, and
nothing else would notice, so this module installs the tracer the way
a traced run does and checks that it reports every metric.
"""

import importlib.util
from pathlib import Path

from repro.experiments.common import QUICK, Workbench
from repro.runner import ExecutionContext, UnitCache

PROBES = Path(__file__).resolve().parents[1] / "perfbench" / "probes.py"


def load_probes():
    spec = importlib.util.spec_from_file_location("perfbench_probes",
                                                  PROBES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_and_restores_every_entry_point(tmp_path):
    probes = load_probes()
    rec = probes.Recorder()
    try:
        probes.install(rec)
        probes.trace_workers(rec, str(tmp_path))
        patches = list(rec._patches)
        assert all(getattr(owner, attr) is not original
                   for owner, attr, original in patches)
    finally:
        rec.stop()
    assert patches
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, (owner, attr)


def test_tracer_reports_every_metric_of_a_benchmark_workbench():
    """A Workbench built as ``perfbench/workloads.prepare`` builds one
    yields every metric the benchmark reports."""
    probes = load_probes()
    context = ExecutionContext(backend="auto", jobs=1, cache=UnitCache(),
                               engine="fast")
    bench = Workbench(profile=QUICK, seed=3, context=context)
    try:
        metrics = probes.Recorder().metrics(bench)
    finally:
        context.close()
    assert set(probes.METRICS) <= set(metrics)
