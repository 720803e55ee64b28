"""The Workbench's one sweep path: one submission per request.

``Workbench.sweeps`` memoizes every sweep under ``(scenario, rates)``
and submits the units of all the sweeps a call still needs in a single
``SweepRunner.run`` call, with or without a unit cache.  A policy
comparison, a scenario matrix and each Fig. 10 application are one
submission, and nothing is submitted a second time to be read back.
Fig. 2's two policy sweeps are one comparison.
"""

import pytest

from repro.experiments.__main__ import TINY_CONFIG, main
from repro.experiments.common import QUICK, Profile, Workbench
from repro.experiments.fig10 import figure10_app
from repro.experiments.fig2 import figure2
from repro.experiments.fig4 import figure4
from repro.experiments.render import render_figure
from repro.noc import SimBudget
from repro.runner import ExecutionContext
from repro.scenario import ScenarioSpec
from repro.traffic import h264_encoder

TINY_PROFILE = Profile("tiny", SimBudget(200, 500, 1500),
                       sweep_points=3, dmsd_iterations=3,
                       saturation_iterations=3)


@pytest.fixture
def uncached():
    """A workbench whose context keeps no unit cache."""
    return Workbench(profile=TINY_PROFILE, seed=5,
                     context=ExecutionContext(cache=None, engine="fast"))


def submissions(bench: Workbench) -> int:
    return len(bench.runner.totals.reports)


def test_policy_comparison_is_one_submission(uncached, tiny_config):
    sweeps = uncached.policy_comparison(tiny_config, "uniform",
                                        (0.05, 0.1))
    assert list(sweeps) == ["no-dvfs", "rmsd", "dmsd"]
    assert submissions(uncached) == 1
    assert uncached.runner.totals.total_units == 6
    # Memoized: asking again submits nothing.
    again = uncached.policy_comparison(tiny_config, "uniform", (0.05, 0.1))
    assert all(again[label] is sweeps[label] for label in sweeps)
    assert submissions(uncached) == 1


def test_matrix_without_cache_executes_each_distinct_unit_once(
        uncached, tiny_config):
    plain = ScenarioSpec.build("no-dvfs", "uniform", config=tiny_config)
    loaded = plain.with_(workload="mmoo")
    scenarios, rates = (plain, loaded, plain), (0.05, 0.1, 0.05)
    result = uncached.scenario_matrix(scenarios, rates)
    assert submissions(uncached) == 1
    digests = {unit.digest() for spec in scenarios
               for unit in spec.units(rates,
                                      uncached.budget_for(tiny_config),
                                      uncached.seed, uncached.engine)}
    assert len(digests) == 4
    assert result.report.executed == len(digests)
    assert result.report.total_units == 9
    assert "[matrix:" in result.render()


def test_figure10_app_is_one_submission(uncached, tiny_config):
    """Each app's policy sweeps are one submission, and its
    ``lambda_max`` and DMSD target are memoized like a pattern's."""
    first = figure10_app(uncached, h264_encoder(), tiny_config,
                         speeds=(0.4, 0.8))
    assert submissions(uncached) == 1
    again = figure10_app(uncached, h264_encoder(), tiny_config,
                         speeds=(0.4, 0.8))
    assert submissions(uncached) == 1
    assert [f.series for f in again] == [f.series for f in first]
    assert again[0].annotations == first[0].annotations


def test_figure2_is_one_submission_in_one_batch_group(uncached, tiny_config,
                                                      monkeypatch):
    """Fig. 2's No-DVFS and RMSD sweeps are one policy comparison: one
    submission, run as one batch group, drawing the same figures as
    two separate policy sweeps."""
    figures = figure2(uncached, tiny_config)
    assert submissions(uncached) == 1
    assert uncached.runner.totals.reports[0].groups == 1
    apart = Workbench(profile=TINY_PROFILE, seed=5,
                      context=ExecutionContext(cache=None, engine="fast"))

    def one_sweep_each(config, pattern, rates, policies):
        return {policy: apart.pattern_sweep(config, pattern, policy, rates)
                for policy in policies}

    monkeypatch.setattr(apart, "policy_comparison", one_sweep_each)
    expected = figure2(apart, tiny_config)
    assert submissions(apart) == 2
    assert ([render_figure(f) for f in figures]
            == [render_figure(f) for f in expected])


def test_cached_batched_tiny_fig4_counts_each_unit_once():
    bench = Workbench(profile=QUICK, seed=3,
                      context=ExecutionContext(engine="fast"))
    assert bench.context.resolved_backend() == "batched"
    figure4(bench, TINY_CONFIG)
    totals = bench.runner.totals
    assert (totals.total_units, totals.cache_hits) == (18, 0)
    assert submissions(bench) == 1


def test_matrix_cli_without_cache_prints_its_report(capsys):
    assert main(["matrix", "--tiny", "--engine", "fast", "--no-cache",
                 "--policy", "no-dvfs", "--rates", "0.05,0.1"]) == 0
    assert "[matrix: 2 units, 2 executed, 0 cached" in (
        capsys.readouterr().out)
