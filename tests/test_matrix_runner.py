"""Tests for the scenario-matrix runner and record/replay CLI verbs.

The matrix runner's contract is *one planned submission*: every sweep
unit of every cell goes to the runner in a single ``run`` call, the
planner deduplicates units shared between cells or repeated rates,
and the run report's ``executed`` count proves each distinct unit ran
exactly once.  The CLI tests drive ``matrix``, ``record`` and
``replay`` end to end on the tiny smoke mesh.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.common import Profile, Workbench
from repro.noc import SimBudget
from repro.scenario import ScenarioSpec

TINY_PROFILE = Profile("tiny", SimBudget(200, 500, 1500),
                       sweep_points=3, dmsd_iterations=3,
                       saturation_iterations=3)


@pytest.fixture
def bench():
    return Workbench(profile=TINY_PROFILE, seed=5)


def usage_error(argv, capsys) -> str:
    """Run the CLI expecting a usage error (exit 2, no traceback);
    return its stderr."""
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


def matrix_scenarios(tiny_config):
    plain = ScenarioSpec.build("no-dvfs", "uniform", config=tiny_config)
    loaded = ScenarioSpec.build("no-dvfs", "uniform",
                                config=tiny_config, workload="mmoo")
    return plain, loaded


class TestScenarioMatrix:
    def test_dedupe_executes_each_unit_once(self, bench, tiny_config):
        """Duplicate cells and repeated rates collapse in the planner:
        the executed count equals the number of distinct unit digests
        across the whole submission."""
        plain, loaded = matrix_scenarios(tiny_config)
        scenarios = (plain, loaded, plain)       # duplicate cell
        rates = (0.05, 0.1, 0.05)                # duplicate rate
        result = bench.scenario_matrix(scenarios, rates)
        digests = {
            unit.digest()
            for spec in scenarios
            for unit in spec.units(
                rates, bench.budget_for(spec.config), bench.seed,
                bench.engine,
                resources=bench.resources_for(spec.config,
                                              spec.pattern))}
        assert len(digests) == 4                 # 2 cells x 2 rates
        assert result.report is not None
        assert result.report.executed == len(digests)
        assert result.report.total_units == len(scenarios) * len(rates)

    def test_series_cover_every_cell(self, bench, tiny_config):
        plain, loaded = matrix_scenarios(tiny_config)
        result = bench.scenario_matrix((plain, loaded), (0.05, 0.1))
        assert set(result.series) == {plain.label, loaded.label}
        for series in result.series.values():
            assert series.xs == [0.05, 0.1]

    def test_second_matrix_fully_memoized(self, bench, tiny_config):
        """A repeated matrix resubmits nothing: the sweep memos answer
        and the result carries no run report."""
        scenarios = matrix_scenarios(tiny_config)
        first = bench.scenario_matrix(scenarios, (0.05, 0.1))
        second = bench.scenario_matrix(scenarios, (0.05, 0.1))
        assert second.report is None
        for label in first.series:
            assert second.series[label] is first.series[label]

    def test_matrix_series_match_scenario_sweep(self, bench,
                                                tiny_config):
        """A matrix cell and a standalone scenario sweep are the same
        series object — one memo, one set of simulations."""
        plain, loaded = matrix_scenarios(tiny_config)
        result = bench.scenario_matrix((plain, loaded), (0.05, 0.1))
        assert bench.scenario_sweep(loaded, (0.05, 0.1)) \
            is result.series[loaded.label]

    def test_render_table(self, bench, tiny_config):
        plain, loaded = matrix_scenarios(tiny_config)
        result = bench.scenario_matrix((plain, loaded), (0.05, 0.1))
        text = result.render()
        assert plain.label in text
        assert loaded.label in text
        assert "0.05" in text and "0.1" in text
        assert "mean packet delay" in text
        assert "[matrix:" in text

    def test_payload_artifact(self, bench, tiny_config):
        plain, loaded = matrix_scenarios(tiny_config)
        result = bench.scenario_matrix((plain, loaded), (0.05,))
        payload = result.to_payload()
        assert payload["rates"] == [0.05]
        assert [c["label"] for c in payload["cells"]] \
            == [plain.label, loaded.label]
        for cell, spec in zip(payload["cells"], (plain, loaded)):
            assert cell["digest"]
            assert cell["scenario"] == spec.to_payload()
            point = cell["points"][0]
            assert point["rate"] == 0.05
            assert point["mean_delay_ns"] > 0
        assert payload["report"]["executed"] == 2
        # The artifact is JSON-serializable as produced.
        json.dumps(payload)


class TestMatrixCli:
    def test_matrix_smoke_with_artifact(self, tmp_path, capsys):
        out = tmp_path / "matrix.json"
        assert main(["matrix", "--tiny", "--policy", "no-dvfs",
                     "--policy", "rmsd", "--workload", "none",
                     "--workload", "mmoo", "--rates", "0.05,0.1",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "no-dvfs/uniform@3x3" in text
        assert "+mmoo" in text
        assert "[matrix:" in text
        payload = json.loads(out.read_text())
        assert len(payload["cells"]) == 4        # 2 policies x 2 loads
        assert payload["report"]["executed"] >= 1

    def test_matrix_required_flags(self, capsys):
        err = usage_error(["matrix", "--tiny"], capsys)
        assert "--policy" in err and "--rates" in err

    def test_matrix_bad_rates(self, capsys):
        argv = ["matrix", "--tiny", "--policy", "no-dvfs", "--rates"]
        assert "not a comma-separated list of numbers" in usage_error(
            argv + ["0.02,lots"], capsys)
        assert "must be positive" in usage_error(
            argv + ["0.02,-0.05"], capsys)
        assert "at least one value" in usage_error(argv + [","], capsys)

    def test_matrix_unknown_policy_lists_known(self, capsys):
        err = usage_error(["matrix", "--tiny", "--policy", "warp",
                           "--rates", "0.02"], capsys)
        assert "unknown policy" in err and "rmsd" in err

    def test_matrix_out_dir_checked_before_simulating(self, tmp_path,
                                                      capsys):
        """A missing --out directory is a usage error up front, not a
        FileNotFoundError after the whole matrix has run."""
        err = usage_error(["matrix", "--tiny", "--policy", "no-dvfs",
                           "--rates", "0.05", "--out",
                           str(tmp_path / "missing" / "m.json")], capsys)
        assert "--out" in err and "not an existing directory" in err

    def test_matrix_rejects_incompatible_pattern(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--tiny", "--policy", "no-dvfs",
                  "--pattern", "bitrev", "--rates", "0.05"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "power-of-two" in err
        assert "Traceback" not in err

    def test_matrix_rejects_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--tiny", "--policy", "no-dvfs",
                  "--workload", "nope", "--rates", "0.05"])
        assert excinfo.value.code == 2
        assert "mmoo" in capsys.readouterr().err

    def test_matrix_missing_trace_is_usage_error(self, tmp_path, capsys):
        """A trace workload whose file is missing exits 2 naming
        ``--workload`` and the path, before the queue is created."""
        missing = tmp_path / "MISSING.trace"
        queue = tmp_path / "Q"
        err = usage_error(["matrix", "--tiny", "--engine", "fast",
                           "--policy", "no-dvfs", "--rates", "0.05",
                           "--workload", f"trace:path={missing}",
                           "--backend", "distributed", "--queue",
                           str(queue), "--workers", "1"], capsys)
        assert "--workload" in err and str(missing) in err
        assert not queue.exists()

    def test_matrix_rejects_orphan_queue_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--tiny", "--policy", "no-dvfs",
                  "--rates", "0.05", "--workers", "2"])
        assert excinfo.value.code == 2

    def test_matrix_bad_queue_dir_is_usage_error(self, tmp_path,
                                                 capsys):
        """A queue root that is a regular file is a usage error caught
        before the workbench is built, exactly as on the figure verb —
        not a QueueError traceback from the first submission."""
        occupied = tmp_path / "occupied"
        occupied.write_text("this is a file")
        with pytest.raises(SystemExit) as excinfo:
            main(["matrix", "--tiny", "--engine", "fast",
                  "--policy", "no-dvfs", "--rates", "0.05",
                  "--backend", "distributed", "--queue", str(occupied),
                  "--workers", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "not a directory" in err
        assert "Traceback" not in err


class TestRecordReplayCli:
    def test_record_replay_round_trip(self, tmp_path, capsys):
        trace = tmp_path / "u.trace"
        assert main(["record", "--tiny", "--out", str(trace),
                     "--rate", "0.1", "--cycles", "3000",
                     "--seed", "9"]) == 0
        recorded = capsys.readouterr().out
        assert "[recorded" in recorded
        assert "[digest" in recorded
        assert trace.exists()
        assert main(["replay", "--tiny", "--trace", str(trace),
                     "--budget", "200:500:1500"]) == 0
        replayed = capsys.readouterr().out
        assert "[replayed" in replayed
        assert "mean delay" in replayed

    def test_record_with_workload(self, tmp_path, capsys):
        trace = tmp_path / "m.trace"
        assert main(["record", "--tiny", "--out", str(trace),
                     "--workload", "mmoo", "--rate", "0.1",
                     "--cycles", "3000"]) == 0
        assert "[recorded" in capsys.readouterr().out

    def test_record_out_checked_before_recording(self, tmp_path,
                                                 capsys):
        """--out must name a file in an existing directory; both
        mistakes are usage errors before anything is recorded."""
        argv = ["record", "--tiny", "--rate", "0.1", "--cycles", "500",
                "--out"]
        err = usage_error(argv + [str(tmp_path / "missing" / "u.trace")],
                          capsys)
        assert "--out" in err and "not an existing directory" in err
        err = usage_error(argv + [str(tmp_path)], capsys)
        assert "--out" in err and "is a directory" in err

    def test_replay_bad_budget_is_usage_error(self, tmp_path, capsys):
        trace = tmp_path / "u.trace"
        assert main(["record", "--tiny", "--out", str(trace),
                     "--rate", "0.1", "--cycles", "500"]) == 0
        capsys.readouterr()
        err = usage_error(["replay", "--tiny", "--trace", str(trace),
                           "--budget", "huge"], capsys)
        assert "fast, default, thorough or" in err

    def test_replay_shape_mismatch_is_usage_error(self, tmp_path,
                                                  capsys):
        trace = tmp_path / "u.trace"
        assert main(["record", "--tiny", "--out", str(trace),
                     "--rate", "0.1", "--cycles", "500"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--trace", str(trace)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--tiny" in err
        assert "Traceback" not in err

    def test_replay_garbage_file_is_usage_error(self, tmp_path,
                                                capsys):
        path = tmp_path / "bogus.trace"
        path.write_text("not a trace\n")
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--tiny", "--trace", str(path)])
        assert excinfo.value.code == 2
        assert "not a repro trace" in capsys.readouterr().err

    def test_list_scenarios_mentions_workloads(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        assert "Workloads" in out
        for name in ("mmoo", "pareto", "vconf", "filexfer", "trace"):
            assert name in out
        assert "requires square mesh" in out
