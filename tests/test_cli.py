"""Tests for the figure-regeneration CLI (and the worker CLI)."""

import sys
import threading
import time
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.core import policy_names
from repro.experiments.__main__ import (FIGURES, list_scenarios_main,
                                        main, run_figure, worker_main)
from repro.traffic import pattern_names
from repro.experiments.common import Profile, Workbench
from repro.noc import SimBudget
from repro.runner import ExecutionPlan, Worker, WorkQueue, default_jobs
from repro.runner.distributed import publish_plan
from test_backends import (check_knob_message, factory,  # noqa: F401
                           make_units, rule_knobs, spell)


class TestCli:
    def test_fig5_prints_table(self, capsys):
        assert main(["fig5"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "regenerated in" in out

    def test_unknown_figure_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_bad_profile_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--profile", "hero", "fig5"])

    def test_run_figure_unknown_name(self):
        with pytest.raises(ValueError):
            run_figure("fig99", Workbench())

    def test_all_known_figures_listed(self):
        assert set(FIGURES) == {"fig2", "fig4", "fig5", "fig6", "fig7",
                                "fig8", "fig10", "headline"}


#: Argv builders for the two verbs sharing the execution flags: the
#: knob checks must reject the same bad values on both.
EXECUTION_VERBS = (
    lambda *flags: [*flags, "fig5"],
    lambda *flags: ["matrix", "--policy", "no-dvfs", "--rates", "0.05",
                    *flags],
)


class TestBadArgumentDiagnostics:
    """Bad flag values exit through argparse with a clear message —
    never a traceback."""

    def _error_output(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2      # argparse usage error
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def _check_rules(self, capsys, tmp_path, *rules):
        """Each knob rule of ``test_backends.KNOB_RULES``, broken
        through the flags of both verbs, exits 2 naming the flags,
        before any queue directory exists."""
        for rule in rules:
            flags = [part for knob, value
                     in rule_knobs(rule, tmp_path).items()
                     for part in (spell("cli", knob), str(value))]
            for argv in EXECUTION_VERBS:
                err = self._error_output(argv(*flags), capsys)
                check_knob_message(err, rule, "cli")
                assert not (tmp_path / "q").exists()

    def test_bad_engine_name(self, capsys, tmp_path):
        err = self._error_output(["--engine", "warp", "fig5"], capsys)
        assert "invalid choice" in err
        # The message teaches the valid values.
        assert "reference" in err and "fast" in err
        self._check_rules(capsys, tmp_path, "unknown-engine")

    def test_fast_engine_without_a_compiler(self, capsys, tmp_path,
                                            no_compiler):
        self._check_rules(capsys, tmp_path, "fast-without-compiler")

    def test_non_integer_jobs(self, capsys):
        err = self._error_output(["--jobs", "many", "fig5"], capsys)
        assert "--jobs" in err
        assert "invalid int value" in err

    def test_negative_jobs(self, capsys, tmp_path):
        self._check_rules(capsys, tmp_path, "negative-jobs")

    def test_engine_flag_reaches_workbench(self, capsys, monkeypatch):
        """`--engine fast` must reach the Workbench's execution context,
        and `--jobs 0` as all cores (fig5 is analytic, so the run itself
        stays instant)."""
        import repro.experiments.__main__ as cli

        captured = {}

        class SpyWorkbench(Workbench):
            def __init__(self, **kwargs):
                captured.update(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(cli, "Workbench", SpyWorkbench)
        assert main(["--engine", "fast", "--jobs", "0", "fig5"]) == 0
        assert captured["context"].engine == "fast"
        assert captured["context"].jobs == default_jobs()
        assert captured["context"].resolved_backend() == "batched"
        assert "fig5" in capsys.readouterr().out

    def test_bad_backend_name(self, capsys, tmp_path):
        err = self._error_output(["--backend", "warp", "fig5"], capsys)
        assert "invalid choice" in err
        assert "serial" in err and "batched" in err
        assert "distributed" in err
        self._check_rules(capsys, tmp_path, "unknown-backend")

    def test_distributed_requires_queue(self, capsys, tmp_path):
        self._check_rules(capsys, tmp_path, "distributed-without-queue")

    def test_bad_queue_dir_reports_usable_message(self, capsys,
                                                  tmp_path):
        """A queue root that cannot be a directory fails with a clear
        argparse error, never a traceback."""
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("this is a file")
        for argv in EXECUTION_VERBS:
            err = self._error_output(
                argv("--backend", "distributed", "--queue",
                     str(not_a_dir)), capsys)
            assert "not a directory" in err
            err = self._error_output(
                argv("--backend", "distributed", "--queue",
                     str(not_a_dir / "nested")), capsys)
            assert "cannot initialise work queue" in err

    def test_queue_and_workers_need_distributed_backend(self, capsys,
                                                        tmp_path):
        self._check_rules(capsys, tmp_path, "orphan-queue",
                          "orphan-workers", "orphan-queue-and-workers")

    def test_negative_workers(self, capsys, tmp_path):
        self._check_rules(capsys, tmp_path, "negative-workers")

    def test_claim_batch_needs_distributed_backend(self, capsys,
                                                   tmp_path):
        self._check_rules(capsys, tmp_path, "orphan-claim-batch")
        # The warm fleet is the only fleet now; its switch is gone.
        err = self._error_output(EXECUTION_VERBS[0]("--pool"), capsys)
        assert "unrecognized arguments: --pool" in err

    def test_claim_batch_needs_self_spawned_workers(self, capsys,
                                                    tmp_path):
        self._check_rules(capsys, tmp_path, "claim-batch-without-workers")

    def test_claim_batch_must_be_positive(self, capsys, tmp_path):
        self._check_rules(capsys, tmp_path, "claim-batch-below-1")


class TestScenarioFlags:
    """--policy/--pattern/--register and the list-scenarios command."""

    def _error_output(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return err

    def test_list_scenarios_prints_registries(self, capsys):
        assert main(["list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in ("no-dvfs", "rmsd", "dmsd", "fixed"):
            assert name in out
        for name in ("uniform", "tornado", "hotspot"):
            assert name in out
        assert "target_delay_ns" in out      # dmsd's parameters
        assert "transient only" in out       # fixed has no strategy

    def test_unknown_policy_lists_known(self, capsys):
        err = self._error_output(["--policy", "warp", "fig5"], capsys)
        assert "--policy" in err and "unknown policy" in err
        assert "rmsd" in err and "dmsd" in err

    def test_bad_policy_param_reported(self, capsys):
        err = self._error_output(
            ["--policy", "dmsd:bogus=1", "fig5"], capsys)
        assert "does not accept parameter" in err
        assert "target_delay_ns" in err

    def test_malformed_policy_spelling_reported(self, capsys):
        err = self._error_output(["--policy", "dmsd:", "fig5"], capsys)
        assert "--policy" in err

    def test_sweep_incapable_policy_is_a_usage_error(self, capsys):
        # 'fixed' is registered but has no sweep strategy: must fail at
        # parse time, not as a mid-run traceback.
        err = self._error_output(["--policy", "fixed", "fig5"], capsys)
        assert "no steady-state sweep strategy" in err

    def test_controller_only_param_is_a_usage_error(self, capsys):
        # 'smoothing' exists on the RmsdController but not on the sweep
        # strategy --policy feeds; reject it up front.
        err = self._error_output(
            ["--policy", "rmsd:smoothing=0.5", "fig5"], capsys)
        assert "does not accept parameter" in err
        assert "lambda_max" in err

    def test_unknown_pattern_lists_known(self, capsys):
        err = self._error_output(["--pattern", "warp", "fig5"], capsys)
        assert "unknown traffic pattern" in err and "uniform" in err

    def test_unimportable_register_module(self, capsys):
        err = self._error_output(
            ["--register", "no.such.module", "fig5"], capsys)
        assert "cannot import" in err and "no.such.module" in err

    @given(name=st.text(alphabet="abcdefghijklmnop", min_size=1,
                        max_size=10)
           .filter(lambda s: s not in set(policy_names())))
    def test_any_unknown_policy_name_is_a_usage_error(self, name):
        with pytest.raises(SystemExit) as excinfo:
            main(["--policy", name, "fig5"])
        assert excinfo.value.code == 2

    @given(name=st.text(alphabet="abcdefghijklmnop", min_size=1,
                        max_size=10)
           .filter(lambda s: s not in set(pattern_names())))
    def test_any_unknown_pattern_name_is_a_usage_error(self, name):
        with pytest.raises(SystemExit) as excinfo:
            main(["--pattern", name, "fig5"])
        assert excinfo.value.code == 2


EXAMPLES_DIR = str(Path(__file__).resolve().parent.parent / "examples")


class TestScenarioPluginEndToEnd:
    """The example plugin through the real CLI path."""

    @pytest.fixture
    def plugin_on_path(self, monkeypatch):
        from repro.core import POLICY_REGISTRY
        from repro.traffic import PATTERN_REGISTRY

        monkeypatch.syspath_prepend(EXAMPLES_DIR)
        yield
        sys.modules.pop("scenario_plugin", None)
        if "deadband" in POLICY_REGISTRY:
            POLICY_REGISTRY.remove("deadband")
        if "diagonal" in PATTERN_REGISTRY:
            PATTERN_REGISTRY.remove("diagonal")

    def test_list_scenarios_shows_registered_plugin(self, capsys,
                                                    plugin_on_path):
        assert list_scenarios_main(["--register",
                                    "scenario_plugin"]) == 0
        out = capsys.readouterr().out
        assert "deadband" in out and "diagonal" in out

    def test_custom_policy_and_pattern_reach_a_figure(
            self, capsys, monkeypatch, plugin_on_path):
        """`--register ... --policy deadband --pattern diagonal` runs a
        real (stripped-down) fig4 sweep with the plugin policy next to
        the paper's rmsd."""
        import repro.experiments.__main__ as cli
        from repro.experiments.common import Profile
        from repro.noc import SimBudget

        monkeypatch.setattr(cli, "QUICK", Profile(
            "cli-smoke", SimBudget(100, 250, 600), sweep_points=2,
            dmsd_iterations=2, saturation_iterations=2))
        assert main(["--tiny", "--engine", "fast",
                     "--register", "scenario_plugin",
                     "--policy", "rmsd",
                     "--policy", "deadband:target_delay_ns=60",
                     "--pattern", "diagonal", "fig4"]) == 0
        out = capsys.readouterr().out
        assert "deadband:target_delay_ns=60" in out
        assert "rmsd" in out
        assert "regenerated in" in out


class TestWorkerCli:
    """`python -m repro.experiments worker`: the worker-loop CLI."""

    def test_queue_flag_is_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["worker"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--queue" in err and "Traceback" not in err

    def test_bad_queue_dir(self, capsys, tmp_path):
        not_a_dir = tmp_path / "occupied"
        not_a_dir.write_text("x")
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--queue", str(not_a_dir)])
        assert excinfo.value.code == 2
        assert "not a directory" in capsys.readouterr().err

    def test_bad_lease_ttl_and_attempts(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            worker_main(["--queue", str(tmp_path / "q"),
                         "--lease-ttl", "0"])
        assert "--lease-ttl" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            worker_main(["--queue", str(tmp_path / "q"),
                         "--max-attempts", "0"])
        assert "--max-attempts" in capsys.readouterr().err

    @pytest.mark.parametrize("poll", ["0", "-1"])
    def test_bad_poll(self, capsys, tmp_path, poll):
        """A zero poll spins the idle loop; a negative one dies in
        time.sleep.  Both are usage errors before any queue work."""
        with pytest.raises(SystemExit) as excinfo:
            worker_main(["--queue", str(tmp_path / "q"), "--poll", poll,
                         "--max-idle", "1"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--poll must be > 0" in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,value,message", [
        ("--max-tasks", "0", "--max-tasks must be >= 1"),
        ("--max-tasks", "-1", "--max-tasks must be >= 1"),
        ("--max-idle", "-5", "--max-idle must be >= 0")],
        ids=["max-tasks-0", "max-tasks-negative", "max-idle-negative"])
    def test_bad_limits(self, capsys, tmp_path, flag, value, message):
        """``--max-tasks 0`` would exit before claiming anything, and a
        negative ``--max-idle`` would act as 0: usage errors, before
        the queue directory exists."""
        queue = tmp_path / "q"
        argv = ["--queue", str(queue), flag, value]
        if flag == "--max-tasks":
            argv += ["--max-idle", "1"]
        with pytest.raises(SystemExit) as excinfo:
            worker_main(argv)
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not queue.exists()

    def test_bad_claim_batch(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            worker_main(["--queue", str(tmp_path / "q"),
                         "--claim-batch", "0"])
        assert "--claim-batch must be >= 1" in capsys.readouterr().err

    def test_worker_cli_claim_batch_drains_in_one_round(
            self, capsys, tmp_path, tiny_config, factory):
        """`--claim-batch N` reaches the worker loop: every published
        shard completes through multi-claim rounds."""
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(
            make_units(tiny_config, factory,
                       rates=(0.04, 0.06, 0.08, 0.1)), None)
        plan.group_batches(jobs=4, max_shard=1, min_shard=1)
        tasks, _ = publish_plan(queue, plan)
        assert len(tasks) >= 2
        assert worker_main(["--queue", str(tmp_path / "q"),
                            "--claim-batch", str(len(tasks)),
                            "--max-tasks", str(len(tasks))]) == 0
        assert all(queue.has_result(t.task_id) for t in tasks)

    def test_worker_cli_drains_published_tasks(self, capsys, tmp_path,
                                               tiny_config, factory):
        """The worker loop claims, executes and completes real tasks
        published by a driver-side plan."""
        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(
            make_units(tiny_config, factory, rates=(0.05, 0.1)), None)
        plan.group_batches()
        tasks, _ = publish_plan(queue, plan)
        assert worker_main(["--queue", str(tmp_path / "q"),
                            "--max-tasks", str(len(tasks))]) == 0
        assert all(queue.has_result(t.task_id) for t in tasks)
        assert "task(s) handled" in capsys.readouterr().err

    def test_worker_cli_exit_code_signals_exhausted_tasks(
            self, capsys, tmp_path, tiny_config, factory):
        """A worker that exhausted a task's retry budget exits
        non-zero so supervisors notice."""
        from test_distributed import ExplodingStrategy

        queue = WorkQueue(tmp_path / "q").ensure()
        plan = ExecutionPlan(
            make_units(tiny_config, factory, rates=(0.1,),
                       strategy=ExplodingStrategy(),
                       engine="reference"), None)
        plan.group_batches()
        publish_plan(queue, plan)
        assert worker_main(["--queue", str(tmp_path / "q"),
                            "--max-tasks", "1",
                            "--max-attempts", "1"]) == 1
        assert "1 failed" in capsys.readouterr().err


class TestReplayCli:
    @pytest.mark.parametrize("tiny", [True, False],
                             ids=["tiny", "baseline"])
    @pytest.mark.parametrize("freq_rel", ["5", "1.01", "0.1", "0", "-1"])
    def test_freq_rel_outside_fmin_to_fmax_is_usage_error(
            self, capsys, tmp_path, freq_rel, tiny):
        """The network clock clips a frequency outside Fmin-Fmax, so
        the run would not be the one asked for."""
        mesh = ["--tiny"] if tiny else []
        trace = tmp_path / "u.trace"
        assert main(["record", "--out", str(trace), "--rate", "0.1",
                     "--cycles", "300", *mesh]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["replay", "--trace", str(trace), "--freq-rel", freq_rel,
                  *mesh])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--freq-rel" in err and "0.3333-1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("freq_rel, bound",
                             [("0.3333", repr(1 / 3)), ("1.00005", "1")])
    def test_freq_rel_within_rounding_of_a_bound_runs_at_it(
            self, capsys, tmp_path, freq_rel, bound):
        """The usage error prints Fmin/Fmax as 0.3333, which must run,
        at Fmin."""
        trace = tmp_path / "u.trace"
        assert main(["record", "--out", str(trace), "--rate", "0.1",
                     "--cycles", "300", "--tiny"]) == 0
        capsys.readouterr()
        outputs = []
        for value in (freq_rel, bound):
            assert main(["replay", "--trace", str(trace), "--freq-rel",
                         value, "--budget", "fast", "--tiny"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "delivered" in outputs[0]


class TestDistributedDriverCli:
    def test_workers_zero_with_prestarted_external_worker(
            self, capsys, monkeypatch, tmp_path):
        """`--backend distributed --workers 0` completes when an
        external worker (started before the driver) drains the queue."""
        import repro.experiments.__main__ as cli

        # A stripped-down profile: same code paths, minimal cycles.
        monkeypatch.setattr(cli, "QUICK", Profile(
            "cli-smoke", SimBudget(100, 250, 600), sweep_points=2,
            dmsd_iterations=2, saturation_iterations=2))
        queue = WorkQueue(tmp_path / "q").ensure()
        stop = threading.Event()

        def external_worker():
            worker = Worker(queue)
            while not stop.is_set():
                if not worker.run_once():
                    time.sleep(0.02)

        thread = threading.Thread(target=external_worker, daemon=True)
        thread.start()
        try:
            assert main(["--tiny", "--engine", "fast", "--backend",
                         "distributed", "--queue", str(tmp_path / "q"),
                         "--workers", "0", "fig2"]) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        out = capsys.readouterr().out
        assert "fig2" in out and "regenerated in" in out
