"""Tests for the steady-state sweep machinery."""

import pytest

from repro.analysis import (DmsdSteadyState, FAST, NoDvfsSteadyState,
                            RmsdSteadyState, SimBudget, run_fixed_point,
                            run_sweep, sweep_units)
from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import probe_delay_ns
from repro.noc import GHZ, SimResult
from repro.noc.fastsim import batch as batch_module
from repro.power import PowerModel
from repro.runner import BatchGroup
from repro.runner.backends import _execute_group
from repro.traffic import PatternTraffic, make_pattern

TINY_BUDGET = SimBudget(200, 500, 1500)


def probe_result(config, created, delivered, complete, delay_ns=None):
    """A synthetic search-probe result."""
    return SimResult(
        config=config, seed=1, offered_node_rate=0.6, warmup_cycles=2000,
        measure_cycles=50, mean_latency_cycles=delay_ns,
        mean_delay_ns=delay_ns, p99_delay_ns=delay_ns, mean_hops=None,
        measured_created=created, measured_delivered=delivered,
        complete=complete, accepted_node_rate=0.0,
        measure_duration_ns=150.0, measure_node_cycles=50,
        backlog_delta_flits=0)


@pytest.fixture
def factory(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


class TestRunFixedPoint:
    def test_runs_at_requested_frequency(self, tiny_config, factory):
        res = run_fixed_point(tiny_config, factory(0.05), 0.5 * GHZ,
                              TINY_BUDGET, seed=1)
        assert res.mean_freq_hz == pytest.approx(0.5 * GHZ)

    def test_budget_respected(self, tiny_config, factory):
        res = run_fixed_point(tiny_config, factory(0.05),
                              tiny_config.f_max_hz, TINY_BUDGET, seed=1)
        assert res.warmup_cycles == TINY_BUDGET.warmup_cycles
        assert res.measure_cycles == TINY_BUDGET.measure_cycles


class TestStrategies:
    def test_no_dvfs_is_f_max(self, tiny_config, factory):
        strat = NoDvfsSteadyState()
        f = strat.frequency_for(tiny_config, factory(0.1), TINY_BUDGET, 1)
        assert f == tiny_config.f_max_hz

    def test_rmsd_applies_eq2(self, tiny_config, factory):
        strat = RmsdSteadyState(lambda_max=0.4)
        f = strat.frequency_for(tiny_config, factory(0.2), TINY_BUDGET, 1)
        assert f == pytest.approx(0.5 * GHZ)

    def test_dmsd_low_target_goes_fast(self, tiny_config, factory):
        """A target below the Fmax delay forces Fmax."""
        strat = DmsdSteadyState(target_delay_ns=5.0, iterations=3,
                                search_budget=TINY_BUDGET)
        f = strat.frequency_for(tiny_config, factory(0.1), TINY_BUDGET, 1)
        assert f == tiny_config.f_max_hz

    def test_dmsd_loose_target_goes_slow(self, tiny_config, factory):
        """A target above the Fmin delay allows Fmin."""
        strat = DmsdSteadyState(target_delay_ns=5000.0, iterations=3,
                                search_budget=TINY_BUDGET)
        f = strat.frequency_for(tiny_config, factory(0.05), TINY_BUDGET, 1)
        assert f == tiny_config.f_min_hz

    def test_dmsd_mid_target_meets_it(self, tiny_config, factory):
        """The bisected frequency lands the delay near the target."""
        zero_load = tiny_config.zero_load_latency_cycles()
        target = 2.2 * zero_load  # ns; reachable between Fmin and Fmax
        strat = DmsdSteadyState(target_delay_ns=target, iterations=6,
                                search_budget=TINY_BUDGET)
        f = strat.frequency_for(tiny_config, factory(0.05), TINY_BUDGET, 1)
        assert tiny_config.f_min_hz < f < tiny_config.f_max_hz
        res = run_fixed_point(tiny_config, factory(0.05), f,
                              TINY_BUDGET, seed=1)
        assert res.mean_delay_ns == pytest.approx(target, rel=0.25)

    def test_strategy_validation(self):
        with pytest.raises(ValueError):
            RmsdSteadyState(lambda_max=0.0)
        with pytest.raises(ValueError):
            DmsdSteadyState(target_delay_ns=-1.0)
        with pytest.raises(ValueError):
            DmsdSteadyState(target_delay_ns=10.0, iterations=0)


class TestProbeDelay:
    """A probe that jams completely (no measured packet delivered,
    saturated) must steer the search up, not read as "target met"."""

    def test_jammed_probe_reads_as_infinite_delay(self, tiny_config):
        jammed = probe_result(tiny_config, created=103, delivered=0,
                              complete=False)
        assert jammed.saturated and jammed.mean_delay_ns is None
        assert probe_delay_ns(jammed) == float("inf")

    def test_zero_load_probe_reads_as_zero_delay(self, tiny_config):
        idle = probe_result(tiny_config, created=0, delivered=0,
                            complete=True)
        assert not idle.saturated
        assert probe_delay_ns(idle) == 0.0

    def test_saturated_delay_is_not_trusted(self, tiny_config):
        backlogged = probe_result(tiny_config, created=103, delivered=40,
                                  complete=False, delay_ns=20.0)
        assert probe_delay_ns(backlogged) == float("inf")
        drained = probe_result(tiny_config, created=103, delivered=103,
                               complete=True, delay_ns=20.0)
        assert probe_delay_ns(drained) == 20.0

    def test_search_climbs_past_a_jammed_f_min_probe(self, tiny_config):
        jammed = probe_result(tiny_config, created=103, delivered=0,
                              complete=False)
        strat = DmsdSteadyState(150.0, iterations=5,
                                search_budget=TINY_BUDGET)
        search = strat.frequency_search(tiny_config, TINY_BUDGET)
        assert next(search) == (tiny_config.f_min_hz, TINY_BUDGET)
        assert search.send(jammed) == (tiny_config.f_max_hz, TINY_BUDGET)
        with pytest.raises(StopIteration) as done:
            search.send(jammed)
        assert done.value.value == tiny_config.f_max_hz

    def test_both_drivers_share_the_mapping(self, tiny_config, factory,
                                            monkeypatch):
        jammed = probe_result(tiny_config, created=103, delivered=0,
                              complete=False)
        monkeypatch.setattr(sweep_module, "run_fixed_point",
                            lambda *args, **kwargs: jammed)
        monkeypatch.setattr(batch_module, "run_fixed_batch",
                            lambda config, points, budget, **kwargs:
                            [jammed] * len(points))
        strat = DmsdSteadyState(150.0, iterations=5,
                                search_budget=TINY_BUDGET)
        serial = strat.frequency_for(tiny_config, factory(0.6),
                                     TINY_BUDGET, 1, engine="fast")
        units = sweep_units(tiny_config, factory, [0.05, 0.1], strat,
                            TINY_BUDGET, 1, "fast")
        lockstep = _execute_group(BatchGroup(tiny_config, TINY_BUDGET,
                                             "fast", units))
        assert serial == tiny_config.f_max_hz
        assert [r.freq_hz for r in lockstep] == [tiny_config.f_max_hz] * 2


class TestProbeStopsKeepFrequencies:
    """Saturated DMSD probes stop when their measurement window closes;
    the serial and the lockstep search still choose what full-budget
    probes choose, in fewer engine cycles."""

    RATES = [0.15, 0.4]

    @staticmethod
    def strategy():
        return DmsdSteadyState(60.0, iterations=3,
                               search_budget=TINY_BUDGET)

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_serial_search(self, tiny_config, factory, engine,
                           monkeypatch, step_calls):
        def frequencies():
            step_calls[0] = 0
            freqs = [self.strategy().frequency_for(
                tiny_config, factory(rate), TINY_BUDGET, 1, engine=engine)
                for rate in self.RATES]
            return freqs, step_calls[0]

        stopped, stopped_steps = frequencies()
        original = sweep_module.run_fixed_point
        monkeypatch.setattr(sweep_module, "run_fixed_point",
                            lambda *args, probe, **kwargs:
                            original(*args, **kwargs))
        full, full_steps = frequencies()
        assert stopped == full
        assert stopped_steps < full_steps

    def test_lockstep_search(self, tiny_config, factory, monkeypatch,
                             step_calls):
        units = sweep_units(tiny_config, factory, self.RATES,
                            self.strategy(), TINY_BUDGET, 1, "fast")

        def execute():
            step_calls[0] = 0
            out = _execute_group(BatchGroup(tiny_config, TINY_BUDGET,
                                            "fast", units))
            return [(r.freq_hz, r.result) for r in out], step_calls[0]

        stopped, stopped_steps = execute()
        original = batch_module.run_fixed_batch
        monkeypatch.setattr(batch_module, "run_fixed_batch",
                            lambda config, points, budget, *, probe:
                            original(config, points, budget))
        full, full_steps = execute()
        assert stopped == full
        assert stopped_steps < full_steps


class TestRunSweep:
    def test_sweep_shape(self, tiny_config, factory):
        series = run_sweep(tiny_config, factory, [0.05, 0.1],
                           NoDvfsSteadyState(), TINY_BUDGET, seed=1)
        assert series.policy == "no-dvfs"
        assert series.xs == [0.05, 0.1]
        assert len(series.points) == 2

    def test_sweep_has_power(self, tiny_config, factory):
        pm = PowerModel(tiny_config)
        series = run_sweep(tiny_config, factory, [0.05],
                           NoDvfsSteadyState(), TINY_BUDGET, 1, pm)
        point = series.points[0]
        assert point.power is not None
        assert point.power_mw > 0

    def test_delay_grows_with_rate(self, tiny_config, factory):
        series = run_sweep(tiny_config, factory, [0.03, 0.25],
                           NoDvfsSteadyState(), TINY_BUDGET, seed=1)
        d = series.delays_ns()
        assert d[1] > d[0]

    def test_point_at_picks_nearest(self, tiny_config, factory):
        series = run_sweep(tiny_config, factory, [0.05, 0.2],
                           NoDvfsSteadyState(), TINY_BUDGET, seed=1)
        assert series.point_at(0.19).x == 0.2
        assert series.point_at(0.01).x == 0.05

    def test_rmsd_frequency_recorded(self, tiny_config, factory):
        series = run_sweep(tiny_config, factory, [0.1],
                           RmsdSteadyState(0.4), TINY_BUDGET, seed=1)
        assert series.points[0].freq_hz == pytest.approx(0.25 * GHZ * 1.3333333, rel=0.05)
        assert series.points[0].voltage_v < 0.9


class TestSimBudget:
    def test_scaled(self):
        b = SimBudget(1000, 2000, 4000).scaled(0.5)
        assert b.warmup_cycles == 500
        assert b.measure_cycles == 1000

    def test_scaled_floors(self):
        b = SimBudget(1000, 2000, 4000).scaled(0.01)
        assert b.warmup_cycles >= 200
        assert b.measure_cycles >= 400

    def test_validated_on_construction(self):
        """One validation point for every execution path — including
        the drain_cycles >= 0 case the batched kernel used to miss."""
        with pytest.raises(ValueError, match="warmup"):
            SimBudget(warmup_cycles=-1)
        with pytest.raises(ValueError, match="measure"):
            SimBudget(measure_cycles=0)
        with pytest.raises(ValueError, match="drain"):
            SimBudget(drain_cycles=-5)

    def test_zero_drain_is_valid(self):
        assert SimBudget(0, 1, 0).drain_cycles == 0
