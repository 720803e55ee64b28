"""Tests for the saturation-rate finder."""

import pytest

from repro.analysis import SimBudget, find_saturation_rate, is_saturated_at
from repro.analysis import saturation as saturation_module
from repro.traffic import PatternTraffic, make_pattern

TINY_BUDGET = SimBudget(200, 500, 1200)


@pytest.fixture
def factory(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


class TestIsSaturated:
    def test_low_rate_unsaturated(self, tiny_config, factory):
        assert not is_saturated_at(
            tiny_config, factory(0.05), TINY_BUDGET, 1,
            tiny_config.zero_load_latency_cycles())

    def test_overload_saturated(self, tiny_config, factory):
        assert is_saturated_at(
            tiny_config, factory(0.95), TINY_BUDGET, 1,
            tiny_config.zero_load_latency_cycles())


class TestFindSaturation:
    def test_estimate_is_in_plausible_band(self, tiny_config, factory):
        est = find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                   seed=1, iterations=4)
        # A 3x3 mesh with DOR and uniform traffic saturates somewhere
        # between 0.3 and 0.9 flits/node/cycle.
        assert 0.3 < est.saturation_rate < 0.9

    def test_lambda_max_applies_margin(self, tiny_config, factory):
        est = find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                   seed=1, iterations=3, margin=0.9)
        assert est.lambda_max == pytest.approx(0.9 * est.saturation_rate)

    def test_bracket_low_rate_is_unsaturated(self, tiny_config, factory):
        est = find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                   seed=1, iterations=3)
        assert not is_saturated_at(
            tiny_config, factory(est.lambda_max * 0.5), TINY_BUDGET, 1,
            est.zero_load_latency_cycles)

    def test_validation(self, tiny_config, factory):
        with pytest.raises(ValueError):
            find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                 lo=0.5, hi=0.2)

    def test_unsaturable_traffic_returns_hi(self, tiny_config):
        """Neighbor traffic at 1 flit/cycle never saturates DOR links."""
        mesh = tiny_config.make_mesh()
        factory = lambda r: PatternTraffic(make_pattern("neighbor", mesh), r)
        est = find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                   seed=1, hi=0.6, iterations=3)
        assert est.saturation_rate <= 0.6


class TestProbeStops:
    """Saturated probes stop when their measurement window closes; the
    search still returns the estimate full runs give."""

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_same_estimate_as_full_runs(self, tiny_config, factory,
                                        engine, seed, monkeypatch,
                                        step_calls):
        def search():
            step_calls[0] = 0
            est = find_saturation_rate(tiny_config, factory, TINY_BUDGET,
                                       seed=seed, iterations=4,
                                       engine=engine)
            return est, step_calls[0]

        stopped, stopped_steps = search()
        original = saturation_module.run_fixed_point

        def full_run(*args, probe, **kwargs):
            return original(*args, **kwargs)

        monkeypatch.setattr(saturation_module, "run_fixed_point",
                            full_run)
        full, full_steps = search()
        assert stopped == full
        assert stopped_steps < full_steps
