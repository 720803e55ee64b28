"""Tests for time-varying (stepped-rate) traffic."""

import numpy as np
import pytest

from repro.core import DmsdController
from repro.noc import Mesh, NocConfig, Simulation
from repro.noc.fastsim import FastNetwork
from repro.traffic import (InjectionProcess, PatternTraffic,
                           PiecewiseRateTraffic, make_pattern)


@pytest.fixture
def base(tiny_config):
    mesh = tiny_config.make_mesh()
    return PatternTraffic(make_pattern("uniform", mesh), 0.1)


class TestValidation:
    def test_requires_steps(self, base):
        with pytest.raises(ValueError):
            PiecewiseRateTraffic(base, [])

    def test_first_step_at_zero(self, base):
        with pytest.raises(ValueError, match="cycle 0"):
            PiecewiseRateTraffic(base, [(100, 1.0)])

    def test_steps_strictly_increasing(self, base):
        with pytest.raises(ValueError):
            PiecewiseRateTraffic(base, [(0, 1.0), (100, 2.0), (100, 3.0)])

    def test_rejects_negative_factor(self, base):
        with pytest.raises(ValueError):
            PiecewiseRateTraffic(base, [(0, -0.5)])


class TestFactors:
    def test_factor_lookup(self, base):
        spec = PiecewiseRateTraffic(base, [(0, 1.0), (100, 2.0),
                                           (300, 0.5)])
        assert spec.factor_at(0) == 1.0
        assert spec.factor_at(99) == 1.0
        assert spec.factor_at(100) == 2.0
        assert spec.factor_at(299) == 2.0
        assert spec.factor_at(1000) == 0.5

    def test_rate_factors_vector(self, base):
        spec = PiecewiseRateTraffic(base, [(0, 1.0), (3, 2.0)])
        assert list(spec.rate_factors(1, 4)) == [1.0, 1.0, 2.0, 2.0]

    def test_max_factor(self, base):
        spec = PiecewiseRateTraffic(base, [(0, 1.0), (10, 3.0)])
        assert spec.max_factor() == 3.0

    def test_spatial_distribution_unchanged(self, base, rng):
        spec = PiecewiseRateTraffic(base, [(0, 2.0)])
        assert all(spec.draw_dest(0, rng) != 0 for _ in range(50))


class TestInjectionWithSteps:
    def test_rate_doubles_after_step(self, base, rng):
        spec = PiecewiseRateTraffic(base, [(0, 1.0), (5000, 2.0)])
        proc = InjectionProcess(spec, packet_length=4, rng=rng)
        before = len(proc.arrivals(5000))
        after = len(proc.arrivals(5000))
        assert after > before * 1.5

    def test_peak_rate_capped(self, base, rng):
        """The cap applies to the highest stepped rate, not the base."""
        hot = PatternTraffic(base.pattern, 0.9)
        spec = PiecewiseRateTraffic(hot, [(0, 1.0), (10, 5.0)])
        with pytest.raises(ValueError, match="exceeds"):
            InjectionProcess(spec, packet_length=4, rng=rng)

    def test_factors_above_max_factor_raise(self, rng):
        """Factors above ``max_factor()`` escape the peak-rate check at
        construction; drawing them used to cap 4.0 fl/cy silently at
        one packet per node cycle (2,500 packets in 100 cycles)."""
        class Unbounded(PatternTraffic):
            def rate_factors(self, start_cycle, count):
                return np.full(count, 10.0)

        spec = Unbounded(make_pattern("uniform", Mesh(5, 5)), 0.4)
        proc = InjectionProcess(spec, packet_length=4, rng=rng)
        with pytest.raises(ValueError, match="Unbounded"):
            proc.arrivals(100)

    def test_compiled_step_table_checked_once_at_bind(self, base, rng,
                                                      tiny_config):
        class Understated(PiecewiseRateTraffic):
            arrival_law = PiecewiseRateTraffic.arrival_law  # opts in

            def max_factor(self):
                return 1.0

        spec = Understated(base, [(0, 1.0), (10, 3.0)])
        proc = InjectionProcess(spec, packet_length=4, rng=rng)
        with pytest.raises(ValueError, match="Understated"):
            FastNetwork(tiny_config).bind_sources([proc], [1.0])


class TestClosedLoopLoadStep:
    def test_dmsd_retunes_after_load_step(self, tiny_config):
        """The PI loop raises frequency when the load steps up."""
        mesh = tiny_config.make_mesh()
        base = PatternTraffic(make_pattern("uniform", mesh), 0.08)
        spec = PiecewiseRateTraffic(base, [(0, 1.0), (6000, 3.0)])
        target = 2.0 * tiny_config.zero_load_latency_cycles()
        ctrl = DmsdController(target_delay_ns=target, ki=0.3, kp=0.15)
        sim = Simulation(tiny_config, spec, controller=ctrl, seed=21,
                         control_period_node_cycles=300)
        res = sim.run(10_000, 1500)
        # Frequency before the step (after settling) vs after the step.
        pre_step = [f for t, f in res.freq_trace if 3000 < t < 6000]
        post_step = [f for t, f in res.freq_trace if t > 8000]
        assert pre_step and post_step
        assert max(post_step) > min(pre_step)
