"""Unit tests for the statistics collector and measurement windows."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import repro
from repro.noc.flit import Packet
from repro.noc.stats import (ACTIVITY_FIELDS, ActivityCounters,
                             MeasurementSample, PowerWindow,
                             StatsCollector, percentile)

GHZ = 1e9


def delivered_packet(latency=30, delay_ns=30.0, measured=True, length=4):
    p = Packet(0, 1, length, created_cycle=100, created_ns=100.0,
               measured=measured)
    p.ejected_cycle = 100 + latency
    p.ejected_ns = 100.0 + delay_ns
    return p


class TestActivityCounters:
    def test_starts_at_zero(self):
        act = ActivityCounters()
        assert act.total_events() == 0

    def test_kwargs_init(self):
        act = ActivityCounters(buffer_writes=3, link_flits=2)
        assert act.buffer_writes == 3
        assert act.total_events() == 5

    def test_unknown_field_rejected(self):
        with pytest.raises(TypeError):
            ActivityCounters(warp_drives=1)

    def test_copy_is_independent(self):
        a = ActivityCounters(buffer_writes=1)
        b = a.copy()
        b.buffer_writes += 1
        assert a.buffer_writes == 1

    def test_as_dict_covers_all_fields(self):
        assert set(ActivityCounters().as_dict()) == set(ACTIVITY_FIELDS)

    def test_subtraction(self):
        a = ActivityCounters(buffer_writes=5, sa_grants=3)
        b = ActivityCounters(buffer_writes=2, sa_grants=1)
        d = a - b
        assert d.buffer_writes == 3
        assert d.sa_grants == 2

    def test_equality(self):
        assert ActivityCounters(link_flits=1) == ActivityCounters(
            link_flits=1)
        assert ActivityCounters(link_flits=1) != ActivityCounters()


class TestStatsCollector:
    def test_generation_counts(self):
        stats = StatsCollector()
        p = Packet(0, 1, 4, 0, 0.0, measured=True)
        stats.on_packet_generated(p)
        assert stats.generated_packets == 1
        assert stats.generated_flits == 4
        assert stats.measured_created == 1

    def test_unmeasured_packets_not_tagged(self):
        stats = StatsCollector()
        stats.on_packet_generated(Packet(0, 1, 4, 0, 0.0))
        assert stats.measured_created == 0

    def test_delivery_records_measured_only(self):
        stats = StatsCollector()
        stats.on_packet_delivered(delivered_packet(measured=True))
        stats.on_packet_delivered(delivered_packet(measured=False))
        assert stats.delivered_packets == 2
        assert stats.measured_delivered == 1

    def test_mean_latency_and_delay(self):
        stats = StatsCollector()
        stats.on_packet_delivered(delivered_packet(latency=20,
                                                   delay_ns=40.0))
        stats.on_packet_delivered(delivered_packet(latency=40,
                                                   delay_ns=80.0))
        assert stats.mean_latency_cycles() == pytest.approx(30.0)
        assert stats.mean_delay_ns() == pytest.approx(60.0)

    def test_empty_stats_raise(self):
        stats = StatsCollector()
        with pytest.raises(RuntimeError):
            stats.mean_latency_cycles()
        with pytest.raises(RuntimeError):
            stats.mean_delay_ns()


class TestPowerWindow:
    def test_immutable_record(self):
        w = PowerWindow(duration_ns=10.0, cycles=10, freq_hz=1 * GHZ,
                        activity=ActivityCounters())
        with pytest.raises(AttributeError):
            w.duration_ns = 5.0


#: Delays, with heavy ties among a few values.
delays = st.one_of(st.floats(min_value=0.0, max_value=1e9),
                   st.sampled_from((1.5, 2.25, 7.0, 100.125)))


class TestPercentile:
    """``percentile`` equals ``np.percentile`` bit for bit, and leaves
    ``numpy.ma`` unimported."""

    @given(values=st.lists(delays, min_size=1, max_size=400),
           q=st.one_of(st.sampled_from((50, 95, 99)),
                       st.floats(min_value=0.0, max_value=100.0)))
    # A midpoint that interpolating up from the lower value rounds
    # differently from interpolating down from the upper one.
    @example(values=[134.36424411240122, 847.4337369372327], q=50)
    def test_equals_numpy(self, values, q):
        assert percentile(values, q).hex() \
            == float(np.percentile(values, q)).hex()

    @pytest.mark.parametrize("count", [1, 2, 101, 1000, 3000])
    def test_equals_numpy_on_long_runs(self, count):
        rng = np.random.default_rng(count)
        values = list(rng.exponential(40.0, count))
        values += values[:count // 3]                   # ties
        for q in (50, 95, 99):
            assert percentile(values, q).hex() \
                == float(np.percentile(values, q)).hex()

    def test_needs_values(self):
        with pytest.raises(ValueError):
            percentile([], 99)

    def test_a_fast_run_leaves_numpy_ma_unimported(self):
        code = (
            "import sys\n"
            "from repro.noc import NocConfig, SimBudget, run_fixed_point\n"
            "from repro.traffic import PatternTraffic, make_pattern\n"
            "config = NocConfig(width=3, height=3)\n"
            "traffic = PatternTraffic(\n"
            "    make_pattern('uniform', config.make_mesh()), 0.1)\n"
            "result = run_fixed_point(config, traffic, config.f_max_hz,\n"
            "                         SimBudget(200, 500, 1500), seed=3,\n"
            "                         engine='fast')\n"
            "assert result.p99_delay_ns is not None\n"
            "assert 'numpy.ma' not in sys.modules\n")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(repro.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
