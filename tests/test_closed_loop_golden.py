"""Closed-loop results pinned bit for bit, and the control windows.

Every run below is digested whole: each ``SimResult`` field, including
``freq_trace``, every control ``sample`` and every power window's
activity, with floats encoded by ``float.hex``.  The digests were
recorded before the simulation loop of ``Simulation.run`` and the
fixed-frequency driver became one driver, so any change to what a
closed loop measures, when it retunes or how it integrates power
shows up here as a digest mismatch.

The window tests check what a controller is handed: over a run, the
samples' generated flits add up to the flits created up to the last
sample's draw, their deliveries to the packets delivered before that
cycle's network step, each window's mean delay is the mean over its
own deliveries, and a window without deliveries reads ``None``.
"""

from __future__ import annotations

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.control.adaptive import GccController, UtilityController
from repro.core import DmsdController, RmsdController
from repro.noc import NocConfig, Simulation
from repro.noc.stats import ActivityCounters
from repro.traffic import (PatternTraffic, PiecewiseRateTraffic,
                           make_pattern)

GHZ = 1e9

SMALL = NocConfig(width=4, height=4, num_vcs=4, vc_buf_depth=4,
                  packet_length=5)
TINY = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                 packet_length=3)
HETEROGENEOUS = TINY.with_(node_freqs_hz=tuple(
    0.5 * GHZ if node % 2 else 1.2 * GHZ for node in range(9)))

ENGINES = ("reference", "fast")

POLICIES = {
    "rmsd": lambda: RmsdController(lambda_max=0.5),
    "dmsd": lambda: DmsdController(target_delay_ns=40.0),
    "gcc": lambda: GccController(),
    "utility": lambda: UtilityController(delay_budget_ns=40.0),
    "pinned": lambda: 0.6 * GHZ,
}


def encode(value) -> str:
    """A canonical text form: floats by ``float.hex``, ints exact."""
    if value is None or isinstance(value, (bool, str)):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return float.hex(float(value))
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(map(encode, value)) + "]"
    if isinstance(value, ActivityCounters):
        return encode(sorted(value.as_dict().items()))
    if dataclasses.is_dataclass(value):
        return type(value).__name__ + "(" + ",".join(
            f"{f.name}={encode(getattr(value, f.name))}"
            for f in dataclasses.fields(value)) + ")"
    raise TypeError(f"no canonical form for {type(value).__name__}")


def digest(result) -> str:
    return hashlib.sha256(encode(result).encode()).hexdigest()[:24]


def uniform(config: NocConfig, rate: float) -> PatternTraffic:
    return PatternTraffic(make_pattern("uniform", config.make_mesh()), rate)


def policy_run(policy: str, engine: str):
    sim = Simulation(SMALL, uniform(SMALL, 0.2),
                     controller=POLICIES[policy](), seed=7,
                     control_period_node_cycles=400, engine=engine)
    return sim.run(200, 1200, 3000)


def load_step_run(engine: str):
    """The DMSD load step of ``tests/test_piecewise_traffic.py``."""
    spec = PiecewiseRateTraffic(uniform(TINY, 0.08),
                                [(0, 1.0), (6000, 3.0)])
    target = 2.0 * TINY.zero_load_latency_cycles()
    controller = DmsdController(target_delay_ns=target, ki=0.3, kp=0.15)
    sim = Simulation(TINY, spec, controller=controller, seed=21,
                     control_period_node_cycles=300, engine=engine)
    return sim.run(10_000, 1500)


def heterogeneous_run(engine: str):
    sim = Simulation(HETEROGENEOUS, uniform(HETEROGENEOUS, 0.15),
                     controller=DmsdController(target_delay_ns=30.0),
                     seed=5, control_period_node_cycles=250,
                     engine=engine)
    return sim.run(400, 1500, 3000)


GOLDEN = {
    ("rmsd", "reference"): "c7834fd2fc9db9d7a834b4a2",
    ("rmsd", "fast"): "0928f2e60e26de37964eabee",
    ("dmsd", "reference"): "1d70a4fb1299ae1192f05de4",
    ("dmsd", "fast"): "1d70a4fb1299ae1192f05de4",
    ("gcc", "reference"): "5b571f58c0bdf475169bb253",
    ("gcc", "fast"): "5b571f58c0bdf475169bb253",
    ("utility", "reference"): "284ec01637ba76ec4582ca5e",
    ("utility", "fast"): "284ec01637ba76ec4582ca5e",
    ("pinned", "reference"): "d286168f4478bc648f7684f7",
    ("pinned", "fast"): "9fae4bd82cce83e14e98c02c",
    ("load-step", "reference"): "9e840381702ce62db3462ff3",
    ("load-step", "fast"): "9e840381702ce62db3462ff3",
    ("heterogeneous", "reference"): "549155013aae17ecc2e8ab8b",
    ("heterogeneous", "fast"): "61aa60f3e90705596ccd0295",
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_policy_run_digest(policy, engine):
    result = policy_run(policy, engine)
    assert result.samples
    assert digest(result) == GOLDEN[policy, engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_load_step_digest(engine):
    result = load_step_run(engine)
    assert len(result.freq_trace) > 2
    assert digest(result) == GOLDEN["load-step", engine]


@pytest.mark.parametrize("engine", ENGINES)
def test_heterogeneous_clock_digest(engine):
    result = heterogeneous_run(engine)
    assert len(result.power_windows) > 1
    assert digest(result) == GOLDEN["heterogeneous", engine]


class Recorder:
    """A pinned controller that notes, at every sample, how many
    packets the reference network has created so far."""

    def __init__(self, freq_hz: float) -> None:
        self.freq_hz = freq_hz
        self.sim: Simulation | None = None
        self.created: list[int] = []
        self.samples = []

    def reset(self, config: NocConfig) -> float:
        return self.freq_hz

    def update(self, sample) -> float:
        self.samples.append(sample)
        self.created.append(self.sim.network.stats.generated_packets)
        return self.freq_hz


def recorded_run(rate: float, freq_hz: float, period: int):
    recorder = Recorder(freq_hz)
    sim = Simulation(TINY, uniform(TINY, rate), controller=recorder,
                     seed=3, control_period_node_cycles=period)
    recorder.sim = sim
    result = sim.run(100, 600, 2000)
    return recorder, sim, result


class TestControlWindows:
    @pytest.mark.parametrize("freq_hz", [TINY.f_min_hz, TINY.f_max_hz],
                             ids=["f_min", "f_max"])
    def test_windows_add_up_to_the_run(self, freq_hz):
        recorder, sim, result = recorded_run(0.2, freq_hz, 40)
        samples = recorder.samples
        assert result.samples == samples and len(samples) > 10
        assert (sum(s.generated_flits for s in samples)
                == TINY.packet_length * recorder.created[-1])
        # Sample k is taken at network cycle sum(window_cycles[:k+1]),
        # and counts the deliveries made before that cycle's step.
        delivered = sim.network.delivered
        cycle = 0
        for sample in samples:
            first = cycle
            cycle += sample.window_cycles
            window = [p for p in delivered
                      if first <= p.ejected_cycle < cycle]
            assert sample.delivered_packets == len(window)
            if window:
                assert sample.mean_delay_ns == pytest.approx(
                    sum(p.delay_ns for p in window) / len(window))
                assert sample.mean_latency_cycles == pytest.approx(
                    sum(p.latency_cycles for p in window) / len(window))
        assert (sum(s.delivered_packets for s in samples)
                == sum(p.ejected_cycle < cycle for p in delivered))

    def test_window_without_deliveries_reads_none(self):
        recorder, _, _ = recorded_run(0.2, TINY.f_max_hz, 1)
        first = recorder.samples[0]
        assert first.delivered_packets == 0
        assert first.mean_delay_ns is None
        assert first.mean_latency_cycles is None
        assert any(s.mean_delay_ns is not None for s in recorder.samples)
