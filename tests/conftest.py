"""Shared fixtures for the test suite.

Tests use deliberately tiny configurations so the whole suite stays
fast; the paper-scale 5x5/8x8 configurations are exercised by the
benchmark harness instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.noc import GHZ, Mesh, NocConfig
from repro.noc.engines import ENGINES
from repro.noc.fastsim import kernel
from repro.noc.stats import MeasurementSample


def sample(delay_ns=100.0, node_lambda_flits=50, node_cycles=100,
           num_nodes=4, freq_hz=1 * GHZ) -> MeasurementSample:
    """One synthetic controller measurement window.

    Shared by the policy/controller unit tests (``test_policy``,
    ``test_rmsd``, ``test_dmsd``, ``test_quantize``); import it with
    ``from conftest import sample``.
    """
    return MeasurementSample(
        window_cycles=100, window_node_cycles=node_cycles,
        window_ns=100.0, generated_flits=node_lambda_flits,
        delivered_packets=10, mean_delay_ns=delay_ns,
        mean_latency_cycles=delay_ns, freq_hz=freq_hz, time_ns=1000.0,
        num_nodes=num_nodes)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def mesh3() -> Mesh:
    return Mesh(3, 3)


@pytest.fixture
def mesh4() -> Mesh:
    return Mesh(4, 4)


@pytest.fixture
def tiny_config() -> NocConfig:
    """3x3 mesh, 2 VCs, short packets: the fastest useful simulator."""
    return NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                     packet_length=3)


@pytest.fixture
def small_config() -> NocConfig:
    """4x4 mesh with paper-like knobs scaled down."""
    return NocConfig(width=4, height=4, num_vcs=4, vc_buf_depth=4,
                     packet_length=5)


@pytest.fixture
def step_calls(monkeypatch) -> list[int]:
    """Count the cycles every engine steps: what each ``advance`` call
    moved, its return value minus its ``cycle`` argument (a one-element
    list, so a test can read and reset it)."""
    steps = [0]
    for cls in ENGINES.values():
        def counting(self, cycle, *args, _advance=cls.advance, **kwargs):
            after = _advance(self, cycle, *args, **kwargs)
            steps[0] += after - cycle
            return after
        monkeypatch.setattr(cls, "advance", counting)
    return steps


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """A host that cannot build the fast engine's kernel: its compiler
    is missing and its cache directory empty, so
    :func:`kernel.load_kernel` raises :class:`kernel.KernelBuildError`
    (the loaded kernel is forgotten before and after the test)."""
    monkeypatch.setattr(kernel, "COMPILER",
                        ("repro-no-such-compiler",) + kernel.COMPILER[1:])
    monkeypatch.setattr(kernel, "cache_dir", lambda: tmp_path)
    kernel.load_kernel.cache_clear()
    yield
    kernel.load_kernel.cache_clear()
