"""Batches run as cache-sized engines on shared read-only topology.

``run_fixed_batch`` runs its points as consecutive, evenly sized
engines of at most ``ENGINE_STATE_BYTES`` of stepping state each when
the compiled step runs every replica in whole segments, and as one
engine otherwise; each result still equals the point's single fast
run.  The bytes one replica adds come from the kernel's own array
layout, and every engine tiles its own copy of its mesh's cached,
read-only topology tables.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import PAPER_BASELINE, NocConfig, SimBudget, run_fixed_point
from repro.noc.fastsim import BatchPoint, FastNetwork, batch, engine, kernel
from repro.noc.fastsim.batch import ENGINE_STATE_BYTES, even_widths
from repro.noc.routing import get_routing_function
from repro.noc.simulator import SimResult
from repro.noc.topology import NUM_PORTS, OPPOSITE
from repro.traffic import PatternTraffic, TransposeTraffic, make_pattern
from repro.workload import make_workload

CONFIG = PAPER_BASELINE.with_(width=8, height=8)
BUDGET = SimBudget(60, 150, 300)


def nine_points() -> list[BatchPoint]:
    """Compiled laws only (uniform, a permutation table, bursty rate
    steps), at Fmin, Fmax and between, the last one saturated."""
    mesh = CONFIG.make_mesh()

    def pattern(name):
        return lambda rate: PatternTraffic(make_pattern(name, mesh), rate)

    laws = [pattern("uniform")(0.05), pattern("transpose")(0.1),
            make_workload("mmoo", CONFIG).traffic(pattern("uniform"), 0.15),
            pattern("uniform")(0.2), pattern("tornado")(0.05),
            pattern("uniform")(0.1), pattern("transpose")(0.05),
            pattern("uniform")(0.25), pattern("uniform")(0.6)]
    freqs = (CONFIG.f_max_hz, 6e8, CONFIG.f_min_hz)
    return [BatchPoint(law, freqs[i % 3], 70 + i)
            for i, law in enumerate(laws)]


@pytest.fixture
def widths(monkeypatch) -> list[int]:
    """The width of every engine ``run_fixed_batch`` builds."""
    built, make = [], batch.FastNetwork

    def recording(config, copies=1):
        built.append(copies)
        return make(config, copies)

    monkeypatch.setattr(batch, "FastNetwork", recording)
    return built


def assert_same_results(ours: list[SimResult], theirs: list[SimResult]):
    assert len(ours) == len(theirs)
    for i, (a, b) in enumerate(zip(ours, theirs)):
        for field in dataclasses.fields(SimResult):
            assert (getattr(a, field.name)
                    == getattr(b, field.name)), (i, field.name)


@pytest.mark.parametrize("probe", [False, True])
def test_wide_compiled_batch_runs_as_even_engines(widths, probe):
    points = nine_points()
    results = batch.run_fixed_batch(CONFIG, points, BUDGET, probe=probe)
    assert widths == [3, 3, 3]
    alone = [run_fixed_point(CONFIG, p.traffic, p.freq_hz, BUDGET, p.seed,
                             engine="fast", probe=probe) for p in points]
    assert_same_results(results, alone)
    assert all(r.power_windows for r in results)
    assert not results[-1].complete and results[0].complete


def heterogeneous(config: NocConfig) -> NocConfig:
    return config.with_(node_freqs_hz=tuple(
        1e9 if node % 2 else 8e8 for node in range(config.num_nodes)))


@pytest.mark.parametrize("case", ["node-clocks", "python-law"])
def test_batches_the_compiled_step_cannot_segment_run_as_one_engine(
        widths, case):
    """Splitting batches with Python-drawn replicas gained on some
    batch shapes and lost on others, so these batches keep one engine
    whatever their width."""
    config, points = CONFIG, nine_points()
    if case == "node-clocks":
        # Rate steps need homogeneous node clocks.
        config = heterogeneous(CONFIG)
        points[2] = dataclasses.replace(points[2], traffic=PatternTraffic(
            make_pattern("uniform", CONFIG.make_mesh()), 0.15))
    else:
        points[4] = dataclasses.replace(points[4], traffic=PatternTraffic(
            make_pattern("hotspot", CONFIG.make_mesh()), 0.05))
    assert batch.engine_widths(config, points) == [9]
    short = SimBudget(10, 20, 20)
    assert len(batch.run_fixed_batch(config, points, short)) == 9
    assert widths == [9]


def test_permutation_batch_walks_its_destinations_once(monkeypatch):
    """A 12-point 8x8 transpose batch asks its pattern for each node's
    destination once: building the specs, splitting the batch and
    binding each engine's sources all read one table.  Its results
    equal the same points drawn in Python, where every arrival asks
    the pattern."""
    calls, dest = [0], TransposeTraffic.dest

    def counting(self, src, rng):
        calls[0] += 1
        return dest(self, src, rng)

    monkeypatch.setattr(TransposeTraffic, "dest", counting)
    transpose = make_pattern("transpose", CONFIG.make_mesh())
    freqs = (CONFIG.f_max_hz, 6e8, CONFIG.f_min_hz)
    points = [BatchPoint(PatternTraffic(transpose, 0.02 * (i + 1)),
                         freqs[i % 3], 90 + i) for i in range(12)]
    table = batch.run_fixed_batch(CONFIG, points, BUDGET)
    assert calls[0] == CONFIG.num_nodes

    class Drawn(TransposeTraffic):
        """Declares no compiled law, so arrivals draw in Python."""

    drawn = Drawn(CONFIG.make_mesh())
    assert_same_results(table, batch.run_fixed_batch(CONFIG, [
        dataclasses.replace(p, traffic=PatternTraffic(
            drawn, p.traffic.node_rate)) for p in points], BUDGET))


def test_engine_widths_follow_the_state_budget():
    per_replica = engine.replica_bytes(CONFIG)
    most = ENGINE_STATE_BYTES // per_replica
    assert most == 4
    assert ENGINE_STATE_BYTES // engine.replica_bytes(PAPER_BASELINE) == 10
    points = nine_points() * 8
    assert batch.engine_widths(CONFIG, points) == even_widths(72, most)
    assert batch.engine_widths(CONFIG, []) == []


@given(count=st.integers(0, 500), most=st.integers(1, 100))
def test_even_widths_are_the_fewest_even_parts(count, most):
    parts = even_widths(count, most)
    assert sum(parts) == count
    assert len(parts) == -(-count // most)
    if parts:
        assert max(parts) <= most and max(parts) - min(parts) <= 1
        assert parts == sorted(parts, reverse=True)


def test_even_widths_reject_empty_parts():
    with pytest.raises(ValueError):
        even_widths(3, 0)


configs = st.builds(
    NocConfig, width=st.integers(2, 9), height=st.integers(2, 9),
    num_vcs=st.integers(1, 8), vc_buf_depth=st.integers(1, 8),
    route_latency=st.integers(0, 3), va_latency=st.integers(0, 3),
    link_latency=st.integers(1, 4), credit_latency=st.integers(1, 4))


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config=configs)
def test_replica_bytes_are_a_one_replica_engines_state(config):
    net = FastNetwork(config)
    assert engine.replica_bytes(config) == sum(
        getattr(net, name).nbytes for name in kernel.ARRAYS
        if name not in kernel.STORE)


def cached_tables(config: NocConfig) -> tuple[np.ndarray, np.ndarray]:
    return engine._topology(config.width, config.height, config.num_vcs,
                            get_routing_function(config.routing))


@pytest.mark.parametrize("copies", [1, 2])
def test_engines_tile_unshared_copies_of_cached_tables(copies):
    config = NocConfig(width=4, height=3, num_vcs=3)
    first, second = FastNetwork(config, copies), FastNetwork(config, copies)
    route, link_base = cached_tables(config)
    expected = (route.copy(), link_base.copy())
    for name in ("route", "link_base"):
        ours, theirs = getattr(first, name), getattr(second, name)
        assert np.array_equal(ours, theirs)
        ours[:] = 7
        assert not np.array_equal(ours, theirs)
    assert np.array_equal(route, expected[0])
    assert np.array_equal(link_base, expected[1])
    fresh = FastNetwork(config)
    assert np.array_equal(fresh.route, expected[0])
    assert np.array_equal(fresh.link_base, expected[1])
    for table in (route, link_base):
        with pytest.raises(ValueError):
            table[0] = 1


def test_tables_hold_each_replicas_routes_and_neighbours():
    config = NocConfig(width=4, height=3, num_vcs=3)
    net, mesh = FastNetwork(config, copies=3), config.make_mesh()
    routing, nodes = get_routing_function(config.routing), mesh.num_nodes
    lines = nodes * net._PV
    route, link_base = (net.route.reshape(3, -1),
                        net.link_base.reshape(3, -1))
    first = link_base[0].tolist()
    vcs = config.num_vcs
    assert first == [
        -1 if port not in OPPOSITE or mesh.neighbor(node, port) is None
        else mesh.neighbor(node, port) * net._PV + OPPOSITE[port] * vcs
        for node in range(nodes) for port in range(NUM_PORTS)]
    for copy in range(3):
        assert route[copy].tolist() == [
            routing(mesh, src, dst) for src in range(nodes)
            for dst in range(nodes)]
        assert link_base[copy].tolist() == [
            base + copy * lines if base >= 0 else -1 for base in first]


def test_routing_functions_have_their_own_tables():
    xy = NocConfig(width=4, height=4, routing="dor_xy")
    yx = xy.with_(routing="dor_yx")
    assert not np.array_equal(FastNetwork(xy).route, FastNetwork(yx).route)
    assert not np.array_equal(cached_tables(xy)[0], cached_tables(yx)[0])
