"""The compiled cycle step against the NumPy step, and its loader.

``FastNetwork`` steps its arrays with the compiled kernel
(``repro/noc/fastsim/kernel.c``) when it loads, and with the NumPy
phase methods otherwise.  Both must leave every state and record array
equal after every cycle.  The lockstep tests below drive one engine of
each side by side on random small configurations and compare all of
them, the packet records and the delivery log included: once fed
packet records of random lengths (``enqueue_packet``), and once
drawing their own arrivals from bound sources, with mixed arrival
laws per replica (compiled uniform, a permutation table and rate
steps, and hotspot drawn in Python), heterogeneous node clocks in some
examples (every law drawn in Python), a replica retuned and one
retired mid-run, and a packet store that grows from one entry.  Each
generator must end in the same state on both sides.  After every
cycle, and after every retirement, each calendar slot must hold its
entries grouped by replica in ascending order: the compiled step walks
each replica's run of a slot with a cursor.  A fixed case runs the
paper baseline's 8-VC routers, which the random configurations reach
only sometimes.  The per-cycle comparisons include ``busy_bits``, which
the compiled step maintains as it pushes and pops flits: it must hold
the lines the NumPy engine's ``fifo_len`` shows busy.

``advance`` runs many cycles per compiled call.  Its lockstep tests
advance a compiled engine through random segments (a random stop, a
stop time on replica 0's clock, and ``until_done`` with retirements)
against a NumPy-step engine stepped one cycle at a time under the same
stop rules, fed with records or drawing from bound sources, with a
packet store that grows mid-segment; every return must give the same
cycle and state.  The int32 state limits raise on both paths rather
than wrap.

The loader tests cover the fallback (a failing build warns once, quotes
the compiler, and the NumPy step gives the same results), two
processes building into one empty cache directory at once, and the
cache directory: a per-user temp directory when the package is
read-only, refused when another user owns it.
"""

from __future__ import annotations

import math
import os
import shutil
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import (PAPER_BASELINE, NocConfig, SimBudget, Simulation,
                       run_fixed_point, topology)
from repro.noc.clock import NetworkClock
from repro.noc.fastsim import (BatchPoint, FastNetwork, engine, kernel,
                               run_fixed_batch)
from repro.noc.network import advance_by_cycles
from repro.traffic import (InjectionProcess, PatternTraffic,
                           PiecewiseRateTraffic, make_pattern)
from repro.workload import InjectionTrace, TraceTraffic, make_workload

HAVE_COMPILER = shutil.which(kernel.COMPILER[0]) is not None
needs_compiler = pytest.mark.skipif(
    not HAVE_COMPILER, reason=f"no {kernel.COMPILER[0]} on PATH")

SRC = Path(kernel.__file__).resolve().parents[3]

#: Arrays that are not simulation state: the step's scratch, the
#: addresses of each engine's own generators, and the compiled step's
#: cursor into its step tables (the NumPy step searches them instead).
NOT_STATE = {"scratch", "rng_state", "rng_double", "rng_uint32",
             "step_pos"}

TINY = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                 packet_length=3)
BUDGET = SimBudget(100, 300, 800)


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    kernel.load_kernel.cache_clear()
    yield
    kernel.load_kernel.cache_clear()


def numpy_engine(config: NocConfig, copies: int) -> FastNetwork:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "load_kernel", lambda: None)
        return FastNetwork(config, copies)


@pytest.fixture(params=["compiled", "numpy"])
def step_path(request, monkeypatch):
    """Run the test on the compiled step, then on the NumPy step."""
    if request.param == "compiled":
        if not HAVE_COMPILER:
            pytest.skip(f"no {kernel.COMPILER[0]} on PATH")
    else:
        monkeypatch.setattr(kernel, "load_kernel", lambda: None)
    return request.param


def tiny_run(seed: int = 4):
    traffic = PatternTraffic(make_pattern("uniform", TINY.make_mesh()),
                             0.3)
    return run_fixed_point(TINY, traffic, TINY.f_max_hz, BUDGET, seed,
                           engine="fast")


@needs_compiler
def test_kernel_loads_when_a_compiler_is_present():
    assert kernel.load_kernel() is not None
    assert FastNetwork(TINY).compiled


@st.composite
def scenarios(draw):
    config = NocConfig(
        width=draw(st.integers(2, 4)), height=draw(st.integers(2, 3)),
        num_vcs=draw(st.integers(1, 8)),
        vc_buf_depth=draw(st.integers(1, 4)),
        packet_length=draw(st.integers(1, 5)),
        route_latency=draw(st.integers(0, 2)),
        va_latency=draw(st.integers(0, 2)),
        link_latency=draw(st.integers(1, 2)),
        credit_latency=draw(st.integers(1, 2)))
    copies = draw(st.integers(1, 3))
    cycles = 140
    return dict(
        config=config, copies=copies, cycles=cycles,
        seed=draw(st.integers(0, 2**16)),
        rate=draw(st.floats(0.02, 0.5)),
        toggle_at=draw(st.integers(0, cycles)),
        freeze_at=draw(st.integers(0, cycles)),
        frozen=draw(st.integers(0, copies - 1)))


def assert_slots_grouped(net: FastNetwork) -> None:
    """Each calendar slot's live entries are grouped by replica, in
    ascending replica order."""
    config = net.config
    vcs = config.num_vcs
    span = config.num_nodes * topology.NUM_PORTS * vcs
    for entries, counts, per_copy in (
            (net.flit_line, net.flit_count, span),
            (net.credit_line, net.credit_count, span),
            (net.credit_src, net.credit_src_count, config.num_nodes * vcs)):
        for slot, count in enumerate(counts.tolist()):
            copies = entries[slot, :count] // per_copy
            assert (np.diff(copies) >= 0).all(), (slot, copies)


def busy_bits(net: FastNetwork) -> np.ndarray:
    """One bit per line whose FIFO holds a flit, bit ``l % 64`` of word
    ``l // 64``: the compiled step's ``busy_bits``."""
    lines = np.flatnonzero(net.fifo_len)
    words = np.zeros(net.busy_bits.size, dtype=np.uint64)
    np.bitwise_or.at(words, lines // 64,
                     np.uint64(1) << (lines % 64).astype(np.uint64))
    return words


def assert_same_state(compiled: FastNetwork, fallback: FastNetwork,
                      cycle: int) -> None:
    """Every state array equal; the NumPy step keeps no ``busy_bits``,
    so the compiled one must match the fallback's ``fifo_len``."""
    for net in (compiled, fallback):
        assert_slots_grouped(net)
    for name in kernel.ARRAYS:
        if name not in NOT_STATE:
            np.testing.assert_array_equal(
                getattr(compiled, name),
                busy_bits(fallback) if name == "busy_bits"
                else getattr(fallback, name),
                err_msg=f"{name} differs after cycle {cycle}")
    assert (compiled.aggregate_activity()
            == fallback.aggregate_activity()), cycle
    for copy in range(compiled.copies):
        assert (compiled.activity_of(copy)
                == fallback.activity_of(copy)), (cycle, copy)
        assert compiled.snapshot(copy) == fallback.snapshot(copy)
    assert compiled.in_flight_flits() == fallback.in_flight_flits()


@needs_compiler
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios())
def test_compiled_step_matches_numpy_step_every_cycle(scenario):
    config, copies = scenario["config"], scenario["copies"]
    compiled = FastNetwork(config, copies)
    fallback = numpy_engine(config, copies)
    assert compiled.compiled and not fallback.compiled
    nets = (compiled, fallback)
    for net in nets:
        for copy in range(copies):
            net.retune(copy, 1.0 + copy, 0.0)    # timestamps the records

    local = config.num_nodes
    rng = np.random.default_rng(scenario["seed"])
    for cycle in range(scenario["cycles"]):
        if cycle == scenario["toggle_at"]:
            for net in nets:
                net.attribute_activity = not net.attribute_activity
        if copies > 1 and cycle == scenario["freeze_at"]:
            for net in nets:
                net.freeze_copy(scenario["frozen"])
                assert_slots_grouped(net)
        for node in np.flatnonzero(rng.random(local * copies)
                                   < scenario["rate"]).tolist():
            src = node % local
            dst = (src + 1 + int(rng.integers(local - 1))) % local
            length = int(rng.integers(1, config.packet_length + 1))
            for net in nets:
                net.enqueue_packet(node, dst, length, cycle, float(cycle),
                                   True)
        for net in nets:
            net.step_cycle(cycle)
        assert_same_state(compiled, fallback, cycle)


#: Arrival laws of the bound-source lockstep: the compiled ones, and
#: hotspot, whose destinations draw in Python.
LAWS = ("uniform", "table", "steps", "hotspot")

#: The laws heterogeneous node clocks draw (all in Python): rate steps
#: need one node clock.
CONSTANT_LAWS = ("uniform", "table", "hotspot")


def law_traffic(config: NocConfig, law: str, rate: float,
                steps: list[tuple[int, float]]):
    mesh = config.make_mesh()
    if law == "table":
        return PatternTraffic(make_pattern("tornado", mesh), rate)
    if law == "hotspot":
        return PatternTraffic(make_pattern("hotspot", mesh), rate)
    uniform = PatternTraffic(make_pattern("uniform", mesh), rate)
    return PiecewiseRateTraffic(uniform, steps) if law == "steps" \
        else uniform


@st.composite
def bound_scenarios(draw, python_draws: bool = True):
    """Bound-source scenarios; without ``python_draws``, every replica's
    law compiles and the node clocks are homogeneous."""
    config = draw(scenarios())["config"]
    if python_draws and draw(st.booleans()):
        config = config.with_(node_freqs_hz=tuple(
            draw(st.floats(0.4e9, 1.6e9))
            for _ in range(config.num_nodes)))
    laws = LAWS if config.node_freqs_hz is None else CONSTANT_LAWS
    if not python_draws:
        laws = tuple(law for law in laws if law != "hotspot")
    copies = draw(st.integers(1, 4))
    f_min, f_max = config.f_min_hz, config.f_max_hz
    # Steps land inside the 1-3 node cycles of one network cycle.
    cuts = sorted(draw(st.sets(st.integers(1, 300), max_size=3)))
    steps = [(0, 1.0)] + [(cut, draw(st.sampled_from([0.0, 0.5, 2.0])))
                          for cut in cuts]
    points = [BatchPoint(
        law_traffic(config, draw(st.sampled_from(laws)),
                    draw(st.floats(0.02, 0.5)), steps),
        draw(st.one_of(st.just(f_min), st.floats(f_min, f_max))),
        draw(st.integers(0, 2**16))) for _ in range(copies)]
    cycles = 140
    return dict(config=config, points=points, cycles=cycles,
                measure_from=draw(st.integers(0, cycles)),
                measure_to=draw(st.integers(0, cycles)),
                freeze_at=draw(st.integers(0, cycles)),
                frozen=draw(st.integers(0, copies - 1)),
                retune_at=draw(st.integers(0, cycles)),
                retuned=draw(st.integers(0, copies - 1)),
                retune_hz=draw(st.floats(f_min, f_max)))


def bind(net: FastNetwork, config: NocConfig,
         points: list[BatchPoint]) -> list[InjectionProcess]:
    injections = [InjectionProcess(p.traffic, config.packet_length,
                                   np.random.default_rng(p.seed))
                  for p in points]
    net.bind_sources(injections, [
        NetworkClock(p.freq_hz, config.f_min_hz, config.f_max_hz).period_ns
        for p in points])
    return injections


def small_store_engines(config: NocConfig, copies: int
                        ) -> tuple[FastNetwork, FastNetwork]:
    """A compiled and a NumPy-step engine whose packet stores start
    with one entry."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PACKET_STORE", 1)
        compiled = FastNetwork(config, copies)
        fallback = numpy_engine(config, copies)
    assert compiled.compiled and not fallback.compiled
    return compiled, fallback


def run_bound_lockstep(config: NocConfig, points: list[BatchPoint],
                       cycles: int, measure_from: int = 0,
                       measure_to: int = -1, freeze_at: int = -1,
                       frozen: int = 0, retune_at: int = -1,
                       retuned: int = 0,
                       retune_hz: float = 1e9) -> FastNetwork:
    """Step a compiled and a NumPy-step engine drawing their own
    arrivals from the same sources; compare them after every cycle.
    At ``retune_at`` replica ``retuned`` moves to ``retune_hz`` from
    the end of that cycle on, as a DVFS control action does."""
    copies = len(points)
    compiled, fallback = small_store_engines(config, copies)
    sources = [bind(net, config, points) for net in (compiled, fallback)]
    for cycle in range(cycles):
        for net in (compiled, fallback):
            if cycle == measure_from:
                net.measuring = True
            if cycle == measure_to:
                net.measuring = False
            if copies > 1 and cycle == freeze_at:
                net.freeze_copy(frozen)
                assert_slots_grouped(net)
            began = net.time_of(retuned)
            net.step_cycle(cycle)
            if cycle == retune_at:
                period = 1e9 / retune_hz
                net.retune(retuned, period, began + period)
        assert_same_state(compiled, fallback, cycle)
    for ours, theirs in zip(*sources):
        assert (ours.rng.bit_generator.state
                == theirs.rng.bit_generator.state)
    return compiled


@needs_compiler
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=bound_scenarios())
def test_compiled_arrivals_match_numpy_step_every_cycle(scenario):
    net = run_bound_lockstep(**scenario)
    assert net.pkt_dst.size > 1            # the store grew mid-run


def advance_in_segments(nets: tuple[FastNetwork, FastNetwork], data,
                        cycles: int, measure_from: int = 0,
                        measure_to: int = -1, feed=None) -> None:
    """Advance a compiled engine through random segments toward
    ``cycles`` and a NumPy-step engine one cycle at a time under the
    same stop rules; compare them at every return.

    Segments end at ``measure_from`` and ``measure_to``, where
    ``measuring`` toggles, and ``feed(cycle)`` may queue packets before
    each.  A segment whose stop time has already passed runs one cycle
    alone and retunes replica 0, as a control cycle does; after an
    ``until_done`` segment every replica that completed in it retires.
    """
    compiled, fallback = nets
    config = compiled.config
    cycle = 0
    while cycle < cycles:
        for net in nets:
            net.measuring = measure_from <= cycle < measure_to
        if feed is not None:
            feed(cycle)
        stop = min([cycle + data.draw(st.integers(1, 50), label="length")]
                   + [b for b in (measure_from, measure_to, cycles)
                      if b > cycle])
        stop_ns = data.draw(st.one_of(
            st.just(math.inf),
            st.floats(0.0, 40.0).map(compiled.time_of(0).__add__)),
            label="stop_ns")
        until_done = data.draw(st.booleans(), label="until_done")
        was_done = completed(compiled)
        reached = compiled.advance(cycle, stop, stop_ns, until_done)
        assert advance_by_cycles(fallback, cycle, stop, stop_ns,
                                 until_done) == reached
        assert_same_state(compiled, fallback, reached)
        if reached == cycle:
            period = 1e9 / data.draw(st.floats(config.f_min_hz,
                                               config.f_max_hz),
                                     label="retune_hz")
            for net in nets:
                began = net.time_of(0)
                assert net.advance(cycle, cycle + 1) == cycle + 1
                net.retune(0, period, began + period)
            reached = cycle + 1
            assert_same_state(compiled, fallback, reached)
        if until_done and compiled.copies > 1:
            for copy in completed(compiled) - was_done:
                for net in nets:
                    net.freeze_copy(copy)
        cycle = reached


def completed(net: FastNetwork) -> set[int]:
    """The replicas whose measured packets have all been delivered."""
    created, delivered = net.measured_counts()
    return {copy for copy, (c, d) in enumerate(zip(created, delivered))
            if d >= c}


@needs_compiler
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=scenarios(), data=st.data())
def test_advance_matches_numpy_step_with_enqueued_packets(scenario, data):
    config, copies = scenario["config"], scenario["copies"]
    nets = small_store_engines(config, copies)
    for net in nets:
        for copy in range(copies):
            net.retune(copy, 1.0 + copy, 0.0)
    local = config.num_nodes
    rng = np.random.default_rng(scenario["seed"])

    def feed(cycle):
        for node in np.flatnonzero(rng.random(local * copies)
                                   < scenario["rate"]).tolist():
            src = node % local
            dst = (src + 1 + int(rng.integers(local - 1))) % local
            length = int(rng.integers(1, config.packet_length + 1))
            measured = bool(rng.integers(2))
            for net in nets:
                net.enqueue_packet(node, dst, length, cycle, float(cycle),
                                   measured)

    advance_in_segments(nets, data, 200, feed=feed)


@needs_compiler
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(scenario=st.one_of(bound_scenarios(),
                          bound_scenarios(python_draws=False)),
       data=st.data())
def test_advance_matches_numpy_step_with_bound_sources(scenario, data):
    config, points = scenario["config"], scenario["points"]
    nets = small_store_engines(config, len(points))
    sources = [bind(net, config, points) for net in nets]
    advance_in_segments(nets, data, 240, scenario["measure_from"],
                        scenario["measure_to"])
    assert nets[0].pkt_dst.size > 1            # the store grew
    for ours, theirs in zip(*sources):
        assert (ours.rng.bit_generator.state
                == theirs.rng.bit_generator.state)


@needs_compiler
def test_compiled_laws_advance_in_whole_segments(monkeypatch):
    """With no replica drawn in Python, the driver reaches the compiled
    step once per segment and never through ``step_cycle``; a closed
    loop's control cycles each take one call."""
    calls, advance = [], FastNetwork.advance

    def advance_counted(self, cycle, *args, **kwargs):
        calls.append(advance(self, cycle, *args, **kwargs) - cycle)
        return cycle + calls[-1]

    def no_step_cycle(self, cycle):
        raise AssertionError("the driver stepped one cycle at a time")

    monkeypatch.setattr(FastNetwork, "advance", advance_counted)
    monkeypatch.setattr(FastNetwork, "step_cycle", no_step_cycle)
    mesh = TINY.make_mesh()
    points = [BatchPoint(PatternTraffic(make_pattern(name, mesh), rate),
                         freq, seed)
              for seed, (name, rate, freq) in enumerate((
                  ("uniform", 0.2, TINY.f_min_hz),
                  ("transpose", 0.1, TINY.f_max_hz),
                  ("uniform", SATURATED, TINY.f_min_hz)))]
    run_fixed_batch(TINY, points, BUDGET)
    # Warmup, measurement, then one segment per retirement and the cap.
    assert len(calls) <= 2 + len(points)
    assert sum(calls) == BUDGET.warmup_cycles + BUDGET.measure_cycles \
        + BUDGET.drain_cycles

    calls.clear()
    sim = Simulation(TINY, points[0].traffic, controller=TINY.f_max_hz,
                     seed=1, control_period_node_cycles=25, engine="fast")
    result = sim.run(BUDGET.warmup_cycles, BUDGET.measure_cycles,
                     BUDGET.drain_cycles)
    samples = len(result.samples)
    assert samples > 5 and calls.count(1) >= samples
    assert len(calls) <= 2 * samples + 4


def paper_points() -> list[BatchPoint]:
    """Eight replicas of the paper baseline: compiled laws (uniform, a
    permutation table, bursty rate steps) and laws drawn in Python
    (hotspot), at Fmin, Fmax and between, light to saturated."""
    config = PAPER_BASELINE
    mesh = config.make_mesh()

    def pattern(name):
        return lambda rate: PatternTraffic(make_pattern(name, mesh), rate)

    laws = [pattern("uniform")(0.05), pattern("tornado")(0.2),
            make_workload("mmoo", config).traffic(pattern("uniform"), 0.25),
            pattern("hotspot")(0.1), pattern("uniform")(0.6),
            pattern("transpose")(0.3),
            make_workload("vconf", config).traffic(pattern("uniform"), 0.1),
            pattern("hotspot")(0.3)]
    freqs = (config.f_min_hz, config.f_max_hz, 7e8)
    return [BatchPoint(law, freqs[i % 3], 40 + i)
            for i, law in enumerate(laws)]


@needs_compiler
def test_paper_baseline_lockstep_with_a_retirement():
    net = run_bound_lockstep(PAPER_BASELINE, paper_points(), 240,
                             measure_from=20, measure_to=200,
                             freeze_at=120, frozen=3)
    assert net.counters[kernel.COUNTERS.index("logged_deliveries")] > 0


@needs_compiler
def test_paper_baseline_batch_equals_the_numpy_step(monkeypatch):
    """Whole results of a paper-baseline batch whose light replicas
    retire while the saturated one still runs."""
    budget = SimBudget(100, 200, 400)
    reached, retired = [], []
    advance, freeze = FastNetwork.advance, FastNetwork.freeze_copy

    def advance_to(self, *args, **kwargs):
        reached.append(advance(self, *args, **kwargs))
        return reached[-1]

    def freeze_copy(self, copy):
        retired.append(reached[-1])
        freeze(self, copy)

    monkeypatch.setattr(FastNetwork, "advance", advance_to)
    monkeypatch.setattr(FastNetwork, "freeze_copy", freeze_copy)
    compiled = run_fixed_batch(PAPER_BASELINE, paper_points(), budget)
    assert retired and min(retired) < reached[-1]
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "load_kernel", lambda: None)
        fallback = run_fixed_batch(PAPER_BASELINE, paper_points(), budget)
    assert compiled == fallback


def trace_with_bursts(config: NocConfig, cycles: int, first_burst: int,
                      seed: int) -> TraceTraffic:
    """A trace whose first node cycle holds ``first_burst`` events and
    whose later bursts hold up to 15 events at one source in one node
    cycle."""
    rng = np.random.default_rng(seed)
    nodes = config.num_nodes
    rows = [(0, i % nodes, (i + 1) % nodes) for i in range(first_burst)]
    rows += [(cycle, src, (src + 1 + int(rng.integers(nodes - 1))) % nodes)
             for cycle in range(1, cycles) if rng.random() < 0.1
             for src in range(nodes) for _ in range(rng.integers(16))]
    return TraceTraffic(InjectionTrace(nodes, config.packet_length,
                                       cycles, np.array(rows)))


@needs_compiler
def test_trace_bursts_leave_the_compiled_draws_their_headroom(
        monkeypatch):
    """A replayed trace draws all of a node cycle's recorded events in
    Python, before the compiled replicas draw theirs: a burst that
    fills the packet store must still leave those draws room.  The
    first cycle's burst fills a one-entry store as far as the reserve
    for one cycle's draws grows it, beside a replica that draws at
    nearly every node; no step leaves more records than the store
    holds, and the batch equals the NumPy step's results."""
    monkeypatch.setattr(engine, "_PACKET_STORE", 1)
    mesh = TINY.make_mesh()
    dense = BatchPoint(PatternTraffic(make_pattern("uniform", mesh),
                                      0.9 * TINY.packet_length),
                       TINY.f_max_hz, 2)
    net = FastNetwork(TINY, 2)
    bind(net, TINY, [dense, dense])
    net.step_cycle(0)                  # the store grows to its reserve
    points = [BatchPoint(trace_with_bursts(TINY, 1200, net.pkt_dst.size,
                                           3), TINY.f_max_hz, 1), dense]

    stored = kernel.COUNTERS.index("stored_packets")
    step = FastNetwork.step_cycle

    def step_within_store(self, cycle):
        step(self, cycle)
        assert self.counters[stored] <= self.pkt_dst.size

    monkeypatch.setattr(FastNetwork, "step_cycle", step_within_store)
    compiled = run_fixed_batch(TINY, points, BUDGET)
    with monkeypatch.context() as patch:
        patch.setattr(kernel, "load_kernel", lambda: None)
        fallback = run_fixed_batch(TINY, points, BUDGET)
    assert compiled == fallback


def test_cycles_past_the_int32_limit_raise(step_path):
    """``ready`` holds cycle + latency as int32: the last cycles before
    the limit step like any other, the next one raises."""
    last = engine._INT32_MAX - max(TINY.route_latency, TINY.va_latency)
    net = FastNetwork(TINY)
    assert net.compiled == (step_path == "compiled")
    for cycle in range(last - 40, last + 1):
        if cycle % 5 == 0:
            net.enqueue_packet(cycle % 9, (cycle + 4) % 9, 3, cycle,
                               float(cycle), True)
        net.step_cycle(cycle)
    assert net.counts()[1] > 0                 # deliveries logged
    with pytest.raises(ValueError, match="int32"):
        net.step_cycle(last + 1)
    with pytest.raises(ValueError, match="int32"):
        FastNetwork(TINY).step_cycle(2**31 - 1)

    # advance steps through the last cycle, then raises.
    stepped, net = FastNetwork(TINY), FastNetwork(TINY)
    for each in (stepped, net):
        each.enqueue_packet(0, 4, 3, last - 2, float(last - 2), True)
    assert stepped.advance(last - 2, last + 1) == last + 1
    with pytest.raises(ValueError, match="int32"):
        stepped.advance(last + 1, last + 2)
    with pytest.raises(ValueError, match="int32"):
        net.advance(last - 2, last + 5)
    assert net.counters[kernel.COUNTERS.index("injected_flits")] > 0
    np.testing.assert_array_equal(net.counters, stepped.counters)


def test_buffer_slots_past_the_int32_limit_raise(monkeypatch):
    # A lowered limit: the real one would take gigabytes to pass.
    slots = TINY.num_nodes * topology.NUM_PORTS * TINY.num_vcs \
        * TINY.vc_buf_depth
    monkeypatch.setattr(engine, "_INT32_MAX", 10 * slots)
    assert FastNetwork(TINY, 10).copies == 10
    with pytest.raises(ValueError, match="buffer slots"):
        FastNetwork(TINY, 11)


def test_packet_ids_past_the_store_limit_raise(step_path, monkeypatch):
    monkeypatch.setattr(engine, "_PACKET_STORE", 1)
    monkeypatch.setattr(engine, "_MAX_PACKET_ID", 5)
    net = FastNetwork(TINY)
    for _ in range(6):
        net.enqueue_packet(0, 4, 3, 0, 0.0, True)
    assert net.pkt_dst.size == 6
    with pytest.raises(ValueError, match="packet store"):
        net.enqueue_packet(0, 4, 3, 0, 0.0, True)

    monkeypatch.setattr(engine, "_MAX_PACKET_ID", 200)
    traffic = PatternTraffic(make_pattern("uniform", TINY.make_mesh()),
                             0.3)
    with pytest.raises(ValueError, match="packet store"):
        run_fixed_batch(TINY, [BatchPoint(traffic, TINY.f_max_hz, 1)],
                        BUDGET)


@pytest.fixture
def two_node_mesh(monkeypatch):
    """Lift the 2x2 minimum of meshes and configurations: a 2-node
    mesh is the one where ``integers(0, nodes - 1)`` draws nothing."""
    def mesh_init(self, width, height):
        self.width, self.height = width, height
        self.num_nodes = width * height
    monkeypatch.setattr(topology.Mesh, "__init__", mesh_init)
    monkeypatch.setattr(NocConfig, "__post_init__", lambda self: None)
    return NocConfig(width=2, height=1, num_vcs=2, vc_buf_depth=2,
                     packet_length=2)


@needs_compiler
def test_two_node_uniform_draws_no_destination(two_node_mesh):
    config = two_node_mesh
    traffic = PatternTraffic(make_pattern("uniform", config.make_mesh()),
                             0.5)
    points = [BatchPoint(traffic, freq, seed) for freq, seed in
              ((config.f_min_hz, 3), (config.f_max_hz, 4))]
    net = run_bound_lockstep(config, points, 200)
    assert int(net.counters[kernel.COUNTERS.index("stored_packets")]) > 50


SATURATED = 0.9


@pytest.mark.parametrize("probe", [False, True])
@pytest.mark.parametrize("pattern,rate,speed", [
    ("uniform", 0.3, 1.0), ("transpose", 0.2, 0.0),
    ("hotspot", 0.2, 0.5), ("uniform", SATURATED, 0.0)])
def test_fixed_point_is_the_one_replica_batch(pattern, rate, speed, probe):
    """Fast ``run_fixed_point`` is the one-replica batch, and both
    equal a pinned-frequency ``Simulation.run`` (this budget ends
    before its first control window)."""
    freq_hz = TINY.f_min_hz + speed * (TINY.f_max_hz - TINY.f_min_hz)
    traffic = PatternTraffic(make_pattern(pattern, TINY.make_mesh()), rate)
    alone = run_fixed_point(TINY, traffic, freq_hz, BUDGET, 9,
                            engine="fast", probe=probe)
    batched, = run_fixed_batch(TINY, [BatchPoint(traffic, freq_hz, 9)],
                               BUDGET, probe=probe)
    packets = Simulation(TINY, traffic, controller=freq_hz, seed=9,
                         engine="fast").run(
        BUDGET.warmup_cycles, BUDGET.measure_cycles, BUDGET.drain_cycles,
        probe=probe)
    assert alone == batched == packets
    assert alone.samples == []


def test_failed_build_warns_once_and_falls_back(tmp_path, fresh_loader):
    failing = (sys.executable, "-c",
               "import sys; sys.stderr.write('kernel.c:1:1: error: "
               "planted failure\\n'); sys.exit(1)")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "cache_dir", lambda: tmp_path)
        patch.setattr(kernel, "COMPILER", failing)
        with pytest.warns(RuntimeWarning) as caught:
            fallback = tiny_run()
            assert not FastNetwork(TINY).compiled
    messages = [str(w.message) for w in caught
                if "compiled cycle step" in str(w.message)]
    assert len(messages) == 1
    assert "planted failure" in messages[0]
    assert "exited with status 1" in messages[0]
    assert not list(tmp_path.iterdir())      # no half-built library

    kernel.load_kernel.cache_clear()
    if HAVE_COMPILER:
        assert kernel.load_kernel() is not None
    assert tiny_run() == fallback


CONCURRENT_BUILD = textwrap.dedent("""
    import sys, time
    from pathlib import Path
    from repro.noc.fastsim import kernel
    cache, go = Path(sys.argv[1]), Path(sys.argv[2])
    kernel.cache_dir = lambda: cache
    deadline = time.monotonic() + 60
    while not go.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert kernel.load_kernel() is not None
    sys.path.insert(0, sys.argv[3])
    from test_fastsim_kernel import tiny_run
    print(repr(tiny_run().mean_delay_ns))
""")


@pytest.mark.skipif(not HAVE_COMPILER, reason="no C compiler on PATH")
def test_two_processes_build_one_cache_directory(tmp_path):
    cache = tmp_path / "cache"
    cache.mkdir()
    go = tmp_path / "go"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    procs = [subprocess.Popen(
        [sys.executable, "-c", CONCURRENT_BUILD, str(cache), str(go),
         str(Path(__file__).parent)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
        for _ in range(2)]
    time.sleep(0.5)             # both interpreters up before the race
    go.touch()
    outputs = [proc.communicate(timeout=120) for proc in procs]
    for proc, (out, err) in zip(procs, outputs):
        assert proc.returncode == 0, err
        assert out.strip() == repr(tiny_run().mean_delay_ns)
    assert [p.name for p in cache.iterdir()] == [kernel.library_name()]


posix_users = pytest.mark.skipif(not hasattr(os, "getuid"),
                                 reason="needs POSIX user ids")


@pytest.fixture
def read_only_package(monkeypatch, tmp_path):
    """The package's ``__pycache__`` reads as unwritable, and the
    system temp directory is ``tmp_path``."""
    package_cache = kernel.SOURCE.parent / "__pycache__"
    access = os.access
    monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
        Path(path) != package_cache and access(path, mode, **kwargs)))
    monkeypatch.setattr(tempfile, "gettempdir", lambda: str(tmp_path))


@posix_users
def test_read_only_package_caches_in_a_per_user_temp_directory(
        read_only_package, tmp_path, fresh_loader):
    fallback = tmp_path / f"repro-fastsim-{os.getuid()}"
    assert kernel.cache_dir() == fallback
    assert fallback.stat().st_mode & 0o777 == 0o700
    if HAVE_COMPILER:
        assert kernel.load_kernel() is not None
        assert ([p.name for p in fallback.iterdir()]
                == [kernel.library_name()])


@posix_users
def test_cache_directory_of_another_user_is_refused(
        read_only_package, tmp_path, fresh_loader, monkeypatch):
    # The directory is created by this process, so it belongs to the
    # real user, not to the one the loader now runs as.
    other = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: other)
    with pytest.warns(RuntimeWarning, match="belongs to another user"):
        assert kernel.load_kernel() is None
    assert not list((tmp_path / f"repro-fastsim-{other}").iterdir())
    assert not FastNetwork(TINY).compiled
