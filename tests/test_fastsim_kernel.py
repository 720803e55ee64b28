"""The compiled cycle step against the reference engine, and its loader.

``FastNetwork`` steps its arrays with the compiled kernel
(``repro/noc/fastsim/kernel.c``), its only cycle step.  The kernel's
oracle is the reference engine (:class:`repro.noc.Network`), an
independent model of the same routers.  The lockstep tests below step
a fast engine of ``k`` replicas beside ``k`` reference networks on
random small configurations and compare, after every cycle and for
each live replica: buffer occupancy per VC, activity counters (as
deltas over every attributed step, and the engine's totals over all
replicas), the snapshot (time, next node cycle, ejected flits, source
backlog), the measured packets created and delivered, flits in flight,
and the step's deliveries (destination, length, measured flag, created
and ejected cycle and ns, hops).  Deliveries compare as a multiset:
the fast engine logs one cycle's deliveries in line order, the
reference in router order.  The fast engine must also agree with
itself: ``busy_bits`` holds the lines its ``fifo_len`` shows busy,
each calendar slot holds its entries grouped by replica in ascending
order (the step walks each replica's run of a slot with a cursor),
and a retired replica reads empty.

The cases: packet records of random lengths queued directly
(``enqueue_packet``), with per-replica activity attribution toggled
once; bound sources with mixed arrival laws per replica (compiled
uniform, a permutation table and rate steps, and hotspot drawn in
Python), heterogeneous node clocks in some examples (every law drawn
in Python), a replica retuned and one retired mid-run, and a packet
store that grows from one entry, each generator ending in the same
state on both sides; ``advance`` through random segments (a random
stop, a stop time on replica 0's clock, and ``until_done`` with
retirements) against the reference networks stepped one cycle at a
time under the same stop rules (:func:`advance_by_cycles`), which
must return the same cycle; the paper baseline's 8-VC routers; rate
steps at every third node cycle; and whole driven batches (the paper
baseline, whose light replicas retire while a saturated one runs, and
a replayed trace whose bursts fill the packet store), compared at
every ``advance`` return.  The int32 state limits raise rather than
wrap.

The loader tests cover a failed build (it raises quoting the compiler
and leaves no half-built library, and the reference engine still
runs), two processes building into one empty cache directory at once,
and the cache directory: a per-user temp directory when the package is
read-only, refused when another user owns it.
"""

from __future__ import annotations

import copy as copying
import math
import os
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

from repro.noc import (PAPER_BASELINE, Network, NocConfig, SimBudget,
                       Simulation, run_fixed_point, topology)
from repro.noc.clock import NetworkClock
from repro.noc.fastsim import (BatchPoint, FastNetwork, batch, engine,
                               kernel, run_fixed_batch)
from repro.noc.flit import Packet
from repro.noc.network import advance_by_cycles
from repro.noc.stats import ActivityCounters
from repro.traffic import (InjectionProcess, PatternTraffic,
                           PiecewiseRateTraffic, make_pattern)
from repro.workload import InjectionTrace, TraceTraffic, make_workload

SRC = Path(kernel.__file__).resolve().parents[3]

TINY = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                 packet_length=3)
BUDGET = SimBudget(100, 300, 800)

LOCKSTEP_SETTINGS = settings(max_examples=40, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])


@pytest.fixture
def fresh_loader():
    """Forget the loaded kernel before and after the test."""
    kernel.load_kernel.cache_clear()
    yield
    kernel.load_kernel.cache_clear()


def tiny_run(seed: int = 4, engine: str = "fast"):
    traffic = PatternTraffic(make_pattern("uniform", TINY.make_mesh()),
                             0.3)
    return run_fixed_point(TINY, traffic, TINY.f_max_hz, BUDGET, seed,
                           engine=engine)


def test_kernel_loads_when_a_compiler_is_present():
    assert isinstance(kernel.load_kernel(), kernel.Kernel)


def test_unbound_snapshots_agree():
    """Without bound sources both engines answer a snapshot: nothing
    stepped, node cycle 0, nothing ejected or queued."""
    config = NocConfig(width=3, height=3)
    assert (Network(config).snapshot(0) == FastNetwork(config).snapshot(0)
            == (0.0, 0, 0, 0))


class ReferenceReplicas:
    """``copies`` reference networks stepped as the replicas of one
    engine: what :func:`advance_by_cycles` reads (``step_cycle``,
    ``time_of``, ``measured_counts``) and what the lockstep compares.

    An unbound network takes each step's time as an argument, so every
    step moves each replica's clock one period on through ``retune``,
    as a bound network's own step does.  A retired replica stops
    stepping, but its clock keeps ticking (replica 0's paces the stop
    rules) and it reports the measured counts it retired with.
    """

    def __init__(self, config: NocConfig, copies: int) -> None:
        self.nets = [Network(config) for _ in range(copies)]
        self.periods = [0.0] * copies
        #: replica -> its measured (created, delivered) at retirement
        self.retired: dict[int, tuple[int, int]] = {}

    def bind_sources(self, injections, periods_ns) -> None:
        for net, injection, period in zip(self.nets, injections,
                                          periods_ns):
            net.bind_sources([injection], [period])
        self.periods = list(periods_ns)

    def retune(self, copy: int, period_ns: float, time_ns: float) -> None:
        self.nets[copy].retune(0, period_ns, time_ns)
        self.periods[copy] = period_ns

    def retire(self, copy: int) -> None:
        self.retired[copy] = self.counts_of(copy)

    def step_cycle(self, cycle: int) -> None:
        for copy, net in enumerate(self.nets):
            began = net.time_of(0)
            if copy not in self.retired:
                net.step_cycle(cycle, began)
            net.retune(0, self.periods[copy], began + self.periods[copy])

    def time_of(self, copy: int) -> float:
        return self.nets[copy].time_of(0)

    def counts_of(self, copy: int) -> tuple[int, int]:
        if copy in self.retired:
            return self.retired[copy]
        stats = self.nets[copy].stats
        return stats.measured_created, stats.measured_delivered

    def measured_counts(self) -> tuple[list[int], list[int]]:
        created, delivered = zip(*map(self.counts_of,
                                      range(len(self.nets))))
        return list(created), list(delivered)

    def snapshot(self, copy: int) -> tuple[float, int, int, int]:
        return self.nets[copy].snapshot(0)


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
    ``l // 64``: what the step's ``busy_bits`` must hold."""
    lines = np.flatnonzero(net.fifo_len)
    words = np.zeros(net.busy_bits.size, dtype=np.uint64)
    np.bitwise_or.at(words, lines // 64,
                     np.uint64(1) << (lines % 64).astype(np.uint64))
    return words


def assert_consistent(net: FastNetwork, when: str) -> None:
    """The engine agrees with itself: its ``busy_bits`` hold the lines
    its ``fifo_len`` shows busy, and its calendar slots are grouped by
    replica."""
    np.testing.assert_array_equal(net.busy_bits, busy_bits(net),
                                  err_msg=f"busy bits {when}")
    assert_slots_grouped(net)


def injections(config: NocConfig, points: list[BatchPoint]
               ) -> list[InjectionProcess]:
    """An injection process per point, on its own seeded generator."""
    return [InjectionProcess(p.traffic, config.packet_length,
                             np.random.default_rng(p.seed))
            for p in points]


def periods(config: NocConfig, points: list[BatchPoint]) -> list[float]:
    """Each point's network clock period."""
    return [NetworkClock(p.freq_hz, config.f_min_hz,
                         config.f_max_hz).period_ns for p in points]


class Lockstep:
    """A fast engine and its reference replicas, compared whenever both
    have stepped to the same cycle (:meth:`check`)."""

    def __init__(self, fast: FastNetwork) -> None:
        self.fast = fast
        self.ref = ReferenceReplicas(fast.config, fast.copies)
        self.logged = 0                         # fast deliveries seen
        self.delivered = [0] * fast.copies      # reference ones, each
        self.activity = self._activity()

    @classmethod
    def bound(cls, config: NocConfig, points: list[BatchPoint]
              ) -> tuple["Lockstep", list, list]:
        """A lockstep of a fast engine with a one-entry packet store,
        both sides drawing from their own generators seeded by the
        points; returns it and each side's injection processes."""
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "_PACKET_STORE", 1)
            lock = cls(FastNetwork(config, len(points)))
        sides = injections(config, points), injections(config, points)
        lock.fast.bind_sources(sides[0], periods(config, points))
        lock.ref.bind_sources(sides[1], periods(config, points))
        return lock, *sides

    def _activity(self) -> tuple:
        fast, nets = self.fast, self.ref.nets
        return (fast.aggregate_activity(),
                [fast.activity_of(c) for c in range(fast.copies)],
                [net.aggregate_activity() for net in nets])

    def set_measuring(self, measuring: bool) -> None:
        self.fast.measuring = measuring
        for net in self.ref.nets:
            net.measuring = measuring

    def enqueue(self, node: int, dst: int, length: int, cycle: int,
                measured: bool) -> None:
        """Queue one packet at global node ``node`` on both sides."""
        copy, src = divmod(node, self.fast.config.num_nodes)
        self.fast.enqueue_packet(node, dst, length, cycle, float(cycle),
                                 measured)
        self.ref.nets[copy].enqueue_packet(Packet(
            src, dst, length, created_cycle=cycle,
            created_ns=float(cycle), measured=measured))

    def retire(self, copy: int) -> None:
        self.fast.freeze_copy(copy)
        self.ref.retire(copy)
        assert_consistent(self.fast, f"after retiring replica {copy}")

    def step(self, cycle: int) -> None:
        self.fast.step_cycle(cycle)
        self.ref.step_cycle(cycle)
        self.check(cycle + 1)

    def check(self, cycle: int) -> None:
        """Both sides as of the start of ``cycle`` are equal."""
        fast, ref = self.fast, self.ref
        local = fast.config.num_nodes
        attributed = fast.attribute_activity or fast.copies == 1
        total, by_copy, theirs = self._activity()
        assert (total - self.activity[0]
                == sum((now - then for now, then
                        in zip(theirs, self.activity[2])),
                       ActivityCounters())), cycle
        occupancy = fast.occupancy_matrix()
        for c, net in enumerate(ref.nets):
            rows = occupancy[c * local:(c + 1) * local]
            moved = by_copy[c] - self.activity[1][c]
            if c in ref.retired:
                assert not rows.any(), (cycle, c)
                assert fast.snapshot(c)[3] == 0, (cycle, c)
                assert moved == ActivityCounters(), (cycle, c)
                continue
            np.testing.assert_array_equal(
                rows, net.occupancy_matrix(),
                err_msg=f"replica {c}'s buffers before cycle {cycle}")
            assert fast.snapshot(c) == ref.snapshot(c), (cycle, c)
            assert moved == (theirs[c] - self.activity[2][c]
                             if attributed else ActivityCounters()), \
                (cycle, c)
        self.activity = total, by_copy, theirs
        assert fast.measured_counts() == ref.measured_counts(), cycle
        assert fast.in_flight_flits() == sum(
            net.in_flight_flits() for c, net in enumerate(ref.nets)
            if c not in ref.retired), cycle
        assert sorted(self._fast_deliveries()) \
            == sorted(self._reference_deliveries()), cycle
        assert_consistent(fast, f"before cycle {cycle}")

    def _fast_deliveries(self) -> list[tuple]:
        fast = self.fast
        last = fast.counts()[1]
        lids = fast.delivery_log[self.logged:last].tolist()
        self.logged = last
        return [(int(fast.pkt_copy[i]), int(fast.pkt_dst[i]),
                 int(fast.pkt_len[i]), bool(fast.pkt_measured[i]),
                 int(fast.pkt_created_cycle[i]),
                 float(fast.pkt_created_ns[i]),
                 int(fast.pkt_ejected_cycle[i]),
                 float(fast.pkt_ejected_ns[i]), int(fast.pkt_hops[i]))
                for i in lids]

    def _reference_deliveries(self) -> list[tuple]:
        records = []
        for c, net in enumerate(self.ref.nets):
            records += [(c, p.dst, p.length, p.measured, p.created_cycle,
                         p.created_ns, p.ejected_cycle, p.ejected_ns,
                         p.hops) for p in net.delivered[self.delivered[c]:]]
            self.delivered[c] = len(net.delivered)
        return records


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


def record_lockstep(config: NocConfig, copies: int) -> Lockstep:
    """A lockstep fed packet records, each replica's clock ticking its
    own whole period (so records carry exact times)."""
    lock = Lockstep(FastNetwork(config, copies))
    for copy in range(copies):
        lock.fast.retune(copy, 1.0 + copy, 0.0)
        lock.ref.retune(copy, 1.0 + copy, 0.0)
    return lock


def feeder(lock: Lockstep, seed: int, rate: float, mixed: bool):
    """``feed(cycle)``: queue random packets at each live replica's
    nodes, measured at random when ``mixed``, else all measured."""
    config, copies = lock.fast.config, lock.fast.copies
    local = config.num_nodes
    rng = np.random.default_rng(seed)

    def feed(cycle: int) -> None:
        for node in np.flatnonzero(rng.random(local * copies)
                                   < rate).tolist():
            src = node % local
            dst = (src + 1 + int(rng.integers(local - 1))) % local
            length = int(rng.integers(1, config.packet_length + 1))
            measured = bool(rng.integers(2)) if mixed else True
            if node // local not in lock.ref.retired:
                lock.enqueue(node, dst, length, cycle, measured)
    return feed


@LOCKSTEP_SETTINGS
@given(scenario=scenarios())
def test_kernel_matches_reference_every_cycle(scenario):
    config, copies = scenario["config"], scenario["copies"]
    lock = record_lockstep(config, copies)
    feed = feeder(lock, scenario["seed"], scenario["rate"], mixed=False)
    for cycle in range(scenario["cycles"]):
        if cycle == scenario["toggle_at"]:
            lock.fast.attribute_activity = not lock.fast.attribute_activity
        if copies > 1 and cycle == scenario["freeze_at"]:
            lock.retire(scenario["frozen"])
        feed(cycle)
        lock.step(cycle)


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


def assert_same_generators(ours: list, theirs: list) -> None:
    for mine, other in zip(ours, theirs):
        assert mine.rng.bit_generator.state == other.rng.bit_generator.state


def run_bound_lockstep(config: NocConfig, points: list[BatchPoint],
                       cycles: int, measure_from: int = 0,
                       measure_to: int = -1, freeze_at: int = -1,
                       frozen: int = 0, retune_at: int = -1,
                       retuned: int = 0,
                       retune_hz: float = 1e9) -> FastNetwork:
    """Step a fast engine and reference networks drawing their own
    arrivals from the same seeds; compare them after every cycle.  At
    ``retune_at`` replica ``retuned`` moves to ``retune_hz`` from the
    end of that cycle on, as a DVFS control action does."""
    lock, ours, theirs = Lockstep.bound(config, points)
    sides = (lock.fast, lock.ref)
    for cycle in range(cycles):
        if cycle == measure_from:
            lock.set_measuring(True)
        if cycle == measure_to:
            lock.set_measuring(False)
        if len(points) > 1 and cycle == freeze_at:
            lock.retire(frozen)
        began = [side.time_of(retuned) for side in sides]
        lock.step(cycle)
        if cycle == retune_at:
            period = 1e9 / retune_hz
            for side, start in zip(sides, began):
                side.retune(retuned, period, start + period)
    assert_same_generators(ours, theirs)
    return lock.fast


@LOCKSTEP_SETTINGS
@given(scenario=bound_scenarios())
def test_kernel_draws_match_reference_every_cycle(scenario):
    net = run_bound_lockstep(**scenario)
    assert net.pkt_dst.size > 1            # the store grew mid-run


def test_rate_steps_take_effect_at_their_node_cycle():
    """Rate steps every third node cycle, between off and twice the
    rate: each step's first node cycle draws at the step's factor (the
    random scenarios cross a step only sometimes)."""
    uniform = PatternTraffic(make_pattern("uniform", TINY.make_mesh()), 0.3)
    steps = [(cycle, 2.0 * (cycle // 3 % 2)) for cycle in range(0, 600, 3)]
    run_bound_lockstep(TINY, [
        BatchPoint(PiecewiseRateTraffic(uniform, steps), freq, seed)
        for seed, freq in enumerate((TINY.f_min_hz, TINY.f_max_hz))], 150)


def completed(net) -> set[int]:
    """The replicas whose measured packets have all been delivered."""
    created, delivered = net.measured_counts()
    return {copy for copy, (c, d) in enumerate(zip(created, delivered))
            if d >= c}


def advance_in_segments(lock: Lockstep, data, cycles: int,
                        measure_from: int = 0, measure_to: int = -1,
                        feed=None) -> None:
    """Advance the fast engine through random segments toward
    ``cycles`` and the reference networks one cycle at a time under
    the same stop rules; compare them at every return.

    Segments end at ``measure_from`` and ``measure_to``, where
    ``measuring`` toggles, and ``feed(cycle)`` may queue packets before
    each.  A segment whose stop time has already passed runs one cycle
    alone and retunes replica 0, as a control cycle does; after an
    ``until_done`` segment every replica that completed in it retires.
    """
    fast, ref = lock.fast, lock.ref
    config = fast.config
    cycle = 0
    while cycle < cycles:
        lock.set_measuring(measure_from <= cycle < measure_to)
        if feed is not None:
            feed(cycle)
        stop = min([cycle + data.draw(st.integers(1, 50), label="length")]
                   + [b for b in (measure_from, measure_to, cycles)
                      if b > cycle])
        stop_ns = data.draw(st.one_of(
            st.just(math.inf),
            st.floats(0.0, 40.0).map(fast.time_of(0).__add__)),
            label="stop_ns")
        until_done = data.draw(st.booleans(), label="until_done")
        was_done = completed(fast)
        reached = fast.advance(cycle, stop, stop_ns, until_done)
        assert advance_by_cycles(ref, cycle, stop, stop_ns,
                                 until_done) == reached
        lock.check(reached)
        if reached == cycle:
            period = 1e9 / data.draw(st.floats(config.f_min_hz,
                                               config.f_max_hz),
                                     label="retune_hz")
            began = fast.time_of(0), ref.time_of(0)
            assert fast.advance(cycle, cycle + 1) == cycle + 1
            assert advance_by_cycles(ref, cycle, cycle + 1) == cycle + 1
            fast.retune(0, period, began[0] + period)
            ref.retune(0, period, began[1] + period)
            reached = cycle + 1
            lock.check(reached)
        if until_done and fast.copies > 1:
            for copy in completed(fast) - was_done:
                lock.retire(copy)
        cycle = reached


@LOCKSTEP_SETTINGS
@given(scenario=scenarios(), data=st.data())
def test_advance_matches_reference_with_enqueued_packets(scenario, data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_PACKET_STORE", 1)
        lock = record_lockstep(scenario["config"], scenario["copies"])
    advance_in_segments(lock, data, 200, feed=feeder(
        lock, scenario["seed"], scenario["rate"], mixed=True))


@LOCKSTEP_SETTINGS
@given(scenario=st.one_of(bound_scenarios(),
                          bound_scenarios(python_draws=False)),
       data=st.data())
def test_advance_matches_reference_with_bound_sources(scenario, data):
    lock, ours, theirs = Lockstep.bound(scenario["config"],
                                        scenario["points"])
    advance_in_segments(lock, data, 240, scenario["measure_from"],
                        scenario["measure_to"])
    assert lock.fast.pkt_dst.size > 1            # the store grew
    assert_same_generators(ours, theirs)


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


def test_paper_baseline_lockstep_with_a_retirement():
    net = run_bound_lockstep(PAPER_BASELINE, paper_points(), 240,
                             measure_from=20, measure_to=200,
                             freeze_at=120, frozen=3)
    assert net.counters[kernel.COUNTERS.index("logged_deliveries")] > 0


class Shadowed(FastNetwork):
    """A fast engine run beside reference replicas by the simulation
    loop (:func:`repro.noc.simulator.drive`): the replicas draw from
    copies of its injection processes, retune and retire with it, and
    are compared with it at every ``advance`` return."""

    def __init__(self, config: NocConfig, copies: int = 1) -> None:
        super().__init__(config, copies)
        self.lock = Lockstep(self)
        self.returns: list[int] = []
        self.retired_at: list[int] = []

    def bind_sources(self, injections, periods_ns) -> None:
        self.lock.ref.bind_sources(copying.deepcopy(injections), periods_ns)
        super().bind_sources(injections, periods_ns)

    def retune(self, copy: int, period_ns: float, time_ns: float) -> None:
        super().retune(copy, period_ns, time_ns)
        self.lock.ref.retune(copy, period_ns, time_ns)

    def freeze_copy(self, copy: int) -> None:
        self.retired_at.append(self.returns[-1])
        super().freeze_copy(copy)
        self.lock.ref.retire(copy)
        assert_consistent(self, f"after retiring replica {copy}")

    def advance(self, cycle: int, stop: int, stop_ns: float = math.inf,
                until_done: bool = False) -> int:
        self.lock.set_measuring(self.measuring)
        reached = super().advance(cycle, stop, stop_ns, until_done)
        assert advance_by_cycles(self.lock.ref, cycle, stop, stop_ns,
                                 until_done) == reached
        self.lock.check(reached)
        self.returns.append(reached)
        return reached


@pytest.fixture
def shadowed(monkeypatch) -> list[Shadowed]:
    """Run every batch engine beside reference replicas; lists the
    engines built."""
    built = []

    def make(config, copies=1):
        built.append(Shadowed(config, copies))
        return built[-1]

    monkeypatch.setattr(batch, "FastNetwork", make)
    return built


def test_paper_baseline_batch_matches_the_reference(shadowed):
    """A driven paper-baseline batch whose light replicas retire while
    the saturated one still runs."""
    results = run_fixed_batch(PAPER_BASELINE, paper_points(),
                              SimBudget(100, 200, 400))
    net, = shadowed
    assert net.retired_at and min(net.retired_at) < net.returns[-1]
    assert not all(r.complete for r in results)


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


def test_trace_bursts_leave_the_compiled_draws_their_headroom(
        monkeypatch, shadowed):
    """A replayed trace draws all of a node cycle's recorded events in
    Python, before the compiled replicas draw theirs: a burst that
    fills the packet store must still leave those draws room.  The
    first cycle's burst fills a one-entry store as far as the reserve
    for one cycle's draws grows it, beside a replica that draws at
    nearly every node; no step leaves more records than the store
    holds, and the batch matches the reference replicas."""
    monkeypatch.setattr(engine, "_PACKET_STORE", 1)
    mesh = TINY.make_mesh()
    dense = BatchPoint(PatternTraffic(make_pattern("uniform", mesh),
                                      0.9 * TINY.packet_length),
                       TINY.f_max_hz, 2)
    net = FastNetwork(TINY, 2)
    net.bind_sources(injections(TINY, [dense, dense]),
                     periods(TINY, [dense, dense]))
    net.step_cycle(0)                  # the store grows to its reserve
    points = [BatchPoint(trace_with_bursts(TINY, 1200, net.pkt_dst.size,
                                           3), TINY.f_max_hz, 1), dense]

    stored = kernel.COUNTERS.index("stored_packets")
    step = FastNetwork.step_cycle

    def step_within_store(self, cycle):
        step(self, cycle)
        assert self.counters[stored] <= self.pkt_dst.size

    monkeypatch.setattr(FastNetwork, "step_cycle", step_within_store)
    run_fixed_batch(TINY, points, BUDGET)
    assert shadowed and shadowed[0].returns


def test_cycles_past_the_int32_limit_raise():
    """``ready`` holds cycle + latency as int32: the last cycles before
    the limit step like any other, the next one raises."""
    last = engine._INT32_MAX - max(TINY.route_latency, TINY.va_latency)
    net = FastNetwork(TINY)
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


def test_packet_ids_past_the_store_limit_raise(monkeypatch):
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


def test_failed_build_raises_and_leaves_no_library(tmp_path,
                                                   fresh_loader):
    """A failed build raises quoting the compiler, for the loader and
    for every fast engine, and leaves no half-built library; the
    reference engine needs no kernel."""
    failing = (sys.executable, "-c",
               "import sys; sys.stderr.write('kernel.c:1:1: error: "
               "planted failure\\n'); sys.exit(1)")
    expected = tiny_run(engine="reference")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "cache_dir", lambda: tmp_path)
        patch.setattr(kernel, "COMPILER", failing)
        for build in (kernel.load_kernel, lambda: FastNetwork(TINY),
                      tiny_run):
            with pytest.raises(kernel.KernelBuildError,
                               match="planted failure") as excinfo:
                build()
            assert "exited with status 1" in str(excinfo.value)
            assert not list(tmp_path.iterdir())  # no half-built library
        assert tiny_run(engine="reference") == expected

    kernel.load_kernel.cache_clear()
    assert isinstance(kernel.load_kernel(), kernel.Kernel)


CONCURRENT_BUILD = textwrap.dedent("""
    import sys, time
    from pathlib import Path
    from repro.noc.fastsim import kernel
    cache, go = Path(sys.argv[1]), Path(sys.argv[2])
    kernel.cache_dir = lambda: cache
    deadline = time.monotonic() + 60
    while not go.exists() and time.monotonic() < deadline:
        time.sleep(0.005)
    assert isinstance(kernel.load_kernel(), kernel.Kernel)
    sys.path.insert(0, sys.argv[3])
    from test_fastsim_kernel import tiny_run
    print(repr(tiny_run().mean_delay_ns))
""")


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
    assert isinstance(kernel.load_kernel(), kernel.Kernel)
    assert [p.name for p in fallback.iterdir()] == [kernel.library_name()]


@posix_users
def test_cache_directory_of_another_user_is_refused(
        read_only_package, tmp_path, fresh_loader, monkeypatch):
    # The directory is created by this process, so it belongs to the
    # real user, not to the one the loader now runs as.
    other = os.getuid() + 1
    monkeypatch.setattr(os, "getuid", lambda: other)
    for build in (kernel.load_kernel, lambda: FastNetwork(TINY)):
        with pytest.raises(kernel.KernelBuildError,
                           match="belongs to another user"):
            build()
    assert not list((tmp_path / f"repro-fastsim-{other}").iterdir())
