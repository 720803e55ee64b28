"""Property-based engine invariants, parametrized over seeds/engines.

Hypothesis drives both engines directly (random seeds, random offered
loads) and checks, *after every cycle*:

* **flit conservation** — every generated flit is in a source queue,
  buffered in a router, traversing a link, or already ejected;
* **buffer sanity** — per-VC occupancy is non-negative and never
  exceeds the configured depth (the credit protocol at work);
* **per-source FIFO ordering** — each source injects its packets in
  creation order, and with a single virtual channel (where wormhole
  ordering is total per path) same-pair packets are also *delivered*
  in creation order.

These invariants hold identically for the reference and the fast
engine; the differential suite (``test_engine_equivalence``) checks
the engines against each other, this one checks each against physics.
The reference engine is fed ``Packet`` objects and read from its
statistics and packets; the fast engine is fed packet records, whose
ids follow creation order, and read from its ``counters``, the packet
each source is injecting (``cur_lid``) and its delivery log.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.noc import FastNetwork, NocConfig, Packet, make_engine
from repro.noc.fastsim.kernel import COUNTERS
from repro.traffic import PatternTraffic, make_pattern
from repro.traffic.injection import InjectionProcess

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

CONFIG = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                   packet_length=3)

#: One VC makes wormhole routing totally ordered along a path, so
#: same-pair packets cannot overtake: delivery order is provable.
SINGLE_VC = NocConfig(width=3, height=3, num_vcs=1, vc_buf_depth=2,
                      packet_length=3)

ENGINES = ("reference", "fast")


def drive(engine_name, config, seed, rate, cycles,
          check_every_cycle=None):
    """Run an engine directly on Bernoulli traffic; return it and the
    ``(src, dst)`` of every packet, in creation order (for the
    reference engine, the ``Packet`` objects themselves).

    ``check_every_cycle`` is called as ``(net, cycle)`` after every
    cycle — the per-cycle invariant hook.
    """
    net = make_engine(engine_name, config)
    mesh = config.make_mesh()
    injection = InjectionProcess(
        PatternTraffic(make_pattern("uniform", mesh), rate),
        config.packet_length, np.random.default_rng(seed))
    packets = []
    for cycle in range(cycles):
        for _, src, dst in injection.arrivals(1):
            if isinstance(net, FastNetwork):
                packets.append((src, dst))
                net.enqueue_packet(src, dst, config.packet_length, cycle,
                                   float(cycle), True)
                continue
            packet = Packet(src, dst, config.packet_length,
                            created_cycle=cycle, created_ns=float(cycle),
                            measured=True)
            packets.append(packet)
            net.enqueue_packet(packet)
        if isinstance(net, FastNetwork):
            net.step_cycle(cycle)
        else:
            net.step_cycle(cycle, float(cycle))
        if check_every_cycle is not None:
            check_every_cycle(net, cycle)
    return net, packets


def flit_counts(net) -> tuple[int, int, int]:
    """Flits generated, injected and ejected so far."""
    if isinstance(net, FastNetwork):
        # Every packet of these runs is ``packet_length`` flits long.
        created = net.counts()[0] * net.config.packet_length
        return (created,
                *(int(net.counters[COUNTERS.index(name)])
                  for name in ("injected_flits", "ejected_flits")))
    stats = net.stats
    return stats.generated_flits, stats.injected_flits, stats.ejected_flits


@pytest.mark.parametrize("engine", ENGINES)
class TestFlitConservation:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), rate=st.floats(0.02, 0.6))
    def test_injected_equals_delivered_plus_in_flight(self, engine, seed,
                                                      rate):
        def conserved(net, cycle):
            generated, injected, ejected = flit_counts(net)
            assert generated == (
                ejected + net.in_flight_flits()
                + net.source_backlog_flits()), f"leak at cycle {cycle}"
            assert injected == ejected + net.in_flight_flits()

        drive(engine, CONFIG, seed, rate, cycles=300,
              check_every_cycle=conserved)


@pytest.mark.parametrize("engine", ENGINES)
class TestBufferOccupancy:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), rate=st.floats(0.05, 0.6))
    def test_occupancy_bounded_after_every_cycle(self, engine, seed,
                                                 rate):
        depth = CONFIG.vc_buf_depth

        def bounded(net, cycle):
            occupancy = net.occupancy_matrix()
            assert occupancy.shape == (CONFIG.num_nodes, 5,
                                       CONFIG.num_vcs)
            assert (occupancy >= 0).all(), f"negative at cycle {cycle}"
            assert (occupancy <= depth).all(), f"overflow at cycle {cycle}"

        net, _ = drive(engine, CONFIG, seed, rate, cycles=250,
                       check_every_cycle=bounded)
        assert net.in_flight_flits() >= 0


@pytest.mark.parametrize("engine", ENGINES)
class TestFifoOrdering:
    @SETTINGS
    @given(seed=st.integers(0, 10_000), rate=st.floats(0.05, 0.5))
    def test_sources_inject_in_creation_order(self, engine, seed, rate):
        """The source queue is FIFO: per source, injection cycles are
        strictly increasing in creation order.  On the fast engine the
        packets a source is injecting, cycle after cycle, are its
        packets in creation order, none skipped."""
        if engine == "fast":
            injecting: dict[int, list[int]] = {}

            def watch(net, cycle):
                for node, lid in enumerate(net.cur_lid.tolist()):
                    seen = injecting.setdefault(node, [])
                    if lid >= 0 and (not seen or seen[-1] != lid):
                        seen.append(lid)

            _, packets = drive(engine, CONFIG, seed, rate, cycles=300,
                               check_every_cycle=watch)
            for node, seen in injecting.items():
                created = [lid for lid, (src, _) in enumerate(packets)
                           if src == node]
                assert seen == created[:len(seen)], (
                    f"source {node} reordered its queue")
            return
        _, packets = drive(engine, CONFIG, seed, rate, cycles=300)
        last_injection: dict[int, int] = {}
        for packet in packets:
            if packet.injected_cycle < 0:
                continue          # still queued when the run stopped
            previous = last_injection.get(packet.src)
            if previous is not None:
                assert packet.injected_cycle > previous, (
                    f"source {packet.src} reordered its queue")
            last_injection[packet.src] = packet.injected_cycle

    @SETTINGS
    @given(seed=st.integers(0, 10_000), rate=st.floats(0.05, 0.4))
    def test_single_vc_delivery_is_fifo_per_pair(self, engine, seed,
                                                 rate):
        """With one VC, same-(src, dst) packets cannot overtake."""
        net, packets = drive(engine, SINGLE_VC, seed, rate, cycles=300)
        if engine == "fast":
            log = net.delivery_log[:net.counts()[1]].tolist()
            delivered = [(lid, *packets[lid]) for lid in log]
        else:
            delivered = [(p.pid, p.src, p.dst) for p in net.delivered]
        assert delivered
        seen_pids: dict[tuple[int, int], int] = {}
        for pid, src, dst in delivered:
            key = (src, dst)
            previous = seen_pids.get(key)
            if previous is not None:
                assert pid > previous, (
                    f"pair {key} delivered out of order")
            seen_pids[key] = pid
