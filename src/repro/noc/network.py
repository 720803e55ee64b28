"""The assembled NoC: routers wired in a mesh, sources, event calendar.

The ``Network`` owns all structural state (routers, links, sources) and
the two event calendars (in-flight flits on links, in-flight credits).
It advances one network clock cycle at a time under the direction of
the simulation driver (:func:`repro.noc.simulator.drive`), as a
one-replica engine: once :meth:`Network.bind_sources` hands it an
injection process and a clock period, each step draws that cycle's
arrivals as ``Packet`` objects, timestamps by the network's own clock
and advances it.  Unbound, it takes packets through
:meth:`Network.enqueue_packet` and the time of each step as an
argument.  :func:`advance_by_cycles` is the driver's ``advance`` for an
engine that steps one cycle per call, this one included.
"""

from __future__ import annotations

import math

import numpy as np

from .clock import NodeSource
from .config import NocConfig
from .flit import Flit, Packet
from .router import Router
from .routing import get_routing_function
from .source import Source
from .stats import ActivityCounters, StatsCollector
from .topology import EAST, NORTH, OPPOSITE, SOUTH, WEST

_DIRECTIONS = (EAST, WEST, NORTH, SOUTH)


def completed_replicas(net) -> int:
    """How many of ``net``'s replicas have all their measured packets
    delivered."""
    created, delivered = net.measured_counts()
    return sum(d >= c for c, d in zip(created, delivered))


def advance_by_cycles(net, cycle: int, stop: int,
                      stop_ns: float = math.inf,
                      until_done: bool = False) -> int:
    """:meth:`repro.noc.Engine.advance` through ``net.step_cycle``, one
    cycle per call: step from ``cycle`` toward ``stop`` and return the
    next cycle.  Before each cycle, stop if replica 0's time is at or
    past ``stop_ns``; with ``until_done``, stop after any cycle that
    leaves more replicas complete (:func:`completed_replicas`) than
    there were at the call."""
    done = completed_replicas(net) if until_done else 0
    while cycle < stop and net.time_of(0) < stop_ns:
        net.step_cycle(cycle)
        cycle += 1
        if until_done and completed_replicas(net) > done:
            break
    return cycle


class Network:
    """A mesh of VC routers plus injection sources and link pipelines."""

    def __init__(self, config: NocConfig) -> None:
        self.config = config
        self.mesh = config.make_mesh()
        self.stats = StatsCollector()
        routing = get_routing_function(config.routing)

        self.routers = [Router(node, config, self.mesh, routing)
                        for node in range(self.mesh.num_nodes)]
        self.sources = [Source(node, self.routers[node], config.num_vcs,
                               config.vc_buf_depth)
                        for node in range(self.mesh.num_nodes)]
        for router in self.routers:
            router.net = self
            for port in _DIRECTIONS:
                nbr = self.mesh.neighbor(router.node, port)
                if nbr is not None:
                    router.out_links[port] = (self.routers[nbr],
                                              OPPOSITE[port])
            # in_links derive from the neighbours' out_links below.
        for router in self.routers:
            for port in _DIRECTIONS:
                link = router.out_links[port]
                if link is not None:
                    nbr_router, nbr_port = link
                    nbr_router.in_links[nbr_port] = (router, port)

        # Event calendars: cycle -> list of pending deliveries.
        self._flit_events: dict[int, list] = {}
        self._credit_events: dict[int, list] = {}
        # Ordered working sets (dicts as ordered sets).
        self._active_routers: dict[Router, None] = {}
        self._active_sources: dict[Source, None] = {}
        #: the time of the current step, which timestamps deliveries
        self.current_time_ns = 0.0
        #: packets delivered this run, in delivery order
        self.delivered: list[Packet] = []

        # --- the driver interface: one replica, its clock and source --
        self.copies = 1
        #: tags new packets as measured (bound sources)
        self.measuring = False
        #: per-replica activity attribution, which one replica needs not
        self.attribute_activity = False
        self._source: NodeSource | None = None
        # Python floats: read and advanced once per cycle.
        self._time_ns = 0.0
        self._period_ns = 0.0

    # --- scheduling hooks used by routers -------------------------------
    def mark_active(self, router: Router) -> None:
        if router not in self._active_routers:
            self._active_routers[router] = None

    def schedule_flit(self, router: Router, port: int, vc_index: int,
                      flit: Flit, cycle: int) -> None:
        self._flit_events.setdefault(cycle, []).append(
            (router, port, vc_index, flit))

    def schedule_router_credit(self, router: Router, port: int,
                               vc_index: int, cycle: int) -> None:
        self._credit_events.setdefault(cycle, []).append(
            (router, port, vc_index))

    def schedule_source_credit(self, node: int, vc_index: int,
                               cycle: int) -> None:
        self._credit_events.setdefault(cycle, []).append(
            (self.sources[node], None, vc_index))

    def deliver_flit(self, flit: Flit, cycle: int) -> None:
        """A flit crossed the ejection port of its destination router."""
        self.stats.ejected_flits += 1
        if flit.is_tail:
            packet = flit.packet
            packet.ejected_cycle = cycle
            packet.ejected_ns = self.current_time_ns
            self.stats.on_packet_delivered(packet)
            self.delivered.append(packet)

    # --- packet entry -----------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        """Hand a freshly generated packet to its source queue."""
        self.stats.on_packet_generated(packet)
        source = self.sources[packet.src]
        source.enqueue(packet)
        if source not in self._active_sources:
            self._active_sources[source] = None

    def bind_sources(self, injections: list, periods_ns: list[float]
                     ) -> None:
        """Let the network draw its arrivals in its step.

        Its clock ticks with period ``periods_ns[0]`` from time 0, and
        each step draws from ``injections[0]`` the node cycles that
        clock completed (:class:`~repro.noc.clock.NodeSource`), as
        ``Packet`` objects tagged with :attr:`measuring`.
        """
        if self._source is not None or self.stats.generated_packets:
            raise ValueError("bind sources once, to a network without "
                             "packets")
        if len(injections) != 1 or len(periods_ns) != 1:
            raise ValueError("the reference network is one replica: "
                             "bind one injection process and period")
        config = self.config
        self._source = NodeSource(injections[0], config.f_node_hz,
                                  config.node_freqs_hz)
        self._period_ns = periods_ns[0]

    # --- cycle advance ------------------------------------------------------
    def step_cycle(self, cycle: int, time_ns: float | None = None) -> None:
        """Advance every component by one network clock cycle.

        With bound sources the network first draws the cycle's
        arrivals, timestamps by its own clock and advances it by one
        period; otherwise it timestamps deliveries at ``time_ns``.
        """
        source = self._source
        if source is not None:
            time_ns = self._time_ns
            length, measured = self.config.packet_length, self.measuring
            for src, dst, created_ns in source.draw(time_ns):
                self.enqueue_packet(Packet(src, dst, length,
                                           created_cycle=cycle,
                                           created_ns=created_ns,
                                           measured=measured))
            self._time_ns = time_ns + self._period_ns
        self.current_time_ns = time_ns

        credit_events = self._credit_events.pop(cycle, None)
        if credit_events:
            for target, port, vc_index in credit_events:
                if port is None:
                    target.return_credit(vc_index)
                else:
                    target.out_credits[port][vc_index] += 1

        flit_events = self._flit_events.pop(cycle, None)
        if flit_events:
            for router, port, vc_index, flit in flit_events:
                router.receive_flit(port, vc_index, flit)

        if self._active_sources:
            idle_sources = [s for s in self._active_sources
                            if not s.step(cycle)]
            for source in idle_sources:
                del self._active_sources[source]

        if self._active_routers:
            idle_routers = [r for r in self._active_routers
                            if not r.step(cycle)]
            for router in idle_routers:
                del self._active_routers[router]

    # --- the driver interface: per-replica clock, counts and records ----
    def advance(self, cycle: int, stop: int, stop_ns: float = math.inf,
                until_done: bool = False) -> int:
        """Step cycles from ``cycle`` toward ``stop`` and return the next
        one (:func:`advance_by_cycles`)."""
        return advance_by_cycles(self, cycle, stop, stop_ns, until_done)

    def retune(self, copy: int, period_ns: float, time_ns: float) -> None:
        """Set the clock's period and the time of the next step."""
        self._period_ns = period_ns
        self._time_ns = time_ns

    def time_of(self, copy: int) -> float:
        """The time of the next step."""
        return self._time_ns

    def snapshot(self, copy: int) -> tuple[float, int, int, int]:
        """Time, next reference node cycle (0 without bound sources),
        ejected flits and source backlog, as of now."""
        node_cycle = (0 if self._source is None
                      else self._source.bridge.next_node_cycle)
        return (self._time_ns, node_cycle, self.stats.ejected_flits,
                self.source_backlog_flits())

    def activity_of(self, copy: int) -> ActivityCounters:
        return self.aggregate_activity()

    def counts(self) -> tuple[int, int]:
        """Packets created and deliveries made so far."""
        return self.stats.generated_packets, len(self.delivered)

    def measured_counts(self) -> tuple[list[int], list[int]]:
        """Measured packets created and delivered so far."""
        stats = self.stats
        return [stats.measured_created], [stats.measured_delivered]

    def delivery_records(self, first: int, last: int
                         ) -> tuple[list[float], list[int]]:
        """Delays and latencies of deliveries ``first:last``, in
        delivery order."""
        packets = self.delivered[first:last]
        return ([p.ejected_ns - p.created_ns for p in packets],
                [p.ejected_cycle - p.created_cycle for p in packets])

    def measured_stats(self) -> list[StatsCollector]:
        return [self.stats]

    # --- introspection -----------------------------------------------------
    def occupancy_matrix(self):
        """Buffered flits per VC, shape ``(nodes, ports, vcs)``.

        Shared introspection surface with the fast engine, used by the
        engine-invariant property tests.
        """
        return np.array([[[len(vc.fifo) for vc in port_vcs]
                          for port_vcs in router.in_vcs]
                         for router in self.routers])

    def aggregate_activity(self):
        """Sum of all routers' event counters (for power windows)."""
        total = ActivityCounters()
        for router in self.routers:
            total = total + router.activity
        return total

    def router_activity_map(self) -> list:
        """Per-router cumulative activity, indexed by node id.

        Feed to :meth:`repro.power.PowerModel.router_power_map` for a
        spatial power profile (the paper's per-router estimation).
        """
        return [router.activity.copy() for router in self.routers]

    def in_flight_flits(self) -> int:
        """Flits buffered in routers or traversing links right now."""
        buffered = sum(r.buffered_flits() for r in self.routers)
        on_links = sum(len(events) for events in self._flit_events.values())
        return buffered + on_links

    def source_backlog_flits(self) -> int:
        """Flits stuck in source queues (grows without bound past
        saturation)."""
        return sum(s.backlog_flits() for s in self.sources)

    def is_drained(self) -> bool:
        """True when no flit remains anywhere in the system."""
        return (self.in_flight_flits() == 0
                and self.source_backlog_flits() == 0)
