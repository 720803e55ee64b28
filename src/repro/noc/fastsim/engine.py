"""The vectorized mesh engine: struct-of-arrays, one compiled step.

``FastNetwork`` replaces the reference :class:`repro.noc.Network` for
sweeps where wall-clock speed matters.  Instead of objects per router,
VC and flit, every piece of state lives in flat NumPy arrays indexed by
the *VC line* ``line = node * (ports * vcs) + port * vcs + vc``.  The
cycle step is compiled (``kernel.c``, built and loaded by
:mod:`repro.noc.fastsim.kernel`): it advances every router pipeline
stage (route computation, VC allocation, switch allocation, link
traversal, credit return) over those arrays in place, a whole segment
of the simulation loop per call (:meth:`FastNetwork.advance`).  Constructing an
engine loads the kernel, and raises
:class:`~repro.noc.fastsim.kernel.KernelBuildError` on a host that
cannot build it.

Every packet is a record in the packet store, and every delivery is
logged.  The simulation driver (:func:`repro.noc.simulator.drive`)
binds each replica's injection process and clock
(:meth:`~FastNetwork.bind_sources`), and the step draws the replicas'
arrivals itself; results are built from the records.  Tests and tools
may also queue records directly (:meth:`~FastNetwork.enqueue_packet`).

The implementation mirrors the reference semantics decision-for-
decision (same separable input-first allocation, same line-indexed
round-robin arbiter order, same phase ordering within a cycle, same
credit and link timing), so the two engines produce the same flit-level
schedule for the same arrival sequence; only float accumulation order
differs.  ``tests/test_engine_equivalence.py`` enforces this
differentially, and ``tests/test_fastsim_kernel.py`` steps the kernel
beside reference networks and compares them after every cycle.

Layout notes (all state is flat, integer and preallocated):

* ``credits[line]`` counts credits *toward the downstream input VC*
  behind output ``(port, vc)`` of ``node`` — the same line indexing as
  input VCs, reused for the output side.
* ``out_line[line]``/``out_group[line]`` cache the allocated output
  credit line and the ``node * P + out_port`` arbiter group of a
  routed packet, so the per-cycle phases are pure gathers.
* ``link_base[node * P + port]`` is the line base of the neighbouring
  router's mirror port; it addresses both flit delivery (downstream
  input VC) and credit return (upstream output credit), which are the
  same line by mesh symmetry.
* Source queues are linked FIFOs over the packet store
  (``q_head``/``q_tail`` per node, ``pkt_next`` per packet).  The
  store's arrays (:data:`repro.noc.fastsim.kernel.STORE`) are indexed
  by packet id and grow by doubling; ``delivery_log`` lists delivered
  packet ids in delivery order.
* Event calendars have one slot per future cycle (``latency + 1``),
  each ``nodes * ports`` entries long plus a count: a cycle sends at
  most one flit per output port and frees at most one buffer slot per
  input port.
* ``counters`` holds the activity totals (``ACTIVITY_FIELDS`` order)
  and the flit accounting
  (:data:`repro.noc.fastsim.kernel.COUNTERS`).
* The topology tables and the per-line, per-arbiter, calendar and
  scratch arrays are int32 (:data:`repro.noc.fastsim.kernel.DTYPES`);
  the counters, per-replica tallies, sources, packet store and slot
  counts are int64.  Cycles (``ready``), line and buffer
  indices and packet ids must therefore fit in int32: the constructor,
  :meth:`FastNetwork.advance`, :meth:`FastNetwork.step_cycle` and the
  packet store raise ``ValueError`` rather than wrap.
* ``busy_bits`` has one bit per line, set while its FIFO holds a
  flit: the step keeps it and lists each replica's busy lines from it.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Iterable

import numpy as np

from ...traffic.injection import (ArrivalLaw, InjectionProcess,
                                  TrafficSpec, compiled_law)
from ..buffer import IDLE
from ..clock import NodeClockBridge, NodeSource
from ..config import NocConfig
from ..network import advance_by_cycles, completed_replicas
from ..routing import RoutingFunction, get_routing_function
from ..stats import ACTIVITY_FIELDS, ActivityCounters, StatsCollector
from ..topology import LOCAL, NUM_PORTS, OPPOSITE, Mesh
from . import kernel
from .kernel import COUNTERS, LAWS

#: Credit count used for ejection (local) ports — an infinite sink.
_SINK_CREDITS = 1 << 30

#: Larger than any rotated arbiter priority (scoreboard fill value,
#: ``kernel.c``'s NO_REQUEST).
_NO_REQUEST = 1 << 30

#: ``counters`` slots, looked up by name in the one layout definition.
(_BUFFERED, _IN_LINK, _SRC_BACKLOG, _QUEUED, _EJECTED, _STORED,
 _LOGGED) = map(COUNTERS.index, (
     "buffered", "in_link", "src_backlog", "queued_packets",
     "ejected_flits", "stored_packets", "logged_deliveries"))
_NUM_ACTIVITY = len(ACTIVITY_FIELDS)

#: Initial packet-store capacity (doubles on demand).
_PACKET_STORE = 1024

#: The largest value the int32 state arrays hold: cycles (``ready``),
#: line and buffer indices and packet ids stay at or below it.
_INT32_MAX = int(np.iinfo(np.int32).max)

#: Packet ids run from 0 up to this limit, which the store never grows
#: past (the int32 buffers and calendars hold packet ids).
_MAX_PACKET_ID = _INT32_MAX


def _store_array(name: str, capacity: int,
                 old: np.ndarray | None = None) -> np.ndarray:
    """A packet-store array of ``capacity``, holding ``old`` first."""
    array = np.full(capacity, -1 if name == "pkt_next" else 0,
                    dtype=kernel.dtype_of(name))
    if old is not None:
        array[:old.size] = old
    return array


def _address(function) -> int:
    return ctypes.cast(function, ctypes.c_void_p).value


@functools.cache
def _topology(width: int, height: int, vcs: int,
              routing: RoutingFunction) -> tuple[np.ndarray, np.ndarray]:
    """One replica's read-only ``route`` and ``link_base`` tables.

    Built once per mesh, VC count and routing function in a process
    (one routing call per node pair); every engine tiles its own copy.
    """
    mesh = Mesh(width, height)
    nodes, pv = mesh.num_nodes, NUM_PORTS * vcs
    route = np.array([routing(mesh, src, dst) for src in range(nodes)
                      for dst in range(nodes)], dtype=np.int32)
    link_base = np.full(nodes * NUM_PORTS, -1, dtype=np.int32)
    for node in range(nodes):
        for port, opp in OPPOSITE.items():
            nbr = mesh.neighbor(node, port)
            if nbr is not None:
                link_base[node * NUM_PORTS + port] = nbr * pv + opp * vcs
    route.flags.writeable = link_base.flags.writeable = False
    return route, link_base


def layout_scalars(config: NocConfig, copies: int,
                   capacity: int = _PACKET_STORE) -> dict:
    """The compiled step's scalar fields (:data:`kernel.SCALARS` and
    :data:`kernel.REALS`) for ``copies`` replicas of ``config``'s mesh
    and a packet store of ``capacity``."""
    local_nodes = config.num_nodes
    nodes = local_nodes * copies
    lines_per_copy = local_nodes * NUM_PORTS * config.num_vcs
    return dict(nodes=nodes, local_nodes=local_nodes, ports=NUM_PORTS,
                vcs=config.num_vcs, depth=config.vc_buf_depth,
                lines=lines_per_copy * copies,
                lines_per_copy=lines_per_copy,
                route_latency=config.route_latency,
                va_latency=config.va_latency,
                link_latency=config.link_latency,
                credit_latency=config.credit_latency,
                flit_horizon=config.link_latency + 1,
                credit_horizon=config.credit_latency + 1,
                multi=copies > 1, copies=copies,
                packet_length=config.packet_length, capacity=capacity,
                node_period=NodeClockBridge(config.f_node_hz).period_ns)


def replica_bytes(config: NocConfig) -> int:
    """The stepping state one replica of ``config``'s mesh adds to an
    engine: a one-replica engine's :data:`kernel.ARRAYS`, the packet
    store aside (:func:`kernel.state_bytes`)."""
    return kernel.state_bytes(layout_scalars(config, 1))


def kernel_law(config: NocConfig, spec: TrafficSpec) -> ArrivalLaw | None:
    """The law by which the compiled step draws ``spec``'s arrivals on
    ``config``'s node clocks, or ``None``: on heterogeneous node clocks,
    and for a spec whose law does not compile, the arrivals are drawn
    in Python (:class:`~repro.noc.clock.NodeSource`)."""
    if config.node_freqs_hz is not None:
        return None
    return compiled_law(spec)


def runs_whole_segments(config: NocConfig,
                        specs: Iterable[TrafficSpec]) -> bool:
    """True when the compiled step will run an engine of these
    replicas a whole segment per call (:meth:`FastNetwork.advance`):
    it draws every replica's arrivals (:func:`kernel_law`)."""
    return all(kernel_law(config, spec) is not None for spec in specs)


class FastNetwork:
    """Array-based mesh engine, flit-schedule-equivalent to ``Network``.

    ``copies`` instantiates that many *disjoint* replicas of the mesh
    inside one engine (block-diagonal topology tables): replica ``c``
    owns global nodes ``c*N .. (c+1)*N - 1``.  Replicas share nothing
    but the cycle step, so each behaves exactly like a ``copies=1``
    engine.  Width spreads the per-cycle cost of the Python draws over
    the batch; the compiled step costs about the same per replica-cycle
    at any width, so
    :func:`repro.noc.fastsim.run_fixed_batch` runs its points as
    engines no wider than a fixed budget of stepping state.
    """

    def __init__(self, config: NocConfig, copies: int = 1) -> None:
        if copies < 1:
            raise ValueError("need at least one mesh replica")
        self.config = config
        self.copies = copies
        self.mesh = config.make_mesh()
        self.counters = np.zeros(len(COUNTERS), dtype=np.int64)

        local_nodes = self.mesh.num_nodes
        num_nodes = local_nodes * copies
        self._NL = local_nodes
        self._N = num_nodes
        self._P = NUM_PORTS
        self._V = config.num_vcs
        self._D = config.vc_buf_depth
        self._PV = self._P * self._V
        self._L = num_nodes * self._PV
        self._NP = num_nodes * self._P
        self._CL = local_nodes * self._PV  # lines per replica
        self._multi = copies > 1
        self._flit_horizon = config.link_latency + 1
        self._credit_horizon = config.credit_latency + 1
        #: the latest cycle a step may start without overflowing ``ready``
        self._last_cycle = _INT32_MAX - max(config.route_latency,
                                            config.va_latency)
        if self._L * self._D > _INT32_MAX:
            raise ValueError(f"{copies} replicas of this mesh need "
                             f"{self._L * self._D} buffer slots; the "
                             f"fast engine indexes at most {_INT32_MAX}")

        lines = np.arange(self._L, dtype=np.int32)
        self.line_node = lines // self._PV
        self.line_port = (lines // self._V) % self._P

        # Routing table, flat over (global node * NL + local dest); the
        # per-replica blocks are identical, so one tile covers all.
        # Neighbour line bases shift by each replica's first line.
        route, link_base = _topology(
            config.width, config.height, self._V,
            get_routing_function(config.routing))
        self.route = np.tile(route, copies)
        shift = np.arange(copies, dtype=np.int32)[:, None] * self._CL
        self.link_base = np.where(link_base >= 0, link_base + shift,
                                  np.int32(-1)).ravel()

        # --- per-VC state, struct-of-arrays over all L lines ----------
        self.state = np.full(self._L, IDLE, dtype=np.int8)
        self.out_port = np.full(self._L, -1, dtype=np.int32)
        self.out_vc = np.full(self._L, -1, dtype=np.int32)
        #: cached ``node * P + out_port`` of a routed head (valid while
        #: the VC is ROUTING/VC_ALLOC/ACTIVE)
        self.out_group = np.zeros(self._L, dtype=np.int32)
        #: cached output credit line of the allocated output VC (valid
        #: while ACTIVE)
        self.out_line = np.zeros(self._L, dtype=np.int32)
        self.ready = np.zeros(self._L, dtype=np.int32)
        self.fifo_head = np.zeros(self._L, dtype=np.int32)
        # int16: VC depths never approach the dtype limit.
        self.fifo_len = np.zeros(self._L, dtype=np.int16)
        #: one bit per line, set while its FIFO holds a flit (kernel.DTYPES)
        self.busy_bits = np.zeros(-(-self._L // 64), dtype=np.uint64)
        self.buf_pid = np.full(self._L * self._D, -1, dtype=np.int32)
        self.buf_fidx = np.full(self._L * self._D, -1, dtype=np.int32)

        self.credits = np.full(self._L, self._D, dtype=np.int32)
        self.credits[self.line_port == LOCAL] = _SINK_CREDITS
        #: which input line owns each output VC line (-1 = free)
        self.owner = np.full(self._L, -1, dtype=np.int32)

        # Round-robin pointers, one per (node, port) arbiter, mirroring
        # the reference arbiters' line numbering exactly.
        self.va_ptr = np.zeros(self._NP, dtype=np.int32)
        self.sa_in_ptr = np.zeros(self._NP, dtype=np.int32)
        self.sa_out_ptr = np.zeros(self._NP, dtype=np.int32)
        # Invariant: all _NO_REQUEST between arbitration rounds; each
        # round restores only the entries it touched (O(requests)
        # instead of an O(N*P) refill — copies scale N, requests don't).
        self.scoreboard = np.full(self._NP, _NO_REQUEST, dtype=np.int32)
        self.group_counts = np.zeros(self._NP, dtype=np.int32)

        # --- sources --------------------------------------------------
        self.q_head = np.full(num_nodes, -1, dtype=np.int64)
        self.q_tail = np.full(num_nodes, -1, dtype=np.int64)
        self.cur_lid = np.full(num_nodes, -1, dtype=np.int64)
        self.cur_len = np.zeros(num_nodes, dtype=np.int64)
        self.cur_sent = np.zeros(num_nodes, dtype=np.int64)
        self.cur_vc = np.zeros(num_nodes, dtype=np.int64)
        self.src_rr = np.zeros(num_nodes, dtype=np.int64)
        self.src_credits = np.full(num_nodes * self._V, self._D,
                                   dtype=np.int64)

        # --- packet store: routing fields and records, by packet id --
        for name in kernel.STORE:
            setattr(self, name, _store_array(name, _PACKET_STORE))

        # --- per-replica clocks and sources (bind_sources) -------------
        #: each replica's network time, advanced by its period per step
        self.time_by_copy = np.zeros(copies)
        self.period_by_copy = np.zeros(copies)
        self.next_node_cycle = np.zeros(copies, dtype=np.int64)
        self.measured_created_by_copy = np.zeros(copies, dtype=np.int64)
        self.measured_delivered_by_copy = np.zeros(copies, dtype=np.int64)
        #: tags new packets as measured (bound sources)
        self.measuring = False
        # The compiled step's arrival laws (kernel.LAWS) per replica:
        # replica c's rate steps are step_first[c]:step_first[c + 1] of
        # step_cycles/step_factors, and rng_* address its generator.
        self.law_by_copy = np.zeros(copies, dtype=np.int64)
        self.step_first = np.zeros(copies + 1, dtype=np.int64)
        self.step_pos = np.zeros(copies, dtype=np.int64)
        self.step_cycles = np.zeros(0, dtype=np.int64)
        self.step_factors = np.zeros(0)
        self.pkt_prob = np.zeros(num_nodes)
        self.dest_table = np.zeros(num_nodes, dtype=np.int64)
        self.rng_state = np.zeros(copies, dtype=np.uint64)
        self.rng_double = np.zeros(copies, dtype=np.uint64)
        self.rng_uint32 = np.zeros(copies, dtype=np.uint64)
        self._node_period = NodeClockBridge(config.f_node_hz).period_ns
        self._bound = False
        #: (replica, node source) drawn by step_cycle in Python
        self._python_sources: list[tuple[int, NodeSource]] = []
        #: packets one step can add at most (bound sources)
        self._max_arrivals = 0

        # --- event calendars ------------------------------------------
        self.flit_line = np.zeros((self._flit_horizon, self._NP),
                                  dtype=np.int32)
        self.flit_pid = np.zeros_like(self.flit_line)
        self.flit_fidx = np.zeros_like(self.flit_line)
        self.flit_count = np.zeros(self._flit_horizon, dtype=np.int64)
        self.credit_line = np.zeros((self._credit_horizon, self._NP),
                                    dtype=np.int32)
        self.credit_count = np.zeros(self._credit_horizon, dtype=np.int64)
        self.credit_src = np.zeros((self._credit_horizon, num_nodes),
                                   dtype=np.int32)
        self.credit_src_count = np.zeros(self._credit_horizon,
                                         dtype=np.int64)

        # --- per-replica tallies --------------------------------------
        self.ejected_by_copy = np.zeros(copies, dtype=np.int64)
        self.backlog_by_copy = np.zeros(copies, dtype=np.int64)
        # Per-replica activity (batched runs attribute power per copy).
        # ``attribute_activity`` gates the per-event attribution; the
        # batch kernel enables it only inside the measurement window —
        # window deltas are all that power models consume, so warmup
        # and drain cycles skip the bookkeeping.
        self.attribute_activity = True
        self.activity_by_copy = np.zeros((copies, _NUM_ACTIVITY),
                                         dtype=np.int64)

        # --- the compiled step's scratch and view ---------------------
        #: one replica's VC-allocation and switch-allocation candidates
        self.scratch = np.zeros(2 * self._CL, dtype=np.int32)
        self._kernel = kernel.load_kernel()
        self._bind_kernel()

    def _bind_kernel(self) -> None:
        """Point the compiled step at the current state arrays."""
        self._layout = self._kernel.bind(
            layout_scalars(self.config, self.copies, self.pkt_dst.size),
            self)

    # --- packet entry -----------------------------------------------------
    def enqueue_packet(self, src: int, dst: int, length: int,
                       created_cycle: int, created_ns: float,
                       measured: bool) -> None:
        """Append one packet record and queue it at global node ``src``
        (``dst`` is local to the replica)."""
        counters = self.counters
        lid = int(counters[_STORED])
        if lid == self.pkt_dst.size:
            self._grow_packet_store(lid + 1)
        copy = src // self._NL
        self.pkt_dst[lid] = dst
        self.pkt_len[lid] = length
        self.pkt_copy[lid] = copy
        self.pkt_created_cycle[lid] = created_cycle
        self.pkt_created_ns[lid] = created_ns
        self.pkt_measured[lid] = measured
        tail = self.q_tail[src]
        if tail < 0:
            self.q_head[src] = lid
        else:
            self.pkt_next[tail] = lid
        self.q_tail[src] = lid
        counters[_STORED] = lid + 1
        counters[_QUEUED] += 1
        counters[_SRC_BACKLOG] += length
        self.measured_created_by_copy[copy] += measured
        if self._multi:
            self.backlog_by_copy[copy] += length

    def _grow_packet_store(self, need: int) -> None:
        if need > _MAX_PACKET_ID + 1:
            raise ValueError(f"fast engine: {need} packets exceed the "
                             f"packet store's {_MAX_PACKET_ID + 1} ids")
        cap = self.pkt_dst.size
        while cap < need:
            cap *= 2
        cap = min(cap, _MAX_PACKET_ID + 1)
        for name in kernel.STORE:
            setattr(self, name, _store_array(name, cap, getattr(self, name)))
        self._bind_kernel()

    def bind_sources(self, injections: list[InjectionProcess],
                     periods_ns: list[float]) -> None:
        """Let the engine draw every replica's arrivals in its step.

        Replica ``c`` ticks its own network clock of period
        ``periods_ns[c]`` from time 0 (:meth:`retune` changes it), and
        draws from ``injections[c]`` in the node cycles that clock
        completes, one draw per step.  The compiled step draws the
        replicas that have a :func:`kernel_law`; :meth:`step_cycle`
        draws the others first, through a
        :class:`~repro.noc.clock.NodeSource`.
        """
        if self._bound or int(self.counters[_STORED]):
            raise ValueError("bind sources once, to an engine without "
                             "packets")
        if len(injections) != self.copies or len(periods_ns) != self.copies:
            raise ValueError(f"need {self.copies} injection processes "
                             f"and periods")
        self._bound = True
        self._injections = injections   # keeps the generators alive
        self.period_by_copy[:] = periods_ns
        config, local = self.config, self._NL
        python, cycles, factors = [], [], []
        for copy, injection in enumerate(injections):
            base = copy * local
            self.pkt_prob[base:base + local] = injection.packet_prob
            law = kernel_law(config, injection.spec)
            if law is None:
                python.append((copy, NodeSource(injection, config.f_node_hz,
                                                config.node_freqs_hz)))
            else:
                injection.check_law(law)
                self.law_by_copy[copy] = LAWS.index(
                    "uniform" if law.dests is None else "table")
                if law.dests is not None:
                    self.dest_table[base:base + local] = law.dests
                if law.step_cycles is not None:
                    cycles.append(law.step_cycles)
                    factors.append(law.step_factors)
                # The step calls the generator without NumPy's lock:
                # the generator is private to this replica, and PyDLL
                # holds the interpreter lock through the call.
                iface = injection.rng.bit_generator.ctypes
                self.rng_state[copy] = iface.state_address
                self.rng_double[copy] = _address(iface.next_double)
                self.rng_uint32[copy] = _address(iface.next_uint32)
            self.step_first[copy + 1] = sum(map(len, cycles))
        self.step_pos[:] = self.step_first[:-1]
        if cycles:
            self.step_cycles = np.concatenate(cycles).astype(np.int64)
            self.step_factors = np.concatenate(factors).astype(np.float64)
        self._python_sources = python
        self._reserve_arrivals()
        self._bind_kernel()

    def _reserve_arrivals(self) -> None:
        """Size the store headroom a step's draws may use: the node
        cycles the longest clock period spans, plus one for rounding,
        at every node, once sources are bound."""
        if self._bound:
            elapsed = int(self.period_by_copy.max() / self._node_period) + 2
            self._max_arrivals = elapsed * self._N

    def retune(self, copy: int, period_ns: float, time_ns: float) -> None:
        """Set replica ``copy``'s clock period and the time of its next
        step (a DVFS frequency change)."""
        self.period_by_copy[copy] = period_ns
        self.time_by_copy[copy] = time_ns
        self._reserve_arrivals()

    # --- cycle advance ------------------------------------------------------
    def advance(self, cycle: int, stop: int, stop_ns: float = math.inf,
                until_done: bool = False) -> int:
        """Step cycles from ``cycle`` toward ``stop``; return the next one.

        Before each cycle it stops if replica 0's time is at or past
        ``stop_ns`` (the driver's next control instant).  With
        ``until_done`` it also stops after any cycle that leaves more
        replicas with all their measured packets delivered than there
        were at the call.  The compiled step runs the whole segment in
        one call (``kernel.c``: fs_run), returning only to grow the
        packet store.  While a live replica draws in Python, the
        segment steps one :meth:`step_cycle` at a time
        (:func:`~repro.noc.network.advance_by_cycles`).  A cycle whose
        pipeline latency would carry ``ready`` past int32 raises
        ``ValueError``.
        """
        if self._python_sources:
            return advance_by_cycles(self, cycle, stop, stop_ns, until_done)
        done = completed_replicas(self) if until_done else 0
        while cycle < stop and self.time_by_copy[0] < stop_ns:
            self._check_cycle(cycle)
            self._reserve_store(self._max_arrivals)
            cycle = self._kernel.run(
                self._layout, cycle, min(stop, self._last_cycle + 1),
                stop_ns, self._max_arrivals, self.attribute_activity,
                self.measuring, until_done)
            # The kernel also returns for a store that must grow; only a
            # completion since this call ends the segment.
            if until_done and completed_replicas(self) > done:
                break
        return cycle

    def step_cycle(self, cycle: int) -> None:
        """Advance every component by one network clock cycle.

        With bound sources the step first draws each live replica's
        arrivals.  Every replica timestamps by its own clock, which
        then advances by its period.  A cycle whose pipeline latency
        would carry ``ready`` past int32 raises ``ValueError``.
        """
        self._check_cycle(cycle)
        self._reserve_store(self._max_arrivals)
        if self._python_sources:
            self._draw_arrivals(cycle)
        # A replayed trace draws every recorded event of its window, so
        # the Python draws may take more than their share of the
        # reserve: keep the compiled replicas' share free.
        headroom = (self._max_arrivals // self.copies
                    * (self.copies - len(self._python_sources)))
        self._reserve_store(headroom)
        self._kernel.run(self._layout, cycle, cycle + 1, math.inf,
                         headroom, self.attribute_activity,
                         self.measuring, 0)

    def _check_cycle(self, cycle: int) -> None:
        if cycle > self._last_cycle:
            raise ValueError(f"fast engine: cycle {cycle} plus the "
                             f"pipeline latency passes the int32 "
                             f"limit {_INT32_MAX}")

    def _reserve_store(self, headroom: int) -> None:
        """Grow the packet store to hold ``headroom`` more records."""
        need = int(self.counters[_STORED]) + headroom
        if need > self.pkt_dst.size:
            self._grow_packet_store(need)

    def _draw_arrivals(self, cycle: int) -> None:
        """Draw and queue the arrivals of the Python-drawn replicas, as
        the compiled step draws its own (``kernel.c``)."""
        times = self.time_by_copy.tolist()
        length, measured = self.config.packet_length, self.measuring
        for copy, source in self._python_sources:
            base = copy * self._NL
            for src, dst, created_ns in source.draw(times[copy]):
                self.enqueue_packet(base + src, dst, length, cycle,
                                    created_ns, measured)
            self.next_node_cycle[copy] = source.bridge.next_node_cycle

    def _sync_busy_bits(self) -> None:
        """Recompute ``busy_bits`` from ``fifo_len``: the step maintains
        the bits as it pushes and pops flits."""
        busy = np.zeros(self.busy_bits.size * 64, dtype=bool)
        busy[:self._L] = self.fifo_len != 0
        self.busy_bits[:] = np.packbits(busy, bitorder="little").view("<u8")

    # --- the driver interface: per-replica clocks, counts and records --
    def time_of(self, copy: int) -> float:
        """The time of replica ``copy``'s next step."""
        return float(self.time_by_copy[copy])

    def snapshot(self, copy: int) -> tuple[float, int, int, int]:
        """Replica ``copy``'s time, next reference node cycle, ejected
        flits and source backlog, as of now."""
        if self._multi:
            ejected = self.ejected_by_copy[copy]
            backlog = self.backlog_by_copy[copy]
        else:
            ejected = self.counters[_EJECTED]
            backlog = self.counters[_SRC_BACKLOG]
        return (float(self.time_by_copy[copy]),
                int(self.next_node_cycle[copy]), int(ejected), int(backlog))

    def counts(self) -> tuple[int, int]:
        """Packets created and deliveries logged so far, over all
        replicas."""
        counters = self.counters
        return int(counters[_STORED]), int(counters[_LOGGED])

    def measured_counts(self) -> tuple[list[int], list[int]]:
        """Per replica, the measured packets created and delivered so
        far."""
        return (self.measured_created_by_copy.tolist(),
                self.measured_delivered_by_copy.tolist())

    def delivery_records(self, first: int, last: int
                         ) -> tuple[list[float], list[int]]:
        """Delays and latencies of logged deliveries ``first:last``, in
        delivery order."""
        lids = self.delivery_log[first:last]
        return ((self.pkt_ejected_ns.take(lids)
                 - self.pkt_created_ns.take(lids)).tolist(),
                (self.pkt_ejected_cycle.take(lids)
                 - self.pkt_created_cycle.take(lids)).tolist())

    # --- introspection -----------------------------------------------------
    def aggregate_activity(self) -> ActivityCounters:
        """Sum of all event counters (for power windows)."""
        return ActivityCounters(**dict(zip(
            ACTIVITY_FIELDS, self.counters[:_NUM_ACTIVITY].tolist())))

    def activity_of(self, copy: int) -> ActivityCounters:
        """Cumulative event counters of one replica.

        This is what per-replica power windows are built from: each
        batched sweep point's energy integrates *its own* mesh events,
        exactly as a standalone ``copies=1`` run would count them.
        Events are attributed per copy only while
        ``attribute_activity`` is True; window *deltas* over an
        attributed interval are exact regardless of the flag's state
        outside it.
        """
        if not self._multi:
            return self.aggregate_activity()
        return ActivityCounters(**dict(zip(
            ACTIVITY_FIELDS, self.activity_by_copy[copy].tolist())))

    def freeze_copy(self, copy: int) -> None:
        """Retire one replica: drop every flit it still owns.

        Batched runs call this the moment a replica's measured packets
        have all been delivered and its statistics are frozen — the
        point where a standalone run would simply terminate.  Dropping
        the replica's source queues, buffered flits and in-flight
        link/credit events shrinks every subsequent cycle's active
        sets, so stragglers no longer pay for finished replicas.
        Replicas share no state, so the remaining copies' schedules are
        untouched (the equivalence suite enforces this).  A bound
        source stops drawing.
        """
        if not self._multi:
            raise ValueError("freeze_copy needs a multi-replica engine")
        counters = self.counters
        lo, hi = copy * self._CL, (copy + 1) * self._CL
        node_lo, node_hi = copy * self._NL, (copy + 1) * self._NL

        self.law_by_copy[copy] = LAWS.index("none")
        self._python_sources = [source for source in self._python_sources
                                if source[0] != copy]

        # Sources: forget queued and half-sent packets.
        queued = 0
        for lid in self.q_head[node_lo:node_hi].tolist():
            while lid >= 0:
                queued += 1
                lid = int(self.pkt_next[lid])
        counters[_QUEUED] -= queued
        self.q_head[node_lo:node_hi] = -1
        self.q_tail[node_lo:node_hi] = -1
        self.cur_lid[node_lo:node_hi] = -1
        counters[_SRC_BACKLOG] -= self.backlog_by_copy[copy]
        self.backlog_by_copy[copy] = 0

        # Router lines: empty FIFOs and release allocations.
        counters[_BUFFERED] -= int(self.fifo_len[lo:hi].sum())
        self.fifo_len[lo:hi] = 0
        self._sync_busy_bits()
        self.fifo_head[lo:hi] = 0
        self.state[lo:hi] = IDLE
        self.owner[lo:hi] = -1

        # Calendars: drop flits and credits addressed into the replica
        # (its lines are never looked at again), keeping entry order.
        for slot, count in enumerate(self.flit_count.tolist()):
            lines = self.flit_line[slot, :count]
            keep = (lines < lo) | (lines >= hi)
            kept = int(np.count_nonzero(keep))
            if kept < count:
                counters[_IN_LINK] -= count - kept
                for calendar in (self.flit_line, self.flit_pid,
                                 self.flit_fidx):
                    calendar[slot, :kept] = calendar[slot, :count][keep]
                self.flit_count[slot] = kept
        slot_lo, slot_hi = node_lo * self._V, node_hi * self._V
        for calendar, counts, first, last in (
                (self.credit_line, self.credit_count, lo, hi),
                (self.credit_src, self.credit_src_count, slot_lo,
                 slot_hi)):
            for slot, count in enumerate(counts.tolist()):
                entries = calendar[slot, :count]
                keep = (entries < first) | (entries >= last)
                kept = int(np.count_nonzero(keep))
                if kept < count:
                    calendar[slot, :kept] = entries[keep]
                    counts[slot] = kept

    def measured_stats(self) -> list[StatsCollector]:
        """Each replica's measured packets as statistics, from the
        records: delays, latencies and hops in delivery order, and the
        count created."""
        log = self.delivery_log[:self.counters[_LOGGED]]
        log = log[self.pkt_measured.take(log) != 0]
        copies = self.pkt_copy.take(log)
        order = np.argsort(copies, kind="stable")
        log = log.take(order)
        bounds = np.searchsorted(copies.take(order),
                                 np.arange(self.copies + 1)).tolist()
        latencies = (self.pkt_ejected_cycle.take(log)
                     - self.pkt_created_cycle.take(log))
        delays = self.pkt_ejected_ns.take(log) - self.pkt_created_ns.take(log)
        hops = self.pkt_hops.take(log)
        out = []
        for copy in range(self.copies):
            part = slice(bounds[copy], bounds[copy + 1])
            stats = StatsCollector()
            stats.measured_latencies = latencies[part].tolist()
            stats.measured_delays_ns = delays[part].tolist()
            stats.measured_hops = hops[part].tolist()
            stats.measured_created = int(
                self.measured_created_by_copy[copy])
            out.append(stats)
        return out

    def router_activity_map(self) -> list:
        raise NotImplementedError(
            "per-router activity maps need the reference engine "
            "(the fast engine only tracks mesh-wide counters)")

    def occupancy_matrix(self) -> np.ndarray:
        """Buffered flits per VC, shape ``(nodes, ports, vcs)``."""
        return (self.fifo_len.reshape(self._N, self._P, self._V)
                .copy())

    def in_flight_flits(self) -> int:
        """Flits buffered in routers or traversing links right now."""
        return int(self.counters[_BUFFERED] + self.counters[_IN_LINK])

    def source_backlog_flits(self) -> int:
        """Flits stuck in source queues (grows without bound past
        saturation)."""
        return int(self.counters[_SRC_BACKLOG])

    def is_drained(self) -> bool:
        """True when no flit remains anywhere in the system."""
        return (self.in_flight_flits() == 0
                and self.source_backlog_flits() == 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FastNetwork({self.mesh.width}x{self.mesh.height}, "
                f"in_flight={self.in_flight_flits()})")
