"""The vectorized mesh engine: struct-of-arrays, batched per cycle.

``FastNetwork`` replaces the reference :class:`repro.noc.Network` for
sweeps where wall-clock speed matters.  Instead of objects per router,
VC and flit, every piece of state lives in flat NumPy arrays indexed by
the *VC line* ``line = node * (ports * vcs) + port * vcs + vc``, and
every router pipeline stage (route computation, VC allocation, switch
allocation, link traversal, credit return) advances for *all* routers
at once.  The cycle step exists twice over the same arrays: compiled
(``kernel.c``, loaded by :mod:`repro.noc.fastsim.kernel`) and as NumPy
array operations (the ``_step_*`` methods below).  The compiled step
runs whenever the kernel loaded, a whole driver segment per call
(:meth:`FastNetwork.advance`); the NumPy step is the fallback on hosts
without a C compiler and the oracle the tests compare it to.  Both
leave every array bit-identical.

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
differentially.

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
  packet store raise ``ValueError`` rather than wrap.  The NumPy step
  turns the int32 values it indexes with into ``intp`` once, because
  NumPy converts any other index array on every use.
* ``busy_bits`` has one bit per line, set while its FIFO holds a
  flit: the compiled step keeps it and lists each replica's busy lines
  from it.  The NumPy step neither reads nor keeps it.
* The NumPy step finds round-robin winners with a ``minimum.at``
  scoreboard over rotated priorities rather than sorting; priorities
  are unique within a group, so each group gets exactly one champion.
  The priorities take the scoreboard's int32 dtype, which keeps
  ``ufunc.at`` on its fast path.  The compiled step arbitrates each
  input port inside its busy-line scan instead (``kernel.c``).
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Iterable

import numpy as np

from ...traffic.injection import (ArrivalLaw, InjectionProcess,
                                  TrafficSpec, compiled_law)
from ..buffer import ACTIVE, IDLE, ROUTING, VC_ALLOC
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

#: Larger than any rotated arbiter priority (scoreboard fill value).
_NO_REQUEST = 1 << 30

#: One, as the int32 arbiter arrays' type: ``ufunc.at`` keeps to its
#: fast path only when the operands' dtypes match.
_ONE = np.int32(1)

#: ``counters`` slots, looked up by name in the one layout definition.
(_WRITES, _READS, _XBAR, _LINK_FLITS, _VC_ALLOCS, _SA_GRANTS, _CREDITS,
 _BUFFERED, _IN_LINK, _SRC_BACKLOG, _QUEUED, _INJECTED, _EJECTED,
 _STORED, _LOGGED) = map(COUNTERS.index, (
     "buffer_writes", "buffer_reads", "xbar_traversals", "link_flits",
     "vc_allocs", "sa_grants", "credit_transfers", "buffered", "in_link",
     "src_backlog", "queued_packets", "injected_flits", "ejected_flits",
     "stored_packets", "logged_deliveries"))
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
    the kernel loads and it draws every replica's arrivals
    (:func:`kernel_law`)."""
    return (kernel.load_kernel() is not None
            and all(kernel_law(config, spec) is not None
                    for spec in specs))


class FastNetwork:
    """Array-based mesh engine, flit-schedule-equivalent to ``Network``.

    ``copies`` instantiates that many *disjoint* replicas of the mesh
    inside one engine (block-diagonal topology tables): replica ``c``
    owns global nodes ``c*N .. (c+1)*N - 1``.  Replicas share nothing
    but the cycle step, so each behaves exactly like a ``copies=1``
    engine.  Width spreads the per-cycle cost of the NumPy step and of
    the Python draws over the batch; the compiled step costs about the
    same per replica-cycle at any width, so
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
        self._route_latency = config.route_latency
        self._va_latency = config.va_latency
        self._link_latency = config.link_latency
        self._credit_latency = config.credit_latency
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
        self._owner_rows = self.owner.reshape(self._NP, self._V)

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
        self.node_base = np.arange(num_nodes, dtype=np.int64) * self._PV

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
        self._layout = None
        if self._kernel is not None:
            self._bind_kernel()

    def _bind_kernel(self) -> None:
        """Point the compiled step at the current state arrays."""
        self._layout = self._kernel.bind(
            layout_scalars(self.config, self.copies, self.pkt_dst.size),
            self)

    @property
    def compiled(self) -> bool:
        """True when the compiled cycle step runs this engine."""
        return self._kernel is not None

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
        if self._kernel is not None:
            self._bind_kernel()

    def bind_sources(self, injections: list[InjectionProcess],
                     periods_ns: list[float]) -> None:
        """Let the engine draw every replica's arrivals in its step.

        Replica ``c`` ticks its own network clock of period
        ``periods_ns[c]`` from time 0 (:meth:`retune` changes it), and
        draws from ``injections[c]`` in the node cycles that clock
        completes, one draw per step.  The compiled step draws the
        replicas that have a :func:`kernel_law`; :meth:`step_cycle`
        draws the others, and all of them on the NumPy step, through a
        :class:`~repro.noc.clock.NodeSource`, the Python-drawn ones
        first.
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
        python, compiled, cycles, factors = [], [], [], []
        for copy, injection in enumerate(injections):
            base = copy * local
            self.pkt_prob[base:base + local] = injection.packet_prob
            source = (copy, NodeSource(injection, config.f_node_hz,
                                       config.node_freqs_hz))
            law = kernel_law(config, injection.spec)
            if law is None:
                python.append(source)
            else:
                injection.check_law(law)
                compiled.append(source)
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
        self._python_sources = (python if self._kernel is not None
                                else python + compiled)
        self._reserve_arrivals()
        if self._kernel is not None:
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
        packet store.  While a live replica draws in Python, and on the
        NumPy step, the segment steps one :meth:`step_cycle` at a time
        (:func:`~repro.noc.network.advance_by_cycles`).  A cycle whose
        pipeline latency would carry ``ready`` past int32 raises
        ``ValueError``.
        """
        if self._kernel is None or self._python_sources:
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
        if self._kernel is None:
            self._step_numpy(cycle)
            self.time_by_copy += self.period_by_copy
        else:
            # A replayed trace draws every recorded event of its window,
            # so the Python draws may take more than their share of the
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

    def _log_deliveries(self, cycle: int, lids: np.ndarray) -> None:
        """Record the delivery of packets ``lids``, in order
        (``kernel.c``: deliver)."""
        first = int(self.counters[_LOGGED])
        self.delivery_log[first:first + lids.size] = lids
        self.counters[_LOGGED] = first + lids.size
        copies = self.pkt_copy.take(lids)
        self.pkt_ejected_cycle[lids] = cycle
        self.pkt_ejected_ns[lids] = self.time_by_copy.take(copies)
        np.add.at(self.measured_delivered_by_copy, copies,
                  self.pkt_measured.take(lids).astype(np.int64))

    def _step_numpy(self, cycle: int) -> None:
        """The NumPy cycle step."""
        counters = self.counters
        slot = cycle % self._credit_horizon
        count = self.credit_count[slot]
        if count:
            self.credits[self.credit_line[slot, :count]
                         .astype(np.intp)] += 1
            self.credit_count[slot] = 0
        count = self.credit_src_count[slot]
        if count:
            self.src_credits[self.credit_src[slot, :count]
                             .astype(np.intp)] += 1
            self.credit_src_count[slot] = 0

        slot = cycle % self._flit_horizon
        count = self.flit_count[slot]
        if count:
            self.flit_count[slot] = 0
            self._push_flits(self.flit_line[slot, :count],
                             self.flit_pid[slot, :count],
                             self.flit_fidx[slot, :count])
            counters[_IN_LINK] -= count

        if counters[_SRC_BACKLOG]:
            self._step_sources()
        if counters[_BUFFERED]:
            done = self._step_routers(cycle)
            if done.size:
                self._log_deliveries(cycle, done)

    def _sync_busy_bits(self) -> None:
        """Recompute ``busy_bits`` from ``fifo_len``: the compiled step
        maintains the bits as it pushes and pops flits."""
        busy = np.zeros(self.busy_bits.size * 64, dtype=bool)
        busy[:self._L] = self.fifo_len != 0
        self.busy_bits[:] = np.packbits(busy, bitorder="little").view("<u8")

    def _push_flits(self, lines: np.ndarray, pids: np.ndarray,
                    fidxs: np.ndarray) -> None:
        """Buffer one arriving flit per (unique) line."""
        lines = lines.astype(np.intp, copy=False)
        pos = self.fifo_head.take(lines) + self.fifo_len.take(lines)
        pos = lines * self._D + pos % self._D
        self.buf_pid[pos] = pids
        self.buf_fidx[pos] = fidxs
        self.fifo_len[lines] += 1
        self.counters[_BUFFERED] += lines.size
        self.counters[_WRITES] += lines.size
        if self._multi and self.attribute_activity:
            self.activity_by_copy[:, _WRITES] += np.bincount(
                lines // self._CL, minlength=self.copies)

    # --- sources ------------------------------------------------------------
    def _step_sources(self) -> None:
        """All sources try to inject one flit (the reference Source)."""
        cur_lid = self.cur_lid
        counters = self.counters
        if counters[_QUEUED]:
            need = (cur_lid < 0) & (self.q_head >= 0)
            for node in np.flatnonzero(need).tolist():
                lid = self.q_head[node]
                self.q_head[node] = self.pkt_next[lid]
                if self.q_head[node] < 0:
                    self.q_tail[node] = -1
                counters[_QUEUED] -= 1
                cur_lid[node] = lid
                self.cur_len[node] = self.pkt_len[lid]
                self.cur_sent[node] = 0
                # Rotate the starting VC per packet, as the reference.
                self.cur_vc[node] = self.src_rr[node]
                self.src_rr[node] = (self.src_rr[node] + 1) % self._V

        active = np.flatnonzero(cur_lid >= 0)
        if not active.size:
            return
        vcs = self.cur_vc.take(active)
        slots = active * self._V + vcs
        can = self.src_credits.take(slots) > 0
        if not can.all():
            active = active[can]
            if not active.size:
                return
            vcs = vcs[can]
            slots = slots[can]
        lids = cur_lid.take(active)
        sent = self.cur_sent.take(active)

        self.src_credits[slots] -= 1
        lines = self.node_base.take(active) + vcs     # LOCAL port is 0
        self._push_flits(lines, lids, sent)
        counters[_SRC_BACKLOG] -= active.size
        counters[_INJECTED] += active.size
        if self._multi:
            self.backlog_by_copy -= np.bincount(active // self._NL,
                                                minlength=self.copies)

        sent = sent + 1
        self.cur_sent[active] = sent
        finished = sent >= self.cur_len.take(active)
        if finished.any():
            cur_lid[active[finished]] = -1

    # --- router pipeline ----------------------------------------------------
    def _step_routers(self, cycle: int) -> np.ndarray:
        """One cycle of every router's pipeline; returns the packet ids
        of the delivered tails, in delivery order.

        All phase sets derive from the lines that hold flits (``wf``):
        ROUTING and VC_ALLOC lines have their head flit buffered by
        construction, and an ACTIVE line without a buffered flit has
        nothing to send — so one ``flatnonzero`` over the FIFO
        occupancy is the only full-line scan per cycle, and everything
        after operates on the (usually much smaller) busy subset.
        """
        state = self.state
        wf = np.flatnonzero(self.fifo_len)
        if not wf.size:
            return wf
        st = state.take(wf)

        # Phase A: per-VC state advance (IDLE -> ROUTING -> VC_ALLOC).
        # ``va_mask`` collects this cycle's VC_ALLOC requesters over
        # ``wf`` positions, so ``va`` keeps ascending line order.
        va_mask = st == VC_ALLOC
        rpos = np.flatnonzero(st == ROUTING)
        if rpos.size:
            # Newly ROUTING lines (set below) carry ready > cycle and
            # are not in ``rpos`` anyway: they sit out their latency.
            done = self.ready.take(wf.take(rpos)) <= cycle
            sel = rpos[done]
            if sel.size:
                state[wf.take(sel)] = VC_ALLOC
                va_mask[sel] = True
        ipos = np.flatnonzero(st == IDLE)
        if ipos.size:
            idle = wf.take(ipos)
            front = idle * self._D + self.fifo_head.take(idle)
            dsts = self.pkt_dst.take(self.buf_pid.take(front))
            nodes = self.line_node.take(idle)
            ports = self.route.take(nodes * self._NL + dsts)
            self.out_port[idle] = ports
            self.out_group[idle] = nodes * self._P + ports
            if self._route_latency:
                self.ready[idle] = cycle + self._route_latency
                state[idle] = ROUTING
            else:
                # Zero-latency route computation: straight to VC_ALLOC,
                # as the reference's same-cycle fall-through does.
                state[idle] = VC_ALLOC
                va_mask[ipos] = True

        # SA candidates are collected *before* VA grants, as in the
        # reference (a VC granted an output VC this cycle cannot also
        # win the switch this cycle, even with va_latency == 0).
        act = wf[st == ACTIVE]
        out_lines = np.empty(0, dtype=np.int64)
        if act.size:
            ready_ok = self.ready.take(act) <= cycle
            if not ready_ok.all():
                act = act[ready_ok]
        if act.size:
            out_lines = self.out_line.take(act).astype(np.intp)
            got_credit = self.credits.take(out_lines) > 0
            if not got_credit.all():
                act = act[got_credit]
                out_lines = out_lines[got_credit]

        va = wf[va_mask]
        if va.size:
            self._vc_allocate(va, cycle)
        if act.size:
            return self._switch_allocate(act, out_lines, cycle)
        return act

    def _vc_allocate(self, va: np.ndarray, cycle: int) -> None:
        """Phase B: VC allocation, one grant round per free output VC.

        Mirrors the reference loop exactly: per output port, the free
        output VCs are granted in increasing index order, each to the
        next requester after the rotating pointer of the port's
        ``P*V``-line arbiter (which advances on every grant).
        """
        pv = self._PV
        group = self.out_group.take(va).astype(np.intp)
        lane = (va % pv).astype(np.int32)
        scoreboard = self.scoreboard

        while True:
            prio = (lane - self.va_ptr.take(group)) % pv
            np.minimum.at(scoreboard, group, prio)
            champs = np.flatnonzero(prio == scoreboard.take(group))
            scoreboard[group] = _NO_REQUEST
            groups = group.take(champs)

            free_rows = self._owner_rows[groups] < 0
            grantable = free_rows.any(axis=1)
            if not grantable.all():
                if not grantable.any():
                    break
                champs = champs[grantable]
                groups = groups[grantable]
                free_rows = free_rows[grantable]
            free_vc = free_rows.argmax(axis=1)

            winners = va.take(champs)
            granted = groups * self._V + free_vc
            self.owner[granted] = winners
            self.out_line[winners] = granted
            self.out_vc[winners] = free_vc
            self.state[winners] = ACTIVE
            self.ready[winners] = cycle + self._va_latency
            self.va_ptr[groups] = (lane.take(champs) + 1) % pv
            self.counters[_VC_ALLOCS] += winners.size
            if self._multi and self.attribute_activity:
                self.activity_by_copy[:, _VC_ALLOCS] += np.bincount(
                    winners // self._CL, minlength=self.copies)

            if champs.size == va.size:
                break
            keep = np.ones(va.size, dtype=bool)
            keep[champs] = False
            va = va[keep]
            group = group[keep]
            lane = lane[keep]

    def _switch_allocate(self, act: np.ndarray, out_lines: np.ndarray,
                         cycle: int) -> np.ndarray:
        """Phase C: separable input-first switch allocation.

        As in the reference, an arbiter is only consulted (and its
        pointer advanced) when a port has two or more candidates.
        """
        if act.size > 1:
            champs = self._arbitrate(act // self._V, act % self._V,
                                     self._V, self.sa_in_ptr)
            if champs is not None:
                act = act.take(champs)
                out_lines = out_lines.take(champs)
        if act.size > 1:
            champs = self._arbitrate(self.out_group.take(act)
                                     .astype(np.intp),
                                     self.line_port.take(act),
                                     self._P, self.sa_out_ptr)
            if champs is not None:
                act = act.take(champs)
                out_lines = out_lines.take(champs)
        return self._send(act, out_lines, cycle)

    def _arbitrate(self, group: np.ndarray, lane: np.ndarray,
                   size: int, pointers: np.ndarray) -> np.ndarray | None:
        """One round-robin stage: the champion of every group.

        Returns candidate positions, or ``None`` when every group had a
        single candidate (everyone wins).  Pointers advance one past
        the winner only for groups that actually arbitrated (>= 2
        candidates), matching the reference's single-candidate path.
        """
        scoreboard = self.scoreboard
        prio = (lane - pointers.take(group)) % size
        prio = prio.astype(scoreboard.dtype, copy=False)
        np.minimum.at(scoreboard, group, prio)
        champs = np.flatnonzero(prio == scoreboard.take(group))
        scoreboard[group] = _NO_REQUEST
        if champs.size == group.size:
            return None                     # all groups uncontested
        counts = self.group_counts
        np.add.at(counts, group, _ONE)
        contested = counts.take(group.take(champs)) >= 2
        counts[group] = 0
        advance = champs[contested]
        pointers[group.take(advance)] = (lane.take(advance) + 1) % size
        return champs

    def _send(self, winners: np.ndarray, out_lines: np.ndarray,
              cycle: int) -> np.ndarray:
        """Phase D: winners traverse switch and link (the reference's
        ``_send_flit``, batched); returns the delivered tail packet
        ids."""
        counters = self.counters
        count = winners.size
        front = self.fifo_head.take(winners)
        slots = winners * self._D + front
        pids = self.buf_pid.take(slots).astype(np.intp)
        fidxs = self.buf_fidx.take(slots)
        self.fifo_head[winners] = (front + 1) % self._D
        self.fifo_len[winners] -= 1
        counters[_BUFFERED] -= count
        counters[_READS] += count
        counters[_XBAR] += count
        counters[_SA_GRANTS] += count
        by_copy = self.activity_by_copy
        win_by_copy = None
        if self._multi and self.attribute_activity:
            win_by_copy = np.bincount(winners // self._CL,
                                      minlength=self.copies)
            by_copy[:, _READS] += win_by_copy
            by_copy[:, _XBAR] += win_by_copy
            by_copy[:, _SA_GRANTS] += win_by_copy
            by_copy[:, _CREDITS] += win_by_copy

        self.pkt_hops[pids[fidxs == 0]] += 1
        tails = fidxs == self.pkt_len.take(pids) - 1
        local = self.out_port.take(winners) == LOCAL

        ejected = int(np.count_nonzero(local))
        ej_by_copy = None
        done = pids[:0]
        if ejected:
            # Ejection: the sink consumes the flit; no credit needed.
            counters[_EJECTED] += ejected
            if self._multi:
                ej_by_copy = np.bincount(winners[local] // self._CL,
                                         minlength=self.copies)
                self.ejected_by_copy += ej_by_copy
            done = pids[local & tails]
        if ejected != count:
            if ejected:
                network = ~local
                sent_lines = out_lines[network]
                sent_pids = pids[network]
                sent_fidxs = fidxs[network]
            else:
                sent_lines, sent_pids, sent_fidxs = out_lines, pids, fidxs
            self.credits[sent_lines] -= 1
            sent = sent_lines.size
            slot = (cycle + self._link_latency) % self._flit_horizon
            # ``out_line = (node*P + out_port) * V + out_vc`` decomposes
            # back into the link table group and the output VC.
            self.flit_line[slot, :sent] = (
                self.link_base.take(sent_lines // self._V)
                + sent_lines % self._V)
            self.flit_pid[slot, :sent] = sent_pids
            self.flit_fidx[slot, :sent] = sent_fidxs
            self.flit_count[slot] = sent
            counters[_IN_LINK] += sent
            counters[_LINK_FLITS] += sent
            if win_by_copy is not None:
                by_copy[:, _LINK_FLITS] += (
                    win_by_copy if ej_by_copy is None
                    else win_by_copy - ej_by_copy)

        # Return a credit upstream for each freed buffer slot.  A line
        # decomposes as ``(node*P + in_port) * V + in_vc``; local input
        # ports credit the source-side mirror instead.
        in_groups = winners // self._V
        from_source = self.line_port.take(winners) == LOCAL
        if from_source.any():
            routed = ~from_source
            router_credits = (self.link_base.take(in_groups[routed])
                              + winners[routed] % self._V)
            src_slots = (winners[from_source] // self._PV * self._V
                         + winners[from_source] % self._V)
        else:
            router_credits = (self.link_base.take(in_groups)
                              + winners % self._V)
            src_slots = np.empty(0, dtype=np.int64)
        slot = (cycle + self._credit_latency) % self._credit_horizon
        self.credit_line[slot, :router_credits.size] = router_credits
        self.credit_count[slot] = router_credits.size
        self.credit_src[slot, :src_slots.size] = src_slots
        self.credit_src_count[slot] = src_slots.size
        counters[_CREDITS] += count

        if tails.any():
            released = winners[tails]
            self.owner[out_lines[tails]] = -1
            self.state[released] = IDLE
        return done

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
        if self._kernel is not None:
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
