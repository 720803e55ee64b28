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
runs whenever the kernel loaded; the NumPy step is the fallback on
hosts without a C compiler and the oracle the tests compare it to.
Both leave every array bit-identical, and the packet bookkeeping after
a step (``Packet`` fields, statistics hooks, ``delivered``) is shared.

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
  (``q_head``/``q_tail`` per node, ``pkt_next`` per packet).
* Event calendars have one slot per future cycle (``latency + 1``),
  each ``nodes * ports`` entries long plus a count: a cycle sends at
  most one flit per output port and frees at most one buffer slot per
  input port.
* ``counters`` holds the activity totals (``ACTIVITY_FIELDS`` order)
  and the flit accounting
  (:data:`repro.noc.fastsim.kernel.COUNTERS`).
* Round-robin winners are found with a ``minimum.at`` scoreboard over
  rotated priorities rather than sorting; priorities are unique within
  a group, so each group gets exactly one champion.
"""

from __future__ import annotations

import numpy as np

from ..buffer import ACTIVE, IDLE, ROUTING, VC_ALLOC
from ..config import NocConfig
from ..flit import Packet
from ..routing import get_routing_function
from ..stats import ACTIVITY_FIELDS, ActivityCounters, StatsCollector
from ..topology import LOCAL, NUM_PORTS, OPPOSITE
from . import kernel
from .kernel import COUNTERS

#: Credit count used for ejection (local) ports — an infinite sink.
_SINK_CREDITS = 1 << 30

#: Larger than any rotated arbiter priority (scoreboard fill value).
_NO_REQUEST = 1 << 30

#: ``counters`` slots, looked up by name in the one layout definition.
(_WRITES, _READS, _XBAR, _LINK_FLITS, _VC_ALLOCS, _SA_GRANTS, _CREDITS,
 _BUFFERED, _IN_LINK, _SRC_BACKLOG, _QUEUED, _INJECTED,
 _EJECTED) = map(COUNTERS.index, (
     "buffer_writes", "buffer_reads", "xbar_traversals", "link_flits",
     "vc_allocs", "sa_grants", "credit_transfers", "buffered", "in_link",
     "src_backlog", "queued_packets", "injected_flits", "ejected_flits"))
_NUM_ACTIVITY = len(ACTIVITY_FIELDS)

#: Initial packet-store capacity (doubles on demand).
_PACKET_STORE = 1024


def _counter(index: int) -> property:
    return property(
        lambda self: int(self._counters[index]),
        lambda self, value: self._counters.__setitem__(index, value))


class _EngineStats(StatsCollector):
    """Statistics whose lifetime flit counters are slots of the engine's
    ``counters``, which the cycle step updates in place."""

    injected_flits = _counter(_INJECTED)
    ejected_flits = _counter(_EJECTED)

    def __init__(self, counters: np.ndarray) -> None:
        self._counters = counters
        super().__init__()


class FastNetwork:
    """Array-based mesh engine, flit-schedule-equivalent to ``Network``.

    ``copies`` instantiates that many *disjoint* replicas of the mesh
    inside one engine (block-diagonal topology tables): replica ``c``
    owns global nodes ``c*N .. (c+1)*N - 1``.  Replicas share nothing
    but the cycle step, so each behaves exactly like a ``copies=1``
    engine while the per-cycle overhead is amortized across the batch
    — the substrate of :func:`repro.noc.fastsim.run_fixed_batch`.
    """

    def __init__(self, config: NocConfig, copies: int = 1) -> None:
        if copies < 1:
            raise ValueError("need at least one mesh replica")
        self.config = config
        self.copies = copies
        self.mesh = config.make_mesh()
        self.counters = np.zeros(len(COUNTERS), dtype=np.int64)
        self.stats = _EngineStats(self.counters)
        #: per-replica statistics; aliases ``stats`` when copies == 1
        self.stats_by_copy = ([self.stats] if copies == 1 else
                              [StatsCollector() for _ in range(copies)])
        #: per-cycle hook set by the kernel to timestamp deliveries
        self.current_time_ns = 0.0
        #: per-replica delivery timestamps (batched runs only)
        self.time_by_copy: np.ndarray | None = None
        #: packets delivered this run (kernel reads + clears)
        self.delivered: list[Packet] = []

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

        lines = np.arange(self._L, dtype=np.int64)
        self.line_node = lines // self._PV
        self.line_port = (lines // self._V) % self._P

        # Routing table, flat over (global node * NL + local dest); the
        # per-replica blocks are identical, so one tile covers all.
        routing = get_routing_function(config.routing)
        route = np.empty(local_nodes * local_nodes, dtype=np.int64)
        for src in range(local_nodes):
            for dst in range(local_nodes):
                route[src * local_nodes + dst] = routing(self.mesh, src,
                                                         dst)
        self.route = np.tile(route, copies)

        link_base = np.full(local_nodes * self._P, -1, dtype=np.int64)
        for node in range(local_nodes):
            for port, opp in OPPOSITE.items():
                nbr = self.mesh.neighbor(node, port)
                if nbr is not None:
                    link_base[node * self._P + port] = (nbr * self._PV
                                                        + opp * self._V)
        self.link_base = np.concatenate(
            [np.where(link_base >= 0, link_base + c * self._CL, -1)
             for c in range(copies)])

        # --- per-VC state, struct-of-arrays over all L lines ----------
        self.state = np.full(self._L, IDLE, dtype=np.int8)
        self.out_port = np.full(self._L, -1, dtype=np.int64)
        self.out_vc = np.full(self._L, -1, dtype=np.int64)
        #: cached ``node * P + out_port`` of a routed head (valid while
        #: the VC is ROUTING/VC_ALLOC/ACTIVE)
        self.out_group = np.zeros(self._L, dtype=np.int64)
        #: cached output credit line of the allocated output VC (valid
        #: while ACTIVE)
        self.out_line = np.zeros(self._L, dtype=np.int64)
        self.ready = np.zeros(self._L, dtype=np.int64)
        self.fifo_head = np.zeros(self._L, dtype=np.int64)
        # int16: the per-cycle busy-line scan reads this end to end,
        # and VC depths never approach the dtype limit.
        self.fifo_len = np.zeros(self._L, dtype=np.int16)
        self.buf_pid = np.full(self._L * self._D, -1, dtype=np.int64)
        self.buf_fidx = np.full(self._L * self._D, -1, dtype=np.int64)

        self.credits = np.full(self._L, self._D, dtype=np.int64)
        self.credits[self.line_port == LOCAL] = _SINK_CREDITS
        #: which input line owns each output VC line (-1 = free)
        self.owner = np.full(self._L, -1, dtype=np.int64)
        self._owner_rows = self.owner.reshape(self._NP, self._V)

        # Round-robin pointers, one per (node, port) arbiter, mirroring
        # the reference arbiters' line numbering exactly.
        self.va_ptr = np.zeros(self._NP, dtype=np.int64)
        self.sa_in_ptr = np.zeros(self._NP, dtype=np.int64)
        self.sa_out_ptr = np.zeros(self._NP, dtype=np.int64)
        # Invariant: all _NO_REQUEST between arbitration rounds; each
        # round restores only the entries it touched (O(requests)
        # instead of an O(N*P) refill — copies scale N, requests don't).
        self.scoreboard = np.full(self._NP, _NO_REQUEST, dtype=np.int64)
        self.group_counts = np.zeros(self._NP, dtype=np.int64)

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

        # --- packet store (amortized-doubling arrays + object list) ---
        self.packets: list[Packet] = []
        self.pkt_dst = np.zeros(_PACKET_STORE, dtype=np.int64)
        self.pkt_len = np.zeros(_PACKET_STORE, dtype=np.int64)
        self.pkt_hops = np.zeros(_PACKET_STORE, dtype=np.int64)
        self.pkt_next = np.full(_PACKET_STORE, -1, dtype=np.int64)

        # --- event calendars ------------------------------------------
        self.flit_line = np.zeros((self._flit_horizon, self._NP),
                                  dtype=np.int64)
        self.flit_pid = np.zeros_like(self.flit_line)
        self.flit_fidx = np.zeros_like(self.flit_line)
        self.flit_count = np.zeros(self._flit_horizon, dtype=np.int64)
        self.credit_line = np.zeros((self._credit_horizon, self._NP),
                                    dtype=np.int64)
        self.credit_count = np.zeros(self._credit_horizon, dtype=np.int64)
        self.credit_src = np.zeros((self._credit_horizon, num_nodes),
                                   dtype=np.int64)
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

        # --- the compiled step's outputs, scratch and view ------------
        #: injected heads, delivered tails and their hop counts
        self.events = np.zeros((3, num_nodes), dtype=np.int64)
        #: VC-allocation and switch-allocation candidate lists
        self.scratch = np.zeros(2 * self._L, dtype=np.int64)
        self._kernel = kernel.load_kernel()
        self._layout = None
        if self._kernel is not None:
            self._bind_kernel()

    def _bind_kernel(self) -> None:
        """Point the compiled step at the current state arrays."""
        self._layout = self._kernel.bind(
            dict(nodes=self._N, local_nodes=self._NL, ports=self._P,
                 vcs=self._V, depth=self._D, lines=self._L,
                 lines_per_copy=self._CL,
                 route_latency=self._route_latency,
                 va_latency=self._va_latency,
                 link_latency=self._link_latency,
                 credit_latency=self._credit_latency,
                 flit_horizon=self._flit_horizon,
                 credit_horizon=self._credit_horizon,
                 multi=self._multi),
            self)

    @property
    def compiled(self) -> bool:
        """True when the compiled cycle step runs this engine."""
        return self._kernel is not None

    # --- packet entry -----------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> None:
        """Hand a freshly generated packet to its source queue."""
        lid = len(self.packets)
        if lid == len(self.pkt_dst):
            self._grow_packet_store()
        self.packets.append(packet)
        src = packet.src
        copy = src // self._NL
        self.pkt_dst[lid] = packet.dst - copy * self._NL
        self.pkt_len[lid] = packet.length
        self.stats_by_copy[copy].on_packet_generated(packet)
        tail = self.q_tail[src]
        if tail < 0:
            self.q_head[src] = lid
        else:
            self.pkt_next[tail] = lid
        self.q_tail[src] = lid
        counters = self.counters
        counters[_QUEUED] += 1
        counters[_SRC_BACKLOG] += packet.length
        if self._multi:
            self.backlog_by_copy[copy] += packet.length

    def _grow_packet_store(self) -> None:
        cap = 2 * len(self.pkt_dst)
        for name in ("pkt_dst", "pkt_len", "pkt_hops", "pkt_next"):
            old = getattr(self, name)
            grown = np.full(cap, -1 if name == "pkt_next" else 0,
                            dtype=np.int64)
            grown[:len(old)] = old
            setattr(self, name, grown)
        if self._kernel is not None:
            self._bind_kernel()

    # --- cycle advance ------------------------------------------------------
    def step_cycle(self, cycle: int, time_ns: float) -> None:
        """Advance every component by one network clock cycle."""
        self.current_time_ns = time_ns
        if self._kernel is None:
            heads, tails, hops = self._step_numpy(cycle)
        else:
            events = self._kernel.step(self._layout, cycle,
                                       self.attribute_activity)
            if not events:
                return
            num_tails = events >> 32
            heads = self.events[0, :events & 0xFFFFFFFF].tolist()
            tails = self.events[1, :num_tails].tolist()
            hops = self.events[2, :num_tails].tolist()
        packets = self.packets
        for lid in heads:
            packets[lid].injected_cycle = cycle
        if tails:
            self._deliver(cycle, tails, hops)

    def _deliver(self, cycle: int, tails: list[int],
                 hops: list[int]) -> None:
        """Bookkeeping for the packets whose tails ejected this cycle."""
        now_ns = self.current_time_ns
        times = self.time_by_copy
        time_of = None if times is None else times.tolist()
        for lid, hop_count in zip(tails, hops):
            packet = self.packets[lid]
            copy = packet.src // self._NL
            packet.ejected_cycle = cycle
            packet.ejected_ns = now_ns if time_of is None else time_of[copy]
            packet.hops = hop_count
            self.stats_by_copy[copy].on_packet_delivered(packet)
            self.delivered.append(packet)

    def _step_numpy(self, cycle: int) -> tuple[list, list, list]:
        """The NumPy cycle step; returns the injected head packet ids,
        the delivered tail packet ids and their hop counts."""
        counters = self.counters
        slot = cycle % self._credit_horizon
        count = self.credit_count[slot]
        if count:
            self.credits[self.credit_line[slot, :count]] += 1
            self.credit_count[slot] = 0
        count = self.credit_src_count[slot]
        if count:
            self.src_credits[self.credit_src[slot, :count]] += 1
            self.credit_src_count[slot] = 0

        slot = cycle % self._flit_horizon
        count = self.flit_count[slot]
        if count:
            self.flit_count[slot] = 0
            self._push_flits(self.flit_line[slot, :count],
                             self.flit_pid[slot, :count],
                             self.flit_fidx[slot, :count])
            counters[_IN_LINK] -= count

        heads = self._step_sources() if counters[_SRC_BACKLOG] else []
        if counters[_BUFFERED]:
            return (heads, *self._step_routers(cycle))
        return heads, [], []

    def _push_flits(self, lines: np.ndarray, pids: np.ndarray,
                    fidxs: np.ndarray) -> None:
        """Buffer one arriving flit per (unique) line."""
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
    def _step_sources(self) -> list[int]:
        """All sources try to inject one flit (the reference Source);
        returns the packet ids of the injected heads."""
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
            return []
        vcs = self.cur_vc.take(active)
        slots = active * self._V + vcs
        can = self.src_credits.take(slots) > 0
        if not can.all():
            active = active[can]
            if not active.size:
                return []
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

        heads = lids[sent == 0].tolist()
        sent = sent + 1
        self.cur_sent[active] = sent
        finished = sent >= self.cur_len.take(active)
        if finished.any():
            cur_lid[active[finished]] = -1
        return heads

    # --- router pipeline ----------------------------------------------------
    def _step_routers(self, cycle: int) -> tuple[list, list]:
        """One cycle of every router's pipeline; returns the delivered
        tail packet ids and their hop counts.

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
            return [], []
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
            out_lines = self.out_line.take(act)
            got_credit = self.credits.take(out_lines) > 0
            if not got_credit.all():
                act = act[got_credit]
                out_lines = out_lines[got_credit]

        va = wf[va_mask]
        if va.size:
            self._vc_allocate(va, cycle)
        if act.size:
            return self._switch_allocate(act, out_lines, cycle)
        return [], []

    def _vc_allocate(self, va: np.ndarray, cycle: int) -> None:
        """Phase B: VC allocation, one grant round per free output VC.

        Mirrors the reference loop exactly: per output port, the free
        output VCs are granted in increasing index order, each to the
        next requester after the rotating pointer of the port's
        ``P*V``-line arbiter (which advances on every grant).
        """
        pv = self._PV
        group = self.out_group.take(va)
        lane = va % pv
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
                         cycle: int) -> tuple[list, list]:
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
            champs = self._arbitrate(self.out_group.take(act),
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
        np.minimum.at(scoreboard, group, prio)
        champs = np.flatnonzero(prio == scoreboard.take(group))
        scoreboard[group] = _NO_REQUEST
        if champs.size == group.size:
            return None                     # all groups uncontested
        counts = self.group_counts
        np.add.at(counts, group, 1)
        contested = counts.take(group.take(champs)) >= 2
        counts[group] = 0
        advance = champs[contested]
        pointers[group.take(advance)] = (lane.take(advance) + 1) % size
        return champs

    def _send(self, winners: np.ndarray, out_lines: np.ndarray,
              cycle: int) -> tuple[list, list]:
        """Phase D: winners traverse switch and link (the reference's
        ``_send_flit``, batched); returns the delivered tail packet ids
        and their hop counts."""
        counters = self.counters
        count = winners.size
        front = self.fifo_head.take(winners)
        slots = winners * self._D + front
        pids = self.buf_pid.take(slots)
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
        done_lids: list[int] = []
        done_hops: list[int] = []
        if ejected:
            # Ejection: the sink consumes the flit; no credit needed.
            counters[_EJECTED] += ejected
            if self._multi:
                ej_by_copy = np.bincount(winners[local] // self._CL,
                                         minlength=self.copies)
                self.ejected_by_copy += ej_by_copy
            eject_tails = local & tails
            if eject_tails.any():
                done = pids[eject_tails]
                done_lids = done.tolist()
                done_hops = self.pkt_hops.take(done).tolist()
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
        return done_lids, done_hops

    # --- introspection -----------------------------------------------------
    def aggregate_activity(self) -> ActivityCounters:
        """Sum of all event counters (for power windows)."""
        totals = self.counters[:_NUM_ACTIVITY].tolist()
        return self.stats.activity + ActivityCounters(
            **dict(zip(ACTIVITY_FIELDS, totals)))

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
        untouched (the equivalence suite enforces this).
        """
        if not self._multi:
            raise ValueError("freeze_copy needs a multi-replica engine")
        counters = self.counters
        lo, hi = copy * self._CL, (copy + 1) * self._CL
        node_lo, node_hi = copy * self._NL, (copy + 1) * self._NL

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

    def ejected_flits_of(self, copy: int) -> int:
        """Cumulative ejected flits of one replica."""
        if not self._multi:
            return self.stats.ejected_flits
        return int(self.ejected_by_copy[copy])

    def backlog_of(self, copy: int) -> int:
        """Source-queue backlog flits of one replica."""
        if not self._multi:
            return self.source_backlog_flits()
        return int(self.backlog_by_copy[copy])

    def is_drained(self) -> bool:
        """True when no flit remains anywhere in the system."""
        return (self.in_flight_flits() == 0
                and self.source_backlog_flits() == 0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"FastNetwork({self.mesh.width}x{self.mesh.height}, "
                f"in_flight={self.in_flight_flits()})")
