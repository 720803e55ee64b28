"""Clock-domain bookkeeping: the heart of the paper's DVFS mechanism.

The paper's key modification to Booksim is *decoupling the network
clock from the node clock* (Sec. III).  The simulation kernel advances
in **network** clock cycles; each cycle advances absolute time by the
current network period ``1/Fnoc``.  Node-domain processes (the traffic
generators) tick at the fixed ``Fnode``; when the network runs slower
than the nodes, several node cycles elapse per network cycle, which is
exactly how eq. (1), ``lambda_noc = lambda_node * Fnode / Fnoc``,
manifests mechanically: more flits are offered per network cycle and
the NoC operates closer to saturation.  :class:`NodeSource` ties an
injection process to these node clocks: it is how an engine draws one
replica's arrivals in Python.
"""

from __future__ import annotations

import numpy as np


class NetworkClock:
    """The NoC's scalable clock: cycle counter plus absolute time.

    Frequency changes (from the DVFS controller) take effect on the
    next cycle boundary, which matches the paper's assumption that the
    PLL retunes between control periods.
    """

    __slots__ = ("f_min_hz", "f_max_hz", "freq_hz", "cycle", "time_ns")

    def __init__(self, f_initial_hz: float, f_min_hz: float,
                 f_max_hz: float) -> None:
        if not (0 < f_min_hz <= f_max_hz):
            raise ValueError("need 0 < f_min <= f_max")
        self.f_min_hz = f_min_hz
        self.f_max_hz = f_max_hz
        self.freq_hz = self._clip(f_initial_hz)
        self.cycle = 0
        self.time_ns = 0.0

    def _clip(self, freq_hz: float) -> float:
        return min(self.f_max_hz, max(self.f_min_hz, freq_hz))

    @property
    def period_ns(self) -> float:
        """Duration of one network clock cycle at the current frequency."""
        return 1e9 / self.freq_hz

    def set_frequency(self, freq_hz: float) -> float:
        """Retune the clock, clipping into ``[f_min, f_max]``.

        Returns the actually-applied (clipped) frequency, mirroring the
        clipping regions of the paper's Fig. 1 / Fig. 3 transfer
        characteristics.
        """
        if freq_hz <= 0:
            raise ValueError(f"frequency must be positive, got {freq_hz}")
        self.freq_hz = self._clip(freq_hz)
        return self.freq_hz

    def tick(self) -> None:
        """Advance one network cycle of absolute time."""
        self.time_ns += self.period_ns
        self.cycle += 1


class MultiNodeClockBridge:
    """Per-node clock ticks for heterogeneous node frequencies.

    The paper's footnote 1 notes that "a more general treatment with
    different and variable node frequencies is possible"; this bridge
    provides it.  Each node ``n`` ticks at its own ``freqs_hz[n]``;
    after every network cycle a :class:`NodeSource` asks how many node
    cycles completed per node and draws that node's arrivals
    accordingly, so faster nodes offer proportionally more traffic per
    second at the same per-node-cycle rate.
    """

    __slots__ = ("freqs_hz", "periods_ns", "next_cycles")

    def __init__(self, freqs_hz) -> None:
        freqs = np.asarray(freqs_hz, dtype=float)
        if freqs.ndim != 1 or len(freqs) == 0:
            raise ValueError("need a 1-D array of node frequencies")
        if (freqs <= 0).any():
            raise ValueError("node frequencies must be positive")
        self.freqs_hz = freqs
        self.periods_ns = 1e9 / freqs
        self.next_cycles = np.zeros(len(freqs), dtype=np.int64)

    def node_time_ns(self, node: int, node_cycle: int) -> float:
        """Absolute time of node ``node``'s clock edge ``node_cycle``."""
        return node_cycle * self.periods_ns[node]

    def elapsed_counts(self, time_ns: float):
        """Per-node count of newly completed node cycles.

        Returns ``(start_cycles, counts)`` — for node ``n`` the newly
        delivered cycles are ``start_cycles[n] ..
        start_cycles[n] + counts[n] - 1``.  Cursors advance so every
        cycle is delivered exactly once.
        """
        completed = (time_ns / self.periods_ns + 1e-9).astype(np.int64)
        start = self.next_cycles.copy()
        counts = np.maximum(0, completed + 1 - start)
        self.next_cycles = np.maximum(self.next_cycles, completed + 1)
        return start, counts


class NodeClockBridge:
    """Delivers node-clock ticks to node-domain processes.

    Node cycle ``k`` occurs at absolute time ``k / Fnode``.  After each
    network-clock tick the kernel asks the bridge which node cycles
    have newly completed; the traffic generators then draw one
    Bernoulli arrival trial per node cycle, so the offered load is
    defined in the node clock domain regardless of how slowly the
    network runs — precisely the paper's injection model.
    """

    __slots__ = ("f_node_hz", "period_ns", "next_node_cycle")

    def __init__(self, f_node_hz: float) -> None:
        if f_node_hz <= 0:
            raise ValueError("node frequency must be positive")
        self.f_node_hz = f_node_hz
        self.period_ns = 1e9 / f_node_hz
        self.next_node_cycle = 0

    def node_time_ns(self, node_cycle: int) -> float:
        """Absolute time of node clock edge ``node_cycle``."""
        return node_cycle * self.period_ns

    def elapsed_node_cycles(self, time_ns: float) -> range:
        """Node cycles whose clock edge occurred at or before ``time_ns``.

        Returns the (possibly empty) range of newly completed node
        cycle indices and advances the internal cursor, so every node
        cycle is delivered exactly once.
        """
        # Add a tiny epsilon so that exact-ratio frequencies (e.g.
        # Fnode == Fnoc) are not lost to float rounding.
        completed = int(time_ns / self.period_ns + 1e-9)
        start = self.next_node_cycle
        if completed < start:
            return range(start, start)
        self.next_node_cycle = completed + 1
        return range(start, completed + 1)


class NodeSource:
    """One replica's arrivals, drawn in the node clock domain.

    Holds the reference node clock of eq. (2) (``f_node_hz``), which
    paces measurement and control windows, and, when ``node_freqs_hz``
    is set (paper footnote 1), one clock per node that paces each
    node's own draws instead.  Each :meth:`draw` covers the node cycles
    completed since the last one, as one ``injection.arrivals`` (or
    ``arrivals_per_node``) call.
    """

    __slots__ = ("injection", "bridge", "nodes")

    def __init__(self, injection, f_node_hz: float,
                 node_freqs_hz=None) -> None:
        self.injection = injection
        self.bridge = NodeClockBridge(f_node_hz)
        self.nodes = (MultiNodeClockBridge(node_freqs_hz)
                      if node_freqs_hz is not None else None)

    def draw(self, time_ns: float) -> list[tuple[int, int, float]]:
        """``(src, dst, created_ns)`` of the arrivals up to ``time_ns``,
        in draw order."""
        cycles = self.bridge.elapsed_node_cycles(time_ns)
        nodes = self.nodes
        if nodes is not None:
            starts, counts = nodes.elapsed_counts(time_ns)
            return [(src, dst,
                     float(nodes.node_time_ns(src, int(starts[src])
                                              + offset)))
                    for src, offset, dst
                    in self.injection.arrivals_per_node(counts)]
        if not len(cycles):
            return []
        first = cycles.start
        return [(src, dst, self.bridge.node_time_ns(first + offset))
                for offset, src, dst
                in self.injection.arrivals(len(cycles))]
