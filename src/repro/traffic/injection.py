"""Injection processes: what each node offers to the network.

A ``TrafficSpec`` answers two questions for the simulation kernel:
how many flits per *node* clock cycle does node ``i`` offer (the
``lambda_node`` of the paper), and where does each packet go.  Packet
arrivals are Bernoulli per node cycle with probability
``node_rate / packet_length`` — the standard Booksim injection process —
and they happen in the node clock domain, so the offered load is
independent of the DVFS state of the network (Sec. III).

A spec may also declare an :class:`ArrivalLaw` that the fast engine's
compiled step draws itself, from the same generator and in the same
order as :meth:`InjectionProcess.arrivals`.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .matrix import TrafficMatrix
from .patterns import TrafficPattern


class TrafficSpec(ABC):
    """Per-node offered rates plus destination selection."""

    @abstractmethod
    def node_rates(self) -> np.ndarray:
        """Offered rate per node, flits per node clock cycle."""

    @abstractmethod
    def draw_dest(self, src: int, rng: np.random.Generator) -> int | None:
        """Destination for a new packet from ``src`` (``None`` = drop)."""

    @abstractmethod
    def scaled(self, factor: float) -> "TrafficSpec":
        """The same spatial distribution at ``factor`` times the rate."""

    def spec_key(self) -> tuple:
        """Canonical identity tuple (sweep-runner cache/seed key).

        The default keys on the class name and the exact per-node rate
        vector.  Subclasses whose destination distribution is not
        determined by those (it usually isn't) must override.
        """
        rates = np.ascontiguousarray(self.node_rates())
        return (type(self).__name__,
                hashlib.sha256(rates.tobytes()).hexdigest())

    def mean_node_rate(self) -> float:
        """Average offered rate across nodes (the sweep x-axis)."""
        return float(self.node_rates().mean())

    # --- time-varying contract ------------------------------------------
    # ``node_rates`` reports the *nominal* (factor-1) rates; a spec may
    # additionally modulate them over node-cycle time.  The injection
    # process queries the modulation through these hooks, so any spec —
    # built-in or user-defined — participates in the peak-rate
    # saturation check and the per-cycle threshold path without
    # ``isinstance`` special cases.

    @property
    def is_time_varying(self) -> bool:
        """Whether offered load depends on node-cycle time."""
        return False

    def max_factor(self) -> float:
        """Peak rate multiplier over all node cycles (1.0 = constant).

        Part of the base contract so the injection process can validate
        ``peak rate <= one packet per node cycle`` for *any* spec.  A
        subclass that overrides :meth:`rate_factors` without this is
        caught when it draws: the injection process raises
        ``ValueError`` when factors exceed ``max_factor()``.
        """
        return 1.0

    def rate_factors(self, start_cycle: int,
                     count: int) -> np.ndarray | None:
        """Per-cycle rate multipliers for ``count`` cycles from start.

        ``None`` (the default) means the spec is constant-rate and the
        injection process uses its packet probabilities directly.
        Time-varying subclasses return an array of ``count`` factors.
        """
        return None

    def replay_events(self, start_cycle: int, count: int
                      ) -> list[tuple[int, int, int]] | None:
        """Recorded arrivals for ``[start_cycle, start_cycle+count)``.

        ``None`` (the default) means arrivals are drawn from the
        Bernoulli process.  A replayed spec (see
        :class:`repro.workload.TraceTraffic`) returns its recorded
        ``(cycle_offset, src, dst)`` events instead — the injection
        process then consumes no randomness at all, so replay is
        bit-identical on every backend by construction.
        """
        return None

    def arrival_law(self) -> "ArrivalLaw | None":
        """The law the fast engine's compiled step may draw, or ``None``
        (the default): the arrivals are drawn by
        :meth:`InjectionProcess.arrivals`.

        An explicit opt-in per class, never inherited: the law is used
        only when the spec's own class defines this method, so a
        subclass that changes how arrivals are drawn falls back to the
        Python draw.
        """
        return None


@dataclass(frozen=True, eq=False)
class ArrivalLaw:
    """An arrival law the fast engine's compiled step draws itself.

    The Bernoulli trials of :meth:`InjectionProcess.arrivals` against
    the constant per-node packet probabilities, optionally scaled by a
    step table of rate factors (``step_cycles``/``step_factors``, as
    :class:`PiecewiseRateTraffic` holds them), then one destination per
    hit: uniform over the other nodes (``dests is None``, drawn as
    :class:`~repro.traffic.patterns.UniformTraffic` draws it) or the
    fixed ``dests[src]``, which draws nothing.
    """

    dests: np.ndarray | None = None
    step_cycles: np.ndarray | None = None
    step_factors: np.ndarray | None = None


def _declared(obj, name: str):
    """``obj``'s attribute ``name`` when ``obj``'s own class defines
    it, else ``None``: how compiled arrival laws opt in per class."""
    return getattr(obj, name) if name in type(obj).__dict__ else None


def compiled_law(spec: TrafficSpec) -> ArrivalLaw | None:
    """``spec.arrival_law()`` if ``spec``'s own class defines it."""
    arrival_law = _declared(spec, "arrival_law")
    return arrival_law() if arrival_law is not None else None


class PiecewiseRateTraffic(TrafficSpec):
    """A base traffic spec whose rate steps over node-cycle time.

    Used for transient experiments: the DVFS controllers must track a
    load step (e.g. an application phase change).  ``steps`` maps node
    cycle thresholds to rate multipliers: ``[(0, 1.0), (50_000, 2.0)]``
    doubles the offered load after node cycle 50,000.  The *spatial*
    distribution is the base spec's at all times.

    ``node_rates``/``mean_node_rate`` report the base (factor-1) rates;
    time-dependent factors are queried by the injection process through
    :meth:`rate_factors`.
    """

    def __init__(self, base: TrafficSpec,
                 steps: list[tuple[int, float]]) -> None:
        if not steps:
            raise ValueError("need at least one (cycle, factor) step")
        cycles = [c for c, _ in steps]
        if cycles != sorted(cycles) or len(set(cycles)) != len(cycles):
            raise ValueError("step cycles must be strictly increasing")
        if cycles[0] != 0:
            raise ValueError("first step must start at node cycle 0")
        if any(f < 0 for _, f in steps):
            raise ValueError("rate factors must be non-negative")
        self.base = base
        self.steps = list(steps)
        # Vectorized lookup tables for rate_factors: workload sources
        # (repro.workload) emit hundreds of segments, so the per-cycle
        # factor query must not scan the step list per cycle.
        self._step_cycles = np.array([c for c, _ in self.steps],
                                     dtype=np.int64)
        self._step_factors = np.array([f for _, f in self.steps])

    def node_rates(self) -> np.ndarray:
        return self.base.node_rates()

    @property
    def is_time_varying(self) -> bool:
        return True

    def max_factor(self) -> float:
        return max(f for _, f in self.steps)

    def factor_at(self, node_cycle: int) -> float:
        current = self.steps[0][1]
        for cycle, factor in self.steps:
            if node_cycle < cycle:
                break
            current = factor
        return current

    def rate_factors(self, start_cycle: int, count: int) -> np.ndarray:
        """Per-cycle rate multipliers for ``count`` cycles from start.

        One ``searchsorted`` over the step table — the values are the
        exact step factors, bit-identical to the scalar
        :meth:`factor_at` per cycle.
        """
        cycles = np.arange(start_cycle, start_cycle + count,
                           dtype=np.int64)
        idx = np.searchsorted(self._step_cycles, cycles,
                              side="right") - 1
        return self._step_factors[idx]

    def draw_dest(self, src: int, rng: np.random.Generator) -> int | None:
        return self.base.draw_dest(src, rng)

    def spec_key(self) -> tuple:
        return ("piecewise", self.base.spec_key(),
                tuple((c, repr(f)) for c, f in self.steps))

    def arrival_law(self) -> ArrivalLaw | None:
        """The base's compiled law under this step table (a base that
        steps itself is drawn in Python)."""
        base = compiled_law(self.base)
        if base is None or base.step_cycles is not None:
            return None
        return ArrivalLaw(base.dests, self._step_cycles,
                          self._step_factors)

    def scaled(self, factor: float) -> "PiecewiseRateTraffic":
        return PiecewiseRateTraffic(self.base.scaled(factor), self.steps)


class PatternTraffic(TrafficSpec):
    """All nodes offer the same rate; destinations follow a pattern.

    This is the synthetic-traffic setup of paper Sec. V: the x-axis of
    every figure is this common per-node rate in flits/cycle.

    A deterministic pattern may leave some nodes without a destination
    (``dest == src``); those nodes offer nothing, exactly as in
    Booksim.
    """

    def __init__(self, pattern: TrafficPattern, node_rate: float) -> None:
        if node_rate < 0:
            raise ValueError("injection rate must be non-negative")
        self.pattern = pattern
        self.node_rate = node_rate
        self._rates = np.zeros(pattern.mesh.num_nodes)
        self._rates[pattern.active_sources()] = node_rate

    def node_rates(self) -> np.ndarray:
        return self._rates

    def draw_dest(self, src: int, rng: np.random.Generator) -> int | None:
        d = self.pattern.dest(src, rng)
        return None if d == src else d

    def spec_key(self) -> tuple:
        return (("pattern",) + tuple(self.pattern.spec_key())
                + (repr(float(self.node_rate)),))

    def arrival_law(self) -> ArrivalLaw | None:
        """Uniform or a destination table, as the pattern's own class
        declares (``TrafficPattern.compiled_law``)."""
        law = _declared(self.pattern, "compiled_law")
        n = self.pattern.mesh.num_nodes
        if law == "uniform" and n >= 2:
            return ArrivalLaw()
        if law == "table":
            # Permutation patterns never draw from the generator.
            return ArrivalLaw(self.pattern.destinations)
        return None

    def scaled(self, factor: float) -> "PatternTraffic":
        return PatternTraffic(self.pattern, self.node_rate * factor)


class MatrixTraffic(TrafficSpec):
    """Per-pair rates given by a ``TrafficMatrix`` (multimedia apps)."""

    def __init__(self, matrix: TrafficMatrix) -> None:
        self.matrix = matrix

    def node_rates(self) -> np.ndarray:
        return np.array([self.matrix.node_rate(i)
                         for i in range(self.matrix.num_nodes)])

    def draw_dest(self, src: int, rng: np.random.Generator) -> int | None:
        return self.matrix.draw_dest(src, rng)

    def spec_key(self) -> tuple:
        return ("matrix", self.matrix.digest())

    def scaled(self, factor: float) -> "MatrixTraffic":
        return MatrixTraffic(self.matrix.scaled(factor))


class InjectionProcess:
    """Bernoulli packet-arrival process for all nodes, node clock domain.

    Vectorized: one call covers a contiguous range of node cycles for
    every node at once, which keeps the Python overhead of the hot loop
    low.  A call draws from the one generator every Bernoulli trial of
    its node cycles first (row-major: node cycle, then node), then one
    destination per hit in the same order.  The simulation makes one
    call per network cycle, covering the node cycles that elapsed in
    it: 1 at Fmax, up to 3 at Fmin.  So the arrivals of a seed depend
    on that grouping, and with it on the network's frequency: the same
    seed at two frequencies offers the same load but different packets.
    """

    def __init__(self, spec: TrafficSpec, packet_length: int,
                 rng: np.random.Generator) -> None:
        if packet_length < 1:
            raise ValueError("packet length must be >= 1")
        self.spec = spec
        self.packet_length = packet_length
        self.rng = rng
        rates = spec.node_rates()
        self.packet_prob = rates / packet_length
        # The base-contract peak check: every spec answers max_factor()
        # (1.0 for constant-rate specs), so a time-varying spec cannot
        # silently bypass the saturation validation.
        peak_factor = float(spec.max_factor())
        if (self.packet_prob * peak_factor > 1.0).any():
            bad = float(rates.max()) * peak_factor
            raise ValueError(
                f"offered rate {bad:.3f} flits/cycle exceeds one packet "
                f"per node cycle for packet length {packet_length}")
        self._peak_factor = peak_factor
        self.num_nodes = len(rates)
        self._cursor = 0  # next node cycle to be drawn

    def _check_factors(self, factors: np.ndarray) -> None:
        """Rate factors above the spec's ``max_factor()`` would bypass
        the peak-rate check above (and be capped at one packet per
        node cycle), so they are an error."""
        if factors.size and float(factors.max()) > self._peak_factor:
            name = type(self.spec).__name__
            raise ValueError(
                f"{name} rate factor {float(factors.max())!r} exceeds "
                f"its max_factor() {self._peak_factor!r}; override "
                f"{name}.max_factor() to return the peak factor")

    def check_law(self, law: ArrivalLaw) -> None:
        """Check the spec's compiled ``law`` (:func:`compiled_law`): its
        step table against ``max_factor()``."""
        if law.step_factors is not None:
            self._check_factors(law.step_factors)

    def arrivals(self, num_node_cycles: int) -> list[tuple[int, int, int]]:
        """Draw arrivals for the next ``num_node_cycles`` node cycles.

        Returns ``(cycle_offset, src, dst)`` tuples, where
        ``cycle_offset`` is the index within the requested range.
        Sources with no destination (deterministic self-traffic, empty
        matrix rows) never appear.
        """
        if num_node_cycles <= 0:
            return []
        replayed = self.spec.replay_events(self._cursor, num_node_cycles)
        if replayed is not None:
            # Trace replay: the events *are* the arrivals; no
            # randomness is consumed, so replay cannot depend on the
            # backend, the chunking or the DVFS trajectory.
            self._cursor += num_node_cycles
            return replayed
        draws = self.rng.random((num_node_cycles, self.num_nodes))
        factors = self.spec.rate_factors(self._cursor, num_node_cycles)
        if factors is not None:
            factors = np.asarray(factors)
            self._check_factors(factors)
            threshold = factors[:, None] * self.packet_prob[None, :]
        else:
            threshold = self.packet_prob
        self._cursor += num_node_cycles
        hits = np.nonzero(draws < threshold)
        out = []
        for offset, src in zip(hits[0].tolist(), hits[1].tolist()):
            dst = self.spec.draw_dest(src, self.rng)
            if dst is not None:
                out.append((offset, src, dst))
        return out

    def arrivals_per_node(self, counts: np.ndarray
                          ) -> list[tuple[int, int, int]]:
        """Draw arrivals when nodes tick at *different* rates.

        ``counts[n]`` is how many node cycles completed at node ``n``
        since the last call (from
        :meth:`repro.noc.clock.MultiNodeClockBridge.elapsed_counts`).
        Returns ``(node, cycle_offset, dst)`` tuples, where
        ``cycle_offset`` indexes into node ``n``'s own delivered range.
        Time-varying traffic (piecewise rates, trace replay) is not
        supported together with heterogeneous node clocks.
        """
        if self.spec.is_time_varying:
            raise NotImplementedError(
                "time-varying traffic with heterogeneous node clocks "
                "is not supported")
        counts = np.asarray(counts)
        if len(counts) != self.num_nodes:
            raise ValueError(f"expected {self.num_nodes} counts, got "
                             f"{len(counts)}")
        total = int(counts.sum())
        if total <= 0:
            return []
        # One Bernoulli trial per (node, node-cycle) pair, flattened in
        # node order so results are deterministic for a given seed.
        nodes = np.repeat(np.arange(self.num_nodes), counts)
        probs = self.packet_prob[nodes]
        draws = self.rng.random(total)
        hit_idx = np.nonzero(draws < probs)[0]
        # Per-node cycle offset of each flattened trial.
        firsts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        out = []
        for idx in hit_idx.tolist():
            src = int(nodes[idx])
            offset = idx - int(firsts[src])
            dst = self.spec.draw_dest(src, self.rng)
            if dst is not None:
                out.append((src, offset, dst))
        return out
