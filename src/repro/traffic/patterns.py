"""Synthetic traffic patterns (paper Sec. V).

The paper evaluates uniform, tornado, bit-complement, transpose and
neighbor traffic.  Each pattern maps a source node to a destination —
either deterministically (permutation patterns) or randomly (uniform,
hotspot).  Definitions follow Booksim's, generalized so they remain
well-defined on non-power-of-two meshes such as the paper's 5x5:

* *bit-complement* generalizes to the coordinate complement
  ``(W-1-x, H-1-y)`` (identical to bit complement when each dimension
  is a power of two);
* *tornado* shifts each coordinate by ``ceil(k/2) - 1`` modulo ``k``;
* *transpose* swaps coordinates (requires a square mesh);
* *neighbor* sends to ``((x+1) mod W, y)``.

A deterministic pattern may map a node onto itself (e.g. the center of
an odd-width mesh under complement); such nodes generate no traffic,
as in Booksim.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cached_property

import numpy as np

from ..core.registry import Ref, Registry
from ..noc.topology import Mesh

#: The process-wide traffic-pattern registry — the mirror of
#: ``repro.core.registry.POLICY_REGISTRY`` for workloads.  Factories
#: take the mesh first, then the pattern's own parameters.
PATTERN_REGISTRY = Registry("traffic pattern")


def register_pattern(cls=None, *, name: str | None = None,
                     replace: bool = False):
    """Class decorator registering a ``TrafficPattern`` under its name.

    Usable bare (``@register_pattern``) or parameterized
    (``@register_pattern(name="mine")``).  Registered patterns are
    reachable everywhere a pattern name is accepted: ``make_pattern``,
    ``ScenarioSpec``, ``Workbench`` sweeps and the CLI ``--pattern``
    flag.
    """
    return PATTERN_REGISTRY.registering(cls, name=name, replace=replace)


def pattern_names() -> tuple[str, ...]:
    """All registered pattern names, in registration order."""
    return PATTERN_REGISTRY.names()


def as_pattern_ref(pattern: "Ref | str") -> Ref:
    """Coerce and fully validate a pattern reference (name + params)."""
    return PATTERN_REGISTRY.validate_ref(pattern, skip_positional=1)


class TrafficPattern(ABC):
    """Maps sources to destinations on a given mesh."""

    #: registry name, set by subclasses
    name: str = "abstract"

    #: Human-readable mesh-shape constraint (``list-scenarios`` note),
    #: or None when the pattern works on any mesh.  Violations raise
    #: at construction and surface at ``ScenarioSpec`` validation.
    requires: str | None = None

    #: How the fast engine's compiled step may draw this pattern's
    #: destinations (``PatternTraffic.arrival_law``): ``"uniform"``,
    #: exactly as :class:`UniformTraffic` draws; ``"table"``, a fixed
    #: destination per source whose :meth:`dest` never draws; or None,
    #: :meth:`dest` is called in Python.  Only the class that sets it
    #: opts in: subclasses do not inherit it.
    compiled_law: str | None = None

    def __init__(self, mesh: Mesh) -> None:
        self.mesh = mesh

    @abstractmethod
    def dest(self, src: int, rng: np.random.Generator) -> int:
        """Destination for a packet from ``src`` (may equal ``src``)."""

    def spec_key(self) -> tuple:
        """Canonical identity of this pattern on its mesh.

        Used by the sweep runner to key unit results: two separately
        constructed patterns with the same key are interchangeable.
        Subclasses with extra parameters must extend the tuple.
        """
        return (self.name, self.mesh.width, self.mesh.height)

    @property
    def is_deterministic(self) -> bool:
        """True when every source always targets the same destination."""
        return True

    @cached_property
    def destinations(self) -> np.ndarray:
        """Each source's destination, walked once per instance (read-only).

        Meaningful for deterministic patterns only: sources are asked in
        node order, sharing one generator seeded 0.
        """
        rng = np.random.default_rng(0)
        table = np.array([self.dest(src, rng)
                          for src in range(self.mesh.num_nodes)],
                         dtype=np.int64)
        table.flags.writeable = False
        return table

    def active_sources(self) -> list[int]:
        """Nodes that generate traffic (i.e. have a destination != self)."""
        if not self.is_deterministic:
            return list(range(self.mesh.num_nodes))
        return [s for s, d in enumerate(self.destinations.tolist())
                if d != s]


@register_pattern
class UniformTraffic(TrafficPattern):
    """Uniform random: each packet targets a uniformly random other node."""

    name = "uniform"
    compiled_law = "uniform"

    @property
    def is_deterministic(self) -> bool:
        return False

    def dest(self, src: int, rng: np.random.Generator) -> int:
        n = self.mesh.num_nodes
        d = int(rng.integers(0, n - 1))
        # Skip over src so the draw is uniform over the other n-1 nodes.
        return d + 1 if d >= src else d


@register_pattern
class ComplementTraffic(TrafficPattern):
    """Bit-complement, generalized to coordinate complement."""

    name = "bitcomp"
    compiled_law = "table"

    def dest(self, src: int, rng: np.random.Generator) -> int:
        c = self.mesh.coord(src)
        return self.mesh.node_at(self.mesh.width - 1 - c.x,
                                 self.mesh.height - 1 - c.y)


@register_pattern
class TransposeTraffic(TrafficPattern):
    """Matrix transpose: ``(x, y) -> (y, x)``.  Requires a square mesh."""

    name = "transpose"
    compiled_law = "table"
    requires = "square mesh"

    def __init__(self, mesh: Mesh) -> None:
        if mesh.width != mesh.height:
            raise ValueError("transpose traffic requires a square mesh")
        super().__init__(mesh)

    def dest(self, src: int, rng: np.random.Generator) -> int:
        c = self.mesh.coord(src)
        return self.mesh.node_at(c.y, c.x)


@register_pattern
class TornadoTraffic(TrafficPattern):
    """Tornado: shift each coordinate halfway around its dimension."""

    name = "tornado"
    compiled_law = "table"

    def dest(self, src: int, rng: np.random.Generator) -> int:
        c = self.mesh.coord(src)
        w, h = self.mesh.width, self.mesh.height
        dx = (c.x + (w + 1) // 2 - 1) % w
        dy = (c.y + (h + 1) // 2 - 1) % h
        return self.mesh.node_at(dx, dy)


@register_pattern
class NeighborTraffic(TrafficPattern):
    """Nearest-neighbor: send one hop east (with wrap in the index)."""

    name = "neighbor"
    compiled_law = "table"

    def dest(self, src: int, rng: np.random.Generator) -> int:
        c = self.mesh.coord(src)
        return self.mesh.node_at((c.x + 1) % self.mesh.width, c.y)


@register_pattern
class BitReverseTraffic(TrafficPattern):
    """Bit-reversal of the node index (power-of-two node counts only)."""

    name = "bitrev"
    compiled_law = "table"
    requires = "power-of-two node count"

    def __init__(self, mesh: Mesh) -> None:
        n = mesh.num_nodes
        if n & (n - 1):
            raise ValueError(
                "bit-reverse traffic requires a power-of-two node count")
        super().__init__(mesh)
        self._bits = n.bit_length() - 1

    def dest(self, src: int, rng: np.random.Generator) -> int:
        out = 0
        for i in range(self._bits):
            if src & (1 << i):
                out |= 1 << (self._bits - 1 - i)
        return out


@register_pattern
class ShuffleTraffic(TrafficPattern):
    """Perfect shuffle: rotate the index bits left by one."""

    name = "shuffle"
    compiled_law = "table"
    requires = "power-of-two node count"

    def __init__(self, mesh: Mesh) -> None:
        n = mesh.num_nodes
        if n & (n - 1):
            raise ValueError(
                "shuffle traffic requires a power-of-two node count")
        super().__init__(mesh)
        self._bits = n.bit_length() - 1

    def dest(self, src: int, rng: np.random.Generator) -> int:
        msb = (src >> (self._bits - 1)) & 1
        return ((src << 1) | msb) & (self.mesh.num_nodes - 1)


@register_pattern
class HotspotTraffic(TrafficPattern):
    """Uniform traffic with a fraction diverted to one hotspot node."""

    name = "hotspot"

    def __init__(self, mesh: Mesh, hotspot: int | None = None,
                 fraction: float = 0.2) -> None:
        super().__init__(mesh)
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("hotspot fraction must be in [0, 1]")
        self.hotspot = (hotspot if hotspot is not None
                        else mesh.node_at(mesh.width // 2, mesh.height // 2))
        if not 0 <= self.hotspot < mesh.num_nodes:
            raise ValueError(f"hotspot node {self.hotspot} outside mesh")
        self.fraction = fraction
        self._uniform = UniformTraffic(mesh)

    def spec_key(self) -> tuple:
        return super().spec_key() + (self.hotspot, repr(self.fraction))

    @property
    def is_deterministic(self) -> bool:
        return False

    def dest(self, src: int, rng: np.random.Generator) -> int:
        if src != self.hotspot and rng.random() < self.fraction:
            return self.hotspot
        return self._uniform.dest(src, rng)


def make_pattern(pattern: "Ref | str", mesh: Mesh,
                 **kwargs) -> TrafficPattern:
    """Instantiate a **fresh** registered pattern for this mesh.

    ``pattern`` may be a plain name, a parameterized
    :class:`~repro.core.registry.Ref` (``Ref.of("hotspot",
    fraction=0.1)``), or the CLI spelling ``"hotspot:fraction=0.1"``.
    Unknown names and parameters raise ``ValueError`` listing the
    alternatives.
    """
    return PATTERN_REGISTRY.create(pattern, mesh, **kwargs)
