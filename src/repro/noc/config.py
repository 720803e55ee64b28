"""Simulation configuration.

``NocConfig`` gathers every microarchitectural and clocking knob the
paper varies: mesh size, virtual channels, buffers per VC, packet size
(Sec. V sensitivity analysis, Fig. 8) and the clock-domain parameters
``Fnode``/``Fmin``/``Fmax`` (Sec. III).  The defaults reproduce the
paper's baseline scenario: a 5x5 mesh with dimension-ordered routing,
8 VCs, 4 flit buffers per VC, 20 flits per packet, ``Fnode = Fmax =
1 GHz`` and ``Fmin = 333 MHz`` (Figs. 2, 4, 6).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .routing import get_routing_function
from .topology import Mesh

GHZ = 1e9
MHZ = 1e6


@dataclass(frozen=True)
class NocConfig:
    """Full description of one simulated NoC instance."""

    # --- topology -----------------------------------------------------
    width: int = 5
    height: int = 5
    routing: str = "dor_xy"

    # --- router microarchitecture (paper Fig. 8 sensitivity knobs) ----
    num_vcs: int = 8
    vc_buf_depth: int = 4
    packet_length: int = 20

    # --- pipeline timing (network clock cycles) -----------------------
    #: cycles for route computation once a head flit reaches a VC front
    route_latency: int = 1
    #: cycles from VC allocation grant to switch-allocation eligibility
    va_latency: int = 1
    #: link traversal latency between adjacent routers
    link_latency: int = 1
    #: credit return latency from downstream back to upstream
    credit_latency: int = 1

    # --- clock domains (paper Sec. III) --------------------------------
    #: node (injection) clock frequency, fixed; the paper sets it to Fmax
    f_node_hz: float = 1.0 * GHZ
    #: lower bound of the NoC DVFS frequency range
    f_min_hz: float = GHZ / 3.0
    #: upper bound of the NoC DVFS frequency range
    f_max_hz: float = 1.0 * GHZ
    #: per-node injection clock frequencies (paper footnote 1: "a more
    #: general treatment with different ... node frequencies").  When
    #: given, overrides ``f_node_hz`` per node; ``f_node_hz`` remains
    #: the reference clock for rate measurement and control periods.
    node_freqs_hz: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.width < 2 or self.height < 2:
            raise ValueError("mesh must be at least 2x2")
        if self.num_vcs < 1:
            raise ValueError("need at least one virtual channel")
        if self.vc_buf_depth < 1:
            raise ValueError("need at least one flit buffer per VC")
        if self.packet_length < 1:
            raise ValueError("packets must have at least one flit")
        if min(self.route_latency, self.va_latency) < 0:
            raise ValueError("pipeline latencies must be non-negative")
        if self.link_latency < 1 or self.credit_latency < 1:
            raise ValueError("link and credit latencies must be >= 1")
        if not (0 < self.f_min_hz <= self.f_max_hz):
            raise ValueError("need 0 < f_min <= f_max")
        if self.f_node_hz <= 0:
            raise ValueError("node frequency must be positive")
        if self.node_freqs_hz is not None:
            if len(self.node_freqs_hz) != self.width * self.height:
                raise ValueError(
                    f"node_freqs_hz must list all "
                    f"{self.width * self.height} nodes")
            if any(f <= 0 for f in self.node_freqs_hz):
                raise ValueError("node frequencies must be positive")
        # Fail early on a bad routing name rather than at simulation time.
        get_routing_function(self.routing)

    # --- derived helpers ------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Total number of nodes (= routers) in the mesh."""
        return self.width * self.height

    def make_mesh(self) -> Mesh:
        """Instantiate the mesh topology object."""
        return Mesh(self.width, self.height)

    @property
    def slowdown_ratio(self) -> float:
        """Maximum slow-down factor ``Fmax / Fmin`` (paper: 3x)."""
        return self.f_max_hz / self.f_min_hz

    def zero_load_latency_cycles(self) -> float:
        """Analytical zero-load packet latency estimate, in cycles.

        Head latency is ``hops * (per-hop pipeline + link)`` plus the
        serialization of the remaining ``packet_length - 1`` flits.
        Used for sanity checks, not by the simulator itself.
        """
        mesh = self.make_mesh()
        # +1 hop: the destination router itself is traversed too.
        hops = mesh.average_uniform_distance() + 1
        per_hop = (self.route_latency + self.va_latency + 1  # SA/ST
                   + self.link_latency)
        return hops * per_hop + (self.packet_length - 1)

    def with_(self, **changes) -> "NocConfig":
        """Return a copy with the given fields replaced.

        Convenience for the Fig. 8 sensitivity sweeps, e.g.
        ``cfg.with_(num_vcs=2)``.
        """
        return replace(self, **changes)

    # --- JSON artifact ------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-ready field mapping (tuples become lists).

        The ``config`` of every scenario in the ``matrix --out``
        artifact (:meth:`repro.scenario.ScenarioSpec.to_payload`), so
        the artifact names each mesh by value rather than by pickle.
        """
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out


#: The paper's baseline configuration (Figs. 2, 4, 6 and Sec. V).
PAPER_BASELINE = NocConfig()

#: Smaller configuration for quick tests and the quickstart example.
SMALL_TEST = NocConfig(width=4, height=4, num_vcs=2, vc_buf_depth=4,
                       packet_length=4)
