"""Statistics, activity counters and measurement windows.

Three distinct consumers read the simulator's counters, so they are
kept separate:

* **Latency/delay statistics** (``StatsCollector``) implement the
  paper's measurement methodology: packets created during the
  measurement phase are tagged and their creation-to-ejection latency
  (network cycles) and delay (ns) recorded when delivered.
* **Activity counters** (``ActivityCounters``) count buffer writes and
  reads, crossbar traversals, link flits and allocator grants — the
  quantities the paper exports from Booksim into the Synopsys power
  flow (Sec. IV-A).  The power model turns them into energy.
* **Measurement windows** (``MeasurementSample``) are what the DVFS
  controllers see: per control period, the measured node injection
  rate (RMSD, Fig. 1) and the mean end-to-end packet delay (DMSD,
  Fig. 3).  The simulation driver (:func:`repro.noc.simulator.drive`)
  builds them from an engine's packet counts and delivery records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .flit import Packet

ACTIVITY_FIELDS = (
    "buffer_writes",
    "buffer_reads",
    "xbar_traversals",
    "link_flits",
    "vc_allocs",
    "sa_grants",
    "credit_transfers",
)


class ActivityCounters:
    """Event counts that drive the activity-based power model."""

    __slots__ = ACTIVITY_FIELDS

    def __init__(self, **kwargs: int) -> None:
        for name in ACTIVITY_FIELDS:
            setattr(self, name, kwargs.pop(name, 0))
        if kwargs:
            raise TypeError(f"unknown activity fields: {sorted(kwargs)}")

    def copy(self) -> "ActivityCounters":
        return ActivityCounters(
            **{name: getattr(self, name) for name in ACTIVITY_FIELDS})

    def __sub__(self, other: "ActivityCounters") -> "ActivityCounters":
        return ActivityCounters(
            **{name: getattr(self, name) - getattr(other, name)
               for name in ACTIVITY_FIELDS})

    def __add__(self, other: "ActivityCounters") -> "ActivityCounters":
        return ActivityCounters(
            **{name: getattr(self, name) + getattr(other, name)
               for name in ACTIVITY_FIELDS})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ActivityCounters):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ACTIVITY_FIELDS)

    def as_dict(self) -> dict[str, int]:
        return {name: getattr(self, name) for name in ACTIVITY_FIELDS}

    def total_events(self) -> int:
        return sum(getattr(self, name) for name in ACTIVITY_FIELDS)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items() if v)
        return f"ActivityCounters({inner})"


@dataclass(frozen=True)
class MeasurementSample:
    """One control-period window as seen by a DVFS controller.

    ``node_lambda`` is the measured node injection rate in flits per
    *node* clock cycle per node — the quantity ``lambda_node`` in the
    paper's eq. (2).  ``mean_delay_ns`` is the average end-to-end delay
    of packets *delivered* during the window (``None`` when no packet
    was delivered, e.g. at very low load) — the DMSD feedback signal.
    """

    window_cycles: int
    window_node_cycles: int
    window_ns: float
    generated_flits: int
    delivered_packets: int
    mean_delay_ns: float | None
    mean_latency_cycles: float | None
    freq_hz: float
    time_ns: float
    num_nodes: int

    @property
    def node_lambda(self) -> float:
        """Measured injection rate (flits / node-cycle / node)."""
        if self.window_node_cycles <= 0:
            return 0.0
        return self.generated_flits / (self.window_node_cycles
                                       * self.num_nodes)


@dataclass(frozen=True)
class PowerWindow:
    """Activity accumulated over an interval of constant frequency.

    The simulator closes a window whenever the DVFS controller changes
    frequency (and at end of run), so the power model can integrate
    ``V^2``-scaled energy correctly across operating points.
    """

    duration_ns: float
    cycles: int
    freq_hz: float
    activity: ActivityCounters


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q``-th percentile (0..100) of ``values``: for finite
    values ``np.percentile(values, q)`` (its default linear method)
    bit for bit, up to the sign of a zero result.

    It sorts a copy and interpolates between the order statistics
    around the virtual index ``(n - 1) * q / 100`` with NumPy's
    arithmetic: up from the lower one below the midpoint, down from
    the upper one at or above it.  It is plain Python because NumPy
    2's percentile imports ``numpy.ma`` on first use, which costs more
    than a run's whole percentile work.
    """
    data = sorted(values)
    if not data:
        raise ValueError("no values to take a percentile of")
    virtual = (len(data) - 1) * (q / 100)
    if virtual >= len(data) - 1:
        return float(data[-1])
    below = math.floor(virtual)
    gamma = virtual - below
    low, high = data[below], data[below + 1]
    step = high - low
    return float(high - step * (1 - gamma) if gamma >= 0.5
                 else low + step * gamma)


class StatsCollector:
    """Aggregates packet statistics and raw event counts for one run."""

    def __init__(self) -> None:
        # lifetime counters
        self.generated_packets = 0
        self.generated_flits = 0
        self.injected_flits = 0
        self.ejected_flits = 0
        self.delivered_packets = 0
        # measured-phase packet records
        self.measured_latencies: list[int] = []
        self.measured_delays_ns: list[float] = []
        self.measured_hops: list[int] = []
        self.measured_created = 0

    # --- event hooks (called from the hot loop) -------------------------
    def on_packet_generated(self, packet: Packet) -> None:
        self.generated_packets += 1
        self.generated_flits += packet.length
        if packet.measured:
            self.measured_created += 1

    def on_flit_injected(self) -> None:
        self.injected_flits += 1

    def on_packet_delivered(self, packet: Packet) -> None:
        self.delivered_packets += 1
        if packet.measured:
            self.measured_latencies.append(packet.ejected_cycle
                                           - packet.created_cycle)
            self.measured_delays_ns.append(packet.ejected_ns
                                           - packet.created_ns)
            self.measured_hops.append(packet.hops)

    # --- end-of-run summaries ---------------------------------------------
    @property
    def measured_delivered(self) -> int:
        return len(self.measured_latencies)

    def mean_latency_cycles(self) -> float:
        """Mean measured packet latency in network clock cycles."""
        if not self.measured_latencies:
            raise RuntimeError("no measured packets were delivered")
        return sum(self.measured_latencies) / len(self.measured_latencies)

    def mean_delay_ns(self) -> float:
        """Mean measured packet delay in nanoseconds."""
        if not self.measured_delays_ns:
            raise RuntimeError("no measured packets were delivered")
        return sum(self.measured_delays_ns) / len(self.measured_delays_ns)

    def mean_hops(self) -> float:
        if not self.measured_hops:
            raise RuntimeError("no measured packets were delivered")
        return sum(self.measured_hops) / len(self.measured_hops)
