"""Engine selection: interchangeable simulation backends.

The simulation driver (:func:`repro.noc.simulator.drive`) owns the
measurement phases, the control loop and the results; an engine owns
one or more replicas of the mesh, their network clocks and their
arrivals, and advances them by as many cycles as the driver allows
(:meth:`Engine.advance`).  :class:`Engine` is the interface between
the two.  Two engines ship:

``reference``
    The object-per-router cycle-level model (:class:`repro.noc.Network`)
    — readable, introspectable, the ground truth; one replica, with
    ``Packet`` objects.
``fast``
    The array-based model (:class:`repro.noc.fastsim.FastNetwork`) —
    the same flit-level schedule computed by a compiled step over
    struct-of-arrays state and packet records, for any number of
    replicas.  It needs a C compiler (``gcc``) on first use.

Their statistical equivalence is enforced differentially by
``tests/test_engine_equivalence.py``; the tolerance contract lives in
the README ("Simulation engines").
"""

from __future__ import annotations

import math
from typing import Protocol, runtime_checkable

from .config import NocConfig
from .fastsim import FastNetwork
from .network import Network
from .stats import ActivityCounters, StatsCollector

#: The default engine: the reference model, bit-compatible with the
#: pre-engine era (its work-unit digests are unchanged).
DEFAULT_ENGINE = "reference"


@runtime_checkable
class Engine(Protocol):
    """What the simulation driver requires of a mesh engine.

    Replicas are numbered ``0 .. copies - 1``; ``measuring`` tags the
    packets drawn while it is set, and ``attribute_activity`` gates a
    batch's per-replica activity tallies.
    """

    config: NocConfig
    copies: int
    measuring: bool
    attribute_activity: bool

    def bind_sources(self, injections: list, periods_ns: list[float]
                     ) -> None:
        """Draw replica ``c``'s arrivals from ``injections[c]`` in each
        step, on a network clock of period ``periods_ns[c]``."""

    def advance(self, cycle: int, stop: int, stop_ns: float = math.inf,
                until_done: bool = False) -> int:
        """Step cycles ``cycle``, ``cycle + 1``, ... toward ``stop`` and
        return the next cycle to step.  Each cycle draws, then advances
        every replica by one network cycle.  Before each cycle, stop if
        replica 0's time is at or past ``stop_ns``; with
        ``until_done``, stop after any cycle that leaves more replicas
        with all their measured packets delivered than there were at
        the call.  The driver has no work between these stops, so an
        engine may run the whole segment in one call."""

    def retune(self, copy: int, period_ns: float, time_ns: float) -> None:
        """Set a replica's clock period and the time of its next step."""

    def time_of(self, copy: int) -> float:
        """The time of a replica's next step."""

    def snapshot(self, copy: int) -> tuple[float, int, int, int]:
        """A replica's time, next reference node cycle, ejected flits
        and source backlog flits."""

    def activity_of(self, copy: int) -> ActivityCounters:
        """A replica's cumulative event counters (power windows)."""

    def counts(self) -> tuple[int, int]:
        """Packets created and deliveries made so far."""

    def measured_counts(self) -> tuple[list[int], list[int]]:
        """Per replica, measured packets created and delivered."""

    def delivery_records(self, first: int, last: int
                         ) -> tuple[list[float], list[int]]:
        """Delays (ns) and latencies (cycles) of deliveries
        ``first:last``, in delivery order."""

    def measured_stats(self) -> list[StatsCollector]:
        """Per replica, the measured packets' statistics."""

    def freeze_copy(self, copy: int) -> None:
        """Retire a replica of a multi-replica engine."""


ENGINES: dict[str, type] = {
    "reference": Network,
    "fast": FastNetwork,
}


def engine_names() -> tuple[str, ...]:
    """Registered engine names, default first."""
    return tuple(sorted(ENGINES, key=lambda n: n != DEFAULT_ENGINE))


def make_engine(name: str, config: NocConfig) -> Engine:
    """Instantiate the engine registered under ``name``."""
    try:
        cls = ENGINES[name]
    except KeyError:
        known = ", ".join(engine_names())
        raise ValueError(f"unknown engine {name!r}; known: {known}") \
            from None
    return cls(config)
