"""The workload registry: what *drives* the mesh, as data.

A :class:`Workload` transforms a scenario's ``rate -> TrafficSpec``
mapping: the spatial distribution still comes from the traffic pattern
(or app matrix), the workload decides how offered load behaves over
node-cycle *time* — bursty on/off phases, application frame cadences,
or the bit-exact replay of a recorded trace.  Workloads are the third
scenario dimension next to policies and patterns, registered in
:data:`WORKLOAD_REGISTRY` (built on the same
:class:`~repro.core.registry.Registry`), so a
``Ref`` like ``mmoo:gain=1.8`` flows through ``ScenarioSpec``, the
sweep planner, the batched kernel and the distributed queue without
any of those layers knowing it exists.

Determinism contract: everything a workload generates must be a pure
function of its parameters and the base traffic spec.  Stochastic
workloads derive their RNG seed from the canonical workload/spec key
via :func:`derive_workload_seed` — the same construction the runner
uses for unit seeds — so the emitted rate segments (and therefore the
resulting traffic digests) are byte-stable across processes, hosts and
backends.
"""

from __future__ import annotations

import hashlib
from abc import ABC, abstractmethod
from typing import Callable

from ..core.registry import Ref, Registry
from ..noc.config import NocConfig
from ..traffic.injection import TrafficSpec

#: The process-wide workload registry — the third scenario dimension
#: next to ``POLICY_REGISTRY`` and ``PATTERN_REGISTRY``.  Factories
#: take the scenario's config first, then the workload's parameters.
WORKLOAD_REGISTRY = Registry("workload")


def register_workload(cls=None, *, name: str | None = None,
                      replace: bool = False):
    """Class decorator registering a ``Workload`` under its name.

    Usable bare (``@register_workload``) or parameterized
    (``@register_workload(name="mine")``).  Registered workloads are
    reachable everywhere a workload name is accepted: ``ScenarioSpec``
    and the ``matrix`` subcommand's ``--workload`` flag.
    """
    return WORKLOAD_REGISTRY.registering(cls, name=name, replace=replace)


def workload_names() -> tuple[str, ...]:
    """All registered workload names, in registration order."""
    return WORKLOAD_REGISTRY.names()


def as_workload_ref(workload: "Ref | str") -> Ref:
    """Coerce and fully validate a workload reference (name + params)."""
    return WORKLOAD_REGISTRY.validate_ref(workload, skip_positional=1)


def make_workload(workload: "Ref | str", config: NocConfig,
                  **kwargs) -> "Workload":
    """Instantiate a **fresh** registered workload for this config."""
    return WORKLOAD_REGISTRY.create(workload, config, **kwargs)


def derive_workload_seed(name: str, param_key: tuple,
                         base_key: tuple, seed: int) -> int:
    """The RNG seed for one workload applied to one base spec.

    Hashes the canonical workload identity together with the base
    traffic's spec key, exactly the way unit seeds derive from unit
    digests: two processes (or two backends) that build the same
    workload over the same base spec draw the same segments, and any
    change to either side changes the stream.
    """
    material = repr(("workload-v1", name, tuple(param_key),
                     tuple(base_key), int(seed)))
    digest = hashlib.sha256(material.encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Workload(ABC):
    """Shapes a scenario's offered load over node-cycle time.

    Subclasses implement :meth:`traffic`, mapping the scenario's base
    factory (rate -> spatial ``TrafficSpec``) and one sweep rate to the
    spec the simulation actually injects — typically the base spec
    wrapped in a :class:`~repro.traffic.injection.PiecewiseRateTraffic`
    whose segments the workload generates.
    """

    #: registry name, set by subclasses
    name: str = "abstract"

    def __init__(self, config: NocConfig) -> None:
        self.config = config

    @abstractmethod
    def traffic(self, base: Callable[[float], TrafficSpec],
                rate: float) -> TrafficSpec:
        """The injected spec for one sweep rate."""

    def describe(self) -> str:
        """One-line summary for ``list-scenarios``."""
        doc = type(self).__doc__ or ""
        return doc.strip().splitlines()[0] if doc.strip() else self.name
