"""Fast array-based (struct-of-arrays) mesh engine.

An engine of the simulation driver (:func:`repro.noc.simulator.drive`),
like :class:`repro.noc.network.Network`, that advances *all* routers'
pipeline stages per cycle in one compiled step (``kernel.c``, built
with ``gcc`` on first use) over packet records instead of per-flit
Python objects, for any number of mesh replicas.  Selected through
``engine="fast"`` on :class:`repro.noc.Simulation`, work-unit specs
and the experiments CLI; :func:`run_fixed_batch` runs many sweep
points as its replicas.  Its equivalence to the reference engine is
enforced by ``tests/test_engine_equivalence.py``.
"""

from .batch import BatchPoint, run_fixed_batch, run_probe_round
from .engine import FastNetwork

__all__ = ["BatchPoint", "FastNetwork", "run_fixed_batch",
           "run_probe_round"]
