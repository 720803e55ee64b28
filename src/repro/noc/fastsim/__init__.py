"""Fast array-based (struct-of-arrays) mesh engine.

A drop-in replacement for :class:`repro.noc.network.Network` that
advances *all* routers' pipeline stages per cycle with batched NumPy
operations instead of per-flit Python loops.  Selected through
``engine="fast"`` on :class:`repro.noc.Simulation`, work-unit specs and
the experiments CLI; its equivalence to the reference engine is
enforced by ``tests/test_engine_equivalence.py``.
"""

from .batch import BatchPoint, run_fixed_batch, run_probe_round
from .engine import FastNetwork

__all__ = ["BatchPoint", "FastNetwork", "run_fixed_batch",
           "run_probe_round"]
