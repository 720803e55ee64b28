"""Path scopes for the determinism-contract rules.

Scoping is data, not code, so the answer to "where does this rule
apply, and why is that file exempt?" lives in one reviewable place.
Fragments match path segments (see
:func:`repro.lint.engine.path_matches`): a trailing ``/`` scopes a
subtree, a ``.py`` entry scopes one file.

Two kinds of entry:

* *include* scopes — where the contract is load-bearing.  D001 and
  D004 only make sense where results are digested or simulated;
  flagging a wall-clock read in a CLI progress printer would teach
  people to ignore the linter.
* *allowlists* — modules whose **job** is the thing the rule forbids.
  The distributed queue's leases and heartbeats are *built on*
  wall-clock expiry stamps (README "Distributed execution"); listing
  them here is an audited decision, where an inline suppression per
  call site would drown the real signal.
"""

from __future__ import annotations

#: D001: simulation / digest paths where wall-clock reads poison
#: results.  ``runner/executor.py`` and friends are included via the
#: whole-runner scope; the experiments CLI (progress timing) is not.
WALL_CLOCK_SCOPE = (
    "repro/noc/",
    "repro/control/",
    "repro/core/",
    "repro/runner/",
    "repro/scenario.py",
    "repro/workload/",
)

#: D001 allowlist: the distributed lease/heartbeat machinery.  Lease
#: expiry, idle backoff and shutdown sentinels are *defined* in terms
#: of wall-clock stamps shared across hosts — that is their contract,
#: and it never reaches a unit digest (task ids derive from spec
#: digests alone).
WALL_CLOCK_ALLOWLIST = (
    "repro/runner/distributed/lease.py",
    "repro/runner/distributed/queue.py",
    "repro/runner/distributed/worker.py",
    "repro/runner/distributed/collector.py",
    "repro/runner/distributed/pool.py",
    "repro/runner/distributed/broker.py",
)

#: D002 allowlist: the one module allowed to mint RNGs from run seeds.
GLOBAL_RNG_ALLOWLIST = (
    "repro/runner/seeding.py",
)

#: D004: code where iteration order reaches a digest, a cache key or a
#: float accumulation.  Unordered iteration elsewhere (e.g. a backend
#: draining futures) is order-free by construction and stays legal.
SET_ORDER_SCOPE = (
    "repro/runner/",
    "repro/scenario.py",
    "repro/core/registry.py",
    "repro/noc/stats.py",
    "repro/workload/",
)
