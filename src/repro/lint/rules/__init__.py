"""The determinism-contract rule set (one module per rule).

Importing this package registers every built-in rule with
:data:`repro.lint.engine.RULE_REGISTRY`:

========  ==============================================================
D001      wall-clock reads in simulation/digest paths
D002      global-RNG use outside the seeding module
D003      unsorted filesystem iteration
D004      set/frozenset iteration order in digest/plan/spec-key code
D006      registry hygiene (mutable class defaults, unregistered
          policies/patterns)
========  ==============================================================
"""

from . import fsorder, globalrng, registry_hygiene, setiter, wallclock

__all__ = ["fsorder", "globalrng", "registry_hygiene", "setiter",
           "wallclock"]
