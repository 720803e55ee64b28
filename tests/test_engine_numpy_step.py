"""The engine equivalence and invariant suites on the NumPy step.

The fast engine runs its compiled cycle step whenever the kernel
loads, so ``test_engine_equivalence`` and ``test_engine_invariants``
exercise the compiled path.  This module collects their classes that
step a fast engine a second time with the kernel forced off (the
``numpy_step`` fixture), so the fallback meets the same contract, with
no assertion changed.  Re-collecting the classes here, rather than
parametrizing them in place, keeps their existing test ids.  Cases
parametrized to the reference engine alone never reach the NumPy step,
so ``conftest.py`` deselects them here.
"""

import pytest
from hypothesis import given

import test_engine_equivalence as equivalence
from test_engine_equivalence import (  # noqa: F401 - collected here
    TestBatchedEquivalence, TestControllerEquivalence,
    TestFixedPointEquivalence, TestSteadyStateEquivalence,
    TestSweepPipelineEquivalence)
from test_engine_invariants import (  # noqa: F401 - collected here
    TestBufferOccupancy, TestFifoOrdering, TestFlitConservation)

pytestmark = pytest.mark.usefixtures("numpy_step")


class TestProbeRuns(equivalence.TestProbeRuns):
    """Hypothesis binds a ``@given`` method to one test class, so the
    probe law is declared again here around the same body."""

    @equivalence.PROBE_LAW_SETTINGS
    @given(**equivalence.PROBE_LAW_INPUTS)
    def test_probe_law_on_the_fast_engine(self, rate, speed, seed):
        law = equivalence.TestProbeRuns.test_probe_law_on_the_fast_engine
        law.hypothesis.inner_test(self, rate, speed, seed)
