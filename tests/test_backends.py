"""Tests for the execution-backend API (plan, backends, context).

The contract under test: the planner only changes *how* units execute
(cache service, batch grouping, sharding), never *what* they compute —
``backend="batched"`` is bit-identical to serial per-unit execution,
group accounting is correct, and the context spellings never warn.
"""

import re
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (DmsdSteadyState, NoDvfsSteadyState,
                            RmsdSteadyState, SteadyStateStrategy,
                            run_sweep, sweep_units)
from repro.analysis import sweep as sweep_module
from repro.analysis.sweep import UtilitySteadyState
from repro.experiments import Workbench
from repro.noc import PAPER_BASELINE, NocConfig, SimBudget
from repro.noc.fastsim import batch as batch_module
from repro.noc.fastsim.batch import even_widths
from repro.runner import (BatchGroup, ExecutionContext, ExecutionPlan,
                          SweepRunner, UnitCache, WorkUnit,
                          backend_names, batch_eligible, default_jobs,
                          make_backend)
from repro.runner.backends import _execute_group
from repro.runner.plan import MAX_SHARD_POINTS, MIN_SHARD_POINTS
from repro.traffic import PatternTraffic, make_pattern

TINY_BUDGET = SimBudget(200, 500, 1500)
OTHER_BUDGET = SimBudget(150, 400, 1200)

POLICY_STRATEGIES = (
    NoDvfsSteadyState(),
    RmsdSteadyState(lambda_max=0.4),
    DmsdSteadyState(target_delay_ns=40.0, iterations=3,
                    search_budget=OTHER_BUDGET),
)


@pytest.fixture
def factory(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


def make_units(config, factory, rates=(0.05, 0.1, 0.15), seed=7,
               strategy=None, engine="fast", budget=TINY_BUDGET):
    return sweep_units(config, factory, list(rates),
                       strategy or NoDvfsSteadyState(), budget, seed,
                       engine)


def fingerprint(unit_result):
    r = unit_result.result
    return (unit_result.policy, unit_result.x, unit_result.freq_hz,
            unit_result.seed, unit_result.digest,
            r.mean_latency_cycles, r.mean_delay_ns, r.p99_delay_ns,
            r.measured_created, r.measured_delivered,
            r.accepted_node_rate, r.backlog_delta_flits,
            r.measure_duration_ns,
            tuple((w.duration_ns, w.cycles, w.freq_hz,
                   tuple(sorted(w.activity.as_dict().items())))
                  for w in r.power_windows))


#: Every rule on the execution knobs: its name, knob settings that
#: break it, and the fragments its message must hold.  A fragment
#: writes a knob as ``{knob}`` and a setting as ``{knob value}``, for
#: :func:`spelled` to render as each front end writes it; a ``queue``
#: is a directory name under the test's ``tmp_path``.  The CLI tests
#: (``test_cli.py``), the ``REPRO_*`` tests (``test_distributed.py``)
#: and the constructor test below all run this one table, on a host
#: that cannot build the fast engine's kernel (the ``no_compiler``
#: fixture), where ``engine=fast`` breaks a rule too.
KNOB_RULES = {
    "unknown-backend": ({"backend": "warp"}, ("{backend}", "'warp'")),
    "unknown-engine": ({"engine": "warp"}, ("{engine}", "'warp'")),
    "negative-jobs": ({"jobs": -1}, ("{jobs} must be >= 0",)),
    "negative-workers": (
        {"backend": "distributed", "queue": "q", "workers": -1},
        ("{workers} must be >= 0",)),
    "claim-batch-below-1": (
        {"backend": "distributed", "queue": "q", "workers": 1,
         "claim_batch": 0},
        ("{claim_batch} must be >= 1",)),
    "distributed-without-queue": (
        {"backend": "distributed"},
        ("{backend distributed} requires {queue DIR}",)),
    "orphan-queue": (
        {"queue": "q"},
        ("{queue} is only meaningful with {backend distributed}",)),
    "orphan-workers": (
        {"workers": 2},
        ("{workers} is only meaningful with {backend distributed}",)),
    "orphan-queue-and-workers": (
        {"queue": "q", "workers": 3},
        ("{queue}/{workers} are only meaningful with "
         "{backend distributed}",)),
    "orphan-claim-batch": (
        {"claim_batch": 2},
        ("{claim_batch} is only meaningful with {backend distributed}",)),
    "claim-batch-without-workers": (
        {"backend": "distributed", "queue": "q", "workers": 0,
         "claim_batch": 3},
        ("{claim_batch 3} needs self-spawned workers ({workers} >= 1)",)),
    "fast-without-compiler": (
        {"engine": "fast"},
        ("{engine fast} needs its compiled cycle step", "gcc",
         "`repro-no-such-compiler` is not on PATH", "{engine reference}")),
}

#: Marks of the other front ends, absent from each one's messages.
_FOREIGN = {"code": ("--", "REPRO_"), "cli": ("REPRO_",), "env": ("--",)}


def spell(spelling: str, knob: str, value=None) -> str:
    """``knob`` (with ``value``) as ``spelling`` writes it:
    ``claim_batch=2``, ``--claim-batch 2`` or ``REPRO_CLAIM_BATCH=2``."""
    name = {"code": knob, "cli": "--" + knob.replace("_", "-"),
            "env": "REPRO_" + knob.upper()}[spelling]
    if value is None:
        return name
    return f"{name}{' ' if spelling == 'cli' else '='}{value}"


def spelled(fragment: str, spelling: str) -> str:
    """A :data:`KNOB_RULES` message fragment in ``spelling``."""
    return re.sub(r"\{(\w+)(?: ([^}]+))?\}",
                  lambda m: spell(spelling, m.group(1), m.group(2)),
                  fragment)


def rule_knobs(rule: str, tmp_path) -> dict:
    """The knob settings of ``rule``, its queue under ``tmp_path``."""
    knobs = dict(KNOB_RULES[rule][0])
    if "queue" in knobs:
        knobs["queue"] = str(tmp_path / knobs["queue"])
    return knobs


def check_knob_message(message: str, rule: str, spelling: str) -> None:
    """``message`` states ``rule`` naming each knob in ``spelling``."""
    for fragment in KNOB_RULES[rule][1]:
        assert spelled(fragment, spelling) in message, message
    assert not any(mark in message for mark in _FOREIGN[spelling]), \
        message


class TestBackendRegistry:
    def test_all_backends_registered(self):
        assert set(backend_names()) == {"serial", "batched",
                                        "distributed"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("warp")
        with pytest.raises(ValueError, match="unknown backend"):
            ExecutionContext(backend="warp")


class TestExecutionContext:
    def test_auto_resolves_batched_for_fast_engine(self):
        assert (ExecutionContext(engine="fast").resolved_backend()
                == "batched")

    def test_auto_resolves_pool_then_serial_for_reference(self):
        assert (ExecutionContext(jobs=4).resolved_backend() == "batched")
        assert ExecutionContext().resolved_backend() == "serial"

    def test_explicit_backend_wins_over_auto_rule(self):
        ctx = ExecutionContext(backend="serial", engine="fast")
        assert ctx.resolved_backend() == "serial"

    def test_validation(self, tmp_path, no_compiler):
        """The constructor enforces every knob rule, naming fields."""
        for rule in KNOB_RULES:
            with pytest.raises(ValueError) as excinfo:
                ExecutionContext(**rule_knobs(rule, tmp_path))
            check_knob_message(str(excinfo.value), rule, "code")
        # jobs=0 means all cores here too, as --jobs 0 does.
        assert ExecutionContext(jobs=0).jobs == default_jobs()

    def test_context_runner_is_shared(self):
        ctx = ExecutionContext()
        assert ctx.runner is ctx.runner
        runner = SweepRunner(context=ctx)
        # A runner constructed on a fresh context becomes its runner.
        ctx2 = ExecutionContext()
        runner2 = SweepRunner(context=ctx2)
        assert ctx2.runner is runner2
        assert runner.context is ctx


class TestPlanner:
    def test_cache_hits_leave_plan_empty(self, tiny_config, factory):
        cache = UnitCache()
        units = make_units(tiny_config, factory)
        ExecutionContext(backend="serial", cache=cache).run(units)
        plan = ExecutionPlan(units, cache)
        assert plan.cache_hits == len(units)
        assert plan.todo == []
        plan.group_batches()
        assert plan.groups == [] and plan.singles == []

    def test_duplicates_collapse(self, tiny_config, factory):
        units = make_units(tiny_config, factory, rates=(0.1, 0.1, 0.1))
        plan = ExecutionPlan(units, None)
        assert len(plan.todo) == 1
        assert plan.pending[units[0].digest()] == [0, 1, 2]

    def test_fast_units_group_reference_units_stay_single(
            self, tiny_config, factory):
        fast = make_units(tiny_config, factory, engine="fast")
        ref = make_units(tiny_config, factory, engine="reference")
        plan = ExecutionPlan(fast + ref, None)
        plan.group_batches()
        assert [len(g.units) for g in plan.groups] == [len(fast)]
        assert plan.singles == plan.todo[len(fast):]
        assert all(not batch_eligible(u) for u in plan.singles)

    def test_heterogeneous_clock_units_group(self, tiny_config, factory):
        """Units with heterogeneous node clocks batch too, in groups of
        their own config."""
        hetero = tiny_config.with_(
            node_freqs_hz=tuple([1e9] * tiny_config.num_nodes))
        mesh = hetero.make_mesh()
        pattern = make_pattern("uniform", mesh)
        units = make_units(hetero, lambda r: PatternTraffic(pattern, r),
                           engine="fast")
        plain = make_units(tiny_config, factory, engine="fast")
        plan = ExecutionPlan(units + plain, None)
        plan.group_batches()
        assert all(batch_eligible(u) for u in units)
        assert [g.units for g in plan.groups] == [units, plain]
        assert plan.groups[0].config == hetero
        assert plan.singles == []

    def test_mixed_budgets_split_groups(self, tiny_config, factory):
        a = make_units(tiny_config, factory, budget=TINY_BUDGET)
        b = make_units(tiny_config, factory, budget=OTHER_BUDGET)
        plan = ExecutionPlan(a + b, None)
        plan.group_batches()
        assert len(plan.groups) == 2
        assert {g.budget for g in plan.groups} == {TINY_BUDGET,
                                                  OTHER_BUDGET}

    def test_lone_eligible_unit_stays_single(self, tiny_config, factory):
        units = make_units(tiny_config, factory, rates=(0.1,))
        plan = ExecutionPlan(units, None)
        plan.group_batches()
        assert plan.groups == []
        assert len(plan.singles) == 1

    def test_sharding_caps_width(self, tiny_config, factory):
        rates = tuple(0.01 + 0.002 * i for i in range(10))
        units = make_units(tiny_config, factory, rates=rates)
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=1, max_shard=4)
        # Balanced split: 10 units under a 4-wide cap give [4, 3, 3],
        # not [4, 4, 2] — no shard is ever more than one unit wider
        # than another.
        assert [len(g.units) for g in plan.groups] == [4, 3, 3]
        flattened = [u for g in plan.groups for u in g.units]
        assert flattened == plan.todo      # submission order preserved

    def test_sharding_balances_across_jobs(self, tiny_config, factory):
        rates = tuple(0.01 + 0.015 * i for i in range(24))
        units = make_units(tiny_config, factory, rates=rates)
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=3)
        assert [len(g.units) for g in plan.groups] == [8, 8, 8]

    def test_sharding_respects_batch_floor(self, tiny_config, factory):
        # The PR-6 regression: jobs far above the group size used to
        # shred the group into 1-unit shards, destroying the batched
        # kernel's vectorization win.  The MIN_SHARD_POINTS floor keeps
        # shards at an efficient width no matter the fan-out.
        rates = tuple(0.01 + 0.015 * i for i in range(24))
        units = make_units(tiny_config, factory, rates=rates)
        for jobs in (4, 24, 200):
            plan = ExecutionPlan(units, None)
            plan.group_batches(jobs=jobs)
            widths = [len(g.units) for g in plan.groups]
            assert widths == [6, 6, 6, 6], (jobs, widths)

    def test_sharding_floor_never_exceeds_group(self, tiny_config,
                                                factory):
        # Groups smaller than the floor still shard as one whole
        # group (the floor clamps, it never pads).
        rates = tuple(0.01 + 0.002 * i for i in range(4))
        units = make_units(tiny_config, factory, rates=rates)
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=16)
        assert [len(g.units) for g in plan.groups] == [4]

    def test_group_split_validates(self, tiny_config, factory):
        units = make_units(tiny_config, factory)
        group = BatchGroup(tiny_config, TINY_BUDGET, "fast", list(units))
        with pytest.raises(ValueError):
            group.split(0)


# --- property-based planner invariants (hypothesis) -------------------

#: Planner-property unit pool: two engines (the batch-eligibility
#: boundary), two budgets, and configs with and without heterogeneous
#: node clocks, drawn with heavy duplication so cache collapse triggers.
PROP_CONFIGS = (
    NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
              packet_length=3),
    NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
              packet_length=3).with_(node_freqs_hz=tuple([1e9] * 9)),
    NocConfig(width=4, height=3, num_vcs=2, vc_buf_depth=2,
              packet_length=4),
)
_PROP_PATTERNS = tuple(make_pattern("uniform", config.make_mesh())
                       for config in PROP_CONFIGS)
PROP_RATES = (0.02, 0.05, 0.08, 0.1, 0.12, 0.15)

#: Sentinel a stub cache serves (the planner only checks ``is not
#: None``; no simulation ever runs in these tests).
CACHE_HIT = object()

PLANNER_SETTINGS = settings(max_examples=50, deadline=None)


@st.composite
def unit_lists(draw):
    n = draw(st.integers(min_value=0, max_value=24))
    units = []
    for _ in range(n):
        i = draw(st.integers(0, len(PROP_CONFIGS) - 1))
        rate = draw(st.sampled_from(PROP_RATES))
        units.append(WorkUnit(
            policy="no-dvfs", x=rate, config=PROP_CONFIGS[i],
            traffic=PatternTraffic(_PROP_PATTERNS[i], rate),
            strategy=NoDvfsSteadyState(),
            budget=draw(st.sampled_from((TINY_BUDGET, OTHER_BUDGET))),
            run_seed=draw(st.sampled_from((3, 7))),
            engine=draw(st.sampled_from(("fast", "reference")))))
    return units


class _StubCache:
    """Serves a hit for a deterministic pseudo-random digest subset."""

    def __init__(self, modulus):
        self.modulus = modulus

    def hits(self, digest):
        return int(digest[:8], 16) % self.modulus == 0

    def get(self, digest):
        return CACHE_HIT if self.hits(digest) else None


class TestPlannerProperties:
    """Hypothesis: the planner invariants the example tests above probe
    hold for *every* random submission — each unit lands in exactly one
    of cache-hit / pending, batch groups never mix (config, budget,
    engine), and shard sizes respect the cap."""

    @PLANNER_SETTINGS
    @given(units=unit_lists())
    def test_every_submission_is_served_or_pending_once(self, units):
        plan = ExecutionPlan(units, None)
        indices = sorted(i for idxs in plan.pending.values()
                         for i in idxs)
        assert indices == list(range(len(units)))
        digests = [u.digest() for u in units]
        # exactly one executing unit per distinct digest
        assert sorted(u.digest() for u in plan.todo) == sorted(set(digests))
        for digest, idxs in plan.pending.items():
            assert all(digests[i] == digest for i in idxs)

    @PLANNER_SETTINGS
    @given(units=unit_lists(), modulus=st.integers(2, 5))
    def test_cache_hits_and_pending_partition_the_submission(
            self, units, modulus):
        cache = _StubCache(modulus)
        plan = ExecutionPlan(units, cache)
        hits = 0
        for i, unit in enumerate(units):
            if cache.hits(unit.digest()):
                assert plan.results[i] is CACHE_HIT
                hits += 1
            else:
                assert plan.results[i] is None
                assert i in plan.pending[unit.digest()]
        assert plan.cache_hits == hits
        assert not any(cache.hits(u.digest()) for u in plan.todo)

    @PLANNER_SETTINGS
    @given(units=unit_lists(), jobs=st.integers(1, 6),
           max_shard=st.integers(1, 8))
    def test_grouping_partitions_todo_without_mixing(self, units, jobs,
                                                     max_shard):
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=jobs, max_shard=max_shard)
        grouped = [u for g in plan.groups for u in g.units]
        # every pending unit in exactly one shard or on the unit path
        assert (sorted(u.digest() for u in grouped + plan.singles)
                == sorted(u.digest() for u in plan.todo))
        for group in plan.groups:
            assert 1 <= len(group.units) <= max_shard
            assert all(batch_eligible(u) for u in group.units)
            assert all((u.config, u.budget, u.engine)
                       == (group.config, group.budget, group.engine)
                       for u in group.units)

    @PLANNER_SETTINGS
    @given(units=unit_lists(), jobs=st.integers(1, 6),
           max_shard=st.integers(1, 8))
    def test_grouping_preserves_order_and_strands_no_one(self, units,
                                                         jobs,
                                                         max_shard):
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=jobs, max_shard=max_shard)
        eligible = [u for u in plan.todo if batch_eligible(u)]
        by_class: dict = {}
        for u in eligible:
            by_class.setdefault((u.config, u.budget, u.engine),
                                []).append(u)
        for key, members in by_class.items():
            sharded = [u for g in plan.groups
                       if (g.config, g.budget, g.engine) == key
                       for u in g.units]
            if len(members) == 1:
                # a lone eligible unit gains nothing from batching
                assert sharded == []
                assert members[0] in plan.singles
            else:
                # shards concatenate back to submission order
                assert [u.digest() for u in sharded] \
                    == [u.digest() for u in members]
        assert all(not batch_eligible(u) or
                   len(by_class[(u.config, u.budget, u.engine)]) == 1
                   for u in plan.singles)


#: Group configs whose compiled engines hold 103, 10 and 4 replicas,
#: and an 8x8 mesh whose heterogeneous node clocks keep one engine.
MESH_8X8 = NocConfig(width=8, height=8)
CAP_CONFIGS = (PROP_CONFIGS[0], PAPER_BASELINE, MESH_8X8,
               MESH_8X8.with_(node_freqs_hz=tuple([1e9] * 64)))


def group_units(config, count, hotspots=()):
    """``count`` fast units of one batch group on ``config``: uniform
    traffic at distinct rates, ``hotspot`` (drawn in Python) at the
    indices in ``hotspots``."""
    mesh = config.make_mesh()
    patterns = {name: make_pattern(name, mesh)
                for name in ("uniform", "hotspot")}
    return [WorkUnit(
        policy="no-dvfs", x=0.001 * (i + 1), config=config,
        traffic=PatternTraffic(
            patterns["hotspot" if i in hotspots else "uniform"],
            0.001 * (i + 1)),
        strategy=NoDvfsSteadyState(), budget=TINY_BUDGET, run_seed=3,
        engine="fast") for i in range(count)]


def shard_widths(units, jobs):
    plan = ExecutionPlan(units, None)
    plan.group_batches(jobs=jobs)
    return [len(g.units) for g in plan.groups]


def uncapped_widths(count, jobs):
    """Shard widths by unit count alone: a group of ``count`` split
    into ``jobs`` even shards, no narrower than the batch floor."""
    size = MAX_SHARD_POINTS
    if jobs > 1:
        size = min(size, max(min(MIN_SHARD_POINTS, count),
                             -(-count // jobs)))
    return even_widths(count, size)


class TestOneEngineShards:
    """A fanned-out shard is at most one engine wide, so the workers,
    claiming one task at a time, even out work that unit counts do
    not; plans that do not fan out, and groups that run as one
    engine, shard by unit count as before."""

    @PLANNER_SETTINGS
    @given(data=st.data(), config=st.sampled_from(CAP_CONFIGS),
           count=st.integers(2, 60), jobs=st.integers(2, 8))
    def test_fanned_out_shards_fit_one_engine(self, data, config, count,
                                              jobs):
        hotspots = data.draw(st.lists(st.integers(0, count - 1),
                                      max_size=1))
        units = group_units(config, count, hotspots)
        plan = ExecutionPlan(units, None)
        plan.group_batches(jobs=jobs)
        # contiguous, in submission order, every unit exactly once
        assert ([u.digest() for g in plan.groups for u in g.units]
                == [u.digest() for u in units])
        width = batch_module.engine_width(config,
                                          [u.traffic for u in units])
        assert all(len(g.units) <= width for g in plan.groups)

    def test_8x8_group_fans_out_one_task_per_engine(self):
        units = group_units(MESH_8X8, 72)
        assert shard_widths(units, jobs=2) == [4] * 18
        assert shard_widths(units, jobs=1) == [72]

    @pytest.mark.parametrize("case", ["hotspot", "node-clocks"])
    def test_one_engine_groups_shard_by_unit_count(self, case):
        config, hotspots = MESH_8X8, ()
        if case == "hotspot":
            hotspots = (1,)
        else:
            config = CAP_CONFIGS[3]
        for count in (2, 13, 36, 72):
            units = group_units(config, count, hotspots)
            for jobs in (1, 2, 3, 8):
                assert shard_widths(units, jobs) \
                    == uncapped_widths(count, jobs), (count, jobs)
        assert shard_widths(group_units(config, 72, hotspots), 2) \
            == [36, 36]

    @pytest.mark.parametrize("config", CAP_CONFIGS[:3])
    def test_plans_that_do_not_fan_out_are_unchanged(self, config):
        for count in (2, 13, 72, 97):
            assert shard_widths(group_units(config, count), 1) \
                == uncapped_widths(count, 1)

    def test_small_5x5_groups_on_two_workers_are_unchanged(self):
        for count in range(2, 21):
            units = group_units(PAPER_BASELINE, count)
            assert shard_widths(units, 2) == uncapped_widths(count, 2)


class TestBatchedDifferential:
    """The acceptance gate: batched == serial, bit for bit."""

    def sweep_results(self, config, factory, backend, jobs=1):
        ctx = ExecutionContext(backend=backend, jobs=jobs, cache=None,
                               engine="fast")
        units = []
        for strategy in POLICY_STRATEGIES:
            units.extend(make_units(config, factory,
                                    rates=(0.05, 0.1, 0.15),
                                    strategy=strategy))
        return ctx.run(units)

    def test_three_policy_sweep_bit_identical(self, tiny_config, factory):
        serial = self.sweep_results(tiny_config, factory, "serial")
        batched = self.sweep_results(tiny_config, factory, "batched")
        assert ([fingerprint(r) for r in serial]
                == [fingerprint(r) for r in batched])

    def test_batched_with_workers_bit_identical(self, tiny_config,
                                                factory):
        serial = self.sweep_results(tiny_config, factory, "serial")
        sharded = self.sweep_results(tiny_config, factory, "batched",
                                     jobs=3)
        assert ([fingerprint(r) for r in serial]
                == [fingerprint(r) for r in sharded])

    def test_batched_results_carry_power_windows(self, tiny_config,
                                                 factory):
        batched = self.sweep_results(tiny_config, factory, "batched")
        for result in batched:
            assert len(result.result.power_windows) == 1
            window = result.result.power_windows[0]
            assert window.activity.total_events() > 0
            assert window.freq_hz == result.freq_hz

    def test_run_sweep_auto_context_batches(self, tiny_config, factory):
        ctx = ExecutionContext(engine="fast")   # backend="auto"
        series = run_sweep(tiny_config, factory, [0.05, 0.1],
                           NoDvfsSteadyState(), TINY_BUDGET, seed=9,
                           context=ctx)
        assert ctx.runner.last_report.batched_units == 2
        assert ctx.runner.last_report.groups == 1
        serial_ctx = ExecutionContext(backend="serial", cache=None,
                                      engine="fast")
        serial = run_sweep(tiny_config, factory, [0.05, 0.1],
                           NoDvfsSteadyState(), TINY_BUDGET, seed=9,
                           context=serial_ctx)
        assert ([(p.freq_hz, p.delay_ns, p.power_mw)
                 for p in series.points]
                == [(p.freq_hz, p.delay_ns, p.power_mw)
                    for p in serial.points])


class FrequencyForOnly(SteadyStateStrategy):
    """A search strategy without a probe generator: resolves per unit."""

    name = "dmsd-wrapped"

    def __init__(self, inner):
        self.inner = inner

    def frequency_for(self, config, traffic, budget, seed,
                      engine="reference"):
        return self.inner.frequency_for(config, traffic, budget, seed,
                                        engine=engine)

    def spec_key(self):
        return (self.name,) + self.inner.spec_key()


@pytest.fixture
def probe_batches(monkeypatch):
    """Record ``(budget, width)`` of every probe-round engine run.

    Probe rounds reach ``run_fixed_batch`` through the batch module's
    own binding; the measurement batch goes through the backends
    module's, so only probes are counted here.  Every probe round is
    a ``probe=True`` batch.
    """
    calls = []
    original = batch_module.run_fixed_batch

    def counting(config, points, budget, **kwargs):
        assert kwargs == {"probe": True}
        calls.append((budget, len(points)))
        return original(config, points, budget, **kwargs)

    monkeypatch.setattr(batch_module, "run_fixed_batch", counting)
    return calls


@pytest.fixture
def serial_probes(monkeypatch):
    """Count the probes serial ``frequency_for`` runs."""
    calls = []
    original = sweep_module.run_fixed_point

    def counting(*args, **kwargs):
        calls.append(args[3])               # the probe's budget
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep_module, "run_fixed_point", counting)
    return calls


@pytest.mark.parametrize("search_cls",
                         [DmsdSteadyState, UtilitySteadyState])
class TestLockstepSearch:
    """Lockstep searches in ``_execute_group`` == serial
    ``frequency_for`` per unit: same frequency, same fingerprint, and
    the same probes in fewer engine runs."""

    def run_both(self, config, factory, strategies, probe_batches,
                 serial_probes):
        units = []
        for strategy in strategies:
            units.extend(make_units(config, factory,
                                    rates=(0.05, 0.1, 0.15),
                                    strategy=strategy))
        batched = _execute_group(BatchGroup(config, TINY_BUDGET, "fast",
                                            units))
        serial = [unit.execute() for unit in units]
        assert ([fingerprint(r) for r in batched]
                == [fingerprint(r) for r in serial])
        assert all(r.elapsed_s > 0 for r in batched)
        # Every serial probe ran once in lockstep, bucketed by budget.
        lockstep = Counter()
        for budget, width in probe_batches:
            lockstep[budget] += width
        assert Counter(serial_probes) == lockstep
        return batched

    def test_search_stops_at_f_min_after_one_probe(
            self, search_cls, tiny_config, factory, probe_batches,
            serial_probes):
        search = search_cls(5000.0, iterations=3,
                            search_budget=OTHER_BUDGET)
        out = self.run_both(tiny_config, factory, [search],
                            probe_batches, serial_probes)
        assert {r.freq_hz for r in out} == {tiny_config.f_min_hz}
        assert probe_batches == [(OTHER_BUDGET, 3)]

    def test_target_forces_f_max_after_two_probes(
            self, search_cls, tiny_config, factory, probe_batches,
            serial_probes):
        search = search_cls(5.0, iterations=3, search_budget=OTHER_BUDGET)
        out = self.run_both(tiny_config, factory, [search],
                            probe_batches, serial_probes)
        assert {r.freq_hz for r in out} == {tiny_config.f_max_hz}
        assert probe_batches == [(OTHER_BUDGET, 3)] * 2

    def test_interior_bisections(self, search_cls, tiny_config, factory,
                                 probe_batches, serial_probes):
        searches = [search_cls(target, iterations=3,
                               search_budget=OTHER_BUDGET)
                    for target in (31.0, 42.0)]
        out = self.run_both(tiny_config, factory, searches,
                            probe_batches, serial_probes)
        assert any(tiny_config.f_min_hz < r.freq_hz
                   < tiny_config.f_max_hz for r in out)
        widths = [width for _, width in probe_batches]
        assert widths[0] == 6 and len(widths) == 3 + 2
        assert widths == sorted(widths, reverse=True)

    def test_two_search_budgets_in_one_group(self, search_cls,
                                             tiny_config, factory,
                                             probe_batches, serial_probes):
        searches = [search_cls(31.0, iterations=3,
                               search_budget=OTHER_BUDGET),
                    search_cls(31.0, iterations=2,
                               search_budget=TINY_BUDGET)]
        self.run_both(tiny_config, factory, searches, probe_batches,
                      serial_probes)
        assert {b for b, _ in probe_batches} == {OTHER_BUDGET,
                                                 TINY_BUDGET}

    def test_mixed_group_with_frequency_for_only_strategy(
            self, search_cls, tiny_config, factory, probe_batches,
            serial_probes):
        search = search_cls(31.0, iterations=3,
                            search_budget=OTHER_BUDGET)
        wrapped = FrequencyForOnly(search_cls(42.0, iterations=2,
                                              search_budget=TINY_BUDGET))
        units = []
        for strategy in (NoDvfsSteadyState(),
                         RmsdSteadyState(lambda_max=0.4), search, wrapped):
            units.extend(make_units(tiny_config, factory,
                                    strategy=strategy))
        batched = _execute_group(BatchGroup(tiny_config, TINY_BUDGET,
                                            "fast", units))
        # Only the generator search is batched; the wrapped one ran its
        # probes one run_fixed_point at a time inside the group.
        assert {b for b, _ in probe_batches} == {OTHER_BUDGET}
        assert set(serial_probes) == {TINY_BUDGET}
        serial = [unit.execute() for unit in units]
        assert ([fingerprint(r) for r in batched]
                == [fingerprint(r) for r in serial])

    def test_rounds_per_budget_bucket_bounded(self, search_cls,
                                              tiny_config, factory,
                                              probe_batches):
        searches = [search_cls(target, iterations=iterations,
                               search_budget=budget)
                    for target in (31.0, 42.0)
                    for iterations, budget in ((3, OTHER_BUDGET),
                                               (4, TINY_BUDGET))]
        units = []
        for strategy in searches:
            units.extend(make_units(tiny_config, factory,
                                    strategy=strategy))
        _execute_group(BatchGroup(tiny_config, TINY_BUDGET, "fast",
                                  units))
        rounds = Counter(budget for budget, _ in probe_batches)
        assert 0 < rounds[OTHER_BUDGET] <= 3 + 2
        assert 0 < rounds[TINY_BUDGET] <= 4 + 2


class TestBatchedAccounting:
    def test_report_counts_groups_and_units(self, tiny_config, factory):
        ctx = ExecutionContext(backend="batched", cache=UnitCache(),
                               engine="fast")
        units = make_units(tiny_config, factory)
        ctx.run(units)
        report = ctx.runner.last_report
        assert report.backend == "batched"
        assert report.total_units == 3
        assert report.executed == 3
        assert report.groups == 1
        assert report.batched_units == 3
        assert report.parallel is False
        assert report.elapsed_s > 0 and report.busy_s > 0
        assert "batched" in report.render()
        totals = ctx.runner.totals
        assert totals.groups == 1 and totals.batched_units == 3
        assert "batched" in totals.render()

    def test_progress_fires_per_unit_in_batched_group(self, tiny_config,
                                                      factory):
        seen = []
        ctx = ExecutionContext(
            backend="batched", cache=None, engine="fast",
            progress=lambda done, total, res: seen.append((done, total)))
        ctx.run(make_units(tiny_config, factory))
        assert seen == [(1, 3), (2, 3), (3, 3)]

    def test_cache_entries_shared_with_serial_backend(self, tiny_config,
                                                      factory):
        """A batched run fills the cache with per-unit entries that a
        serial context recognizes (same digests)."""
        cache = UnitCache()
        units = make_units(tiny_config, factory)
        ExecutionContext(backend="batched", cache=cache,
                         engine="fast").run(units)
        serial = ExecutionContext(backend="serial", cache=cache,
                                  engine="fast")
        again = serial.run(units)
        assert all(r.from_cache for r in again)
        assert serial.runner.last_report.executed == 0

    def test_mixed_plan_executes_everything(self, tiny_config, factory):
        """Groups + singles in one submission, order preserved."""
        fast = make_units(tiny_config, factory, engine="fast")
        ref = make_units(tiny_config, factory, engine="reference",
                         rates=(0.05,))
        ctx = ExecutionContext(backend="batched", cache=None,
                               engine="fast")
        out = ctx.run(fast + ref)
        assert [r.x for r in out] == [u.x for u in fast + ref]
        report = ctx.runner.last_report
        assert report.batched_units == 3
        assert report.executed == 4


class TestBackwardCompatShims:
    def test_new_spellings_do_not_warn(self, tiny_config, factory):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            run_sweep(tiny_config, factory, [0.05], NoDvfsSteadyState(),
                      TINY_BUDGET, seed=5,
                      context=ExecutionContext(backend="serial",
                                               cache=None))
            Workbench(context=ExecutionContext())
