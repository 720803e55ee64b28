"""The scenario registries: refs, policies, patterns, strategies.

Covers the registry round-trip (register -> name -> instantiate ->
``spec_key``), the fresh-instance-per-unit contract (the shared-PI-
state regression), and the clean-``ValueError`` contract for unknown
names and parameters at the API layer (the CLI layer is covered in
``test_cli.py``).
"""

import pytest
from hypothesis import given, strategies as st

from repro.core import (DmsdController, DvfsPolicy, NoDvfs,
                        POLICY_REGISTRY, Ref, default_policies,
                        make_policy, make_strategy, policy_names,
                        register_policy, register_strategy)
from repro.analysis.sweep import (DmsdSteadyState, NoDvfsSteadyState,
                                  RmsdSteadyState, StrategyResources,
                                  strategy_from_ref)
from repro.noc import NocConfig
from repro.traffic import (PATTERN_REGISTRY, TrafficPattern,
                           make_pattern, pattern_names, register_pattern)

from conftest import sample


class TestRef:
    def test_of_and_parse_agree(self):
        assert Ref.of("dmsd", target_delay_ns=500, ki=0.05) == Ref.parse(
            "dmsd:target_delay_ns=500,ki=0.05")

    def test_params_canonically_sorted(self):
        a = Ref.of("x-p", b=2, a=1)
        b = Ref.of("x-p", a=1, b=2)
        assert a == b
        assert a.params == (("a", 1), ("b", 2))
        assert hash(a) == hash(b)

    def test_label_round_trip(self):
        ref = Ref.of("hotspot", fraction=0.1)
        assert ref.label == "hotspot:fraction=0.1"
        assert Ref.parse(ref.label) == ref

    def test_plain_name_label(self):
        assert Ref.of("rmsd").label == "rmsd"

    def test_parse_literals_and_strings(self):
        ref = Ref.parse("p:a=1,b=0.5,c=True,d=text")
        assert ref.kwargs() == {"a": 1, "b": 0.5, "c": True,
                                "d": "text"}

    def test_spec_key_distinguishes_params(self):
        assert (Ref.of("dmsd", target_delay_ns=40).spec_key()
                != Ref.of("dmsd", target_delay_ns=50).spec_key())

    @pytest.mark.parametrize("bad", ["", ":", "p:", "p:novalue",
                                     "p:=3", "p:a=1,=2"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            Ref.parse(bad)

    def test_coerce_rejects_non_ref(self):
        with pytest.raises(ValueError):
            Ref.coerce(3.14)

    def test_invalid_params_shape_rejected(self):
        with pytest.raises(ValueError):
            Ref("ok", params=(("just-a-key",),))


class TestPolicyRegistry:
    def test_builtins_registered_in_paper_order(self):
        # Policies self-register at class definition (lint rule D006),
        # so registration order follows repro.core's import order:
        # the paper triple keeps its relative order, with the
        # strategy-less 'fixed' debugging policy interleaved.
        names = policy_names()
        paper = tuple(n for n in names
                      if n in ("no-dvfs", "rmsd", "dmsd"))
        assert paper == ("no-dvfs", "rmsd", "dmsd")
        assert "fixed" in names

    def test_default_policies_is_the_paper_triple(self):
        # 'fixed' has no sweep strategy, so the default sweep ordering
        # is exactly the old hardwired POLICIES tuple.
        assert default_policies()[:3] == ("no-dvfs", "rmsd", "dmsd")

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="unknown policy 'warp'"):
            make_policy("warp")

    def test_unknown_param_lists_accepted(self):
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            make_policy("dmsd", target_delay_ns=100, bogus=1)

    def test_missing_required_param_is_value_error(self):
        with pytest.raises(ValueError,
                           match="cannot instantiate policy 'dmsd'"):
            make_policy("dmsd")

    def test_bad_param_value_propagates_value_error(self):
        with pytest.raises(ValueError):
            make_policy("dmsd", target_delay_ns=-5)

    def test_make_policy_via_ref_and_string(self):
        by_ref = make_policy(Ref.of("dmsd", target_delay_ns=100))
        by_str = make_policy("dmsd:target_delay_ns=100")
        assert isinstance(by_ref, DmsdController)
        assert by_str.target_delay_ns == by_ref.target_delay_ns == 100

    def test_strategyless_policy_rejected_for_sweeps(self):
        with pytest.raises(ValueError, match="no steady-state sweep"):
            make_strategy("fixed", None, freq_hz=1e9)

    def test_strategy_unknown_param(self):
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            make_strategy("rmsd", None, lambda_max=0.5, nope=1)

    def test_strategy_missing_resource_is_clean(self):
        with pytest.raises(ValueError, match="lambda_max"):
            make_strategy("rmsd")

    def test_builtin_strategies_round_trip(self):
        resources = StrategyResources(lambda_max=lambda: 0.5,
                                      target_delay_ns=lambda: 40.0,
                                      dmsd_iterations=4)
        nod = strategy_from_ref("no-dvfs", resources)
        rmsd = strategy_from_ref("rmsd", resources)
        dmsd = strategy_from_ref("dmsd", resources)
        assert isinstance(nod, NoDvfsSteadyState)
        assert rmsd.spec_key() == RmsdSteadyState(0.5).spec_key()
        assert dmsd.spec_key() == DmsdSteadyState(
            40.0, iterations=4).spec_key()

    def test_explicit_params_beat_resources(self):
        resources = StrategyResources(lambda_max=lambda: 0.5)
        strat = strategy_from_ref(Ref.of("rmsd", lambda_max=0.25),
                                  resources)
        assert strat.lambda_max == 0.25

    def test_dual_side_ref_builds_both_sides(self):
        """One ref drives both sides: each side keeps its own params
        and sets the other side's aside."""
        ref = Ref.of("dmsd", target_delay_ns=150.0, iterations=8)
        controller = make_policy(ref)           # iterations is sweep-side
        assert controller.target_delay_ns == 150.0
        strategy = make_strategy(ref)
        assert strategy.iterations == 8
        rmsd_ref = Ref.of("rmsd", lambda_max=0.3, smoothing=0.2)
        assert make_policy(rmsd_ref).smoothing == 0.2
        assert make_strategy(rmsd_ref).lambda_max == 0.3

    def test_param_unknown_to_both_sides_still_rejected(self):
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            make_policy(Ref.of("dmsd", target_delay_ns=1.0, warp=9))
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            make_strategy(Ref.of("rmsd", lambda_max=0.3, warp=9))

    def test_dmsd_strategy_ignores_pi_gains(self):
        # One ref can drive both the transient controller and the
        # sweep: the fixed point is independent of ki/kp.
        strat = make_strategy("dmsd", None, target_delay_ns=40.0,
                              ki=0.1, kp=0.05)
        assert strat.spec_key() == DmsdSteadyState(40.0).spec_key()


class _ProbePolicy(DvfsPolicy):
    name = "probe-policy"

    def __init__(self, level: float = 0.5) -> None:
        super().__init__()
        self.level = level

    def update(self, sample):
        config = self._require_config()
        return config.f_min_hz + self.level * (config.f_max_hz
                                               - config.f_min_hz)


@pytest.fixture
def probe_policy():
    register_policy(_ProbePolicy)
    try:
        yield _ProbePolicy
    finally:
        POLICY_REGISTRY.remove(_ProbePolicy.name)


class TestRegistrationLifecycle:
    def test_register_name_instantiate_round_trip(self, probe_policy):
        assert "probe-policy" in POLICY_REGISTRY
        inst = make_policy("probe-policy:level=0.75")
        assert isinstance(inst, _ProbePolicy)
        assert inst.level == 0.75
        # Registered policies without a sweep strategy never enter the
        # default sweep ordering.
        assert "probe-policy" not in default_policies()

    def test_strategy_attach_and_default_ordering(self, probe_policy):
        register_strategy("probe-policy",
                          lambda resources=None: NoDvfsSteadyState())
        assert default_policies()[-1] == "probe-policy"
        assert isinstance(make_strategy("probe-policy"),
                          NoDvfsSteadyState)

    def test_opt_in_strategy_is_sweepable_but_not_default(
            self, probe_policy):
        """``default=False`` keeps a policy out of the default figure
        comparison while every by-name path still works — how the
        adaptive gcc/utility built-ins ride along without widening the
        paper's three-policy figures."""
        register_strategy("probe-policy",
                          lambda resources=None: NoDvfsSteadyState(),
                          default=False)
        assert "probe-policy" in POLICY_REGISTRY.sweepable()
        assert "probe-policy" not in default_policies()
        assert not POLICY_REGISTRY.is_default("probe-policy")
        assert isinstance(make_strategy("probe-policy"),
                          NoDvfsSteadyState)
        # flipping to default=True (replace) joins the default set
        register_strategy("probe-policy",
                          lambda resources=None: NoDvfsSteadyState(),
                          replace=True)
        assert default_policies()[-1] == "probe-policy"

    def test_duplicate_registration_rejected(self, probe_policy):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(_ProbePolicy)
        register_policy(_ProbePolicy, replace=True)  # explicit is fine

    def test_strategy_for_unregistered_policy_rejected(self):
        with pytest.raises(ValueError, match="register the policy"):
            register_strategy("never-registered",
                              lambda resources=None: None)

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError):
            POLICY_REGISTRY.remove("never-registered")


class TestFreshInstancesRegression:
    """The shared-instance bug: ``reset()``/``update()`` mutate policy
    state (PI integrator, bound config), so a policy object reused
    across units would leak state between sweep points.  Registries
    must hand out a fresh instance per request."""

    def test_make_policy_never_shares_instances(self):
        a = make_policy("dmsd", target_delay_ns=100.0)
        b = make_policy("dmsd", target_delay_ns=100.0)
        assert a is not b
        assert a.pi is not b.pi

    def test_mutated_state_does_not_leak(self, tiny_config):
        a = make_policy("dmsd", target_delay_ns=100.0)
        b = make_policy("dmsd", target_delay_ns=100.0)
        a.reset(tiny_config)
        # Drive a's integrator away from its initial state (delay far
        # below target -> negative error -> u walks down from 1.0).
        for _ in range(5):
            a.update(sample(delay_ns=10.0))
        assert a.pi.u != pytest.approx(1.0)
        assert b.pi.u == pytest.approx(1.0)

    def test_simulations_from_specs_get_fresh_controllers(self,
                                                          tiny_config):
        from repro import PatternTraffic, Simulation, make_pattern

        traffic = PatternTraffic(
            make_pattern("uniform", tiny_config.make_mesh()), 0.05)
        sim1 = Simulation(tiny_config, traffic,
                          controller="dmsd:target_delay_ns=100")
        sim2 = Simulation(tiny_config, traffic,
                          controller="dmsd:target_delay_ns=100")
        assert sim1.controller is not sim2.controller


class _ProbePattern(TrafficPattern):
    name = "probe-pattern"

    def __init__(self, mesh, shift: int = 1) -> None:
        super().__init__(mesh)
        self.shift = shift

    def spec_key(self):
        return super().spec_key() + (self.shift,)

    def dest(self, src, rng):
        return (src + self.shift) % self.mesh.num_nodes


@pytest.fixture
def probe_pattern():
    register_pattern(_ProbePattern)
    try:
        yield _ProbePattern
    finally:
        PATTERN_REGISTRY.remove(_ProbePattern.name)


class TestPatternRegistry:
    def test_round_trip_with_params(self, mesh3, probe_pattern):
        assert "probe-pattern" in pattern_names()
        pat = make_pattern("probe-pattern:shift=4", mesh3)
        assert pat.shift == 4
        assert pat.spec_key() == ("probe-pattern", 3, 3, 4)
        assert pat.dest(0, None) == 4

    def test_fresh_pattern_instances(self, mesh3, probe_pattern):
        assert (make_pattern("probe-pattern", mesh3)
                is not make_pattern("probe-pattern", mesh3))

    def test_unknown_pattern_lists_known(self, mesh3):
        with pytest.raises(ValueError,
                           match="unknown traffic pattern"):
            make_pattern("warp-field", mesh3)

    def test_unknown_pattern_param(self, mesh3):
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            make_pattern("hotspot:gravity=9.81", mesh3)


_KNOWN = set(policy_names()) | set(pattern_names()) | {"probe-policy",
                                                       "probe-pattern"}


class TestUnknownNamesProperty:
    """Hypothesis: *any* unregistered name fails with a ValueError
    (never a KeyError/AttributeError) at the API layer."""

    @given(name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1, max_size=12).filter(lambda s: s not in _KNOWN))
    def test_unknown_policy(self, name):
        with pytest.raises(ValueError):
            make_policy(name)

    @given(name=st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
        min_size=1, max_size=12).filter(lambda s: s not in _KNOWN))
    def test_unknown_pattern(self, name):
        mesh = NocConfig(width=3, height=3).make_mesh()
        with pytest.raises(ValueError):
            make_pattern(name, mesh)

    @given(key=st.text(alphabet="abcdefghij", min_size=1, max_size=8)
           .filter(lambda s: s not in ("lambda_max", "smoothing")))
    def test_unknown_strategy_param(self, key):
        with pytest.raises(ValueError):
            make_strategy("rmsd", None, **{key: 1.0, "lambda_max": 0.5})


class TestSweepRefValidation:
    """validate_sweep_ref: the stricter gate Workbench/CLI use."""

    def test_sweep_incapable_policy_rejected(self):
        with pytest.raises(ValueError, match="no steady-state sweep"):
            POLICY_REGISTRY.validate_sweep_ref("fixed")

    def test_controller_only_param_rejected(self):
        with pytest.raises(ValueError,
                           match="does not accept parameter"):
            POLICY_REGISTRY.validate_sweep_ref("rmsd:smoothing=0.5")

    def test_strategy_params_accepted(self):
        ref = POLICY_REGISTRY.validate_sweep_ref(
            "dmsd:target_delay_ns=40,iterations=3,ki=0.1")
        assert ref.name == "dmsd"

    def test_workbench_rejects_sweep_incapable_policies(self):
        from repro.experiments import Workbench

        with pytest.raises(ValueError, match="no steady-state sweep"):
            Workbench(policies=("no-dvfs", "fixed"))
