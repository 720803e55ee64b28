"""Differential equivalence harness: fast engine vs reference engine.

The fast struct-of-arrays engine (``repro.noc.fastsim``) is designed to
produce the *same flit-level schedule* as the reference object model
for the same arrival sequence — both engines share the kernel, the
clock domains and the RNG streams, and the vectorized allocation
mirrors the reference arbiters decision-for-decision.  The only
admissible divergence is float accumulation order in per-window
statistics.

This suite enforces that contract differentially: every test runs
matched (policy, traffic, config, seed) points on both engines and
compares the quantities the paper's figures are built from.

Tolerance contract (also documented in README "Simulation engines"):

* packet/flit counts, activity counters, accepted-rate curves — exact;
* mean/p99 delay, latency, hop counts — relative ``1e-9`` (float
  summation order);
* RMSD steady-state frequencies — exact (closed form, eq. (2));
* DMSD steady-state frequencies — relative ``1e-9`` (the bisection
  consumes simulated delays);
* DVFS frequency traces — same length, per-entry relative ``1e-9``.

Covered operating space: uniform / transpose / hotspot traffic, both
controllers (RMSD and DMSD, transient and steady-state forms), and
unsaturated as well as saturated operating points.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import (DmsdSteadyState, RmsdSteadyState, run_sweep,
                            sweep_units)
from repro.core.dmsd import DmsdController
from repro.core.rmsd import RmsdController
from repro.noc import (NocConfig, SimBudget, Simulation, engine_names,
                       make_engine, run_fixed_point)
from repro.noc.fastsim import BatchPoint, run_fixed_batch
from repro.runner import ExecutionContext
from repro.traffic import PatternTraffic, make_pattern

#: Engines under differential comparison.
REFERENCE, FAST = "reference", "fast"

#: The ISSUE's three traffic patterns (random, permutation, congested).
PATTERNS = ("uniform", "transpose", "hotspot")

#: Relative tolerance for float-accumulated statistics.
REL = 1e-9

#: 4x4 (square, so transpose is defined), 2 VCs, short packets: small
#: enough that the whole matrix stays fast, large enough to contend.
CONFIG = NocConfig(width=4, height=4, num_vcs=2, vc_buf_depth=2,
                   packet_length=4)

BUDGET = SimBudget(150, 400, 1200)

#: Offered loads: comfortably below and well past saturation.
UNSATURATED, SATURATED = 0.08, 0.55


def traffic_for(pattern: str, rate: float,
                config: NocConfig = CONFIG) -> PatternTraffic:
    return PatternTraffic(make_pattern(pattern, config.make_mesh()), rate)


def matched_fixed_points(pattern: str, rate: float, seed: int = 11,
                         freq_hz: float | None = None):
    """The same fixed-frequency run on both engines."""
    freq = CONFIG.f_max_hz if freq_hz is None else freq_hz
    return tuple(
        run_fixed_point(CONFIG, traffic_for(pattern, rate), freq,
                        BUDGET, seed, engine=engine)
        for engine in (REFERENCE, FAST))


def assert_results_equivalent(ref, fast):
    """The tolerance contract, applied to one matched result pair."""
    assert fast.measured_created == ref.measured_created
    assert fast.measured_delivered == ref.measured_delivered
    assert fast.complete == ref.complete
    assert fast.accepted_node_rate == ref.accepted_node_rate
    assert fast.backlog_delta_flits == ref.backlog_delta_flits
    assert fast.measure_node_cycles == ref.measure_node_cycles
    for field in ("mean_delay_ns", "mean_latency_cycles", "p99_delay_ns",
                  "mean_hops"):
        ref_value, fast_value = getattr(ref, field), getattr(fast, field)
        if ref_value is None:
            assert fast_value is None
        else:
            assert fast_value == pytest.approx(ref_value, rel=REL)


class TestEngineRegistry:
    def test_both_engines_registered(self):
        assert set(engine_names()) == {"reference", "fast"}
        assert engine_names()[0] == "reference"   # the default leads

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            make_engine("warp", CONFIG)
        with pytest.raises(ValueError, match="unknown engine"):
            Simulation(CONFIG, traffic_for("uniform", 0.1),
                       engine="warp")


class TestFixedPointEquivalence:
    """Matched fixed-frequency points across patterns and load regimes."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("rate", [UNSATURATED, SATURATED])
    def test_statistics_agree(self, pattern, rate):
        ref, fast = matched_fixed_points(pattern, rate)
        assert_results_equivalent(ref, fast)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_saturated_points_actually_saturate(self, pattern):
        """The harness covers the regime it claims to cover."""
        ref, fast = matched_fixed_points(pattern, SATURATED)
        assert ref.saturated and fast.saturated

    def test_slow_network_clock(self):
        """The DVFS-relevant regime: network at Fmin, nodes at Fnode."""
        ref, fast = matched_fixed_points("uniform", UNSATURATED,
                                         freq_hz=CONFIG.f_min_hz)
        assert_results_equivalent(ref, fast)

    @pytest.mark.parametrize("overrides", [
        dict(route_latency=0),
        dict(va_latency=0),
        dict(route_latency=0, va_latency=0),
        dict(route_latency=2),
        dict(link_latency=2, credit_latency=2),
    ], ids=["rl0", "va0", "rl0-va0", "rl2", "ll2-cl2"])
    def test_pipeline_latency_variants(self, overrides):
        """The router-phase derivation from FIFO occupancy must hold
        for every pipeline timing, including the zero-latency
        fall-throughs."""
        config = CONFIG.with_(**overrides)
        ref, fast = (
            run_fixed_point(config, traffic_for("uniform", 0.25, config),
                            config.f_max_hz, BUDGET, 11, engine=engine)
            for engine in (REFERENCE, FAST))
        assert_results_equivalent(ref, fast)

    def test_activity_counters_agree(self):
        for engine_results in [
            tuple(Simulation(CONFIG, traffic_for("uniform", 0.2),
                             seed=5, engine=engine)
                  for engine in (REFERENCE, FAST))
        ]:
            ref_sim, fast_sim = engine_results
            ref_sim.run(100, 300, 800)
            fast_sim.run(100, 300, 800)
            assert (fast_sim.network.aggregate_activity().as_dict()
                    == ref_sim.network.aggregate_activity().as_dict())


class TestControllerEquivalence:
    """Transient RMSD/DMSD control loops drive both engines alike."""

    def run_controlled(self, controller, engine, seed=7):
        sim = Simulation(CONFIG, traffic_for("uniform", 0.2),
                         controller=controller,
                         control_period_node_cycles=400,
                         seed=seed, engine=engine)
        return sim.run(200, 1200, 3000)

    @pytest.mark.parametrize("make_controller", [
        lambda: RmsdController(lambda_max=0.35),
        lambda: DmsdController(target_delay_ns=60.0),
    ], ids=["rmsd", "dmsd"])
    def test_frequency_trace_agrees(self, make_controller):
        ref = self.run_controlled(make_controller(), REFERENCE)
        fast = self.run_controlled(make_controller(), FAST)
        assert len(fast.freq_trace) == len(ref.freq_trace)
        for (ref_t, ref_f), (fast_t, fast_f) in zip(ref.freq_trace,
                                                    fast.freq_trace):
            assert fast_t == pytest.approx(ref_t, rel=REL)
            assert fast_f == pytest.approx(ref_f, rel=REL)
        assert fast.mean_freq_hz == pytest.approx(ref.mean_freq_hz,
                                                  rel=REL)
        assert_results_equivalent(ref, fast)

    def test_power_windows_agree(self):
        ref = self.run_controlled(DmsdController(target_delay_ns=60.0),
                                  REFERENCE)
        fast = self.run_controlled(DmsdController(target_delay_ns=60.0),
                                   FAST)
        assert len(fast.power_windows) == len(ref.power_windows)
        for ref_win, fast_win in zip(ref.power_windows,
                                     fast.power_windows):
            assert fast_win.cycles == ref_win.cycles
            assert fast_win.freq_hz == pytest.approx(ref_win.freq_hz,
                                                     rel=REL)
            assert fast_win.activity == ref_win.activity


class TestSteadyStateEquivalence:
    """Steady-state frequencies and curves at matched seeds.

    With the seed held fixed, the engine is the only variable, so the
    tight (flit-exact) contract applies.
    """

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_dmsd_fixed_point_frequency(self, pattern):
        """The bisection consumes simulated delays on each engine."""
        strategy = DmsdSteadyState(target_delay_ns=40.0, iterations=5,
                                   search_budget=BUDGET)
        frequencies = [
            strategy.frequency_for(CONFIG, traffic_for(pattern, 0.18),
                                   BUDGET, seed=11, engine=engine)
            for engine in (REFERENCE, FAST)
        ]
        assert frequencies[1] == pytest.approx(frequencies[0], rel=REL)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_rmsd_frequency_closed_form(self, pattern):
        """Eq. (2) never simulates: identical on every engine."""
        strategy = RmsdSteadyState(lambda_max=0.5)
        traffic = traffic_for(pattern, 0.18)
        assert (strategy.frequency_for(CONFIG, traffic, BUDGET, 11,
                                       engine=FAST)
                == strategy.frequency_for(CONFIG, traffic, BUDGET, 11,
                                          engine=REFERENCE))

    def test_accepted_rate_curve_through_saturation(self):
        """The throughput curve (accepted vs offered) matches exactly,
        including the post-saturation plateau."""
        rates = (0.1, 0.3, 0.5, 0.7)
        curves = {}
        for engine in (REFERENCE, FAST):
            curves[engine] = [
                run_fixed_point(CONFIG, traffic_for("uniform", rate),
                                CONFIG.f_max_hz, BUDGET, 3,
                                engine=engine).accepted_node_rate
                for rate in rates
            ]
        assert curves[FAST] == curves[REFERENCE]


class TestSweepPipelineEquivalence:
    """`run_sweep` on each engine end to end, through units and cache.

    Here the engines run *different derived seeds* (the engine is part
    of every unit's spec digest by design), so the comparison is
    statistical: closed-form frequencies stay exact, self-averaging
    throughput stays within a few percent, and DMSD operating points
    land within the noise of the tiny search budget.
    """

    RATES = (0.06, 0.18, 0.30)

    def sweep(self, strategy, pattern, engine):
        context = ExecutionContext(backend="serial", jobs=1, cache=None,
                                   engine=engine)
        return run_sweep(CONFIG, lambda r: traffic_for(pattern, r),
                         list(self.RATES), strategy, BUDGET, seed=11,
                         context=context)

    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_rmsd_series(self, pattern):
        ref = self.sweep(RmsdSteadyState(lambda_max=0.5), pattern,
                         REFERENCE)
        fast = self.sweep(RmsdSteadyState(lambda_max=0.5), pattern, FAST)
        assert ([p.freq_hz for p in fast.points]
                == [p.freq_hz for p in ref.points])
        for ref_point, fast_point in zip(ref.points, fast.points):
            assert fast_point.accepted_rate == pytest.approx(
                ref_point.accepted_rate, rel=0.10)
        # The low-load point's delay bound is a *seed-noise* bound (the
        # engines see different derived seeds here, and RMSD pins the
        # network near its operating edge); the engine-only bound is
        # the flit-exact REL above at matched seeds.
        assert fast.points[0].delay_ns == pytest.approx(
            ref.points[0].delay_ns, rel=0.25)

    def test_dmsd_series(self):
        strategy = DmsdSteadyState(target_delay_ns=40.0, iterations=5,
                                   search_budget=BUDGET)
        ref = self.sweep(strategy, "uniform", REFERENCE)
        fast = self.sweep(strategy, "uniform", FAST)
        for ref_point, fast_point in zip(ref.points, fast.points):
            assert fast_point.freq_hz == pytest.approx(
                ref_point.freq_hz, rel=0.08)
            if ref_point.delay_ns is not None:
                assert fast_point.delay_ns == pytest.approx(
                    ref_point.delay_ns, rel=0.15)


class TestUnitDigests:
    """Engine choice is part of the unit spec: caches never mix."""

    def factory(self, rate):
        return traffic_for("uniform", rate)

    def units(self, engine):
        return sweep_units(CONFIG, self.factory, [0.1],
                           RmsdSteadyState(0.4), BUDGET, seed=7,
                           engine=engine)

    def test_engines_have_distinct_digests(self):
        assert (self.units(REFERENCE)[0].digest()
                != self.units(FAST)[0].digest())

    def test_reference_digest_matches_pre_engine_spec(self):
        """Reference units keep their pre-engine-era spec keys, so
        recorded goldens and caches stay valid."""
        key = self.units(REFERENCE)[0].spec_key()
        assert not any(isinstance(part, tuple) and part
                       and part[0] == "engine" for part in key)
        assert any(isinstance(part, tuple) and part
                   and part[0] == "engine"
                   for part in self.units(FAST)[0].spec_key())

    def test_derived_seeds_differ_between_engines(self):
        assert self.units(REFERENCE)[0].seed() != self.units(FAST)[0].seed()


class TestBatchedEquivalence:
    """`run_fixed_batch` replicas equal standalone runs, per point."""

    def points(self):
        return [
            BatchPoint(traffic_for("uniform", 0.08), CONFIG.f_max_hz, 3),
            BatchPoint(traffic_for("transpose", 0.2), CONFIG.f_min_hz, 4),
            BatchPoint(traffic_for("hotspot", 0.55), CONFIG.f_max_hz, 5),
        ]

    def test_batch_equals_single_fast_runs(self):
        batched = run_fixed_batch(CONFIG, self.points(), BUDGET)
        for point, from_batch in zip(self.points(), batched):
            alone = run_fixed_point(CONFIG, point.traffic, point.freq_hz,
                                    BUDGET, point.seed, engine=FAST)
            assert from_batch.measured_created == alone.measured_created
            assert (from_batch.measured_delivered
                    == alone.measured_delivered)
            assert (from_batch.accepted_node_rate
                    == alone.accepted_node_rate)
            assert (from_batch.backlog_delta_flits
                    == alone.backlog_delta_flits)
            assert from_batch.complete == alone.complete
            assert (from_batch.measure_duration_ns
                    == alone.measure_duration_ns)
            if alone.mean_delay_ns is None:
                assert from_batch.mean_delay_ns is None
            else:
                assert from_batch.mean_delay_ns == alone.mean_delay_ns
                assert from_batch.p99_delay_ns == alone.p99_delay_ns

    def test_batch_agrees_with_reference(self):
        batched = run_fixed_batch(CONFIG, self.points(), BUDGET)
        for point, from_batch in zip(self.points(), batched):
            ref = run_fixed_point(CONFIG, point.traffic, point.freq_hz,
                                  BUDGET, point.seed, engine=REFERENCE)
            assert_results_equivalent(ref, from_batch)

    def test_power_windows_equal_single_fast_runs(self):
        """Per-replica power windows: same duration, cycles, frequency
        and (exactly) the same activity counters as running the point
        alone — what lets power figures run on the batched backend."""
        batched = run_fixed_batch(CONFIG, self.points(), BUDGET)
        for point, from_batch in zip(self.points(), batched):
            alone = run_fixed_point(CONFIG, point.traffic, point.freq_hz,
                                    BUDGET, point.seed, engine=FAST)
            assert (len(from_batch.power_windows)
                    == len(alone.power_windows) == 1)
            batch_win = from_batch.power_windows[0]
            alone_win = alone.power_windows[0]
            assert batch_win.duration_ns == alone_win.duration_ns
            assert batch_win.cycles == alone_win.cycles
            assert batch_win.freq_hz == alone_win.freq_hz
            assert batch_win.activity == alone_win.activity
            assert from_batch.mean_freq_hz == alone.mean_freq_hz

    def test_empty_batch(self):
        assert run_fixed_batch(CONFIG, [], BUDGET) == []

    def test_heterogeneous_node_clocks_rejected(self):
        config = CONFIG.with_(
            node_freqs_hz=tuple([1e9] * CONFIG.num_nodes))
        with pytest.raises(NotImplementedError):
            run_fixed_batch(config, self.points(), BUDGET)


#: What a probe stopped at the window boundary shares with the full run.
WINDOW_FIELDS = ("saturated", "backlog_delta_flits", "accepted_node_rate",
                 "measured_created", "measure_node_cycles")


def assert_probe_agrees(full, probe) -> bool:
    """The probe contract; returns whether the probe stopped early.

    Either the probe run is the full run, or the full run is saturated
    and the probe stopped with ``complete=False`` and the full run's
    verdict and measurement-window fields.
    """
    if probe == full:
        return False
    assert full.saturated and not probe.complete
    for name in WINDOW_FIELDS:
        assert getattr(probe, name) == getattr(full, name), name
    return True


#: The probe law's Hypothesis settings and inputs, shared with its
#: NumPy-step rerun in ``test_engine_numpy_step``.
PROBE_LAW_SETTINGS = settings(max_examples=12, deadline=None,
                              suppress_health_check=[HealthCheck.too_slow])
PROBE_LAW_INPUTS = dict(rate=st.floats(0.02, 0.7),
                        speed=st.floats(0.0, 1.0),
                        seed=st.integers(0, 2**16))


class TestProbeRuns:
    """``probe=True`` stops a run proven saturated when its
    measurement window closes, on both engines, and changes nothing
    else."""

    #: (pattern, rate, frequency, stops): below and past saturation.
    POINTS = [
        ("uniform", UNSATURATED, CONFIG.f_min_hz, False),
        ("uniform", UNSATURATED, CONFIG.f_max_hz, False),
        ("uniform", SATURATED, CONFIG.f_min_hz, True),
        ("uniform", SATURATED, CONFIG.f_max_hz, True),
        ("hotspot", 0.3, CONFIG.f_max_hz, True),
    ]

    @staticmethod
    def both_runs(pattern, rate, freq_hz, engine, seed=11):
        args = (CONFIG, traffic_for(pattern, rate), freq_hz, BUDGET, seed)
        return (run_fixed_point(*args, engine=engine),
                run_fixed_point(*args, engine=engine, probe=True))

    @pytest.mark.parametrize("engine", [REFERENCE, FAST])
    @pytest.mark.parametrize("pattern,rate,freq_hz,stops", POINTS)
    def test_probe_is_the_full_run_or_stops_saturated(
            self, engine, pattern, rate, freq_hz, stops):
        full, probe = self.both_runs(pattern, rate, freq_hz, engine)
        assert assert_probe_agrees(full, probe) == stops

    @PROBE_LAW_SETTINGS
    @given(**PROBE_LAW_INPUTS)
    def test_probe_law_on_the_fast_engine(self, rate, speed, seed):
        freq_hz = CONFIG.f_min_hz + speed * (CONFIG.f_max_hz
                                             - CONFIG.f_min_hz)
        assert_probe_agrees(*self.both_runs("uniform", rate, freq_hz,
                                            FAST, seed))

    @pytest.mark.parametrize("engine", [REFERENCE, FAST])
    def test_saturated_probe_steps_only_warmup_and_measure(
            self, engine, step_calls):
        args = (CONFIG, traffic_for("uniform", SATURATED),
                CONFIG.f_min_hz, BUDGET, 11)
        full = run_fixed_point(*args, engine=engine)
        full_steps, step_calls[0] = step_calls[0], 0
        run_fixed_point(*args, engine=engine, probe=True)
        window = BUDGET.warmup_cycles + BUDGET.measure_cycles
        # The full run never drains, so it steps to the drain cap.
        assert not full.complete
        assert full_steps == window + BUDGET.drain_cycles
        assert step_calls[0] == window

    def test_mixed_probe_batch(self):
        """Stopped and unstopped replicas share a probe batch: each
        replica is its single probe run, and each unstopped one is its
        single full run, field for field."""
        points = [
            BatchPoint(traffic_for("uniform", SATURATED), CONFIG.f_min_hz, 3),
            BatchPoint(traffic_for("uniform", UNSATURATED), CONFIG.f_max_hz,
                       4),
            BatchPoint(traffic_for("hotspot", 0.3), CONFIG.f_max_hz, 5),
            BatchPoint(traffic_for("transpose", 0.1), CONFIG.f_min_hz, 6),
        ]
        batched = run_fixed_batch(CONFIG, points, BUDGET, probe=True)
        stopped = []
        for point, from_batch in zip(points, batched):
            args = (CONFIG, point.traffic, point.freq_hz, BUDGET,
                    point.seed)
            full = run_fixed_point(*args, engine=FAST)
            assert from_batch == run_fixed_point(*args, engine=FAST,
                                                 probe=True)
            stopped.append(assert_probe_agrees(full, from_batch))
        assert stopped == [True, False, True, False]
