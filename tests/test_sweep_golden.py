"""Golden regression tests for sweep steady-state frequencies.

Pins the operating points the sweeps converge to, so silent changes to
the steady-state machinery (eq. (2), the DMSD bisection, per-unit seed
derivation) show up as test failures rather than as drifting figures.

* RMSD: the open-loop law of paper eq. (2) is a pure function —
  goldens are exact.
* DMSD: the bisection fixed point ``delay(F*) = target`` depends on
  the simulator and the derived seeds; goldens were recorded from the
  runner-era implementation on the tiny 3x3 configuration and carry a
  small tolerance for float-ordering differences across platforms.
"""

import pytest

from repro.analysis import (DmsdSteadyState, NoDvfsSteadyState,
                            RmsdSteadyState, run_fixed_point, run_sweep)
from repro.core import rmsd_frequency
from repro.noc import GHZ, NocConfig, PAPER_BASELINE, SimBudget
from repro.runner import ExecutionContext
from repro.traffic import (MatrixTraffic, PatternTraffic, h264_encoder,
                           make_pattern)

TINY_BUDGET = SimBudget(200, 500, 1500)

#: DMSD target used for every golden below (ns), tiny 3x3 config.
DMSD_TARGET_NS = 40.0
GOLDEN_SEED = 11
GOLDEN_RATES = (0.05, 0.15, 0.25)

#: Steady-state frequencies (GHz) of ``run_sweep`` at GOLDEN_RATES,
#: DMSD with 6 bisection iterations, recorded at the runner rollout.
DMSD_GOLDEN_GHZ = (0.333333333, 0.416666667, 0.541666667)

#: And the measured delays (ns) at those operating points.
DMSD_GOLDEN_DELAY_NS = (33.7897, 36.3779, 39.9364)

#: RMSD steady-state frequencies (GHz) for lambda_max = 0.5: eq. (2)
#: with clipping at Fmin (exact, simulator-independent).
RMSD_GOLDEN_GHZ = (1 / 3, 1 / 3, 0.5)


@pytest.fixture
def factory(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


class TestRmsdOpenLoopLaw:
    """Paper eq. (2) on the 5x5 baseline: exact goldens."""

    @pytest.mark.parametrize("rate,golden_ghz", [
        (0.05, 1 / 3),          # clipped at Fmin
        (0.10, 1 / 3),          # boundary: 0.1/0.378 GHz < Fmin
        (0.20, 0.2 / 0.378),    # interior of the law
        (0.30, 0.3 / 0.378),
        (0.378, 1.0),           # lambda_max -> Fmax
        (0.50, 1.0),            # clipped at Fmax
    ])
    def test_eq2_golden(self, rate, golden_ghz):
        f = rmsd_frequency(PAPER_BASELINE, rate, lambda_max=0.378)
        assert f == pytest.approx(golden_ghz * GHZ, rel=1e-12)

    def test_sweep_records_eq2_frequencies(self, tiny_config, factory):
        series = run_sweep(tiny_config, factory, list(GOLDEN_RATES),
                           RmsdSteadyState(lambda_max=0.5), TINY_BUDGET,
                           seed=GOLDEN_SEED)
        for point, golden in zip(series.points, RMSD_GOLDEN_GHZ):
            assert point.freq_hz == pytest.approx(golden * GHZ, rel=1e-9)


class TestDmsdFixedPoint:
    """The bisection fixed point ``delay(F*) = target`` (eq. Fig. 3)."""

    def _strategy(self):
        return DmsdSteadyState(target_delay_ns=DMSD_TARGET_NS,
                               iterations=6, search_budget=TINY_BUDGET)

    def _sweep(self, tiny_config, factory, jobs=1):
        context = ExecutionContext(
            backend="batched" if jobs > 1 else "serial", jobs=jobs,
            cache=None)
        return run_sweep(tiny_config, factory, list(GOLDEN_RATES),
                         self._strategy(), TINY_BUDGET, seed=GOLDEN_SEED,
                         context=context)

    def test_steady_state_frequencies_pinned(self, tiny_config, factory):
        series = self._sweep(tiny_config, factory)
        for point, golden in zip(series.points, DMSD_GOLDEN_GHZ):
            # One bisection step of the 6-iteration search resolves
            # ~1% of the frequency range; allow half a step of drift.
            assert point.freq_hz == pytest.approx(golden * GHZ, rel=0.006)

    def test_delays_pinned(self, tiny_config, factory):
        series = self._sweep(tiny_config, factory)
        for point, golden in zip(series.points, DMSD_GOLDEN_DELAY_NS):
            assert point.delay_ns == pytest.approx(golden, rel=0.02)

    def test_fixed_point_meets_target(self, tiny_config, factory):
        """delay(F*) tracks the target wherever F* is interior."""
        series = self._sweep(tiny_config, factory)
        for point in series.points:
            if point.freq_hz > tiny_config.f_min_hz * 1.001:
                assert point.delay_ns == pytest.approx(DMSD_TARGET_NS,
                                                       rel=0.25)

    def test_low_load_clips_at_f_min(self, tiny_config, factory):
        """Even Fmin beats the target at near-zero load -> clamp."""
        series = self._sweep(tiny_config, factory)
        assert series.points[0].freq_hz == pytest.approx(
            tiny_config.f_min_hz)

    def test_golden_holds_under_parallel_execution(self, tiny_config,
                                                   factory):
        """The pinned operating points are jobs-independent."""
        serial = self._sweep(tiny_config, factory, jobs=1)
        parallel = self._sweep(tiny_config, factory, jobs=2)
        assert ([p.freq_hz for p in serial.points]
                == [p.freq_hz for p in parallel.points])
        assert ([p.delay_ns for p in serial.points]
                == [p.delay_ns for p in parallel.points])

    def test_strategy_fixed_point_directly(self, tiny_config, factory):
        """Outside the sweep: bisect, then verify delay(F*) ~ target."""
        strat = self._strategy()
        f_star = strat.frequency_for(tiny_config, factory(0.15),
                                     TINY_BUDGET, seed=GOLDEN_SEED)
        res = run_fixed_point(tiny_config, factory(0.15), f_star,
                              TINY_BUDGET, seed=GOLDEN_SEED)
        assert res.mean_delay_ns == pytest.approx(DMSD_TARGET_NS, rel=0.25)


def _pattern_factory(config, pattern):
    mesh = config.make_mesh()
    pat = make_pattern(pattern, mesh)
    return lambda rate: PatternTraffic(pat, rate)


def _dmsd_strategy():
    return DmsdSteadyState(target_delay_ns=DMSD_TARGET_NS, iterations=6,
                          search_budget=TINY_BUDGET)


class TestFig7PatternGoldens:
    """Fig. 7's per-pattern operating points on the tiny 3x3 mesh.

    Transpose (permutation) and tornado (adversarial shift) exercise
    different link loads than uniform, so their DMSD fixed points pin
    the routing/saturation interplay that Fig. 7 is about.
    """

    #: DMSD steady-state frequencies (GHz) and measured delays (ns) at
    #: GOLDEN_RATES, recorded at the engine-selection rollout.
    GOLDEN = {
        "transpose": ((0.34375, 0.489583333, 0.666666667),
                      (39.3997, 39.2779, 38.9839)),
        "tornado": ((0.333333333, 0.395833333, 0.53125),
                    (39.2523, 38.61, 38.2792)),
    }

    @pytest.mark.parametrize("pattern", sorted(GOLDEN))
    def test_dmsd_operating_points_pinned(self, tiny_config, pattern):
        series = run_sweep(tiny_config,
                           _pattern_factory(tiny_config, pattern),
                           list(GOLDEN_RATES), _dmsd_strategy(),
                           TINY_BUDGET, seed=GOLDEN_SEED)
        golden_ghz, golden_ns = self.GOLDEN[pattern]
        for point, freq, delay in zip(series.points, golden_ghz,
                                      golden_ns):
            assert point.freq_hz == pytest.approx(freq * GHZ, rel=0.006)
            assert point.delay_ns == pytest.approx(delay, rel=0.02)

    def test_tornado_cheaper_than_transpose(self, tiny_config):
        """Sanity on the ordering Fig. 7 shows: tornado's short paths
        need less frequency than transpose at the same offered load."""
        results = {}
        for pattern in ("transpose", "tornado"):
            series = run_sweep(tiny_config,
                               _pattern_factory(tiny_config, pattern),
                               [GOLDEN_RATES[-1]], _dmsd_strategy(),
                               TINY_BUDGET, seed=GOLDEN_SEED)
            results[pattern] = series.points[0].freq_hz
        assert results["tornado"] < results["transpose"]


class TestFig8SensitivityGoldens:
    """Fig. 8's sensitivity knobs on the tiny mesh: more VCs or deeper
    buffers shift the DMSD fixed points down (better networks need
    less frequency for the same delay target)."""

    #: (config change, DMSD GHz golden, delay ns golden) per case.
    CASES = {
        "num_vcs=4": (dict(num_vcs=4),
                      (0.333333333, 0.385416667, 0.510416667),
                      (36.7034, 38.8898, 38.1452)),
        "vc_buf_depth=4": (dict(vc_buf_depth=4),
                           (0.333333333, 0.364583333, 0.458333333),
                           (32.6166, 38.13, 37.7963)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_dmsd_operating_points_pinned(self, tiny_config, case):
        changes, golden_ghz, golden_ns = self.CASES[case]
        config = tiny_config.with_(**changes)
        series = run_sweep(config, _pattern_factory(config, "uniform"),
                           list(GOLDEN_RATES), _dmsd_strategy(),
                           TINY_BUDGET, seed=GOLDEN_SEED)
        for point, freq, delay in zip(series.points, golden_ghz,
                                      golden_ns):
            assert point.freq_hz == pytest.approx(freq * GHZ, rel=0.006)
            assert point.delay_ns == pytest.approx(delay, rel=0.02)


class TestFig10MultimediaGoldens:
    """Fig. 10's multimedia sweep, tiny-knob edition: the H.264 app
    matrix on its 4x4 mesh with small buffers, swept over app speed."""

    CONFIG = NocConfig(width=4, height=4, num_vcs=2, vc_buf_depth=2,
                       packet_length=3)
    SPEEDS = (0.2, 0.5, 0.8)
    RMSD_LAMBDA_MAX = 0.3

    #: Mean offered node rate of the scaled H.264 matrix per speed —
    #: pure function of the app graph, exact.
    MEAN_RATES = (0.032388, 0.080971, 0.129554)

    #: No-DVFS delays (ns) and accepted rates at SPEEDS.
    NO_DVFS_DELAY_NS = (8.1667, 9.5022, 9.5337)
    NO_DVFS_ACCEPTED = (0.027625, 0.0835, 0.121375)

    #: RMSD accepted rates at SPEEDS (the delay explodes past the
    #: eq. (2) clip at higher speeds, exactly as Fig. 10 shows).
    RMSD_ACCEPTED = (0.02975, 0.070208, 0.095585)

    def _sweep(self, strategy):
        app = h264_encoder()
        config = self.CONFIG

        def factory(speed):
            return MatrixTraffic(app.traffic_at_speed(config, speed))

        return run_sweep(config, factory, list(self.SPEEDS), strategy,
                         TINY_BUDGET, seed=GOLDEN_SEED)

    def test_mean_rates_exact(self):
        app = h264_encoder()
        for speed, golden in zip(self.SPEEDS, self.MEAN_RATES):
            traffic = MatrixTraffic(
                app.traffic_at_speed(self.CONFIG, speed))
            assert traffic.mean_node_rate() == pytest.approx(golden,
                                                             abs=5e-7)

    def test_no_dvfs_series_pinned(self):
        series = self._sweep(NoDvfsSteadyState())
        for point, delay, accepted in zip(series.points,
                                          self.NO_DVFS_DELAY_NS,
                                          self.NO_DVFS_ACCEPTED):
            assert point.freq_hz == self.CONFIG.f_max_hz
            assert point.delay_ns == pytest.approx(delay, rel=0.02)
            assert point.accepted_rate == pytest.approx(accepted,
                                                        rel=0.02)

    def test_rmsd_series_pinned(self):
        series = self._sweep(
            RmsdSteadyState(lambda_max=self.RMSD_LAMBDA_MAX))
        for point, mean_rate, accepted in zip(series.points,
                                              self.MEAN_RATES,
                                              self.RMSD_ACCEPTED):
            golden_hz = rmsd_frequency(self.CONFIG, mean_rate,
                                       self.RMSD_LAMBDA_MAX)
            assert point.freq_hz == pytest.approx(golden_hz, rel=1e-5)
            assert point.accepted_rate == pytest.approx(accepted,
                                                        rel=0.02)
