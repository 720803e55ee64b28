"""Tests for the workload subsystem (:mod:`repro.workload`).

Covers the three workload families — bursty sources, app-driven
models, trace record/replay — plus their wiring through
``ScenarioSpec``: hypothesis laws (normalized mean rate, peak-factor
bound, seed determinism), the versioned trace format (round trip,
corruption detection), bit-exact replay against a plain run and
across execution backends, and digest goldens pinning the identity
contract.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import Ref
from repro.noc import NocConfig, SimBudget
from repro.noc.budget import run_fixed_point
from repro.runner import ExecutionContext, UnitCache
from repro.scenario import ScenarioSpec
from repro.traffic import PatternTraffic, make_pattern
from repro.traffic.injection import InjectionProcess
from repro.workload import (TRACE_MAGIC, InjectionTrace, TraceError,
                            TraceTraffic, as_workload_ref,
                            derive_workload_seed, list_traces,
                            make_workload, normalize_segments,
                            workload_names)
from test_backends import fingerprint

TINY_BUDGET = SimBudget(200, 500, 1500)
#: Immutable config for the hypothesis tests (function-scoped
#: fixtures don't mix with ``@given``; NocConfig is frozen, so one
#: module-level instance is safe to share across generated inputs).
TINY = NocConfig(width=3, height=3, num_vcs=2, vc_buf_depth=2,
                 packet_length=3)


@pytest.fixture
def base(tiny_config):
    mesh = tiny_config.make_mesh()
    pattern = make_pattern("uniform", mesh)
    return lambda rate: PatternTraffic(pattern, rate)


def recorded_trace(tiny_config, node_cycles=2500, rate=0.1, seed=9):
    spec = PatternTraffic(make_pattern("uniform",
                                       tiny_config.make_mesh()), rate)
    return InjectionTrace.record(spec, tiny_config.packet_length,
                                 node_cycles, seed=seed)


# ---------------------------------------------------------------------
# registry and segment normalization
# ---------------------------------------------------------------------

class TestWorkloadRegistry:
    def test_builtins_registered(self):
        assert set(workload_names()) >= {"mmoo", "pareto", "vconf",
                                         "filexfer", "trace"}

    def test_unknown_name_lists_alternatives(self):
        with pytest.raises(ValueError, match="mmoo"):
            as_workload_ref("does-not-exist")

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            as_workload_ref("mmoo:not_a_param=1")

    def test_make_workload_fresh_instances(self, tiny_config):
        a = make_workload("mmoo", tiny_config)
        b = make_workload("mmoo", tiny_config)
        assert a is not b and type(a) is type(b)

    def test_describe_is_first_doc_line(self, tiny_config):
        w = make_workload("pareto", tiny_config)
        assert "Pareto" in w.describe()
        assert "\n" not in w.describe()


class TestNormalizeSegments:
    def test_mean_is_exactly_one(self):
        steps = normalize_segments([(50, 3.0), (50, 1.0)], 100)
        assert steps == [(0, 1.5), (50, 0.5)]

    def test_truncates_to_horizon(self):
        steps = normalize_segments([(80, 2.0), (80, 0.0)], 100)
        # 80 cycles at 2.0 + 20 at 0.0 -> mean 1.6
        assert steps[0] == (0, 2.0 / 1.6)
        assert steps[1] == (80, 0.0)

    def test_rejects_short_schedule(self):
        with pytest.raises(ValueError, match="covers 60 of 100"):
            normalize_segments([(60, 1.0)], 100)

    def test_rejects_all_idle(self):
        with pytest.raises(ValueError, match="no traffic"):
            normalize_segments([(100, 0.0)], 100)

    def test_rejects_bad_segments(self):
        with pytest.raises(ValueError, match="lengths"):
            normalize_segments([(0, 1.0)], 100)
        with pytest.raises(ValueError, match="non-negative"):
            normalize_segments([(100, -0.5)], 100)


# ---------------------------------------------------------------------
# hypothesis laws for the stochastic sources
# ---------------------------------------------------------------------

bursty_refs = st.sampled_from(["mmoo", "pareto", "vconf", "filexfer"])


class TestBurstyLaws:
    @settings(max_examples=20, deadline=None)
    @given(name=bursty_refs, seed=st.integers(0, 2**16),
           horizon=st.integers(5_000, 60_000))
    def test_mean_factor_is_one(self, name, seed, horizon):
        """The sweep axis keeps meaning *mean* offered rate."""
        mesh = TINY.make_mesh()
        base = lambda r: PatternTraffic(make_pattern("uniform", mesh),
                                        r)
        w = make_workload(name, TINY, horizon=horizon, seed=seed)
        spec = w.traffic(base, 0.1)
        factors = spec.rate_factors(0, horizon)
        assert factors.shape == (horizon,)
        assert abs(float(factors.mean()) - 1.0) < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(name=bursty_refs, seed=st.integers(0, 2**16))
    def test_factors_never_exceed_max_factor(self, name, seed):
        """`max_factor` really bounds the whole factor stream — the
        peak-rate validation in ``InjectionProcess`` relies on it."""
        mesh = TINY.make_mesh()
        base = lambda r: PatternTraffic(make_pattern("uniform", mesh),
                                        r)
        w = make_workload(name, TINY, seed=seed)
        spec = w.traffic(base, 0.05)
        factors = spec.rate_factors(0, w.horizon + 1000)
        assert float(factors.max()) <= spec.max_factor() + 1e-12
        assert float(factors.min()) >= 0.0

    @settings(max_examples=20, deadline=None)
    @given(name=bursty_refs, seed=st.integers(0, 2**16),
           rate=st.floats(0.01, 0.3))
    def test_identical_seeds_identical_schedules(self, name, seed,
                                                 rate):
        """Byte-identical schedules from byte-identical identities —
        the property every backend's digest agreement rests on."""
        mesh = TINY.make_mesh()
        base = lambda r: PatternTraffic(make_pattern("uniform", mesh),
                                        r)
        a = make_workload(name, TINY, seed=seed).traffic(base, rate)
        b = make_workload(name, TINY, seed=seed).traffic(base, rate)
        assert a.spec_key() == b.spec_key()
        assert np.array_equal(a.rate_factors(0, 50_000),
                              b.rate_factors(0, 50_000))

    def test_different_seeds_different_schedules(self, tiny_config,
                                                 base):
        a = make_workload("mmoo", tiny_config, seed=0).traffic(base,
                                                               0.1)
        b = make_workload("mmoo", tiny_config, seed=1).traffic(base,
                                                               0.1)
        assert a.spec_key() != b.spec_key()

    def test_schedule_depends_on_base_spec(self, tiny_config, base):
        """Different base rates draw different schedules (the RNG is
        keyed on the base spec key, like unit seeds on digests)."""
        w = make_workload("mmoo", tiny_config)
        a = w.traffic(base, 0.05)
        b = w.traffic(base, 0.10)
        assert a.spec_key() != b.spec_key()

    def test_derive_workload_seed_sensitivity(self):
        args = ("mmoo", (("gain", "1.8"),), ("uniform", 3, 3), 0)
        seed = derive_workload_seed(*args)
        assert seed == derive_workload_seed(*args)
        assert seed != derive_workload_seed("pareto", *args[1:])
        assert seed != derive_workload_seed(*args[:3], 1)


class TestAppWorkloads:
    def test_vconf_gop_cadence(self, tiny_config, base):
        """I frames recur every `gop` frames and carry more load."""
        w = make_workload("vconf", tiny_config, jitter=0.0)
        steps = w.steps_for(base(0.1))
        factors = [f for _, f in steps]
        gop = w.gop
        i_frames = factors[::gop]
        p_frames = [f for i, f in enumerate(factors) if i % gop]
        assert min(i_frames) > max(p_frames)

    def test_filexfer_alternates_drain_and_idle(self, tiny_config,
                                                base):
        w = make_workload("filexfer", tiny_config, jitter=0.0)
        spec = w.traffic(base, 0.1)
        factors = spec.rate_factors(0, w.horizon)
        # Exactly two rate levels (drain and idle), both visited.
        assert len(np.unique(factors)) == 2

    def test_param_validation(self, tiny_config):
        with pytest.raises(ValueError, match="GOP"):
            make_workload("vconf", tiny_config, gop=0)
        with pytest.raises(ValueError, match="duty"):
            make_workload("filexfer", tiny_config, duty=1.5)
        with pytest.raises(ValueError, match="dwell"):
            make_workload("mmoo", tiny_config, on=0)
        with pytest.raises(ValueError, match="shape"):
            make_workload("pareto", tiny_config, shape=-1.0)


# ---------------------------------------------------------------------
# trace format
# ---------------------------------------------------------------------

class TestTraceFormat:
    def test_save_load_round_trip(self, tiny_config, tmp_path):
        trace = recorded_trace(tiny_config)
        path = trace.save(tmp_path / "u.trace")
        loaded = InjectionTrace.load(path)
        assert loaded.digest() == trace.digest()
        assert np.array_equal(loaded.events, trace.events)
        assert (loaded.num_nodes, loaded.packet_length,
                loaded.node_cycles) == (trace.num_nodes,
                                        trace.packet_length,
                                        trace.node_cycles)
        assert loaded.source == trace.source

    def test_corruption_detected(self, tiny_config, tmp_path):
        trace = recorded_trace(tiny_config)
        path = trace.save(tmp_path / "u.trace")
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF  # flip a payload bit
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError):
            InjectionTrace.load(path)

    def test_digest_edit_detected(self, tiny_config, tmp_path):
        """An events edit that still decompresses fails the digest."""
        trace = recorded_trace(tiny_config)
        path = trace.save(tmp_path / "u.trace")
        events = trace.events.copy()
        events[0, 2] = (events[0, 2] + 1) % trace.num_nodes
        header = path.read_bytes().split(b"\n", 2)[1]
        blob = zlib.compress(events.astype("<i8").tobytes(), level=6)
        path.write_bytes(TRACE_MAGIC + header + b"\n" + blob)
        with pytest.raises(TraceError, match="digest mismatch"):
            InjectionTrace.load(path)

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "not.trace"
        path.write_text("hello\n")
        with pytest.raises(TraceError, match="not a repro trace"):
            InjectionTrace.load(path)

    def test_rejects_missing_file(self, tmp_path):
        with pytest.raises(TraceError, match="cannot read"):
            InjectionTrace.load(tmp_path / "absent.trace")

    def test_source_excluded_from_digest(self, tiny_config):
        a = recorded_trace(tiny_config)
        b = InjectionTrace(a.num_nodes, a.packet_length,
                           a.node_cycles, a.events,
                           source="different provenance")
        assert a.digest() == b.digest()

    def test_event_validation(self):
        good = np.array([[0, 0, 1], [5, 1, 0]], dtype=np.int64)
        InjectionTrace(2, 3, 10, good)
        with pytest.raises(ValueError, match="sorted"):
            InjectionTrace(2, 3, 10, good[::-1])
        with pytest.raises(ValueError, match="cycles must lie"):
            InjectionTrace(2, 3, 3, good)
        with pytest.raises(ValueError, match="src"):
            InjectionTrace(2, 3, 10,
                           np.array([[0, 7, 1]], dtype=np.int64))
        with pytest.raises(ValueError, match="rows"):
            InjectionTrace(2, 3, 10,
                           np.array([[0, 1]], dtype=np.int64))

    def test_empty_trace_allowed(self, tmp_path):
        trace = InjectionTrace(4, 3, 100, np.empty((0, 3),
                                                   dtype=np.int64))
        assert trace.mean_node_rate() == 0.0
        loaded = InjectionTrace.load(trace.save(tmp_path / "e.trace"))
        assert len(loaded.events) == 0

    def test_list_traces_sorted(self, tiny_config, tmp_path):
        trace = recorded_trace(tiny_config, node_cycles=50)
        for name in ("b.trace", "a.trace", "c.trace"):
            trace.save(tmp_path / name)
        (tmp_path / "other.txt").write_text("x")
        assert [p.name for p in list_traces(tmp_path)] == [
            "a.trace", "b.trace", "c.trace"]


# ---------------------------------------------------------------------
# replay semantics
# ---------------------------------------------------------------------

class TestTraceReplay:
    def test_replay_events_window_chunk_independent(self, tiny_config):
        trace = recorded_trace(tiny_config)
        tt = TraceTraffic(trace)
        whole = [(c, s, d) for c, s, d in trace.events.tolist()]
        for chunk in (1, 7, 100, trace.node_cycles):
            seen = []
            for start in range(0, trace.node_cycles, chunk):
                count = min(chunk, trace.node_cycles - start)
                seen += [(start + off, s, d) for off, s, d
                         in tt.replay_events(start, count)]
            assert seen == whole

    @pytest.mark.parametrize("engine", ["reference", "fast"])
    def test_replay_reproduces_plain_run_at_fmax(self, tiny_config,
                                                 engine):
        """A trace recorded with a run's seed *is* that run's arrival
        stream: replaying it at Fmax is bit-identical to the original
        simulation on either engine."""
        spec = PatternTraffic(make_pattern("uniform",
                                           tiny_config.make_mesh()),
                              0.1)
        plain = run_fixed_point(tiny_config, spec,
                                tiny_config.f_max_hz, TINY_BUDGET,
                                seed=9, engine=engine)
        horizon = (TINY_BUDGET.warmup_cycles
                   + TINY_BUDGET.measure_cycles
                   + TINY_BUDGET.drain_cycles + 2000)
        trace = InjectionTrace.record(spec, tiny_config.packet_length,
                                      horizon, seed=9)
        replay = run_fixed_point(tiny_config, TraceTraffic(trace),
                                 tiny_config.f_max_hz, TINY_BUDGET,
                                 seed=9, engine=engine)
        assert replay.mean_delay_ns == plain.mean_delay_ns
        assert replay.p99_delay_ns == plain.p99_delay_ns
        assert replay.measured_created == plain.measured_created
        assert replay.measured_delivered == plain.measured_delivered
        assert replay.accepted_node_rate == plain.accepted_node_rate

    def test_replay_seed_independent(self, tiny_config):
        """Replay consumes no randomness: any seed, same results."""
        trace = recorded_trace(tiny_config, node_cycles=4500)
        runs = [run_fixed_point(tiny_config, TraceTraffic(trace),
                                tiny_config.f_max_hz, TINY_BUDGET,
                                seed=s, engine="fast")
                for s in (1, 2, 77)]
        assert len({r.mean_delay_ns for r in runs}) == 1
        assert len({r.measured_delivered for r in runs}) == 1

    def test_scaled_rejected_except_identity(self, tiny_config):
        tt = TraceTraffic(recorded_trace(tiny_config, node_cycles=50))
        assert tt.scaled(1.0) is tt
        with pytest.raises(ValueError, match="re-record"):
            tt.scaled(0.5)

    def test_draw_dest_never_used(self, tiny_config):
        tt = TraceTraffic(recorded_trace(tiny_config, node_cycles=50))
        with pytest.raises(NotImplementedError):
            tt.draw_dest(0, np.random.default_rng(0))

    def test_heterogeneous_clocks_rejected(self, tiny_config, base):
        spec = make_workload("mmoo", tiny_config).traffic(base, 0.1)
        process = InjectionProcess(spec, tiny_config.packet_length,
                                   np.random.default_rng(0))
        with pytest.raises(NotImplementedError,
                           match="heterogeneous"):
            process.arrivals_per_node(np.ones(process.num_nodes,
                                              dtype=np.int64))

    def test_trace_workload_validates_config(self, tiny_config,
                                             tmp_path):
        trace = recorded_trace(tiny_config, node_cycles=50)
        path = trace.save(tmp_path / "u.trace")
        make_workload("trace", tiny_config, path=str(path))
        wrong_mesh = NocConfig(width=4, height=4, num_vcs=2,
                               vc_buf_depth=2, packet_length=3)
        with pytest.raises(ValueError, match="9 nodes"):
            make_workload("trace", wrong_mesh, path=str(path))
        wrong_len = tiny_config.with_(packet_length=5)
        with pytest.raises(ValueError, match="packet length"):
            make_workload("trace", wrong_len, path=str(path))


# ---------------------------------------------------------------------
# scenario wiring
# ---------------------------------------------------------------------

class TestScenarioWorkload:
    def test_workload_free_spec_key_unchanged(self, tiny_config):
        """No workload, no new key material: pre-workload digests are
        byte-stable (the scenario goldens pin the exact hashes)."""
        spec = ScenarioSpec.build("no-dvfs", "uniform",
                                  config=tiny_config)
        key = spec.spec_key()
        assert len(key) == 4
        assert [entry[0] for entry in key[1:]] == ["policy", "pattern",
                                                   "config"]

    def test_workload_in_key_label_payload(self, tiny_config):
        spec = ScenarioSpec.build("rmsd", "uniform",
                                  config=tiny_config,
                                  workload="mmoo:gain=2.0")
        assert spec.spec_key()[-1] == ("workload", "mmoo",
                                       ("gain", "2.0"))
        assert spec.label.endswith("+mmoo:gain=2.0")
        payload = spec.to_payload()
        assert payload["workload"] == "mmoo:gain=2.0"

    def test_payload_omits_absent_workload(self, tiny_config):
        spec = ScenarioSpec.build("no-dvfs", "uniform",
                                  config=tiny_config)
        assert "workload" not in spec.to_payload()

    def test_with_keeps_and_clears_workload(self, tiny_config):
        spec = ScenarioSpec.build("no-dvfs", "uniform",
                                  config=tiny_config, workload="mmoo")
        assert spec.with_(policy="rmsd").workload == spec.workload
        assert spec.with_(workload=None).workload is None
        assert spec.with_(workload="pareto").workload.name == "pareto"

    def test_unknown_workload_rejected(self, tiny_config):
        with pytest.raises(ValueError, match="mmoo"):
            ScenarioSpec.build("no-dvfs", "uniform",
                               config=tiny_config, workload="nope")

    def test_incompatible_pattern_named_at_validation(self):
        """Satellite fix: transpose x non-square fails at ScenarioSpec
        construction, naming the scenario — not deep inside a sweep."""
        with pytest.raises(ValueError) as excinfo:
            ScenarioSpec.build("no-dvfs", "transpose", width=3,
                               height=4)
        message = str(excinfo.value)
        assert "no-dvfs/transpose@3x4" in message
        assert "square mesh" in message

    def test_power_of_two_patterns_also_validated(self, tiny_config):
        for pattern in ("bitrev", "shuffle"):
            with pytest.raises(ValueError, match="power-of-two"):
                ScenarioSpec.build("no-dvfs", pattern,
                                   config=tiny_config)

    def test_traffic_factory_routes_workload(self, tiny_config):
        spec = ScenarioSpec.build("no-dvfs", "uniform",
                                  config=tiny_config, workload="mmoo")
        traffic = spec.traffic_factory()(0.1)
        assert traffic.is_time_varying
        assert abs(float(traffic.rate_factors(0, 100_000).mean())
                   - 1.0) < 1e-9

    def test_trace_workload_through_scenario(self, tiny_config,
                                             tmp_path):
        path = recorded_trace(tiny_config, node_cycles=50).save(
            tmp_path / "u.trace")
        spec = ScenarioSpec.build(
            "no-dvfs", "uniform", config=tiny_config,
            workload=Ref.of("trace", path=str(path)))
        traffic = spec.traffic_factory()(0.25)
        assert isinstance(traffic, TraceTraffic)
        # Whatever the sweep rate, the injected stream is the trace.
        assert traffic.spec_key() == ("trace",
                                      InjectionTrace.load(path).digest())


# ---------------------------------------------------------------------
# backend differentials: bit-identity across serial/batched/distributed
# ---------------------------------------------------------------------

def workload_units(tiny_config, workload, rates=(0.05, 0.1), seed=7):
    spec = ScenarioSpec.build("rmsd:lambda_max=0.4", "uniform",
                              config=tiny_config, workload=workload)
    return spec.units(rates, TINY_BUDGET, seed=seed, engine="fast")


class TestWorkloadBackendDifferential:
    @pytest.mark.parametrize("workload", ["mmoo", "pareto", "vconf",
                                          "filexfer"])
    def test_serial_equals_batched(self, tiny_config, workload):
        units = workload_units(tiny_config, workload)
        serial_ctx = ExecutionContext(backend="serial", cache=None,
                                      engine="fast")
        batched_ctx = ExecutionContext(backend="batched",
                                       cache=UnitCache(),
                                       engine="fast")
        serial = [fingerprint(r) for r in serial_ctx.run(units)]
        batched = [fingerprint(r) for r in batched_ctx.run(units)]
        assert serial == batched
        assert batched_ctx.runner.last_report.batched_units == len(
            units)

    def test_trace_replay_identical_on_all_backends(self, tiny_config,
                                                    tmp_path):
        """record -> replay is bit-identical across serial, batched
        and distributed execution (two worker subprocesses)."""
        path = recorded_trace(tiny_config, node_cycles=4500).save(
            tmp_path / "u.trace")
        units = workload_units(tiny_config,
                               Ref.of("trace", path=str(path)))
        serial = [fingerprint(r) for r in
                  ExecutionContext(backend="serial", cache=None,
                                   engine="fast").run(units)]
        batched = [fingerprint(r) for r in
                   ExecutionContext(backend="batched",
                                    cache=UnitCache(),
                                    engine="fast").run(units)]
        dist_ctx = ExecutionContext(backend="distributed",
                                    queue=str(tmp_path / "q"),
                                    workers=2, cache=UnitCache(),
                                    engine="fast")
        try:
            distributed = [fingerprint(r) for r in dist_ctx.run(units)]
        finally:
            dist_ctx.close()
        assert serial == batched == distributed

    def test_bursty_workload_distributed_identical(self, tiny_config,
                                                   tmp_path):
        units = workload_units(tiny_config, "mmoo")
        serial = [fingerprint(r) for r in
                  ExecutionContext(backend="serial", cache=None,
                                   engine="fast").run(units)]
        dist_ctx = ExecutionContext(backend="distributed",
                                    queue=str(tmp_path / "q"),
                                    workers=2, cache=UnitCache(),
                                    engine="fast")
        try:
            distributed = [fingerprint(r) for r in dist_ctx.run(units)]
        finally:
            dist_ctx.close()
        assert serial == distributed


# ---------------------------------------------------------------------
# digest goldens
# ---------------------------------------------------------------------

class TestDigestGoldens:
    """Hex goldens pinning the workload identity contract.

    A failure here means the digest contract changed: caches,
    distributed task ids and recorded artifacts will no longer line
    up with existing runs.  Bump deliberately, never casually.
    """

    def test_trace_digest_golden(self, tiny_config):
        trace = recorded_trace(tiny_config, node_cycles=1000,
                               rate=0.1, seed=9)
        assert trace.digest() == TRACE_DIGEST_GOLDEN

    def test_workload_unit_digest_goldens(self, tiny_config):
        for workload, expected in UNIT_DIGEST_GOLDENS.items():
            spec = ScenarioSpec.build("no-dvfs", "uniform",
                                      config=tiny_config,
                                      workload=workload)
            unit = spec.units((0.1,), TINY_BUDGET, seed=7,
                              engine="fast")[0]
            assert unit.digest() == expected, workload

    def test_scenario_digest_goldens(self, tiny_config):
        plain = ScenarioSpec.build("no-dvfs", "uniform",
                                   config=tiny_config)
        loaded = ScenarioSpec.build("no-dvfs", "uniform",
                                    config=tiny_config,
                                    workload="mmoo")
        assert plain.digest() == SCENARIO_PLAIN_GOLDEN
        assert loaded.digest() == SCENARIO_MMOO_GOLDEN


TRACE_DIGEST_GOLDEN = (
    "d52f61593211bf830a15447a4932706618692dfa915a7e09b485862948b83e06")
SCENARIO_PLAIN_GOLDEN = (
    "718cf24b363c0e71c9d84c87e04f34329187e29d4b6de49edb178ed393d219ae")
SCENARIO_MMOO_GOLDEN = (
    "fac73c974595de5c549a9c0ce1802568ed7fcf2f298bf2b01a9a7ecbd6a73c7e")
UNIT_DIGEST_GOLDENS = {
    "mmoo":
        "f72fa3a8ee764673979d37ee0cda7172ee139d84295c05714081503bf12d989e",
    "pareto":
        "4035e61f9a61a80a949fb78f80fc04d13d0fb2223ff46b6163b17259154be45e",
    "vconf":
        "3bb9f0f451a2a69fe707f92e7e4693298ee28ac74086d64de3a882b484427afb",
    "filexfer":
        "9f9230d3eddf1fab4e1889136a5bfb50453408bee6d290f5491504cec0e11dd3",
}
