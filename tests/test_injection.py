"""Unit tests for injection processes and traffic specs."""

import numpy as np
import pytest

from repro.noc import Mesh
from repro.traffic import (InjectionProcess, MatrixTraffic, PatternTraffic,
                           PiecewiseRateTraffic, UniformTraffic,
                           TrafficMatrix, make_pattern)
from repro.traffic.injection import compiled_law


def uniform_spec(mesh, rate):
    return PatternTraffic(make_pattern("uniform", mesh), rate)


class TestPatternTraffic:
    def test_node_rates_shared(self, mesh4):
        spec = uniform_spec(mesh4, 0.25)
        assert np.allclose(spec.node_rates(), 0.25)

    def test_mean_node_rate(self, mesh4):
        assert uniform_spec(mesh4, 0.3).mean_node_rate() \
            == pytest.approx(0.3)

    def test_rejects_negative_rate(self, mesh4):
        with pytest.raises(ValueError):
            uniform_spec(mesh4, -0.1)

    def test_self_targeting_nodes_muted(self):
        """Deterministic fixed points generate no traffic (Booksim)."""
        mesh = Mesh(5, 5)
        spec = PatternTraffic(make_pattern("bitcomp", mesh), 0.2)
        rates = spec.node_rates()
        assert rates[12] == 0.0            # centre of the 5x5 complement
        assert rates[0] == pytest.approx(0.2)

    def test_scaled_preserves_pattern(self, mesh4):
        spec = uniform_spec(mesh4, 0.2).scaled(0.5)
        assert spec.mean_node_rate() == pytest.approx(0.1)

    def test_draw_dest_never_self(self, mesh4, rng):
        spec = uniform_spec(mesh4, 0.2)
        assert all(spec.draw_dest(3, rng) != 3 for _ in range(200))


class TestMatrixTrafficSpec:
    def test_node_rates_from_matrix(self):
        m = TrafficMatrix.from_pairs(4, [(1, 2, 0.3)])
        spec = MatrixTraffic(m)
        assert spec.node_rates()[1] == pytest.approx(0.3)
        assert spec.mean_node_rate() == pytest.approx(0.3 / 4)

    def test_draw_dest_respects_matrix(self, rng):
        m = TrafficMatrix.from_pairs(4, [(1, 2, 0.3)])
        spec = MatrixTraffic(m)
        assert spec.draw_dest(1, rng) == 2
        assert spec.draw_dest(0, rng) is None


class TestInjectionProcess:
    def test_rate_statistics(self, mesh4, rng):
        spec = uniform_spec(mesh4, 0.2)
        proc = InjectionProcess(spec, packet_length=4, rng=rng)
        cycles = 8000
        arrivals = proc.arrivals(cycles)
        flit_rate = len(arrivals) * 4 / (cycles * mesh4.num_nodes)
        assert flit_rate == pytest.approx(0.2, rel=0.1)

    def test_zero_rate_no_arrivals(self, mesh4, rng):
        proc = InjectionProcess(uniform_spec(mesh4, 0.0), 4, rng)
        assert proc.arrivals(1000) == []

    def test_zero_cycles_no_arrivals(self, mesh4, rng):
        proc = InjectionProcess(uniform_spec(mesh4, 0.5), 4, rng)
        assert proc.arrivals(0) == []

    def test_offsets_within_range(self, mesh4, rng):
        proc = InjectionProcess(uniform_spec(mesh4, 0.4), 2, rng)
        for offset, src, dst in proc.arrivals(50):
            assert 0 <= offset < 50
            assert src != dst

    def test_rate_cap_enforced(self, mesh4, rng):
        """More than one packet per node cycle cannot be drawn."""
        with pytest.raises(ValueError, match="exceeds"):
            InjectionProcess(uniform_spec(mesh4, 3.0), 2, rng)

    def test_packet_length_validation(self, mesh4, rng):
        with pytest.raises(ValueError):
            InjectionProcess(uniform_spec(mesh4, 0.1), 0, rng)

    def test_reproducible_for_seed(self, mesh4):
        a = InjectionProcess(uniform_spec(mesh4, 0.3), 4,
                             np.random.default_rng(3)).arrivals(500)
        b = InjectionProcess(uniform_spec(mesh4, 0.3), 4,
                             np.random.default_rng(3)).arrivals(500)
        assert a == b

    def test_muted_sources_never_appear(self, rng):
        mesh = Mesh(5, 5)
        spec = PatternTraffic(make_pattern("bitcomp", mesh), 0.5)
        proc = InjectionProcess(spec, 2, rng)
        sources = {src for _, src, _ in proc.arrivals(2000)}
        assert 12 not in sources


class TestCompiledLaws:
    """Which arrival laws the fast engine's compiled step may draw."""

    law = staticmethod(compiled_law)

    def test_uniform_and_its_rate_steps_compile(self, mesh4):
        uniform = uniform_spec(mesh4, 0.2)
        assert self.law(uniform).dests is None
        stepped = self.law(PiecewiseRateTraffic(uniform, [(0, 1.0),
                                                          (5, 2.0)]))
        assert stepped.dests is None
        assert stepped.step_cycles.tolist() == [0, 5]
        assert stepped.step_factors.tolist() == [1.0, 2.0]

    def test_permutations_compile_to_their_destinations(self, mesh4):
        spec = PatternTraffic(make_pattern("transpose", mesh4), 0.2)
        law = self.law(spec)
        rng = np.random.default_rng(0)
        assert law.dests.tolist() == [spec.pattern.dest(src, rng)
                                      for src in range(16)]

    def test_other_laws_draw_in_python(self, mesh4):
        class MyUniform(UniformTraffic):
            pass

        class MySpec(PatternTraffic):
            pass

        matrix = TrafficMatrix.from_pairs(16, [(1, 2, 0.3)])
        for spec in (PatternTraffic(make_pattern("hotspot", mesh4), 0.2),
                     PatternTraffic(MyUniform(mesh4), 0.2),
                     MySpec(make_pattern("uniform", mesh4), 0.2),
                     MatrixTraffic(matrix),
                     PiecewiseRateTraffic(MatrixTraffic(matrix),
                                          [(0, 1.0)])):
            assert self.law(spec) is None, spec
