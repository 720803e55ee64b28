"""Unit tests for synthetic traffic patterns."""

import numpy as np
import pytest

from repro.noc import Mesh
from repro.traffic import make_pattern, pattern_names
from repro.traffic.patterns import (BitReverseTraffic, ComplementTraffic,
                                    HotspotTraffic, NeighborTraffic,
                                    ShuffleTraffic, TornadoTraffic,
                                    TransposeTraffic, UniformTraffic)


@pytest.fixture
def rng():
    return np.random.default_rng(7)


class TestUniform:
    def test_never_self(self, mesh4, rng):
        pat = UniformTraffic(mesh4)
        for src in range(mesh4.num_nodes):
            for _ in range(50):
                assert pat.dest(src, rng) != src

    def test_covers_all_destinations(self, mesh4, rng):
        pat = UniformTraffic(mesh4)
        seen = {pat.dest(0, rng) for _ in range(2000)}
        assert seen == set(range(1, mesh4.num_nodes))

    def test_roughly_uniform(self, mesh4, rng):
        pat = UniformTraffic(mesh4)
        counts = np.zeros(mesh4.num_nodes)
        n = 6000
        for _ in range(n):
            counts[pat.dest(5, rng)] += 1
        expected = n / (mesh4.num_nodes - 1)
        assert counts[5] == 0
        others = np.delete(counts, 5)
        assert np.all(np.abs(others - expected) < 5 * np.sqrt(expected))

    def test_not_deterministic(self, mesh4):
        assert not UniformTraffic(mesh4).is_deterministic


class TestPermutations:
    def test_complement(self, rng):
        mesh = Mesh(4, 4)
        pat = ComplementTraffic(mesh)
        assert pat.dest(0, rng) == 15
        assert pat.dest(5, rng) == 10

    def test_complement_odd_mesh_center_maps_to_self(self, rng):
        mesh = Mesh(5, 5)
        pat = ComplementTraffic(mesh)
        assert pat.dest(12, rng) == 12  # the centre is a fixed point

    def test_transpose(self, rng):
        mesh = Mesh(4, 4)
        pat = TransposeTraffic(mesh)
        assert pat.dest(mesh.node_at(1, 3), rng) == mesh.node_at(3, 1)

    def test_transpose_requires_square(self):
        with pytest.raises(ValueError):
            TransposeTraffic(Mesh(4, 3))

    def test_transpose_diagonal_fixed_points(self, rng):
        mesh = Mesh(4, 4)
        pat = TransposeTraffic(mesh)
        for i in range(4):
            assert pat.dest(mesh.node_at(i, i), rng) == mesh.node_at(i, i)

    def test_tornado_shift(self, rng):
        mesh = Mesh(5, 5)
        pat = TornadoTraffic(mesh)
        # ceil(5/2) - 1 = 2: (0,0) -> (2,2)
        assert pat.dest(0, rng) == mesh.node_at(2, 2)

    def test_tornado_is_permutation(self, rng):
        mesh = Mesh(5, 5)
        pat = TornadoTraffic(mesh)
        dests = {pat.dest(s, rng) for s in range(mesh.num_nodes)}
        assert len(dests) == mesh.num_nodes

    def test_neighbor_wraps(self, rng):
        mesh = Mesh(4, 4)
        pat = NeighborTraffic(mesh)
        assert pat.dest(mesh.node_at(3, 2), rng) == mesh.node_at(0, 2)

    def test_bitrev(self, rng):
        mesh = Mesh(4, 4)  # 16 nodes, 4 bits
        pat = BitReverseTraffic(mesh)
        assert pat.dest(0b0001, rng) == 0b1000
        assert pat.dest(0b1010, rng) == 0b0101

    def test_bitrev_requires_power_of_two(self):
        with pytest.raises(ValueError):
            BitReverseTraffic(Mesh(5, 5))

    def test_shuffle(self, rng):
        mesh = Mesh(4, 4)
        pat = ShuffleTraffic(mesh)
        assert pat.dest(0b0110, rng) == 0b1100
        assert pat.dest(0b1001, rng) == 0b0011

    def test_permutations_are_deterministic(self):
        mesh = Mesh(4, 4)
        for cls in (ComplementTraffic, TransposeTraffic, TornadoTraffic,
                    NeighborTraffic):
            assert cls(mesh).is_deterministic


class TestHotspot:
    def test_hotspot_receives_extra_traffic(self, rng):
        mesh = Mesh(4, 4)
        pat = HotspotTraffic(mesh, hotspot=5, fraction=0.5)
        hits = sum(pat.dest(0, rng) == 5 for _ in range(2000))
        assert hits > 800  # ~50% + uniform share

    def test_hotspot_never_self_targets(self, rng):
        mesh = Mesh(4, 4)
        pat = HotspotTraffic(mesh, hotspot=5, fraction=1.0)
        assert all(pat.dest(5, rng) != 5 for _ in range(100))

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            HotspotTraffic(Mesh(4, 4), fraction=1.5)

    def test_hotspot_validation(self):
        with pytest.raises(ValueError):
            HotspotTraffic(Mesh(4, 4), hotspot=99)


class TestRegistry:
    def test_all_paper_patterns_registered(self):
        for name in ("uniform", "tornado", "bitcomp", "transpose",
                     "neighbor"):
            assert name in pattern_names()

    def test_make_pattern(self, mesh4):
        pat = make_pattern("tornado", mesh4)
        assert isinstance(pat, TornadoTraffic)

    def test_make_pattern_unknown(self, mesh4):
        with pytest.raises(ValueError, match="uniform"):
            make_pattern("nonsense", mesh4)

    def test_make_pattern_kwargs(self, mesh4):
        pat = make_pattern("hotspot", mesh4, hotspot=3, fraction=0.1)
        assert pat.hotspot == 3
