import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoconn import (
    AgentConfiguration,
    CoincidentAgentsError,
    SquareMatrix,
    adjacency_weight,
    build_laplacian,
    is_connected,
    permutation_matrix,
    symmetric_eigendecomposition,
    validate_laplacian,
)
from isoconn.topology import _laplacian_from_positions, _weights_from_positions
from conftest import L1_ROWS, l1_geometry, make_config, random_config


class TestAdjacencyWeight:
    def test_zero_distance(self):
        assert adjacency_weight(0.0, 2.0, 5.0) == 1.0

    def test_boundary_is_in_range(self):
        assert adjacency_weight(5.0, 2.0, 5.0) == pytest.approx(math.exp(-2.0), abs=0)

    def test_beyond_range_is_exactly_zero(self):
        assert adjacency_weight(7.5, 2.0, 5.0) == 0.0

    def test_jump_at_boundary(self):
        # The model is discontinuous at the range boundary: weight exp(-sigma)
        # just inside, exactly 0 just outside.
        inside = adjacency_weight(5.0, 2.0, 5.0)
        outside = adjacency_weight(np.nextafter(5.0, 6.0), 2.0, 5.0)
        assert inside == pytest.approx(math.exp(-2.0))
        assert outside == 0.0

    def test_rejects_negative_distance(self):
        with pytest.raises(ValueError):
            adjacency_weight(-1.0, 1.0, 1.0)

    @given(st.floats(0.0, 20.0), st.floats(0.0, 20.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_non_increasing(self, d1, d2):
        lo, hi = sorted((d1, d2))
        assert adjacency_weight(lo, 1.5, 10.0) >= adjacency_weight(hi, 1.5, 10.0)


class TestBuildLaplacian:
    def test_two_agents_at_range(self):
        config = make_config([(0.0, 0.0), (10.0, 0.0)], sigma=1.0, comm_range=10.0)
        w = math.exp(-1.0)
        expected = np.array([[w, -w], [-w, w]])
        assert np.abs(build_laplacian(config).entries - expected).max() == 0.0

    def test_two_agents_beyond_range(self):
        config = make_config([(0.0, 0.0), (20.0, 0.0)], sigma=1.0, comm_range=10.0)
        assert np.array_equal(build_laplacian(config).entries, np.zeros((2, 2)))

    def test_geometry_reproduces_base_pattern(self, l1):
        # Unit/zero weight pattern from distances alone, within rounding slack.
        lap = build_laplacian(l1_geometry())
        assert np.abs(lap.entries - np.array(L1_ROWS, dtype=float)).max() <= 1e-8

    def test_coincident_agents_rejected(self):
        with pytest.raises(CoincidentAgentsError):
            make_config([(1.0, 2.0), (1.0, 2.0)])

    def test_structural_flags(self):
        rng = np.random.default_rng(3)
        lap = build_laplacian(random_config(rng))
        checks = validate_laplacian(lap, 1e-12)
        assert checks.symmetric and checks.zero_row_sums and checks.nonpositive_offdiag


class TestStackedBuild:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_stack_equals_per_slice_build(self, n):
        rng = np.random.default_rng([n, 5])
        stack = rng.uniform(0.0, 10.0, size=(3, 5, n, 2))
        for build in (_weights_from_positions, _laplacian_from_positions):
            built = build(stack, 1.0, 6.0)
            assert built.shape == (3, 5, n, n)
            for i in range(3):
                for j in range(5):
                    # tobytes also tells -0.0 from 0.0.
                    assert built[i, j].tobytes() == build(stack[i, j], 1.0, 6.0).tobytes()

    def test_single_build_matches_reference(self):
        pos = np.array([[0.0, 0.0], [3.0, 4.0], [20.0, 0.0]])
        w = math.exp(-0.5)
        expected = np.array([[w, -w, -0.0], [-w, w, -0.0], [-0.0, -0.0, 0.0]])
        lap = _laplacian_from_positions(pos, 1.0, 10.0)
        assert lap.tobytes() == expected.tobytes()


class TestValidateLaplacian:
    def test_base_matrix_is_connected(self, l1):
        checks = validate_laplacian(l1, 1e-9)
        assert checks.passed and checks.connected

    def test_disjoint_blocks_disconnected(self):
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        m = np.zeros((4, 4))
        m[:2, :2] = block
        m[2:, 2:] = block
        checks = validate_laplacian(SquareMatrix(m), 1e-9)
        assert checks.passed
        assert not checks.connected

    def test_positive_offdiagonal_flagged(self):
        m = SquareMatrix.from_rows([[1.0, 1.0], [1.0, 1.0]])
        checks = validate_laplacian(m, 1e-9)
        assert not checks.nonpositive_offdiag
        assert not checks.passed

    def test_single_node_counts_as_connected(self):
        checks = validate_laplacian(SquareMatrix.from_rows([[0.0]]), 1e-9)
        assert checks.passed and checks.connected


class TestIsConnected:
    def test_two_in_range(self):
        assert is_connected(make_config([(0.0, 0.0), (5.0, 0.0)]))

    def test_two_beyond_range(self):
        assert not is_connected(make_config([(0.0, 0.0), (25.0, 0.0)]))

    def test_small_box_is_complete(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(0.0, 5.0, size=(5, 2))
        assert is_connected(make_config(pts, sigma=1.0, comm_range=10.0))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_agrees_with_spectral_route(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        pts = rng.uniform(0.0, 25.0, size=(n, 2))
        if min(
            np.hypot(*(pts[i] - pts[j]))
            for i in range(n)
            for j in range(i + 1, n)
        ) < 1e-3:
            return  # nearly coincident draws are not interesting here
        config = make_config(pts, sigma=1.0, comm_range=8.0)
        w = symmetric_eigendecomposition(build_laplacian(config)).eigenvalues
        assert is_connected(config) == (w[1] > 1e-9)


class TestLaplacianProperties:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_row_sums_null_vector(self, seed):
        rng = np.random.default_rng(seed)
        config = random_config(rng, n=int(rng.integers(2, 8)))
        lap = build_laplacian(config)
        n = lap.order
        assert np.abs(lap.entries.sum(axis=1)).max() <= 1e-12
        decomp = symmetric_eigendecomposition(lap)
        assert -1e-9 <= decomp.eigenvalues[0] <= 1e-9
        ones = np.ones(n) / math.sqrt(n)
        assert abs(abs(decomp.eigenvectors[:, 0] @ ones) - 1.0) <= 1e-8

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_permuting_agents_conjugates_exactly(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        config = random_config(rng, n=n)
        perm = tuple(int(i) for i in rng.permutation(n))
        j = permutation_matrix(perm).entries
        inv = np.argsort(np.asarray(perm))
        permuted = AgentConfiguration(
            tuple(config.agents[int(i)] for i in inv), config.sigma, config.comm_range
        )
        direct = build_laplacian(permuted).entries
        conjugated = build_laplacian(config).entries[np.ix_(inv, inv)]
        assert np.abs(direct - conjugated).max() <= 1e-15
        assert np.abs(j.T @ build_laplacian(config).entries @ j - direct).max() <= 1e-13


class TestConfigurationJson:
    def test_round_trip(self):
        config = make_config([(0.0, 1.0), (2.0, 3.0)], sigma=2.5, comm_range=7.0)
        again = AgentConfiguration.from_json_dict(config.to_json_dict())
        assert again == config

    def test_missing_field(self):
        with pytest.raises(ValueError):
            AgentConfiguration.from_json_dict({"sigma": 1.0, "agents": []})

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            make_config([(0.0, 0.0), (1.0, 1.0)], ids=["x", "x"])
