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
    build_adjacency,
    build_laplacian,
    is_connected,
    permutation_matrix,
    symmetric_eigendecomposition,
    validate_laplacian,
)
from isoconn.topology import _distances, _laplacian_from_positions, _moved_laplacians, _weights_from_positions
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

    def test_distances_whose_squares_overflow_stay_in_range(self):
        # The a-b distance is 7.07e307, inside the range, though its square
        # overflows; the other two distances overflow themselves.
        config = make_config([(1e308, 0.0), (1.7e308, 1e307), (-1e308, 0.0)], sigma=0.7, comm_range=1e308)
        w = build_adjacency(config).entries
        assert w[0, 1] == w[1, 0] == pytest.approx(0.609586301088073, rel=1e-15)
        assert np.count_nonzero(w) == 2

    def test_overflowing_distances_are_out_of_range(self):
        # Differences near the float64 limit overflow; the suite turns the
        # numpy overflow warning into a failure, so this also checks it is silent.
        pos = np.array([[1e308, 0.0], [-1e308, 0.0], [0.0, 1e308], [0.0, 0.0]])
        w = _weights_from_positions(pos, 1.0, 10.0)
        assert np.array_equal(w, np.zeros((4, 4)))


class TestDistanceRule:
    """``_distances``: the square root of a normal sum of squares, hypot elsewhere."""

    @pytest.mark.parametrize(
        "offset",
        [(2e-199, 0.0), (3e-160, 4e-160), (-1e-320, 5e-324), (7e307, 1e307), (1e200, -1e200), (1.5e308, 1.5e308)],
    )
    def test_underflowing_and_overflowing_sums_take_hypot(self, offset):
        # The suite turns numpy warnings into failures: the rule is silent.
        got = _distances(np.array([offset]), np.zeros((1, 2)))
        assert got.tolist() == [math.hypot(*offset)]


class TestMovedLaplacians:
    """One agent moved over many points, against the full stacked build."""

    @staticmethod
    def full_build(pos, mobile, points, comm_range):
        work = np.repeat(pos[None], len(points), axis=0)
        work[:, mobile] = points
        return _laplacian_from_positions(work, 1.0, comm_range)

    @pytest.mark.parametrize("n", range(2, 17))
    @pytest.mark.parametrize("comm_range", [3.0, 6.0, 100.0])
    def test_bit_identical_to_the_full_build(self, n, comm_range):
        rng = np.random.default_rng([n, int(comm_range)])
        pos = rng.uniform(0.0, 8.0, size=(n, 2))
        mobile = int(rng.integers(n))
        points = rng.uniform(-1.0, 9.0, size=(40, 2))
        points[:n] = pos  # on every fixed agent and on the mobile agent's start
        got = _moved_laplacians(pos, mobile, points, 1.0, comm_range)
        # tobytes also tells -0.0 from 0.0.
        assert got.tobytes() == self.full_build(pos, mobile, points, comm_range).tobytes()

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_coordinates_near_the_float64_limit(self, n):
        # The suite turns numpy warnings into failures, so this also checks
        # the overflowing differences and squares stay silent.
        rng = np.random.default_rng([n, 308])
        pos = rng.uniform(0.0, 8.0, size=(n, 2))
        pos[0] = (1e308, -1e308)
        points = np.concatenate([
            rng.uniform(-1.0, 9.0, size=(6, 2)),
            [(1e308, -1e308), (-1e308, 1e308), (1e308, 0.0), (0.0, -1e308), (1.7e308, 1.7e308)],
        ])
        for mobile in (0, n - 1):
            for comm_range in (3.0, 6.0, 100.0):
                got = _moved_laplacians(pos, mobile, points, 1.0, comm_range)
                assert got.tobytes() == self.full_build(pos, mobile, points, comm_range).tobytes()


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

    @pytest.mark.parametrize(
        "sigma,comm_range,message",
        [
            (math.inf, 10.0, "sigma must be finite, got inf"),
            (1.0, math.inf, "comm_range must be finite, got inf"),
            (1e300, 1e-10, "decay rate sigma / comm_range overflows"),
        ],
    )
    def test_decay_parameters_must_be_finite(self, sigma, comm_range, message):
        with pytest.raises(ValueError, match=message):
            make_config([(0.0, 0.0), (1.0, 1.0)], sigma=sigma, comm_range=comm_range)

    def test_underflowing_decay_rate_builds_silently(self):
        # sigma / comm_range underflows to 0 and the a-b distance overflows to
        # inf: 0 * inf must not warn, and the pair is out of range.
        config = make_config([(-1e308, 0.0), (1e308, 0.0), (1e308, 1.0)], sigma=1e-300, comm_range=1e300)
        w = build_adjacency(config).entries
        assert w[0, 1] == w[0, 2] == 0.0 and w[1, 2] == 1.0

    def test_unique_ids_enforced(self):
        with pytest.raises(ValueError):
            make_config([(0.0, 0.0), (1.0, 1.0)], ids=["x", "x"])
