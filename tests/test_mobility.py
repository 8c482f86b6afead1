import dataclasses
import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoconn import (
    AnalysisError,
    CoincidentAgentsError,
    DegenerateFiedlerError,
    InvalidVariationError,
    NonFiniteError,
    NotLaplacianError,
    OrderTooSmallError,
    SquareMatrix,
    algebraic_connectivity,
    block_decompose,
    build_laplacian,
    connectivity_differential,
    dense_family_laplacian,
    integrate_connectivity_change,
    laplacian_motion_derivative,
    mirror_moves,
    symmetric_eigendecomposition,
)
from isoconn import matrices, mobility
from isoconn.matrices import _eigh_stack, _stack_slices
from isoconn.topology import _laplacian_from_positions, _moved_laplacians
from conftest import _eigh_core, _motion_derivative, make_config, random_config


def lambda2_of(config):
    return float(symmetric_eigendecomposition(build_laplacian(config)).eigenvalues[1])


class TestBlockDecompose:
    def test_matrix_must_be_a_laplacian(self):
        positive_offdiagonal = SquareMatrix.from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotLaplacianError, match="^matrix fails structural Laplacian validation$"):
            block_decompose(positive_offdiagonal, 0)

    def test_two_node_smallest_case(self):
        w = 0.6
        lap = SquareMatrix.from_rows([[w, -w], [-w, w]])
        decomp = block_decompose(lap, 1)
        assert np.array_equal(decomp.reduced.entries, np.zeros((1, 1)))
        assert np.array_equal(decomp.coupling, [w])
        assert decomp.coupling_total == w
        assert decomp.reassemble().equals(lap)

    def test_order_one_is_too_small(self):
        # A single agent leaves nothing to split off.
        with pytest.raises(OrderTooSmallError, match="order >= 2"):
            block_decompose(SquareMatrix.from_rows([[0.0]]), 0)

    def test_base_matrix_last_agent(self, l1):
        decomp = block_decompose(l1, 3)
        assert np.array_equal(decomp.coupling, [1.0, 0.0, 1.0])
        assert decomp.coupling_total == 2.0
        assert decomp.reassemble().equals(l1)

    def test_dense_family_couplings(self):
        lap = dense_family_laplacian(2.0, 3.0)
        decomp = block_decompose(lap, 3)
        assert np.array_equal(decomp.coupling, [2.0, 3.0, 1.0])
        assert decomp.coupling_total == 6.0
        assert decomp.coupling_total == pytest.approx(decomp.coupling.sum())
        assert np.array_equal(decomp.coupling_diag.entries, np.diag([2.0, 3.0, 1.0]))

    def test_coupling_diag_is_derived_from_coupling(self, l1):
        decomp = block_decompose(l1, 0)
        assert "coupling_diag" not in {f.name for f in dataclasses.fields(decomp)}
        assert isinstance(decomp.coupling_diag, SquareMatrix)
        assert decomp.coupling_diag.entries.tobytes() == np.diag(decomp.coupling).tobytes()

    def test_interior_agent_round_trips(self, l1):
        for agent in range(4):
            assert block_decompose(l1, agent).reassemble().equals(l1)

    def test_index_out_of_range(self, l1):
        with pytest.raises(IndexError):
            block_decompose(l1, 4)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_geometric_reassembly_within_one_ulp(self, seed):
        # Splitting the diagonal into (reduced + coupling) costs at most one
        # rounding per entry; integer-weight fixtures round-trip bit-exactly
        # (covered above), float weights may land one ulp off.
        rng = np.random.default_rng(seed)
        config = random_config(rng, n=int(rng.integers(3, 7)))
        lap = build_laplacian(config)
        agent = int(rng.integers(len(config.agents)))
        rebuilt = block_decompose(lap, agent).reassemble()
        tol = 2.0 * np.spacing(float(np.abs(lap.entries).max()))
        assert np.abs(rebuilt.entries - lap.entries).max() <= tol

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_moving_the_agent_leaves_reduced_unchanged(self, seed):
        rng = np.random.default_rng(seed)
        config = random_config(rng, n=5)
        agent = int(rng.integers(5))
        before = block_decompose(build_laplacian(config), agent)
        moved = config.with_position(
            agent,
            config.agents[agent].x + float(rng.uniform(-8, 8)),
            config.agents[agent].y + float(rng.uniform(-8, 8)),
        )
        after = block_decompose(build_laplacian(moved), agent)
        assert np.abs(after.reduced.entries - before.reduced.entries).max() <= 1e-15


class TestConnectivityDifferential:
    def test_orders_must_agree(self, l1):
        with pytest.raises(InvalidVariationError, match="^orders differ: 4 vs 3$"):
            connectivity_differential(l1, SquareMatrix(np.zeros((3, 3))))

    def test_zero_variation(self, l1):
        zero = SquareMatrix(np.zeros((4, 4)))
        assert connectivity_differential(l1, zero) == 0.0

    def test_dense_family_alpha_direction_is_flat(self):
        # Differentiating along the first variable weight: the quadratic form
        # with the (-1,-1,3,-1) direction cancels, matching the pinned level 4.
        lap = dense_family_laplacian(2.0, 3.0)
        d_alpha = SquareMatrix.from_rows(
            [[1.0, 0, 0, -1.0], [0, 0, 0, 0], [0, 0, 0, 0], [-1.0, 0, 0, 1.0]]
        )
        assert connectivity_differential(lap, d_alpha) == pytest.approx(0.0, abs=1e-12)

    def test_asymmetric_variation_rejected(self, l1):
        bad = SquareMatrix.from_rows(
            [[0, 1, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
        )
        with pytest.raises(InvalidVariationError):
            connectivity_differential(l1, bad)

    def test_nonzero_row_sums_rejected(self, l1):
        bad = SquareMatrix(np.eye(4))
        with pytest.raises(InvalidVariationError):
            connectivity_differential(l1, bad)

    def test_degenerate_fiedler_refused(self, k4):
        zero = SquareMatrix(np.zeros((4, 4)))
        with pytest.raises(DegenerateFiedlerError):
            connectivity_differential(k4, zero)

    def test_overflowing_checks_reject_without_warnings(self):
        # The difference and the row sums overflow to inf; pytest turns any
        # numpy RuntimeWarning into an error.
        lap = SquareMatrix.from_rows([[1.0, -1.0], [-1.0, 1.0]])
        asymmetric = SquareMatrix.from_rows([[1.7e308, 1.7e308], [-1.7e308, 0.0]])
        with pytest.raises(InvalidVariationError, match="not symmetric"):
            connectivity_differential(lap, asymmetric)
        unbalanced = SquareMatrix.from_rows([[1.7e308, 1.7e308], [1.7e308, 1.7e308]])
        with pytest.raises(InvalidVariationError, match="do not sum to zero"):
            connectivity_differential(lap, unbalanced)

    def test_overflowing_differential_is_non_finite(self):
        # A valid variation whose quadratic form, -2 * 1.7e308, overflows float64.
        lap = SquareMatrix.from_rows([[1.0, -1.0], [-1.0, 1.0]])
        variation = SquareMatrix.from_rows([[-1.7e308, 1.7e308], [1.7e308, -1.7e308]])
        with pytest.raises(NonFiniteError, match="differential overflows float64: -inf"):
            connectivity_differential(lap, variation)
        # Half the size, the same form is finite: -1.7e308.
        half = SquareMatrix(variation.entries / 2.0)
        assert connectivity_differential(lap, half) == pytest.approx(-1.7e308)

    def test_huge_variation_is_checked_scaled(self):
        # Rows that sum to exactly zero, with partial sums that overflow: the
        # true form (about 2.1e308) overflows, so the answer is NonFiniteError.
        lap = dense_family_laplacian(2.0, 3.0)
        a = 1.6e308
        variation = np.array([[a, a, -a, -a], [a, -a, 0.0, 0.0], [-a, 0.0, a, 0.0], [-a, 0.0, 0.0, a]])
        with pytest.raises(NonFiniteError, match="differential overflows float64: inf"):
            connectivity_differential(lap, SquareMatrix(variation))
        # A quarter of it is finite, bit for bit the unscaled form.
        value = connectivity_differential(lap, SquareMatrix(variation / 4.0))
        assert value.hex() == "0x1.2fcbf7dc84d9cp+1022"

    def test_disconnected_graph_refused(self):
        # Two components glue the second eigenvalue to the zero one, so the
        # Fiedler vector is just as non-unique as in the repeated-upper case.
        block = np.array([[1.0, -1.0], [-1.0, 1.0]])
        m = np.zeros((4, 4))
        m[:2, :2] = block
        m[2:, 2:] = block
        with pytest.raises(DegenerateFiedlerError):
            connectivity_differential(SquareMatrix(m), SquareMatrix(np.zeros((4, 4))))

    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference_oracle(self, seed):
        # Central differences of the connectivity level vs the quadratic form.
        rng = np.random.default_rng(1000 + seed)
        config = random_config(rng)
        mobile = int(rng.integers(5))
        lap = build_laplacian(config)
        rep = algebraic_connectivity(lap)
        if rep.degenerate or rep.spectrum[2] - rep.spectrum[1] < 1e-3:
            pytest.skip("degenerate draw")
        h = 1e-6
        x = config.agents[mobile].x
        for direction in ((1.0, 0.0), (0.0, 1.0)):
            analytic = connectivity_differential(
                lap, laplacian_motion_derivative(config, mobile, direction)
            )
            plus = config.with_position(
                mobile,
                config.agents[mobile].x + h * direction[0],
                config.agents[mobile].y + h * direction[1],
            )
            minus = config.with_position(
                mobile,
                config.agents[mobile].x - h * direction[0],
                config.agents[mobile].y - h * direction[1],
            )
            fd = (lambda2_of(plus) - lambda2_of(minus)) / (2.0 * h)
            assert abs(analytic - fd) <= 1e-4


def reference_derivative(config, mobile, direction):
    """The link-by-link derivative, with the direction normalised as the public call does.

    The direction is scaled by a power of two that brings its larger
    component into [0.5, 1), then divided by its length.
    """
    x, y = map(float, direction)
    e = math.frexp(max(abs(x), abs(y)))[1]
    x, y = math.ldexp(x, -e), math.ldexp(y, -e)
    length = math.sqrt(x * x + y * y)
    return _motion_derivative(config.positions(), config.sigma, config.comm_range, mobile, (x / length, y / length))


class TestMotionDerivativeStack:
    """The derivative and the stacked link rates against the link-by-link loop, bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_random_configurations(self, n):
        rng = np.random.default_rng([n, 41])
        for comm_range in (2.0, 4.0, 100.0):
            config = make_config(rng.uniform(0.0, 8.0, size=(n, 2)), sigma=1.3, comm_range=comm_range)
            for mobile in range(n):
                direction = tuple(rng.normal(size=2))
                got = laplacian_motion_derivative(config, mobile, direction).entries
                assert got.tobytes() == reference_derivative(config, mobile, direction).tobytes()

    def test_stack_slices_match_single_points(self):
        # Every slice of one stacked call: the mobile agent at many points, each
        # moving its own way, some links in range and some not.
        rng = np.random.default_rng(43)
        n, mobile, sigma, comm_range = 7, 3, 0.8, 3.5
        pos = rng.uniform(0.0, 6.0, size=(n, 2))
        points = rng.uniform(-1.0, 7.0, size=(200, 2))
        angles = rng.uniform(0.0, 2.0 * math.pi, size=200)
        units = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        laps = _moved_laplacians(pos, mobile, points, sigma, comm_range)
        got = mobility._link_rates(pos, mobile, points, units, laps, sigma / comm_range)
        work = np.repeat(pos[None], 200, axis=0)
        work[:, mobile] = points
        linked = laps[:, mobile] < 0.0
        assert 0 < linked.sum() < 200 * (n - 1)
        for g in range(200):
            want = np.where(linked[g], -_motion_derivative(work[g], sigma, comm_range, mobile, units[g])[mobile], 0.0)
            assert got[g].tobytes() == want.tobytes(), g

    @pytest.mark.parametrize("seed", range(8))
    def test_central_differences_of_the_laplacian(self, seed):
        # An oracle that shares no formula with the derivative: the Laplacian
        # built at the mobile agent moved by +-h, differenced.  Agents within
        # 2h of the range boundary would see the weight jump, so they are
        # skipped.
        rng = np.random.default_rng([seed, 53])
        n = int(rng.integers(3, 9))
        comm_range = (2.0, 4.0, 100.0)[seed % 3]
        config = make_config(rng.uniform(0.0, 3.0, size=(n, 2)), sigma=1.3, comm_range=comm_range)
        h = 1e-6 * comm_range
        pos = config.positions()
        checked = 0
        for mobile in range(n):
            gaps = np.abs(np.hypot(*(pos - pos[mobile]).T) - comm_range)
            if (gaps < 2.0 * h).any():
                continue
            angle = rng.uniform(0.0, 2.0 * math.pi)
            ux, uy = math.cos(angle), math.sin(angle)
            x, y = pos[mobile].tolist()
            plus = build_laplacian(config.with_position(mobile, x + h * ux, y + h * uy)).entries
            minus = build_laplacian(config.with_position(mobile, x - h * ux, y - h * uy)).entries
            fd = (plus - minus) / (2.0 * h)
            got = laplacian_motion_derivative(config, mobile, (ux, uy)).entries
            assert np.abs(got - fd).max() <= 1e-6 * np.abs(got).max(), mobile
            checked += bool(got.any())
        assert checked >= 2

    def test_link_exactly_at_range(self):
        # hypot(3, 4) is exactly 5: the boundary link takes the in-range branch.
        config = make_config([(0.0, 0.0), (3.0, 4.0), (1.0, 1.0)], comm_range=5.0)
        got = laplacian_motion_derivative(config, 0, (1.0, 2.0)).entries
        assert got[0, 1] != 0.0
        assert got.tobytes() == reference_derivative(config, 0, (1.0, 2.0)).tobytes()

    @pytest.mark.parametrize("direction", [(0.0, 1.0), (0.0, -1.0)])
    @pytest.mark.parametrize("mobile", [0, 1])
    def test_perpendicular_direction_keeps_signed_zeros(self, mobile, direction):
        # The link's dot product with the direction is +0.0 or -0.0.
        config = make_config([(0.0, 0.0), (1.0, 0.0), (5.0, 5.0)], comm_range=2.0)
        got = laplacian_motion_derivative(config, mobile, direction).entries
        assert not got.any()
        assert got.tobytes() == reference_derivative(config, mobile, direction).tobytes()

    def test_coordinates_near_the_float64_limit(self):
        # One link in range with a subnormal rate times weight; the other
        # differences overflow to inf, out of range and without a warning.
        config = make_config([(1e308, 0.0), (1.7e308, 1e307), (-1e308, 0.0)], sigma=0.7, comm_range=1e308)
        got = [laplacian_motion_derivative(config, mobile, (1.0, -3.0)).entries for mobile in range(3)]
        with np.errstate(over="ignore"):
            want = [reference_derivative(config, mobile, (1.0, -3.0)) for mobile in range(3)]
        assert [d.tobytes() for d in got] == [d.tobytes() for d in want]
        assert got[0][0, 1] != 0.0 and got[0][0, 2] == 0.0


class TestMotionDirection:
    """``direction``: two finite numbers, not both zero, normalised without losing bits."""

    def test_power_of_two_multiples_keep_the_unit_bits(self):
        config = make_config([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)], comm_range=3.0)
        want = laplacian_motion_derivative(config, 1, (1.0, 1.0)).entries.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in range(-1074, 1024):
                x = math.ldexp(1.0, k)
                assert laplacian_motion_derivative(config, 1, (x, x)).entries.tobytes() == want, k

    @pytest.mark.parametrize(
        "direction", [(math.inf, 0.0), (0.0, -math.inf), (math.nan, 1.0), (1.0,), (1.0, 0.0, 5.0), (), "12", None, (10**400, 1)]
    )
    def test_bad_directions_name_direction(self, direction):
        config = make_config([(0.0, 0.0), (1.0, 0.5), (2.0, 2.0)], comm_range=3.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="direction must be two finite numbers"):
                laplacian_motion_derivative(config, 1, direction)

    def test_zero_direction(self):
        config = make_config([(0.0, 0.0), (1.0, 0.5)], comm_range=3.0)
        with pytest.raises(ValueError, match="direction must be nonzero"):
            laplacian_motion_derivative(config, 1, (0.0, -0.0))


class TestMirrorMoves:
    def test_two_neighbors_reflection(self):
        config = make_config(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (40.0, 40.0)], comm_range=10.0
        )
        solution = mirror_moves(config, 2)
        assert solution.preserved_neighbors == (0, 1)
        assert solution.alternatives == ((1.0, -2.0),)
        assert not solution.free

    def test_collinear_mobile_has_no_alternative(self):
        config = make_config([(0.0, 0.0), (4.0, 0.0), (2.0, 0.0)], comm_range=10.0)
        solution = mirror_moves(config, 2)
        assert solution.alternatives == ()

    def test_three_noncollinear_neighbors_pin_the_agent(self):
        config = make_config(
            [(0.0, 0.0), (4.0, 0.0), (2.0, 3.0), (2.0, 1.0)], comm_range=10.0
        )
        solution = mirror_moves(config, 3)
        assert solution.preserved_neighbors == (0, 1, 2)
        assert solution.alternatives == ()

    def test_three_collinear_neighbors_still_reflect(self):
        config = make_config(
            [(0.0, 0.0), (2.0, 0.0), (4.0, 0.0), (1.0, 1.5)], comm_range=10.0
        )
        solution = mirror_moves(config, 3)
        assert solution.alternatives == ((1.0, -1.5),)

    @pytest.mark.parametrize("s", [1.0, 1e-9, 1e-10, 1e-12])
    def test_a_third_neighbor_off_the_line_pins_the_agent_at_every_scale(self, s):
        # At s = 1e-10 an absolute collinearity floor took the three
        # neighbors for collinear and returned (3e-11, -4e-9), a move that
        # changes the Laplacian by 0.0134.
        config = make_config([(0.0, 0.0), (s, 0.0), (0.0, s), (0.3 * s, 40.0 * s)], comm_range=100.0 * s)
        solution = mirror_moves(config, 3)
        assert solution.preserved_neighbors == (0, 1, 2)
        assert solution.alternatives == ()

    @pytest.mark.parametrize("s", [1.0, 1e-6, 1e-9, 1e-10, 1e-12, 1e-100, 1e100, 1e300])
    def test_three_collinear_neighbors_reflect_at_every_scale(self, s):
        # An absolute floor on the agent's distance from the line lost this
        # mirror at s <= 1e-9.
        config = make_config([(0.0, 0.0), (s, 0.0), (2.0 * s, 0.0), (0.3 * s, 0.4 * s)], comm_range=100.0 * s)
        solution = mirror_moves(config, 3)
        assert solution.alternatives == ((0.3 * s, -0.4 * s),)
        base = build_laplacian(config).entries
        moved = build_laplacian(config.with_position(3, *solution.alternatives[0])).entries
        assert np.abs(moved - base).max() <= 1e-12 * np.abs(base).max()

    def test_single_neighbor_gives_circle(self):
        config = make_config([(0.0, 0.0), (3.0, 0.0), (40.0, 0.0)], comm_range=5.0)
        solution = mirror_moves(config, 1)
        assert solution.circle is not None
        assert solution.circle.center == (0.0, 0.0)
        assert solution.circle.radius == pytest.approx(3.0)
        assert solution.alternatives  # sampled witnesses
        for x, y in solution.alternatives:
            assert math.hypot(x, y) == pytest.approx(3.0, abs=1e-12)
            assert math.hypot(x - 40.0, y) > 5.0

    def test_witnesses_respect_outsiders(self):
        # The outsider sits just beyond range on the far side of the circle:
        # witness points that would drift into its range must be dropped.
        config = make_config([(0.0, 0.0), (3.0, 0.0), (-3.2, 0.0)], comm_range=5.0)
        solution = mirror_moves(config, 1)
        for x, y in solution.alternatives:
            assert math.hypot(x + 3.2, y) > 5.0

    def test_isolated_agent_is_free(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0), (50.0, 50.0)], comm_range=5.0)
        solution = mirror_moves(config, 2)
        assert solution.free
        assert solution.alternatives == ()
        assert solution.preserved_neighbors == ()

    def test_reflection_rejected_if_it_enters_outsider_range(self):
        # Mirror point lands near the outsider: not a valid alternative.
        config = make_config(
            [(0.0, 0.0), (4.0, 0.0), (2.0, 2.0), (2.0, -6.0)], comm_range=5.0
        )
        solution = mirror_moves(config, 2)
        assert solution.preserved_neighbors == (0, 1)
        assert solution.alternatives == ()

    def test_index_out_of_range(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(IndexError):
            mirror_moves(config, 5)

    def test_alternatives_preserve_laplacian(self):
        reflection = make_config(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (40.0, 40.0)], comm_range=10.0
        )
        # Agent 1 sits exactly at the range by the weights' distance (one ulp
        # beyond it by hypot): it is a neighbor of agent 0, not an outsider.
        boundary = make_config(
            [(0.0, 0.0), (1.7156854108455517, 3.9633006467991816), (-1.0, 0.0)],
            comm_range=4.318718380018206,
        )
        for config, mobile in ((reflection, 2), (boundary, 0)):
            base = build_laplacian(config).entries
            solution = mirror_moves(config, mobile)
            for x, y in solution.alternatives:
                moved = build_laplacian(config.with_position(mobile, x, y)).entries
                assert np.abs(moved - base).max() <= 1e-12

    def test_near_the_float64_limit_alternatives_are_finite(self):
        # Witnesses on the circle around agent 1 overflow to inf x; they are
        # dropped, silently (the suite turns numpy warnings into failures).
        config = make_config([(1e308, 0.0), (1.7e308, 1e307), (-1e308, 0.0)], sigma=0.7, comm_range=1e308)
        for mobile in range(3):
            solution = mirror_moves(config, mobile)
            assert np.isfinite(solution.alternatives).all()
        solution = mirror_moves(config, 0)
        assert solution.preserved_neighbors == (1,)
        assert len(solution.alternatives) == 3


class TestIntegrateConnectivityChange:
    def test_zero_length_path(self):
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=100.0)
        result = integrate_connectivity_change(config, 2, [(1.0, 2.0)], 10)
        assert result.integral == 0.0 and result.direct == 0.0

    def test_circle_arc_with_single_neighbor(self):
        # The mobile agent orbits its only in-range neighbor while a third
        # agent hangs off that neighbor on the far side (graph stays a
        # connected chain): the integrand is zero along the arc and the
        # endpoints share one Laplacian.
        config = make_config(
            [(0.0, 0.0), (3.0, 0.0), (-4.5, 0.0)], sigma=1.0, comm_range=5.0
        )
        assert mirror_moves(config, 1).preserved_neighbors == (0,)
        arc = [
            (3.0 * math.cos(t), 3.0 * math.sin(t))
            for t in np.linspace(0.0, math.pi / 3.0, 12)
        ]
        result = integrate_connectivity_change(config, 1, arc, 500)
        assert abs(result.direct) <= 1e-9
        assert abs(result.integral) <= 1e-6
        assert result.warnings == ()

    def test_matches_direct_difference(self):
        rng = np.random.default_rng(5)
        config = random_config(rng)
        start = (config.agents[0].x, config.agents[0].y)
        path = [start, (start[0] + 1.5, start[1] + 0.5), (start[0] + 2.0, start[1] + 2.0)]
        result = integrate_connectivity_change(config, 0, path, 10_000)
        assert abs(result.integral - result.direct) <= 1e-5
        assert result.warnings == ()

    def test_range_crossing_warned(self):
        config = make_config(
            [(0.0, 0.0), (3.0, 0.0), (5.5, 0.0)], sigma=1.0, comm_range=5.0
        )
        result = integrate_connectivity_change(
            config, 0, [(0.0, 0.0), (1.0, 0.0)], 200
        )
        assert result.warnings  # agent 3 comes into range on the way
        assert "a3" in result.warnings[0]

    def test_degenerate_gap_aborts(self):
        # A perfect square of agents has a symmetry-forced repeated second
        # eigenvalue, so the differential is undefined there.
        config = make_config(
            [(0.0, 0.0), (2.0, 0.0), (2.0, 2.0), (0.0, 2.0)], sigma=1.0, comm_range=50.0
        )
        with pytest.raises(DegenerateFiedlerError):
            integrate_connectivity_change(config, 0, [(0.0, 0.0), (0.5, 0.1)], 50)

    def test_bad_steps(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError):
            integrate_connectivity_change(config, 0, [(0.0, 0.0), (1.0, 1.0)], 0)

    @pytest.mark.parametrize("steps", [2**62, 10**30])
    def test_step_count_beyond_int64_indexing(self, steps):
        config = make_config([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(ValueError, match="at most 2\\*\\*24"):
            integrate_connectivity_change(config, 0, [(0.0, 0.0), (1.0, 1.0)], steps)

    @pytest.mark.parametrize("steps", [2**24 + 1, 10**18, 1e18])
    def test_huge_step_counts_are_refused_at_once(self, steps):
        # 1e18 steps used to run until killed.
        config = make_config([(0.0, 0.0), (1.0, 0.0)])
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^steps must be at most 2\\*\\*24, got {int(steps)}$"):
            integrate_connectivity_change(config, 0, [(0.0, 0.0), (1.0, 1.0)], steps)
        assert time.perf_counter() - start < 1.0

    def test_json_shape(self):
        rng = np.random.default_rng(6)
        config = random_config(rng)
        start = (config.agents[1].x, config.agents[1].y)
        result = integrate_connectivity_change(
            config, 1, [start, (start[0] + 0.5, start[1])], 100
        )
        data = result.to_json_dict()
        assert set(data) == {"integral", "direct", "difference", "warnings"}


def one_solve_per_point(config, mobile, waypoints, steps, gap_tol=1e-6):
    """The path integral with one _eigh_core solve per evaluation point, in path order.

    This is the walk the stacked solves must reproduce bit for bit: the ends
    are solved and gap-checked first, then each midpoint in turn.  A point's
    links are the negative entries of the mobile agent's Laplacian row, and
    its quadrature form is the sum over linked agents j, in agent order, of
    the link's rate times (f_j - f_mobile)^2 for the Fiedler vector f.
    """
    pos = config.positions()
    pts = [np.array([float(w[0]), float(w[1])]) for w in waypoints]
    sigma, comm_range = config.sigma, config.comm_range
    ids = config.ids()
    segments = []
    for a, b in zip(pts, pts[1:]):
        dx, dy = (b - a).tolist()
        length = math.sqrt(dx * dx + dy * dy)
        if length > 0.0:
            segments.append((a, b, length))
    if not segments:
        return mobility.PathIntegralResult(0.0, 0.0)
    total = sum(length for _, _, length in segments)

    def solve(point):
        work = pos.copy()
        work[mobile] = point
        lap = _laplacian_from_positions(work, sigma, comm_range)
        w, v = _eigh_core(lap)
        gap = float(w[1] - w[0])
        if len(w) >= 3:
            gap = min(gap, float(w[2] - w[1]))
        bound = gap_tol * max(1.0, float(np.abs(lap).max()))
        if gap < bound:
            raise DegenerateFiedlerError(f"eigenvalue gap {gap:.3e} below {bound:.3e} {where}")
        return work, lap[mobile] < 0.0, float(w[1]), v[:, 1].tolist()

    where = "at the path start"
    _, flags, lam_start, _ = solve(segments[0][0])
    where = "at the path end"
    _, end_flags, lam_end, _ = solve(segments[-1][1])
    warnings, warned = [], set()

    def note(flags, new_flags):
        for j in np.nonzero(new_flags != flags)[0]:
            if j not in warned:
                warned.add(int(j))
                warnings.append(f"range crossing: link to agent {ids[j]!r} changed state mid-path")
        return new_flags

    integral = 0.0
    for a, b, length in segments:
        unit = (b - a) / length
        count = max(1, round(steps * length / total))
        h = length / count
        for k in range(count):
            mid = a + (k + 0.5) * h * unit
            where = f"along the path (arc position {k + 0.5:.1f} of segment)"
            work, new_flags, _, f = solve(mid)
            rates = -_motion_derivative(work, sigma, comm_range, mobile, unit)[mobile]
            form = 0.0
            for j in np.nonzero(new_flags)[0].tolist():
                spread = f[j] - f[mobile]
                form += float(rates[j]) * (spread * spread)
            integral += form * h
            flags = note(flags, new_flags)
    note(flags, end_flags)
    return mobility.PathIntegralResult(integral, lam_end - lam_start, tuple(warnings))


def outcome(integrate, *args):
    """Every output bit of a path integral, or its error's type and message."""
    try:
        r = integrate(*args)
    except AnalysisError as exc:
        return type(exc).__name__, str(exc)
    return r.integral.hex(), r.direct.hex(), r.warnings


def seeded_walk(seed, n):
    """Random agents, a range of 3, 6 or 100 and a 1-3 segment walk from the mobile agent.

    Every third walk returns to its start, so that only a midpoint can
    disconnect the graph.
    """
    rng = np.random.default_rng([seed, n])
    pts = rng.uniform(0.0, 8.0, size=(n, 2))
    config = make_config(pts, sigma=1.0, comm_range=(3.0, 6.0, 100.0)[seed % 3])
    mobile = int(rng.integers(n))
    waypoints = [tuple(pts[mobile])] + [tuple(p) for p in rng.uniform(-1.0, 9.0, size=(int(rng.integers(1, 4)), 2))]
    if seed % 3 == 1:
        waypoints.append(waypoints[0])
    return config, mobile, waypoints, int(rng.integers(30, 100))


class TestStackedPathSolves:
    """The stacked path integral against the one-solve-per-point walk, bit for bit."""

    def test_seeded_walks_bit_identical(self, monkeypatch):
        kinds = set()
        for n in range(2, 17):
            for seed in range(4):
                args = seeded_walk(seed, n)
                expected = outcome(one_solve_per_point, *args)
                assert outcome(integrate_connectivity_change, *args) == expected, (n, seed)
                # Seven points per stack up to order 8, so that stack
                # boundaries fall all over the walk, and 64 above, so that a
                # walk of 30-100 steps takes one stack or two.
                per_stack = 7 if n <= 8 else 64
                with monkeypatch.context() as m:
                    m.setattr(matrices, "_STACK_ENTRIES", per_stack * 2 * n * n)
                    assert outcome(integrate_connectivity_change, *args) == expected, (n, seed)
                if len(expected) == 2:
                    kinds.add(expected[1].split(" below ")[1].partition(" ")[2].split(" (")[0])
                else:
                    kinds.add("crossing" if expected[2] else "clean")
                    if n > 8 and args[3] + 2 > per_stack:
                        kinds.add("several stacks")
        assert kinds == {
            "at the path start", "at the path end", "along the path", "crossing", "clean", "several stacks"
        }

    def test_stacks_stay_within_the_entry_budget(self, monkeypatch):
        n = 8
        config, mobile, waypoints, _ = seeded_walk(2, n)
        # Two full stacks and a part one at the default budget.
        per_stack = _stack_slices(n, vectors=True)
        steps = 2 * per_stack + 88
        sizes = []

        def recording(stack, vectors=False):
            assert vectors
            sizes.append(2 * stack.size)  # the Laplacians and their eigenvectors
            return _eigh_stack(stack, vectors)

        expected = outcome(one_solve_per_point, config, mobile, waypoints, steps)
        monkeypatch.setattr(mobility, "_eigh_stack", recording)
        assert outcome(integrate_connectivity_change, config, mobile, waypoints, steps) == expected
        assert len(expected) == 3
        assert len(sizes) == 3 and max(sizes) <= matrices._STACK_ENTRIES
        assert sizes[:2] == [2 * per_stack * n * n] * 2

    @pytest.mark.parametrize("n", range(4, 9))
    def test_a_500_step_path_is_one_stack(self, monkeypatch, n):
        # Up to order 11 the default budget holds all 502 points of a
        # 500-step path, so each stack's fixed sweep cost is paid once.
        config, mobile, waypoints, _ = seeded_walk(2, n)  # range 100: connected
        calls = []

        def recording(stack, vectors=False):
            calls.append(stack.shape[0])
            return _eigh_stack(stack, vectors)

        monkeypatch.setattr(mobility, "_eigh_stack", recording)
        result = integrate_connectivity_change(config, mobile, waypoints, 500)
        assert calls == [502] and math.isfinite(result.integral)

    @pytest.mark.parametrize(
        "points,message",
        [
            # The mobile agent starts out of everyone's range.
            ([(20.0, 0.0), (1.0, 1.0)], "at the path start"),
            ([(1.0, 1.0), (20.0, 0.0)], "at the path end"),
            # A round trip that leaves the range on the way.
            ([(1.0, 1.0), (1.0, 9.0), (1.0, 1.0)], "along the path (arc position"),
        ],
    )
    def test_gap_errors_keep_their_order(self, monkeypatch, points, message):
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)], comm_range=3.0)
        args = (config, 2, points, 120)
        expected = outcome(one_solve_per_point, *args)
        assert expected[0] == "DegenerateFiedlerError" and message in expected[1]
        assert outcome(integrate_connectivity_change, *args) == expected
        # One point per stack: the start, the end and each midpoint solved alone.
        monkeypatch.setattr(matrices, "_STACK_ENTRIES", 2 * 3 * 3)
        assert outcome(integrate_connectivity_change, *args) == expected

    def test_crossing_at_the_path_end_only(self, monkeypatch):
        # The midpoint is in range of a1 and a2, the end point is not; a4
        # keeps the end connected.
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, 2.5)], comm_range=3.0)
        args = (config, 2, [(1.0, 1.0), (1.0, 2.9)], 1)
        expected = outcome(one_solve_per_point, *args)
        assert expected[2] == tuple(
            f"range crossing: link to agent {a!r} changed state mid-path" for a in ("a1", "a2")
        )
        assert outcome(integrate_connectivity_change, *args) == expected
        monkeypatch.setattr(matrices, "_STACK_ENTRIES", 2 * 4 * 4)
        assert outcome(integrate_connectivity_change, *args) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_waypoint_rejected(self, bad):
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
        with pytest.raises(NonFiniteError, match="waypoint 1"):
            integrate_connectivity_change(config, 2, [(1.0, 1.0), (bad, 2.2)], 50)

    @pytest.mark.parametrize(
        "waypoints,message",
        [
            ([(0.0, 0.0, 5.0), (1.0, 1.0, 7.0)], r"waypoint 0 must be two numbers \(x, y\), got length 3"),
            ([(1.0, 1.0), (1.0,)], r"waypoint 1 must be two numbers \(x, y\), got length 1"),
            ([(1.0, 1.0), ()], r"waypoint 1 must be two numbers \(x, y\), got length 0"),
            # The message shows no value: a 5000-digit int cannot be formatted.
            ([(1.0, 1.0), (10**5000, 1.0, 2.0)], r"waypoint 1 must be two numbers \(x, y\), got length 3"),
            ([(1.0, 1.0), 5.0], r"waypoints must be a sequence of \(x, y\) pairs"),
            ([(1.0, 1.0), {1.0, 2.0}], r"waypoints must be a sequence of \(x, y\) pairs"),
            ([(1.0, 1.0), {"x": 1.0, "y": 2.0}], r"waypoints must be a sequence of \(x, y\) pairs"),
            (5, r"waypoints must be a sequence of \(x, y\) pairs"),
            (None, r"waypoints must be a sequence of \(x, y\) pairs"),
        ],
    )
    def test_a_waypoint_must_be_two_numbers(self, waypoints, message):
        # A third coordinate used to be dropped without a word, and a single
        # one leaked IndexError.
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match=f"^{message}$"):
            integrate_connectivity_change(config, 2, waypoints, 50)

    def test_waypoints_of_any_sequence_kind(self):
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0), (1.0, 2.5)], comm_range=3.0)
        path = [(1.0, 1.0), (1.0, 1.0), (1.0, 2.9), (1.2, 1.5)]
        want = integrate_connectivity_change(config, 2, path, 50)
        assert want.warnings  # the walk crosses the range
        for kind in (np.array, lambda p: [list(w) for w in p], lambda p: iter(tuple(np.array(w) for w in p))):
            assert integrate_connectivity_change(config, 2, kind(path), 50) == want
        for short in ([], [(1.0, 1.0)], [(1.0, 1.0)] * 3, np.empty((0, 2))):
            assert integrate_connectivity_change(config, 2, short, 50) == mobility.PathIntegralResult(0.0, 0.0)

    def test_huge_finite_waypoint_is_out_of_range(self):
        # The suite turns numpy warnings into failures, so this also checks the
        # overflowing distances stay silent.  The walk really ends disconnected.
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
        with pytest.raises(DegenerateFiedlerError, match="at the path end"):
            integrate_connectivity_change(config, 2, [(1.0, 1.0), (1e300, -1e300)], 50)

    @pytest.mark.parametrize(
        "points", [[(1.0, 1.0), (1e308, -1e308)], [(-1e308, 0.0), (1e308, 0.0)]]
    )
    def test_overflowing_step_schedule_rejected(self, points):
        # steps * path length is not a finite float64, so no step length exists.
        config = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, 1.0)])
        with pytest.raises(NonFiniteError, match="overflows"):
            integrate_connectivity_change(config, 2, points, 50)

    def test_midpoint_on_a_fixed_agent_is_coincident(self, monkeypatch):
        # The derivative's direction term divides by the link length, which is
        # zero there.  The end points need no derivative.
        config = make_config([(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)], comm_range=5.0)
        message = r"agents 'a3' and 'a2' coincide along the path \(arc position 1.5 of segment\)"
        for per_stack in (None, 1):
            if per_stack:
                monkeypatch.setattr(matrices, "_STACK_ENTRIES", 2 * 3 * 3)
            with pytest.raises(CoincidentAgentsError, match=message):
                integrate_connectivity_change(config, 2, [(0.0, 1.0), (1.0, 1.0), (1.0, -1.0)], 4)
        result = integrate_connectivity_change(config, 2, [(1.0, 1.0), (1.0, 0.0)], 4)
        assert result.warnings == ()

    def test_memory_does_not_grow_with_the_steps(self):
        # The schedule, the range flags and the derivatives are built one
        # stack at a time: ten times the steps must not raise the peak.  The
        # smaller walk already fills a stack at the default budget.
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 3.0)], comm_range=10.0)
        path = [(1.0, 2.0), (2.0, 1.0), (2.5, 2.5)]
        integrate_connectivity_change(config, 2, path, 100)
        base = 2 * _stack_slices(4, vectors=True)
        peaks = []
        for steps in (base, 10 * base):
            tracemalloc.start()
            try:
                integrate_connectivity_change(config, 2, path, steps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], peaks
