import hashlib
import json
import math
import tracemalloc

import numpy as np
import pytest

from isoconn import (
    CoincidentAgentsError,
    EmptyGridError,
    GridSpec,
    NonFiniteError,
    NonPositiveParameterError,
    build_laplacian,
    dense_family_laplacian,
    dense_family_spectrum,
    dense_family_validity,
    iso_connectivity_zone,
    mirror_moves,
    symmetric_eigendecomposition,
)
from isoconn import matrices, zones
from isoconn.matrices import _eigh_stack, _stack_slices
from conftest import L4P_ROWS, L4PP_ROWS, L4P_SPECTRUM, L4PP_SPECTRUM, _eigh_core, geometric_config, make_config


class TestDenseFamilyLaplacian:
    def test_instance_two_three(self, l4p):
        assert dense_family_laplacian(2.0, 3.0).equals(l4p)

    def test_instance_three_four(self, l4pp):
        assert dense_family_laplacian(3.0, 4.0).equals(l4pp)

    def test_vanishing_parameters_limit(self):
        tiny = dense_family_laplacian(1e-12, 1e-12)
        limit = np.array(
            [[2, -1, -1, 0], [-1, 2, -1, 0], [-1, -1, 3, -1], [0, 0, -1, 1]],
            dtype=float,
        )
        assert np.abs(tiny.entries - limit).max() <= 1e-11

    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0)])
    def test_rejects_nonpositive_parameters(self, alpha, beta):
        with pytest.raises(NonPositiveParameterError):
            dense_family_laplacian(alpha, beta)


class TestDenseFamilySpectrum:
    def test_reference_values(self):
        got = dense_family_spectrum(2.0, 3.0)
        assert got[2] == pytest.approx(7.0 - math.sqrt(3.0), abs=1e-12)
        assert got[3] == pytest.approx(7.0 + math.sqrt(3.0), abs=1e-12)
        assert np.abs(np.array(got) - np.array(L4P_SPECTRUM)).max() <= 1e-3
        got = dense_family_spectrum(3.0, 4.0)
        assert got[2] == pytest.approx(9.0 - math.sqrt(7.0), abs=1e-12)
        assert got[3] == pytest.approx(9.0 + math.sqrt(7.0), abs=1e-12)
        assert np.abs(np.array(got) - np.array(L4PP_SPECTRUM)).max() <= 1e-3

    def test_equal_parameters_case(self):
        # At (2, 2): 2+a+b = 6 and the square root collapses to 1, so the
        # spectrum is {0, 4, 5, 7} (confirmed by the eigensolver oracle below).
        got = dense_family_spectrum(2.0, 2.0)
        assert got == pytest.approx((0.0, 4.0, 5.0, 7.0))
        numeric = symmetric_eigendecomposition(dense_family_laplacian(2.0, 2.0)).eigenvalues
        assert np.abs(np.array(got) - numeric).max() <= 1e-9

    def test_matches_eigensolver_on_grid(self):
        worst = 0.0
        for alpha in np.linspace(0.1, 5.0, 50):
            for beta in np.linspace(0.1, 5.0, 50):
                closed = np.array(dense_family_spectrum(float(alpha), float(beta)))
                numeric = symmetric_eigendecomposition(
                    dense_family_laplacian(float(alpha), float(beta))
                ).eigenvalues
                worst = max(worst, float(np.abs(closed - numeric).max()))
        assert worst <= 1e-9

    def test_discriminant_never_negative_near_collapse(self):
        # The discriminant is a sum of squares; it bottoms out at exactly 0.
        assert dense_family_spectrum(1.0, 1.0) == pytest.approx((0.0, 4.0, 4.0, 4.0))

    @pytest.mark.parametrize("alpha,beta", [(1e200, 1.0), (1.0, 1e200), (1e308, 1e308)])
    def test_overflowing_discriminant_is_a_domain_error(self, alpha, beta):
        # A square above the float64 range: a NonFinite error, not an OverflowError.
        with pytest.raises(NonFiniteError, match="discriminant overflows"):
            dense_family_spectrum(alpha, beta)
        with pytest.raises(NonFiniteError, match="discriminant overflows"):
            dense_family_validity(alpha, beta)

    def test_parameters_below_the_overflow_keep_the_closed_form(self):
        assert all(map(math.isfinite, dense_family_spectrum(1e150, 1e150)))


class TestDenseFamilyValidity:
    def test_reference_parameter_pairs_valid(self):
        for alpha, beta in ((2.0, 3.0), (3.0, 4.0)):
            check = dense_family_validity(alpha, beta)
            assert check.inequality_holds
            assert check.lambda2_at_target
            assert not check.discrepancy

    def test_small_parameters_invalid(self):
        check = dense_family_validity(0.1, 0.1)
        assert not check.inequality_holds  # 2.2 + sqrt(0.92) < 4
        assert not check.lambda2_at_target
        assert not check.discrepancy

    def test_mixed_parameters_expose_the_inequality_gap(self):
        # One weight below 1, the other above: the plus-root test passes while
        # the actual connectivity level drops below 4.
        check = dense_family_validity(2.0, 0.1)
        assert check.inequality_holds
        assert not check.lambda2_at_target
        assert check.discrepancy
        assert check.lambda2 == pytest.approx(2.4538, abs=1e-4)

    @pytest.mark.parametrize(
        "tol,message",
        [
            (math.nan, "tol must be finite"),
            (math.inf, "tol must be finite"),
            (0.0, "tol must be positive"),
            (-1.0, "tol must be positive"),
        ],
    )
    def test_bad_tol_rejected(self, tol, message):
        # (2, 3) is at level 4: a bad tol used to report a discrepancy there.
        with pytest.raises(ValueError, match=message):
            dense_family_validity(2.0, 3.0, tol=tol)

    def test_criterion_6_grid_lambda2_bits_pinned(self):
        # sha256 of the 2500 lambda2.hex() strings, newline-joined, in
        # criterion 6's grid order, as the per-point solve gave them before
        # the scalar kernel's loops were restructured.
        values = [(i + 1) * 0.1 for i in range(50)]
        text = "\n".join(
            dense_family_validity(alpha, beta, tol=1e-9).lambda2.hex() for alpha in values for beta in values
        )
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "8b945dc0c9b318f005f1e15ab48350a788727823bb895d43eb5c83edbd766690"
        )


class TestFixedEigenvectors:
    def test_directions_for_levels_zero_and_four(self):
        ones = np.ones(4) / 2.0
        pinned = np.array([1.0, 1.0, -3.0, 1.0]) / math.sqrt(12.0)
        for alpha in np.linspace(0.2, 5.0, 9):
            for beta in np.linspace(0.2, 5.0, 9):
                lap = dense_family_laplacian(float(alpha), float(beta)).entries
                assert np.abs(lap @ ones).max() <= 1e-9
                assert np.abs(lap @ pinned - 4.0 * pinned).max() <= 1e-9


class TestModalMatrices:
    @pytest.mark.parametrize(
        "rows,expected",
        [(L4P_ROWS, "M4P"), (L4PP_ROWS, "M4PP")],
    )
    def test_reference_modal_matrices(self, rows, expected):
        from conftest import M4P, M4PP

        reference = {"M4P": M4P, "M4PP": M4PP}[expected]
        from isoconn import SquareMatrix

        decomp = symmetric_eigendecomposition(SquareMatrix.from_rows(rows))
        assert np.abs(decomp.eigenvectors - reference).max() <= 1e-3


class TestGridSpec:
    def test_centers_row_major(self):
        grid = GridSpec(0.0, 2.0, 0.0, 1.0, 2, 1)
        assert list(grid.centers()) == [(0.5, 0.5), (1.5, 0.5)]

    def test_empty_grid_rejected(self):
        with pytest.raises(EmptyGridError):
            GridSpec(0.0, 1.0, 0.0, 1.0, 0, 3)
        with pytest.raises(EmptyGridError):
            GridSpec(1.0, 0.0, 0.0, 1.0, 2, 2)

    @pytest.mark.parametrize(
        "bounds",
        [(0.0, math.nan, 0.0, 1.0), (0.0, math.inf, 0.0, 1.0), (-math.inf, 0.0, 0.0, 1.0), (0.0, 1.0, math.nan, 1.0)],
    )
    def test_non_finite_bounds_rejected(self, bounds):
        with pytest.raises(NonFiniteError, match="bounds must be finite"):
            GridSpec(*bounds, 2, 2)

    def test_overflowing_cell_size_rejected(self):
        with pytest.raises(NonFiniteError, match="cell size overflows"):
            GridSpec(-1e308, 1e308, 0.0, 1.0, 2, 1)
        wide = GridSpec(-8e307, 8e307, 0.0, 1.0, 2, 1)
        assert all(math.isfinite(c) for center in wide.centers() for c in center)

    def test_json_round_trip(self):
        grid = GridSpec(-1.0, 1.0, -2.0, 2.0, 4, 8)
        assert GridSpec(**grid.to_json_dict()) == grid


class TestIsoConnectivityZone:
    def test_original_cell_accepted(self):
        config = make_config(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], sigma=1.0, comm_range=10.0
        )
        # One cell of this grid is centered exactly on the mobile agent.
        grid = GridSpec(0.0, 4.0, 1.0, 3.0, 2, 1)
        assert (1.0, 2.0) in list(grid.centers())
        sample = iso_connectivity_zone(config, 2, grid, tol=1e-9)
        assert any(p.x == 1.0 and p.y == 2.0 for p in sample.accepted)
        assert sample.rejected_count == 2 - len(sample.accepted)

    def test_mirror_point_cell_accepted(self):
        config = make_config(
            [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (40.0, 40.0)], comm_range=10.0
        )
        mirror = mirror_moves(config, 2).alternatives[0]
        grid = GridSpec(mirror[0] - 1.0, mirror[0] + 1.0, mirror[1] - 1.0, mirror[1] + 1.0, 1, 1)
        assert list(grid.centers()) == [mirror]
        sample = iso_connectivity_zone(config, 2, grid, tol=1e-9)
        assert len(sample.accepted) == 1

    def test_isolated_mobile_all_accepted_at_target_zero(self):
        config = make_config(
            [(0.0, 0.0), (3.0, 0.0), (500.0, 500.0)], sigma=1.0, comm_range=5.0
        )
        grid = GridSpec(400.0, 600.0, 400.0, 600.0, 3, 3)
        sample = iso_connectivity_zone(config, 2, grid, target=0.0, tol=1e-12)
        assert len(sample.accepted) == 9
        assert sample.rejected_count == 0
        assert all(p.lambda2 == 0.0 for p in sample.accepted)

    def test_default_target_is_own_connectivity(self):
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
        sample = iso_connectivity_zone(config, 2, GridSpec(0.0, 4.0, 0.0, 4.0, 2, 2))
        lam2 = symmetric_eigendecomposition(build_laplacian(config)).eigenvalues[1]
        assert sample.target == pytest.approx(float(lam2), abs=0)

    def test_cell_on_a_fixed_agent_is_rejected(self):
        config = make_config([(0.5, 0.5), (1.5, 0.5), (3.0, 3.0)], comm_range=10.0)
        grid = GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)  # center lands on agent 1
        sample = iso_connectivity_zone(config, 2, grid, target=0.0, tol=100.0)
        assert sample.accepted == ()
        assert sample.rejected_count == 1

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"tol": math.nan}, "tol must be finite"),
            ({"tol": math.inf}, "tol must be finite"),
            ({"tol": 0.0}, "tol must be positive"),
            ({"target": math.inf}, "target must be finite"),
            ({"target": math.nan}, "target must be finite"),
        ],
    )
    def test_bad_tol_or_target_rejected(self, kwargs, message):
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
        with pytest.raises(ValueError, match=message):
            iso_connectivity_zone(config, 2, GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1), **kwargs)

    def test_json_shape(self):
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
        data = iso_connectivity_zone(config, 2, GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)).to_json_dict()
        assert set(data) == {"target", "tol", "grid", "accepted", "rejected_count"}


def per_cell_zone(config, mobile, grid, target=None, tol=1e-6):
    """Reference scan: one single solve per cell, in row-major order."""
    if target is None:
        target = float(_eigh_core(build_laplacian(config).entries)[0][1])
    accepted, rejected = [], 0
    for x, y in grid.centers():
        try:
            moved = config.with_position(mobile, x, y)
        except CoincidentAgentsError:
            rejected += 1
            continue
        lam2 = float(_eigh_core(build_laplacian(moved).entries)[0][1])
        if abs(lam2 - target) <= tol:
            accepted.append({"x": x, "y": y, "lambda2": lam2})
        else:
            rejected += 1
    return {
        "target": target,
        "tol": tol,
        "grid": grid.to_json_dict(),
        "accepted": accepted,
        "rejected_count": rejected,
    }


def assert_same_zone(config, mobile, grid, **kwargs):
    got = iso_connectivity_zone(config, mobile, grid, **kwargs).to_json_dict()
    want = per_cell_zone(config, mobile, grid, **kwargs)
    assert got == want
    # JSON text also tells -0.0 from 0.0.
    assert json.dumps(got) == json.dumps(want)
    return got


class TestZoneMatchesPerCellScan:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_seeded_configurations(self, n):
        rng = np.random.default_rng([n, 9])
        config = geometric_config(rng, n)
        mobile = int(rng.integers(n))
        side = 10.0 * math.sqrt(n / 16.0)
        grid = GridSpec(-2.0, side + 2.0, -2.0, side + 2.0, 6, 5)
        assert_same_zone(config, mobile, grid)
        target = float(_eigh_core(build_laplacian(config).entries)[0][1])
        data = assert_same_zone(config, mobile, grid, tol=0.2 * target)
        assert data["accepted"] and data["rejected_count"]

    def test_coincident_cells(self):
        config = make_config([(0.5, 0.5), (2.5, 1.5), (1.0, 1.0), (3.5, 3.5)], comm_range=3.0)
        grid = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4)
        centers = set(grid.centers())
        assert {(0.5, 0.5), (2.5, 1.5), (3.5, 3.5)} <= centers
        data = assert_same_zone(config, 2, grid, tol=0.5)
        assert data["accepted"] and data["rejected_count"] >= 3

    def test_all_cells_coincident(self):
        config = make_config([(0.5, 0.5), (1.0, 1.0)])
        data = assert_same_zone(config, 1, GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1), tol=100.0)
        assert data["accepted"] == [] and data["rejected_count"] == 1

    def test_grid_larger_than_one_chunk(self, monkeypatch):
        n = 8
        config = geometric_config(np.random.default_rng(21), n)
        # The smallest square grid with more cells than one stack holds.
        side = math.isqrt(_stack_slices(n, vectors=False)) + 1
        grid = GridSpec(-1.0, 8.0, -1.0, 8.0, side, side)
        assert grid.nx * grid.ny > _stack_slices(n, vectors=False)
        sizes = []

        def recording(stack, vectors=False):
            assert not vectors  # a zone scan needs eigenvalues only
            sizes.append(stack.size)
            return _eigh_stack(stack, vectors)

        monkeypatch.setattr(zones, "_eigh_stack", recording)
        target = float(_eigh_core(build_laplacian(config).entries)[0][1])
        data = assert_same_zone(config, 3, grid, tol=0.2 * target)
        assert data["accepted"] and data["rejected_count"]
        assert len(sizes) == 2 and max(sizes) <= matrices._STACK_ENTRIES


class TestZoneStreaming:
    """The scan takes its cells from the grid one stack at a time."""

    def test_one_slice_per_stack_solves_the_target_alone(self, monkeypatch):
        # Orders above 128 fit one slice per stack; a budget of one order-4
        # matrix reproduces that here.
        config = geometric_config(np.random.default_rng(5), 4)
        grid = GridSpec(0.0, 8.0, 0.0, 8.0, 3, 2)
        want = iso_connectivity_zone(config, 1, grid, tol=0.5).to_json_dict()
        sizes = []

        def recording(stack, vectors=False):
            sizes.append(stack.shape[0])
            return _eigh_stack(stack, vectors)

        monkeypatch.setattr(matrices, "_STACK_ENTRIES", 4 * 4)
        monkeypatch.setattr(zones, "_eigh_stack", recording)
        got = assert_same_zone(config, 1, grid, tol=0.5)
        assert json.dumps(got) == json.dumps(want)
        assert sizes == [1] * (1 + 6)

    def test_coincident_cells_leave_before_stacking(self, monkeypatch):
        # Three fixed agents sit on cell centres; 13 of the 16 cells are
        # solved, three per stack, the first stack holding the target too.
        config = make_config([(0.5, 0.5), (2.5, 1.5), (1.0, 1.0), (3.5, 3.5)], comm_range=3.0)
        grid = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4)
        sizes = []

        def recording(stack, vectors=False):
            sizes.append(stack.shape[0])
            return _eigh_stack(stack, vectors)

        monkeypatch.setattr(matrices, "_STACK_ENTRIES", 3 * 4 * 4)
        monkeypatch.setattr(zones, "_eigh_stack", recording)
        for target in (None, 0.1):
            sizes.clear()
            got = assert_same_zone(config, 2, grid, target=target, tol=0.5)
            assert got["rejected_count"] >= 3
            assert sizes[:-1] == [3] * 4 and sum(sizes) == 13 + (target is None)

    def test_given_target_with_every_cell_coincident_solves_nothing(self, monkeypatch):
        config = make_config([(0.5, 0.5), (1.5, 0.5), (3.0, 3.0)])
        sizes = []
        monkeypatch.setattr(zones, "_eigh_stack", lambda stack, vectors=False: sizes.append(stack.shape[0]))
        sample = iso_connectivity_zone(config, 2, GridSpec(0.0, 2.0, 0.0, 1.0, 2, 1), target=0.0, tol=100.0)
        assert sizes == []
        assert sample.accepted == () and sample.rejected_count == 2

    def test_memory_does_not_grow_with_the_grid(self):
        # No cell is accepted, so the scan keeps nothing per cell: a grid of
        # 16 times the cells must not raise the peak by half.  Listing every
        # cell up front raised it about 6-fold.  The smaller grid already
        # fills a stack at the default budget.
        config = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
        iso_connectivity_zone(config, 2, GridSpec(0.0, 4.0, -3.0, 3.0, 8, 8), target=100.0)
        side = math.isqrt(_stack_slices(3, vectors=False)) + 1
        peaks = []
        for k in (side, 4 * side):
            grid = GridSpec(0.05, 4.05, -3.05, 2.95, k, k)
            tracemalloc.start()
            try:
                sample = iso_connectivity_zone(config, 2, grid, target=100.0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert sample.accepted == () and sample.rejected_count == k * k
        assert peaks[1] < 1.5 * peaks[0], peaks
