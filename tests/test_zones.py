import json
import math

import numpy as np
import pytest

from isoconn import (
    CoincidentAgentsError,
    EmptyGridError,
    GridSpec,
    NonPositiveParameterError,
    build_laplacian,
    dense_family_laplacian,
    dense_family_spectrum,
    dense_family_validity,
    iso_connectivity_zone,
    mirror_moves,
    symmetric_eigendecomposition,
)
from isoconn import zones
from isoconn.matrices import _eigh_core, _eigvals_stack
from conftest import L4P_ROWS, L4PP_ROWS, L4P_SPECTRUM, L4PP_SPECTRUM, geometric_config, make_config


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
        grid = GridSpec(-1.0, 8.0, -1.0, 8.0, 24, 24)
        assert grid.nx * grid.ny > zones._ZONE_CHUNK_ENTRIES // (n * n)
        sizes = []

        def recording(stack):
            sizes.append(stack.size)
            return _eigvals_stack(stack)

        monkeypatch.setattr(zones, "_eigvals_stack", recording)
        target = float(_eigh_core(build_laplacian(config).entries)[0][1])
        data = assert_same_zone(config, 3, grid, tol=0.2 * target)
        assert data["accepted"] and data["rejected_count"]
        assert len(sizes) == 2 and max(sizes) <= zones._ZONE_CHUNK_ENTRIES
