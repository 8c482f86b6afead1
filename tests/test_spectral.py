import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoconn import (
    DegenerateFiedlerError,
    NonSymmetricError,
    NotLaplacianError,
    OrderMismatchError,
    SquareMatrix,
    algebraic_connectivity,
    dense_family_laplacian,
    fiedler_null_space_check,
    is_isospectral,
    ones_axis_rotation,
    permutation_matrix,
    validate_laplacian,
)
from isoconn.spectral import DEGENERACY_GAP, ConnectivityReport, fiedler_gap, fiedler_is_simple
from conftest import FIEDLER_DIRECTION, L1_ROWS, L1_SPECTRUM


class TestAlgebraicConnectivity:
    def test_dense_family_reference(self, l4p):
        rep = algebraic_connectivity(l4p)
        assert rep.lambda2 == pytest.approx(4.0, abs=1e-9)
        expected = FIEDLER_DIRECTION / np.linalg.norm(FIEDLER_DIRECTION)
        assert np.abs(rep.fiedler - expected).max() <= 1e-9
        assert rep.fiedler[2] > 0  # sign convention puts the dominant entry positive
        assert not rep.degenerate

    def test_base_matrix_spectrum(self, l1):
        rep = algebraic_connectivity(l1)
        assert rep.lambda2 == pytest.approx(2.0, abs=1e-9)
        assert np.abs(rep.spectrum - np.array(L1_SPECTRUM)).max() <= 1e-9

    def test_two_node_closed_form(self):
        w = 0.37
        rep = algebraic_connectivity(SquareMatrix.from_rows([[w, -w], [-w, w]]))
        assert rep.lambda2 == pytest.approx(2.0 * w, abs=1e-12)
        assert not rep.degenerate

    def test_degenerate_flag(self, k4):
        rep = algebraic_connectivity(k4)
        assert rep.degenerate
        assert rep.lambda2 == pytest.approx(4.0, abs=1e-9)

    def test_fiedler_is_eigenvector_and_orthogonal_to_ones(self, l4p):
        rep = algebraic_connectivity(l4p)
        resid = np.abs(l4p.entries @ rep.fiedler - rep.lambda2 * rep.fiedler).max()
        assert resid <= 1e-8
        assert abs(rep.fiedler @ np.ones(4)) <= 1e-8

    def test_rejects_non_laplacian(self):
        with pytest.raises(NotLaplacianError):
            algebraic_connectivity(SquareMatrix.from_rows([[1.0, 0.0], [0.0, 2.0]]))

    def test_asymmetry_within_tol_but_beyond_symmetry_tol_is_refused(self, l1):
        # Validation at tol 1e-9 passes an asymmetry of 1e-10, but the solve
        # stands for the input only up to 1e-12 of its largest entry.
        rows = l1.entries.copy()
        rows[0, 1] += 1e-10
        nudged = SquareMatrix(rows)
        assert validate_laplacian(nudged, 1e-9).passed
        with pytest.raises(NonSymmetricError) as exc:
            algebraic_connectivity(nudged)
        assert str(exc.value) == "asymmetry 1.000e-10 exceeds 1.0e-12 * 3.000e+00"

    def test_failed_validation_comes_before_asymmetry(self, l1):
        rows = l1.entries.copy()
        rows[0, 1] += 1e-10
        rows[1, 3] = rows[3, 1] = 0.5  # a positive off-diagonal entry
        with pytest.raises(NotLaplacianError):
            algebraic_connectivity(SquareMatrix(rows))

    def test_json_shape(self, l1):
        data = algebraic_connectivity(l1).to_json_dict()
        assert set(data) == {"lambda2", "fiedler", "degenerate", "spectrum"}


class TestFiedlerGap:
    def test_stacked_values(self):
        values = np.array([[0.0, 1.0, 3.0], [0.0, 2.0, 2.5], [0.0, 0.0, 1.0], [-0.0, 0.0, 0.0]])
        gap = fiedler_gap(values)
        assert gap.tolist() == [1.0, 0.5, 0.0, 0.0]
        assert [math.copysign(1.0, g) for g in gap] == [1.0] * 4
        assert fiedler_gap(np.array([[0.0, 0.5], [1.0, 1.0]])).tolist() == [0.5, 0.0]

    def test_keeps_the_lower_gap_unless_the_upper_is_strictly_smaller(self):
        # Python's min(lower, upper): on a tie of 0.0 and -0.0 the lower one is kept.
        assert math.copysign(1.0, fiedler_gap(np.array([-0.0, 0.0, 0.0]))) == 1.0
        assert math.copysign(1.0, fiedler_gap(np.array([0.0, 0.0, -0.0]))) == 1.0
        assert math.copysign(1.0, fiedler_gap(np.array([0.0, -0.0, 0.0]))) == -1.0

    @given(
        spectrum=st.lists(st.sampled_from([0.0, 1e-10, 5e-10, 1e-9, 2e-9, 1.0]), min_size=2, max_size=4)
    )
    @settings(max_examples=200, deadline=None)
    def test_simplicity_equals_the_two_sided_rule(self, spectrum):
        w = np.cumsum(spectrum)
        degenerate = len(w) >= 3 and bool(w[2] - w[1] < DEGENERACY_GAP)
        report = ConnectivityReport(np.zeros(len(w)), w)
        assert report.degenerate is degenerate
        expected = not degenerate and float(w[1] - w[0]) >= DEGENERACY_GAP
        assert fiedler_is_simple(report) is expected


class TestIsIsospectral:
    def test_relabelings_share_spectrum(self, l1, l2):
        assert is_isospectral(l1, l2, 1e-9)

    def test_reflexive(self, l1):
        assert is_isospectral(l1, l1, 1e-15)

    def test_path_differs(self, l1, path4):
        # Path spectrum {0, 2-sqrt(2), 2, 2+sqrt(2)} vs {0, 2, 4, 4}.
        assert not is_isospectral(l1, path4, 1e-6)

    def test_order_mismatch(self, l1):
        with pytest.raises(OrderMismatchError):
            is_isospectral(l1, SquareMatrix.from_rows([[0.0]]))

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_preserved_under_validated_transforms(self, seed):
        base = SquareMatrix.from_rows(L1_ROWS)
        rng = np.random.default_rng(seed)
        if rng.integers(2) == 0:
            q = permutation_matrix(rng.permutation(4))
        else:
            q = ones_axis_rotation(4, float(rng.uniform(0.0, 2.0 * math.pi)))
        conj = SquareMatrix(q.entries.T @ base.entries @ q.entries)
        assert is_isospectral(base, conj, 1e-9)


class TestFiedlerNullSpace:
    def test_shared_fiedler_pair(self, l4p, l4pp):
        check = fiedler_null_space_check(l4p, l4pp, 1e-9)
        assert check.ok
        assert check.residual <= 1e-9
        assert check.lambda2_base == pytest.approx(4.0, abs=1e-9)
        assert check.lambda2_other == pytest.approx(4.0, abs=1e-9)
        assert check.lambda2_match

    def test_same_matrix_zero_residual(self, l4p):
        check = fiedler_null_space_check(l4p, l4p, 1e-12)
        assert check.residual == 0.0

    def test_broken_condition_detected(self, l4p):
        # Perturb the lower-right 2x2 corner symmetrically with zero row sums:
        # still a Laplacian, but the shared-eigenvector condition breaks.
        eps = 1e-2
        bump = np.zeros((4, 4))
        bump[2, 2] = bump[3, 3] = eps
        bump[2, 3] = bump[3, 2] = -eps
        other = SquareMatrix(l4p.entries + bump)
        check = fiedler_null_space_check(l4p, other, 1e-8)
        assert not check.ok
        assert check.residual == pytest.approx(4.0 * eps / math.sqrt(12.0), rel=1e-9)

    def test_degenerate_inputs_refused(self, l4p, k4):
        with pytest.raises(DegenerateFiedlerError):
            fiedler_null_space_check(k4, l4p, 1e-9)

    def test_order_mismatch(self, l4p):
        with pytest.raises(OrderMismatchError):
            fiedler_null_space_check(l4p, SquareMatrix.from_rows([[0.0]]), 1e-9)


class TestParametricFamilyEigenpairs:
    def test_connectivity_level_fixed_on_valid_grid(self):
        direction = FIEDLER_DIRECTION / np.linalg.norm(FIEDLER_DIRECTION)
        tested = 0
        for alpha in np.linspace(1.2, 5.0, 8):
            for beta in np.linspace(1.2, 5.0, 8):
                lap = dense_family_laplacian(float(alpha), float(beta))
                rep = algebraic_connectivity(lap)
                if rep.degenerate:
                    continue
                tested += 1
                assert rep.lambda2 == pytest.approx(4.0, abs=1e-9)
                assert np.abs(rep.fiedler - direction).max() <= 1e-9
        assert tested > 50
