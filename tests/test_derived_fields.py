"""Result fields that follow from other fields are properties, not stored values."""

import dataclasses

import numpy as np
import pytest

from isoconn import (
    BlockDecomposition,
    ConnectivityReport,
    GridSpec,
    MoveSolution,
    SquareMatrix,
    ValidityCheck,
    ZoneSample,
    algebraic_connectivity,
    block_decompose,
    build_laplacian,
    dense_family_validity,
    iso_connectivity_zone,
    mirror_moves,
)
from isoconn.spectral import DEGENERACY_GAP
from conftest import geometric_config, make_config

K4_ROWS = [[3, -1, -1, -1], [-1, 3, -1, -1], [-1, -1, 3, -1], [-1, -1, -1, 3]]


@pytest.mark.parametrize(
    "cls,derived",
    [
        (ConnectivityReport, {"lambda2", "degenerate"}),
        (ValidityCheck, {"discrepancy"}),
        (ZoneSample, {"rejected_count"}),
        (MoveSolution, {"free"}),
        (BlockDecomposition, {"rest", "coupling_diag"}),
    ],
)
def test_derived_names_are_not_fields(cls, derived):
    names = {f.name for f in dataclasses.fields(cls)}
    assert not names & derived
    assert all(isinstance(getattr(cls, name), property) for name in derived)


def seeded_reports():
    reports = [algebraic_connectivity(SquareMatrix.from_rows(K4_ROWS))]  # 0, 4, 4, 4
    reports.append(algebraic_connectivity(SquareMatrix.from_rows([[0.5, -0.5], [-0.5, 0.5]])))
    for n in range(2, 11):
        reports.append(algebraic_connectivity(build_laplacian(geometric_config(np.random.default_rng([n, 31]), n))))
    return reports


class TestConnectivityReport:
    def test_properties_follow_the_spectrum(self):
        reports = seeded_reports()
        for rep in reports:
            w = rep.spectrum
            assert rep.lambda2.hex() == float(w[1]).hex()
            assert rep.degenerate is (w.size >= 3 and bool(w[2] - w[1] < DEGENERACY_GAP))
        assert [rep.degenerate for rep in reports[:2]] == [True, False]

    def test_order_two_is_never_degenerate(self):
        rep = ConnectivityReport(np.array([0.6, -0.8]), np.array([0.0, 0.0]))
        assert rep.lambda2 == 0.0 and rep.degenerate is False

    def test_json_reads_the_properties(self):
        rep = ConnectivityReport(np.zeros(3), np.array([0.0, 1.0, 1.0 + 5e-10]))
        data = rep.to_json_dict()
        assert data["lambda2"] == 1.0 and data["degenerate"] is True


class TestValidityCheck:
    def test_discrepancy_is_the_inequality_against_the_level(self):
        seen = set()
        for alpha in (0.1, 0.5, 1.0, 2.0, 3.0):
            for beta in (0.1, 1.0, 3.0):
                check = dense_family_validity(alpha, beta)
                assert check.discrepancy is (check.inequality_holds and not check.lambda2_at_target)
                seen.add(check.discrepancy)
        assert seen == {True, False}


class TestZoneSample:
    def test_rejected_count_is_the_cells_not_accepted(self):
        # Agents on cell centres: those cells are rejected without a solve.
        config = make_config([(0.5, 0.5), (2.5, 1.5), (1.0, 1.0), (3.5, 3.5)], comm_range=3.0)
        grid = GridSpec(0.0, 4.0, 0.0, 4.0, 4, 4)
        for tol in (1e-9, 0.5, 100.0):
            sample = iso_connectivity_zone(config, 2, grid, tol=tol)
            assert sample.rejected_count == 16 - len(sample.accepted)
            assert sample.to_json_dict()["rejected_count"] == sample.rejected_count


class TestMoveSolution:
    def test_free_without_neighbors(self):
        config = make_config([(0.0, 0.0), (3.0, 0.0), (500.0, 500.0)], comm_range=5.0)
        solution = mirror_moves(config, 2)
        assert solution.preserved_neighbors == () and solution.free is True

    @pytest.mark.parametrize("points", [[(0.0, 0.0), (3.0, 0.0)], [(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)]])
    def test_not_free_with_neighbors(self, points):
        config = make_config(points, comm_range=10.0)
        for mobile in range(len(points)):
            solution = mirror_moves(config, mobile)
            assert solution.preserved_neighbors and solution.free is False


class TestBlockDecomposition:
    def test_rest_is_every_other_index(self):
        for n in (2, 3, 6):
            lap = build_laplacian(geometric_config(np.random.default_rng([n, 41]), n))
            for agent in range(n):
                blocks = block_decompose(lap, agent)
                assert blocks.rest == tuple(i for i in range(n) if i != agent)
                assert blocks.reassemble().entries.tobytes() == lap.entries.tobytes()
