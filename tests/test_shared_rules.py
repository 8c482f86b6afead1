"""One tolerance rule and one agent-index rule across the public functions."""

import math

import pytest

from isoconn import (
    GridSpec,
    SquareMatrix,
    algebraic_connectivity,
    block_decompose,
    build_laplacian,
    connectivity_differential,
    dense_family_laplacian,
    fiedler_null_space_check,
    integrate_connectivity_change,
    is_isospectral,
    iso_connectivity_zone,
    laplacian_motion_derivative,
    mirror_moves,
    permutation_matrix,
    similarity_transform,
    validate_iso_transform,
    validate_laplacian,
)
from conftest import make_config

L = dense_family_laplacian(2.0, 3.0)
Q = permutation_matrix([3, 2, 1, 0])
V = SquareMatrix.from_rows([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
# Equilateral agents: the second eigenvalue is repeated at the path start, so
# an unchecked nan, negative or zero gap_tol returned an integral here.
TRIANGLE = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))], comm_range=5.0)

TOL_CALLS = {
    "validate_laplacian": lambda tol: validate_laplacian(L, tol),
    "algebraic_connectivity": lambda tol: algebraic_connectivity(L, tol),
    "validate_iso_transform": lambda tol: validate_iso_transform(Q, tol),
    "similarity_transform": lambda tol: similarity_transform(L, Q, tol),
    "is_isospectral": lambda tol: is_isospectral(L, L, tol),
    "fiedler_null_space_check": lambda tol: fiedler_null_space_check(L, L, tol),
    "connectivity_differential": lambda tol: connectivity_differential(L, V, tol),
    "integrate_connectivity_change": lambda tol: integrate_connectivity_change(
        TRIANGLE, 2, [(1.0, math.sqrt(3.0)), (1.5, 2.5)], 20, gap_tol=tol
    ),
}


@pytest.mark.parametrize("name", sorted(TOL_CALLS))
@pytest.mark.parametrize(
    "tol,message",
    [
        (math.inf, "tol must be finite, got inf"),
        (math.nan, "tol must be finite, got nan"),
        (0.0, "tol must be positive"),
        (-1.0, "tol must be positive"),
    ],
)
def test_bad_tol_rejected(name, tol, message):
    with pytest.raises(ValueError, match=message):
        TOL_CALLS[name](tol)


def test_non_finite_tol_cannot_pass_or_fail_everything():
    # Unchecked, an infinite tol passes every flag of a non-Laplacian and of
    # a non-orthonormal transform, and a nan tol calls two equal matrices
    # non-isospectral.
    with pytest.raises(ValueError):
        validate_laplacian(SquareMatrix.from_rows([[1, 5], [-3, 1]]), math.inf)
    with pytest.raises(ValueError):
        validate_iso_transform(SquareMatrix.from_rows([[2, 0], [0, 7]]), math.inf)
    with pytest.raises(ValueError):
        is_isospectral(L, L, math.nan)


CONFIG = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
INDEX_CALLS = {
    "block_decompose": lambda i: block_decompose(build_laplacian(CONFIG), i),
    "laplacian_motion_derivative": lambda i: laplacian_motion_derivative(CONFIG, i, (1.0, 0.0)),
    "mirror_moves": lambda i: mirror_moves(CONFIG, i),
    "integrate_connectivity_change": lambda i: integrate_connectivity_change(CONFIG, i, [(1.0, 2.0), (1.5, 2.0)], 3),
    "iso_connectivity_zone": lambda i: iso_connectivity_zone(CONFIG, i, GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
@pytest.mark.parametrize("index", [-1, 3, 10])
def test_agent_index_out_of_range(name, index):
    with pytest.raises(IndexError, match=f"^agent index {index} out of range for order 3$"):
        INDEX_CALLS[name](index)
