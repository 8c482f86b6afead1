"""One tolerance rule, one agent-index rule and one link rule across the public functions."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoconn import (
    DegenerateFiedlerError,
    GridSpec,
    SquareMatrix,
    adjacency_weight,
    algebraic_connectivity,
    block_decompose,
    build_adjacency,
    build_laplacian,
    connectivity_differential,
    dense_family_laplacian,
    fiedler_null_space_check,
    integrate_connectivity_change,
    is_connected,
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


# Where two distance formulas would disagree: agent 1 exactly at the range by
# the sum of squares but one ulp beyond it by hypot, distances whose squares
# underflow (scaled by 1e199 no pair is in range), one distance of 7.07e307
# whose square overflows, and a weight exp(-1000) that underflows to 0 in
# range.  Each case lists the pairs the link rule links.
LINK_CASES = {
    "boundary": (
        make_config([(0.0, 0.0), (1.7156854108455517, 3.9633006467991816), (-1.0, 0.0)], comm_range=4.318718380018206),
        {(0, 1), (0, 2)},
    ),
    "tiny": (make_config([(0.0, 0.0), (2e-199, 0.0), (0.0, 4e-199)], comm_range=1e-199), set()),
    "huge": (make_config([(1e308, 0.0), (1.7e308, 1e307), (-1e308, 0.0)], sigma=0.7, comm_range=1e308), {(0, 1)}),
    "underflow": (make_config([(0.0, 0.0), (1.0, 0.0), (0.0, -0.001)], sigma=1000.0, comm_range=1.0), {(0, 2)}),
}


def linked_pairs(mobile, neighbors):
    return {tuple(sorted((mobile, int(j)))) for j in neighbors if j != mobile}


def link_views(config):
    """The link set as each public function reports it."""
    n = len(config.agents)
    adjacency = build_adjacency(config).entries
    derivative, mirror = set(), set()
    for mobile in range(n):
        row = laplacian_motion_derivative(config, mobile, (1.0, -3.0)).entries[mobile]
        derivative |= linked_pairs(mobile, np.nonzero(row)[0])
        mirror |= linked_pairs(mobile, mirror_moves(config, mobile).preserved_neighbors)
    return {
        "build_adjacency": {(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j] > 0.0},
        "laplacian_motion_derivative": derivative,
        "mirror_moves": mirror,
    }


def connects_all(n, pairs):
    seen = {0}
    for _ in range(n):
        seen |= {b for a, b in pairs if a in seen} | {a for a, b in pairs if b in seen}
    return len(seen) == n


@pytest.mark.parametrize("name", sorted(LINK_CASES))
def test_one_link_rule(name):
    config, pairs = LINK_CASES[name]
    views = link_views(config)
    assert views == dict.fromkeys(views, pairs)
    connected = connects_all(len(config.agents), pairs)
    assert is_connected(config) == connected
    # The path integral: a step of 1% of the range toward a linked agent keeps
    # every link, so its range flags must see no crossing.  A disconnected
    # start has a repeated zero eigenvalue and is refused.
    pos = config.positions()
    for mobile in range(len(pos)):
        partners = [b if a == mobile else a for a, b in sorted(pairs) if mobile in (a, b)]
        toward = pos[partners[0]] - pos[mobile] if partners else np.array([1.0, 0.0])
        walk = [pos[mobile], pos[mobile] + toward / np.hypot(*toward) * (0.01 * config.comm_range)]
        if not connected:
            with pytest.raises(DegenerateFiedlerError, match="at the path start"):
                integrate_connectivity_change(config, mobile, walk, 4)
        else:
            assert integrate_connectivity_change(config, mobile, walk, 4).warnings == ()


# At the first example np.exp and math.exp round the weight differently; at
# the second the weight exp(-800) underflows to 0 in range.
@given(st.floats(1e-9, 1e3), st.floats(1e-3, 1e4), st.floats(1e-3, 1e3))
@example(5.307950165029082, 1.3, 10.0)
@example(4.0, 2000.0, 10.0)
@settings(max_examples=100, deadline=None)
def test_adjacency_weight_is_the_adjacency_entry(distance, sigma, comm_range):
    config = make_config([(0.0, 0.0), (distance, 0.0)], sigma=sigma, comm_range=comm_range)
    entry = float(build_adjacency(config).entries[0, 1])
    assert adjacency_weight(distance, sigma, comm_range).hex() == entry.hex()


@pytest.mark.parametrize("distance,sigma,comm_range", [(0.0, 1e300, 1e-10), (0.0, math.inf, 10.0), (math.nan, 1.0, 1.0)])
def test_adjacency_weight_refuses_a_non_finite_decay_rate_or_distance(distance, sigma, comm_range):
    with pytest.raises(ValueError):
        adjacency_weight(distance, sigma, comm_range)
