"""Shared fixtures: the worked four-agent matrices and geometry helpers."""

import numpy as np
import pytest

from isoconn import Agent, AgentConfiguration, SquareMatrix, is_connected

# Base four-agent Laplacian (complete graph minus the 2-4 link, unit weights)
# and its two relabeling conjugates.
L1_ROWS = [
    [3, -1, -1, -1],
    [-1, 2, -1, 0],
    [-1, -1, 3, -1],
    [-1, 0, -1, 2],
]
J1_PERM = (3, 2, 1, 0)  # full reversal
J2_PERM = (0, 2, 1, 3)  # swap the middle pair
L2_ROWS = [
    [2, -1, 0, -1],
    [-1, 3, -1, -1],
    [0, -1, 2, -1],
    [-1, -1, -1, 3],
]
L3_ROWS = [
    [3, -1, -1, -1],
    [-1, 3, -1, -1],
    [-1, -1, 2, 0],
    [-1, -1, 0, 2],
]
# Known spectrum of the base matrix, confirmed symbolically in the tests.
L1_SPECTRUM = (0.0, 2.0, 4.0, 4.0)

# Dense-family instances at (2, 3) and (3, 4), with their eigenvalues and
# modal matrices as reference values (4-decimal precision).
L4P_ROWS = [
    [4, -1, -1, -2],
    [-1, 5, -1, -3],
    [-1, -1, 3, -1],
    [-2, -3, -1, 6],
]
L4PP_ROWS = [
    [5, -1, -1, -3],
    [-1, 6, -1, -4],
    [-1, -1, 3, -1],
    [-3, -4, -1, 8],
]
L4P_SPECTRUM = (0.0, 4.0, 5.2679, 8.7321)
L4PP_SPECTRUM = (0.0, 4.0, 6.3542, 11.6458)
M4P = np.array(
    [
        [0.5000, -0.2887, 0.7887, -0.2113],
        [0.5000, -0.2887, -0.5774, -0.5774],
        [0.5000, 0.8660, 0.0000, 0.0000],
        [0.5000, -0.2887, -0.2113, 0.7887],
    ]
)
M4PP = np.array(
    [
        [0.5000, -0.2887, 0.7651, -0.2852],
        [0.5000, -0.2887, -0.6295, -0.5199],
        [0.5000, 0.8660, 0.0000, 0.0000],
        [0.5000, -0.2887, -0.1355, 0.8052],
    ]
)
FIEDLER_DIRECTION = np.array([-1.0, -1.0, 3.0, -1.0])

K4_ROWS = [
    [3, -1, -1, -1],
    [-1, 3, -1, -1],
    [-1, -1, 3, -1],
    [-1, -1, -1, 3],
]
PATH4_ROWS = [
    [1, -1, 0, 0],
    [-1, 2, -1, 0],
    [0, -1, 2, -1],
    [0, 0, -1, 1],
]
# Weighted 3-node path (weights 1 and 3): the unit-weight path sits exactly on
# the boundary where ones-fixing conjugation can produce a positive
# off-diagonal, so a lopsided weighting is needed for a strict witness.
PATH3_WEIGHTED_ROWS = [
    [1, -1, 0],
    [-1, 4, -3],
    [0, -3, 3],
]


@pytest.fixture
def l1():
    return SquareMatrix.from_rows(L1_ROWS)


@pytest.fixture
def l2():
    return SquareMatrix.from_rows(L2_ROWS)


@pytest.fixture
def l3():
    return SquareMatrix.from_rows(L3_ROWS)


@pytest.fixture
def l4p():
    return SquareMatrix.from_rows(L4P_ROWS)


@pytest.fixture
def l4pp():
    return SquareMatrix.from_rows(L4PP_ROWS)


@pytest.fixture
def k4():
    return SquareMatrix.from_rows(K4_ROWS)


@pytest.fixture
def path4():
    return SquareMatrix.from_rows(PATH4_ROWS)


def make_config(points, sigma=1.0, comm_range=10.0, ids=None):
    if ids is None:
        ids = [f"a{i + 1}" for i in range(len(points))]
    agents = tuple(Agent(i, float(x), float(y)) for i, (x, y) in zip(ids, points))
    return AgentConfiguration(agents, sigma, comm_range)


def l1_geometry(sigma=1e-9, comm_range=10.0):
    """Four agents whose pairwise weights round to the base matrix's 0/1 pattern.

    Agents 2 and 4 sit just over one range apart; every other pair is well
    inside range, and sigma is tiny so in-range weights are 1 up to ~1e-9.
    """
    return make_config(
        [(0.0, 0.0), (0.5, 5.2), (1.0, 0.0), (0.5, -5.2)],
        sigma=sigma,
        comm_range=comm_range,
    )


def random_config(rng, n=5, side=30.0, min_gap=1.0, sigma=1.2, comm_range=100.0):
    """Random well-separated agents in a box, all inside one another's range."""
    while True:
        pts = rng.uniform(0.0, side, size=(n, 2))
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if np.hypot(*(pts[i] - pts[j])) < min_gap:
                    ok = False
        if ok:
            return make_config(pts, sigma=sigma, comm_range=comm_range)


def geometric_config(rng, n, comm_range=6.0):
    """Connected uniform agents in a box of side 10*sqrt(n/16): density fixed as n grows."""
    side = 10.0 * np.sqrt(n / 16.0)
    while True:
        config = make_config(rng.uniform(0.0, side, size=(n, 2)), comm_range=comm_range)
        if is_connected(config):
            return config
