"""Shared fixtures: the worked four-agent matrices and geometry helpers."""

import math

import numpy as np
import pytest

from isoconn import Agent, AgentConfiguration, SquareMatrix, is_connected
from isoconn import matrices
from isoconn.errors import ConvergenceError

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


# The scalar Jacobi kernel as it stood before its loops were restructured,
# kept verbatim (but for reading the sweep constants through ``matrices``, so
# that a patched sweep cap reaches it): the frozen reference the live kernel
# and every stacked solve are held to bit for bit.
def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float]:
    """Cosine/sine annihilating the (p, q) entry; the smaller-angle root, sign-fixed."""
    theta = (aqq - app) / (2.0 * apq)
    if abs(theta) > 1e150:  # avoid overflow in theta*theta
        t = 0.5 / theta
    else:
        t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c


def _jacobi_python(sym: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # Scalar loops on nested lists: one matrix solves faster this way than as a
    # stack of one in _jacobi_stack at every order measured (median of repeated
    # solves of a geometric Laplacian: 0.12 vs 1.4 ms at n=4, 6.4 vs 35 ms at
    # n=16, 0.47 vs 0.81 s at n=64).  The eigenvector rotations never feed
    # back into ``a``, so skipping them leaves the eigenvalues' bits alone.
    n = sym.shape[0]
    a = sym.tolist()
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if vectors else None
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            fro2 += a[i][j] * a[i][j]
    thr2 = (matrices._SWEEP_TOL * matrices._SWEEP_TOL) * fro2
    sweeps = 0
    while True:
        off2 = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                off2 += 2.0 * ai[j] * ai[j]
        if off2 <= thr2:
            break
        if sweeps == matrices._MAX_SWEEPS:
            raise ConvergenceError(f"no convergence after {matrices._MAX_SWEEPS} sweeps (order {n})")
        sweeps += 1
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq = a[q]
                apq = ap[q]
                if apq == 0.0:
                    continue
                c, s = _rotation(ap[p], aq[q], apq)
                for k in range(n):
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp - s * akq
                    ak[q] = s * akp + c * akq
                for k in range(n):
                    akp = ap[k]
                    akq = aq[k]
                    ap[k] = c * akp - s * akq
                    aq[k] = s * akp + c * akq
                if vectors:
                    for k in range(n):
                        vk = v[k]
                        vkp = vk[p]
                        vkq = vk[q]
                        vk[p] = c * vkp - s * vkq
                        vk[q] = s * vkp + c * vkq
    w = np.array([a[i][i] for i in range(n)])
    return w, None if v is None else np.array(v)


def _eigh_core(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of an exactly symmetric ndarray: ascending values, sign-fixed columns.

    The reference single solve the stacked and scaled solves are held to bit
    for bit: the frozen scalar Jacobi sweeps, then their own sort and sign loop.
    """
    w, v = _jacobi_python(sym, vectors=True)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    # Sign convention: the largest-magnitude entry of each eigenvector is positive;
    # np.argmax resolves magnitude ties toward the lowest index.
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return w, v


def _motion_derivative(
    pos: np.ndarray, sigma: float, comm_range: float, mobile: int, unit: np.ndarray
) -> np.ndarray:
    """The Laplacian derivative of one position set, one link at a time in agent order.

    The reference the stacked derivative builder is held to bit for bit.
    """
    n = pos.shape[0]
    d = np.zeros((n, n))
    rate = sigma / comm_range
    total = 0.0
    for j in range(n):
        if j == mobile:
            continue
        rel = pos[mobile] - pos[j]
        dist = float(np.hypot(rel[0], rel[1]))
        if dist > comm_range:
            continue
        da = math.exp(-rate * dist) * (-rate) * float(rel @ unit) / dist
        d[j, j] += da
        d[j, mobile] = -da
        d[mobile, j] = -da
        total += da
    d[mobile, mobile] = total
    return d
