"""Geometric communication graphs: planar agents, exponential link weights, Laplacians.

The link weight between agents at distance d is exp(-(sigma/comm_range) * d) for
d <= comm_range and exactly 0 beyond, so the model has a jump of size
exp(-sigma) at the range boundary.  That discontinuity is part of the model and
is documented rather than smoothed.  A link is a positive weight from
``_link_weights``, the one comparison of a distance with the range, for the
adjacency, ``adjacency_weight`` and, through ``_moved_laplacians``, ``mobility``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAgentsError
from .matrices import SquareMatrix, _check_tol, _eigh_stack, _symmetrized


@dataclass(frozen=True)
class Agent:
    id: str
    x: float
    y: float


@dataclass(frozen=True)
class AgentConfiguration:
    """Ordered planar agents plus the shared communication model.

    Agent order fixes matrix row/column order.  All agents share one decay rate
    ``sigma`` and one communication range ``comm_range`` (JSON key ``range``).
    """

    agents: tuple[Agent, ...]
    sigma: float
    comm_range: float

    def __post_init__(self):
        agents = tuple(self.agents)
        object.__setattr__(self, "agents", agents)
        if len(agents) < 2:
            raise ValueError("a configuration needs at least 2 agents")
        ids = [a.id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        for a in agents:
            if not (math.isfinite(a.x) and math.isfinite(a.y)):
                raise ValueError(f"agent {a.id!r} has a non-finite position")
        _check_decay(self.sigma, self.comm_range)
        n = len(agents)
        for i in range(n):
            for j in range(i + 1, n):
                if agents[i].x == agents[j].x and agents[i].y == agents[j].y:
                    raise CoincidentAgentsError(
                        f"agents {agents[i].id!r} and {agents[j].id!r} coincide"
                    )

    def positions(self) -> np.ndarray:
        return np.array([[a.x, a.y] for a in self.agents])

    def ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.agents)

    def index_of(self, agent_id: str) -> int:
        for i, a in enumerate(self.agents):
            if a.id == agent_id:
                return i
        raise ValueError(f"unknown agent id {agent_id!r}")

    def with_position(self, index: int, x: float, y: float) -> "AgentConfiguration":
        """Copy of the configuration with one agent moved."""
        agents = list(self.agents)
        old = agents[index]
        agents[index] = Agent(old.id, float(x), float(y))
        return AgentConfiguration(tuple(agents), self.sigma, self.comm_range)

    def to_json_dict(self) -> dict:
        return {
            "sigma": self.sigma,
            "range": self.comm_range,
            "agents": [{"id": a.id, "x": a.x, "y": a.y} for a in self.agents],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "AgentConfiguration":
        if not isinstance(data, dict):
            raise ValueError("configuration JSON must be an object")
        for key in ("sigma", "range", "agents"):
            if key not in data:
                raise ValueError(f"configuration JSON is missing {key!r}")
        agents = tuple(
            Agent(str(a["id"]), float(a["x"]), float(a["y"])) for a in data["agents"]
        )
        return cls(agents, float(data["sigma"]), float(data["range"]))


def _check_decay(sigma: float, comm_range: float) -> None:
    """ValueError unless sigma and comm_range are positive and finite with a finite ratio."""
    if not (sigma > 0):
        raise ValueError("sigma must be positive")
    if not (comm_range > 0):
        raise ValueError("comm_range must be positive")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    if not math.isfinite(comm_range):
        raise ValueError(f"comm_range must be finite, got {comm_range}")
    if not math.isfinite(sigma / comm_range):
        raise ValueError(f"decay rate sigma / comm_range overflows: {sigma} / {comm_range}")


def adjacency_weight(distance: float, sigma: float, comm_range: float) -> float:
    """Link weight at a given distance: exp(-(sigma/comm_range)*d) in range, else 0.

    The boundary d == comm_range is in range (weight exp(-sigma)); the weight is
    monotone non-increasing and continuous on [0, comm_range], with a jump at the
    boundary.  Bit for bit the weight ``build_adjacency`` gives agents that far apart.
    """
    if not distance >= 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    _check_decay(sigma, comm_range)
    return float(_link_weights(np.array(distance), sigma, comm_range))


def _check_agent(index: int, n: int) -> None:
    """IndexError unless ``index`` names one of ``n`` agents."""
    if not 0 <= index < n:
        raise IndexError(f"agent index {index} out of range for order {n}")


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lengths of ``a - b`` (..., 2), at least 2-d: sqrt(dx*dx + dy*dy) where that sum is normal, else hypot."""
    with np.errstate(over="ignore", under="ignore"):
        diff = a - b
        dx, dy = diff[..., 0], diff[..., 1]
        sq = dx * dx + dy * dy
        dist = np.sqrt(sq)
        odd = (sq < sys.float_info.min) | (sq == np.inf)
        if odd.any():
            dist[odd] = np.hypot(dx[odd], dy[odd])
    return dist


def _link_weights(dist: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    # Weights of links of length dist; a link is a positive weight.
    # Out of range the exponent may overflow, or be the nan of a decay rate
    # that underflowed to 0 times an infinite distance: the weight is 0.
    with np.errstate(over="ignore", invalid="ignore"):
        return np.where(dist <= comm_range, np.exp(-(sigma / comm_range) * dist), 0.0)


def _weights_from_positions(pos: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    # pos is (..., n, 2); leading axes stack independent configurations.
    w = _link_weights(_distances(pos[..., :, None, :], pos[..., None, :, :]), sigma, comm_range)
    idx = np.arange(pos.shape[-2])
    w[..., idx, idx] = 0.0
    return w


def _laplacian_from_weights(w: np.ndarray) -> np.ndarray:
    lap = -w
    idx = np.arange(w.shape[-1])
    lap[..., idx, idx] = w.sum(axis=-1)
    return lap


def _laplacian_from_positions(pos: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    return _laplacian_from_weights(_weights_from_positions(pos, sigma, comm_range))


def _moved_laplacians(
    pos: np.ndarray, mobile: int, points: np.ndarray, sigma: float, comm_range: float
) -> np.ndarray:
    """Laplacians (G, n, n) of ``pos`` (n, 2) with agent ``mobile`` moved to each of ``points`` (G, 2).

    Slice g is bit-identical to ``_laplacian_from_positions`` of the moved
    positions: the fixed agents' weights are computed once, the mobile
    agent's links per point, each with the same float operations, and the
    degrees are the same row sums of the same (G, n, n) weights.
    """
    links = _link_weights(_distances(points[:, None, :], pos), sigma, comm_range)
    links[:, mobile] = 0.0
    w = np.repeat(_weights_from_positions(pos, sigma, comm_range)[None], len(points), axis=0)
    w[:, mobile] = links
    w[:, :, mobile] = links
    return _laplacian_from_weights(w)


def build_adjacency(config: AgentConfiguration) -> SquareMatrix:
    """Weighted adjacency matrix of a configuration (zero diagonal)."""
    return SquareMatrix(_weights_from_positions(config.positions(), config.sigma, config.comm_range))


def build_laplacian(config: AgentConfiguration) -> SquareMatrix:
    """Weighted Laplacian: degree matrix minus adjacency, rows summing to zero."""
    return SquareMatrix(_laplacian_from_positions(config.positions(), config.sigma, config.comm_range))


@dataclass(frozen=True)
class LaplacianValidation:
    """Structural and spectral Laplacian checks, each independently reported.

    ``passed`` is the structural verdict (symmetry, zero row sums, non-positive
    off-diagonal, positive semi-definiteness); ``connected`` is informational.
    """

    symmetric: bool
    zero_row_sums: bool
    nonpositive_offdiag: bool
    psd: bool
    connected: bool

    @property
    def passed(self) -> bool:
        return self.symmetric and self.zero_row_sums and self.nonpositive_offdiag and self.psd

    def to_json_dict(self) -> dict:
        return {
            "symmetric": self.symmetric,
            "zero_row_sums": self.zero_row_sums,
            "nonpositive_offdiag": self.nonpositive_offdiag,
            "psd": self.psd,
            "connected": self.connected,
            "passed": self.passed,
        }


def validate_laplacian(matrix: SquareMatrix, tol: float) -> LaplacianValidation:
    """Check Laplacian structure flag by flag.

    Spectral flags (psd, connected) are computed on the symmetrized matrix so an
    asymmetric input still gets a meaningful report; a single node counts as
    connected.  ``tol`` must be positive and finite.
    """
    return _validated_eigensystem(matrix, tol, vectors=False)[0]


def _validated_eigensystem(
    matrix: SquareMatrix, tol: float, vectors: bool
) -> tuple[LaplacianValidation, np.ndarray, np.ndarray | None]:
    """``validate_laplacian``'s flags with the eigensystem they were read from.

    The eigenvalues (and, with ``vectors``, the eigenvectors) are those of the
    symmetrized matrix, so a caller that needs the spectrum of an already
    symmetric Laplacian solves it only once.
    """
    _check_tol(tol)
    m = matrix.entries
    n = matrix.order
    # Entries near the float64 limit overflow these sums: the flag is then false.
    with np.errstate(over="ignore", invalid="ignore"):
        symmetric = float(np.abs(m - m.T).max()) <= tol
        zero_row_sums = float(np.abs(m.sum(axis=1)).max()) <= tol
    off = m[~np.eye(n, dtype=bool)]
    nonpositive_offdiag = bool(off.size == 0 or off.max() <= tol)
    w, v = _eigh_stack(_symmetrized(m)[None], vectors)
    w = w[0]
    psd = bool(w[0] >= -tol)
    connected = True if n == 1 else bool(w[1] > tol)
    checks = LaplacianValidation(symmetric, zero_row_sums, nonpositive_offdiag, psd, connected)
    return checks, w, None if v is None else v[0]


def is_connected(config: AgentConfiguration) -> bool:
    """Breadth-first connectivity over links with positive weight.

    Agrees with the spectral test (second eigenvalue above 1e-9) on any sane
    configuration; the graph route needs no eigensolve.
    """
    w = _weights_from_positions(config.positions(), config.sigma, config.comm_range)
    n = len(config.agents)
    seen = [False] * n
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in np.nonzero(w[i] > 0.0)[0]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return all(seen)
