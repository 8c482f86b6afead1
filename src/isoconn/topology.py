"""Geometric communication graphs: planar agents, exponential link weights, Laplacians.

The link weight between agents at distance d is exp(-(sigma/comm_range) * d) for
d <= comm_range and exactly 0 beyond, so the model has a jump of size
exp(-sigma) at the range boundary.  That discontinuity is part of the model and
is documented rather than smoothed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CoincidentAgentsError
from .matrices import SquareMatrix, symmetric_eigendecomposition

CONNECTIVITY_TOL = 1e-9


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
        if not (self.sigma > 0):
            raise ValueError("sigma must be positive")
        if not (self.comm_range > 0):
            raise ValueError("comm_range must be positive")
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


def adjacency_weight(distance: float, sigma: float, comm_range: float) -> float:
    """Link weight at a given distance: exp(-(sigma/comm_range)*d) in range, else 0.

    The boundary d == comm_range is in range (weight exp(-sigma)); the weight is
    monotone non-increasing and continuous on [0, comm_range], with a jump at the
    boundary.
    """
    if distance < 0:
        raise ValueError("distance must be nonnegative")
    if not (sigma > 0 and comm_range > 0):
        raise ValueError("sigma and comm_range must be positive")
    if distance > comm_range:
        return 0.0
    return math.exp(-(sigma / comm_range) * distance)


def _weights_from_positions(pos: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    # pos is (..., n, 2); leading axes stack independent configurations.
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    w = np.where(dist <= comm_range, np.exp(-(sigma / comm_range) * dist), 0.0)
    idx = np.arange(pos.shape[-2])
    w[..., idx, idx] = 0.0
    return w


def _laplacian_from_positions(pos: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    w = _weights_from_positions(pos, sigma, comm_range)
    lap = -w
    idx = np.arange(pos.shape[-2])
    lap[..., idx, idx] = w.sum(axis=-1)
    return lap


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
    connected.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = matrix.entries
    n = matrix.order
    symmetric = float(np.abs(m - m.T).max()) <= tol
    zero_row_sums = float(np.abs(m.sum(axis=1)).max()) <= tol
    off = m[~np.eye(n, dtype=bool)]
    nonpositive_offdiag = bool(off.size == 0 or off.max() <= tol)
    decomp = symmetric_eigendecomposition(SquareMatrix(0.5 * (m + m.T)))
    psd = bool(decomp.eigenvalues[0] >= -tol)
    connected = True if n == 1 else bool(decomp.eigenvalues[1] > tol)
    return LaplacianValidation(symmetric, zero_row_sums, nonpositive_offdiag, psd, connected)


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
