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
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CoincidentAgentsError
from .matrices import SquareMatrix, _as_float, _as_int, _check_tol, _eigh_stack, _shown, _symmetrized, _tol_scale


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
    Positions, ``sigma`` and ``comm_range`` are stored as Python floats, by
    the float rule of ``matrices._as_float``.
    """

    agents: tuple[Agent, ...]
    sigma: float
    comm_range: float

    def __post_init__(self):
        agents = list(self.agents)
        if len(agents) < 2:
            raise ValueError("a configuration needs at least 2 agents")
        ids = [a.id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValueError("agent ids must be unique")
        for i, a in enumerate(agents):
            if type(a.x) is not float or type(a.y) is not float:
                a = agents[i] = Agent(a.id, _as_float(a.x, f"agents[{i}].x"), _as_float(a.y, f"agents[{i}].y"))
            if not (math.isfinite(a.x) and math.isfinite(a.y)):
                raise ValueError(f"agent {a.id!r} has a non-finite position")
        agents = tuple(agents)
        object.__setattr__(self, "agents", agents)
        sigma, comm_range = _check_decay(self.sigma, self.comm_range)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "comm_range", comm_range)
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
        index = _check_agent(index, len(agents))
        agents[index] = Agent(agents[index].id, x, y)
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
        agents = data["agents"]
        if not (isinstance(agents, list) and all(isinstance(a, dict) and {"id", "x", "y"} <= a.keys() for a in agents)):
            raise ValueError("configuration 'agents' must be a list of objects with 'id', 'x' and 'y'")
        return cls(tuple(Agent(str(a["id"]), a["x"], a["y"]) for a in agents), data["sigma"], data["range"])


def _check_decay(sigma: float, comm_range: float) -> tuple[float, float]:
    """sigma and comm_range as floats, ValueError unless positive and finite with a finite ratio."""
    sigma, comm_range = _as_float(sigma, "sigma"), _as_float(comm_range, "comm_range")
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
    return sigma, comm_range


def adjacency_weight(distance: float, sigma: float, comm_range: float) -> float:
    """Link weight at a given distance: exp(-(sigma/comm_range)*d) in range, else 0.

    The boundary d == comm_range is in range (weight exp(-sigma)); the weight is
    monotone non-increasing and continuous on [0, comm_range], with a jump at the
    boundary.  Bit for bit the weight ``build_adjacency`` gives agents that far apart.
    """
    distance = _as_float(distance, "distance")
    if not distance >= 0:
        raise ValueError(f"distance must be nonnegative, got {distance}")
    sigma, comm_range = _check_decay(sigma, comm_range)
    return float(_link_weights(np.array(distance), sigma, comm_range))


def _check_agent(index: int, n: int) -> int:
    """``index`` as an int by the integer rule, IndexError unless it names one of ``n`` agents."""
    index = _as_int(index, "agent index")
    if not 0 <= index < n:
        raise IndexError(f"agent index {_shown(index)} out of range for order {n}")
    return index


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Lengths of ``a - b`` (..., 2), at least 2-d: sqrt(dx*dx + dy*dy).

    Where that sum is zero, subnormal or inf, dx and dy are first scaled by
    2^-e, e the exponent of the larger |component|, and the root by 2^e: exact
    scalings, so a length scales with its positions by any power of two that
    keeps the differences normal floats.
    """
    with np.errstate(over="ignore", under="ignore"):
        diff = a - b
        dx, dy = diff[..., 0], diff[..., 1]
        sq = dx * dx + dy * dy
        dist = np.sqrt(sq)
        odd = (sq < sys.float_info.min) | (sq == np.inf)
        # Zero differences, the only odd lanes a Laplacian build meets, already have their exact 0.
        if odd.any() and diff[odd].any():
            x, y = dx[odd], dy[odd]
            e = np.frexp(np.maximum(np.abs(x), np.abs(y)))[1]
            x, y = np.ldexp(x, -e), np.ldexp(y, -e)
            dist[odd] = np.ldexp(np.sqrt(x * x + y * y), e)
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
    off-diagonal, psd, all relative to the largest entry); ``connected`` is informational.
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
        return asdict(self) | {"passed": self.passed}


def validate_laplacian(matrix: SquareMatrix, tol: float) -> LaplacianValidation:
    """Check Laplacian structure flag by flag.

    Spectral flags (psd, connected) are computed on the symmetrized matrix so an
    asymmetric input still gets a meaningful report; a single node counts as
    connected.  ``tol`` must be positive and finite.  Every flag allows
    ``tol * max(1, largest |entry|)``: the structural ones as a residual, psd
    as the smallest eigenvalue's depth below zero, and ``connected`` needs the
    second eigenvalue above it.
    """
    return _validated_eigensystem(matrix, tol, vectors=False)[0]


def _validated_eigensystem(
    matrix: SquareMatrix, tol: float, vectors: bool
) -> tuple[LaplacianValidation, np.ndarray, np.ndarray | None, float]:
    """``validate_laplacian``'s flags with the eigensystem they were read from, and its scale.

    The eigenvalues (and, with ``vectors``, the eigenvectors) are those of the
    symmetrized matrix, so a caller that needs the spectrum of an already
    symmetric Laplacian solves it only once.  The scale is
    ``max(1, largest |entry|)``, which every flag's bound multiplies.
    """
    tol = _check_tol(tol)
    m, scale, shift = _tol_scale(matrix.entries)
    bound = tol * scale
    n = matrix.order
    symmetric = float(np.abs(m - m.T).max()) <= bound
    zero_row_sums = float(np.abs(m.sum(axis=1)).max()) <= bound
    nonpositive_offdiag = bool((m[~np.eye(n, dtype=bool)] <= bound).all())
    w, v = _eigh_stack(_symmetrized(matrix.entries)[None], vectors)
    w = w[0]
    psd = math.ldexp(float(w[0]), -shift) >= -bound
    connected = n == 1 or math.ldexp(float(w[1]), -shift) > bound
    checks = LaplacianValidation(symmetric, zero_row_sums, nonpositive_offdiag, psd, connected)
    return checks, w, None if v is None else v[0], math.ldexp(scale, shift)


def is_connected(config: AgentConfiguration) -> bool:
    """Breadth-first connectivity over links with positive weight.

    Agrees with ``validate_laplacian``'s ``connected`` at tol 1e-9 on any sane
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
