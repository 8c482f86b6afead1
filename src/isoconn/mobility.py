"""Single-mobile-agent machinery: block structure, connectivity sensitivity, moves.

Everything here treats exactly one agent as mobile while the rest stay fixed.
The connectivity differential is the quadratic form of the Laplacian variation
with the (unit) Fiedler vector; moves that keep every link weight unchanged keep
the whole Laplacian, and therefore the connectivity, unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateFiedlerError,
    InvalidVariationError,
    NotLaplacianError,
)
from .matrices import SquareMatrix, _eigh_core
from .spectral import algebraic_connectivity, fiedler_is_simple
from .topology import AgentConfiguration, _laplacian_from_positions, validate_laplacian


@dataclass(frozen=True)
class BlockDecomposition:
    """A Laplacian split around one agent (internally moved to the last slot).

    ``reduced`` is the Laplacian of the remaining agents with every trace of the
    separated one removed; ``coupling`` holds the link weights to the separated
    agent, ``coupling_diag`` is its diagonal embedding and ``coupling_total``
    their sum (the separated agent's degree).  Moving the separated agent can
    only change the coupling pieces, never ``reduced``.
    """

    reduced: SquareMatrix
    coupling: np.ndarray
    coupling_diag: SquareMatrix
    coupling_total: float
    agent: int
    rest: tuple[int, ...]

    def __post_init__(self):
        arr = np.array(self.coupling, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "coupling", arr)

    def reassemble(self) -> SquareMatrix:
        """Rebuild the full matrix, in the original index order."""
        k = len(self.rest)
        out = np.zeros((k + 1, k + 1))
        out[:k, :k] = self.reduced.entries + self.coupling_diag.entries
        out[:k, k] = -self.coupling
        out[k, :k] = -self.coupling
        out[k, k] = self.coupling_total
        order = np.array(list(self.rest) + [self.agent])
        full = np.zeros_like(out)
        full[np.ix_(order, order)] = out
        return SquareMatrix(full)


def block_decompose(laplacian: SquareMatrix, agent: int) -> BlockDecomposition:
    """Split a Laplacian around one agent."""
    n = laplacian.order
    if not 0 <= agent < n:
        raise IndexError(f"agent index {agent} out of range for order {n}")
    if not validate_laplacian(laplacian, 1e-9).passed:
        raise NotLaplacianError("matrix fails structural Laplacian validation")
    m = laplacian.entries
    rest = tuple(i for i in range(n) if i != agent)
    idx = np.array(rest)
    coupling = -m[idx, agent]
    coupling_diag = np.diag(coupling)
    reduced = m[np.ix_(idx, idx)] - coupling_diag
    return BlockDecomposition(
        reduced=SquareMatrix(reduced),
        coupling=coupling,
        coupling_diag=SquareMatrix(coupling_diag),
        coupling_total=float(m[agent, agent]),
        agent=agent,
        rest=rest,
    )


def connectivity_differential(
    laplacian: SquareMatrix, variation: SquareMatrix, tol: float = 1e-9
) -> float:
    """Quadratic form fiedler^T @ variation @ fiedler with the unit Fiedler vector.

    The variation must be a valid Laplacian variation: symmetric with rows
    summing to zero within ``tol`` (relative to its largest entry).  Refuses a
    repeated second eigenvalue, where the differential is not well defined.
    """
    if laplacian.order != variation.order:
        raise InvalidVariationError(
            f"orders differ: {laplacian.order} vs {variation.order}"
        )
    d = variation.entries
    scale = max(1.0, float(np.abs(d).max()))
    if float(np.abs(d - d.T).max()) > tol * scale:
        raise InvalidVariationError("variation is not symmetric")
    if float(np.abs(d.sum(axis=1)).max()) > tol * scale:
        raise InvalidVariationError("variation rows do not sum to zero")
    report = algebraic_connectivity(laplacian)
    if not fiedler_is_simple(report):
        raise DegenerateFiedlerError("second eigenvalue is repeated; differential undefined")
    v = report.fiedler
    return float(v @ d @ v)


def laplacian_motion_derivative(
    config: AgentConfiguration, mobile: int, direction: Sequence[float]
) -> SquareMatrix:
    """Derivative of the Laplacian as one agent moves at unit speed along ``direction``.

    Differentiates the in-range exponential weights analytically; out-of-range
    links contribute zero.  At the range boundary itself the in-range branch is
    used (the model is one-sided there).
    """
    pos = config.positions()
    n = len(config.agents)
    if not 0 <= mobile < n:
        raise IndexError(f"agent index {mobile} out of range for order {n}")
    u = np.asarray(direction, dtype=float)
    norm = float(np.hypot(u[0], u[1]))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    u = u / norm
    return SquareMatrix(_motion_derivative(pos, config.sigma, config.comm_range, mobile, u))


def _motion_derivative(
    pos: np.ndarray, sigma: float, comm_range: float, mobile: int, unit: np.ndarray
) -> np.ndarray:
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


@dataclass(frozen=True)
class Circle:
    center: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class MoveSolution:
    """Positions a mobile agent can take without changing any link weight.

    ``alternatives`` always excludes the current position.  With exactly one
    in-range neighbor the whole circle around it is valid and is reported as
    ``circle`` plus sampled witness points; ``free`` means the agent has no
    in-range neighbor at all, so any position out of everyone's range works.
    """

    original: tuple[float, float]
    alternatives: tuple[tuple[float, float], ...]
    preserved_neighbors: tuple[int, ...]
    free: bool = False
    circle: Circle | None = None


def _collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    if points.shape[0] <= 2:
        return True
    base = points[0]
    d = points[1] - base
    d = d / np.hypot(d[0], d[1])
    for p in points[2:]:
        r = p - base
        if abs(d[0] * r[1] - d[1] * r[0]) > tol * max(1.0, float(np.hypot(r[0], r[1]))):
            return False
    return True


def _reflect_across_line(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    d = d / np.hypot(d[0], d[1])
    v = point - a
    return a + 2.0 * float(v @ d) * d - v


def mirror_moves(config: AgentConfiguration, mobile: int) -> MoveSolution:
    """Alternative positions for one agent that leave the Laplacian unchanged.

    Every in-range neighbor pins the agent to a circle; the intersection of the
    circles (minus the current position) is returned, filtered so that no
    previously out-of-range agent comes into range.  Three or more non-collinear
    neighbors pin the agent completely.
    """
    pos = config.positions()
    n = len(config.agents)
    if not 0 <= mobile < n:
        raise IndexError(f"agent index {mobile} out of range for order {n}")
    p0 = pos[mobile]
    comm_range = config.comm_range
    dists = {j: float(np.hypot(*(p0 - pos[j]))) for j in range(n) if j != mobile}
    neighbors = tuple(j for j, dist in sorted(dists.items()) if dist <= comm_range)
    outsiders = tuple(j for j in sorted(dists) if j not in neighbors)
    original = (float(p0[0]), float(p0[1]))

    def keeps_outsiders_out(candidate: np.ndarray) -> bool:
        return all(
            float(np.hypot(*(candidate - pos[j]))) > comm_range for j in outsiders
        )

    if not neighbors:
        return MoveSolution(original, (), (), free=True)

    if len(neighbors) == 1:
        j = neighbors[0]
        center = pos[j]
        radius = dists[j]
        phi0 = math.atan2(p0[1] - center[1], p0[0] - center[0])
        witnesses = []
        count = 8
        for k in range(1, count):
            phi = phi0 + 2.0 * math.pi * k / count
            cand = center + radius * np.array([math.cos(phi), math.sin(phi)])
            if keeps_outsiders_out(cand):
                witnesses.append((float(cand[0]), float(cand[1])))
        return MoveSolution(
            original,
            tuple(witnesses),
            neighbors,
            circle=Circle((float(center[0]), float(center[1])), radius),
        )

    anchor_pts = pos[list(neighbors)]
    if not _collinear(anchor_pts):
        return MoveSolution(original, (), neighbors)
    mirrored = _reflect_across_line(p0, anchor_pts[0], anchor_pts[1])
    scale = max(1.0, float(np.abs(anchor_pts - p0).max()))
    if float(np.hypot(*(mirrored - p0))) <= 1e-9 * scale:
        # Agent sits on the neighbor line: the circles touch instead of crossing.
        return MoveSolution(original, (), neighbors)
    if not keeps_outsiders_out(mirrored):
        return MoveSolution(original, (), neighbors)
    return MoveSolution(original, ((float(mirrored[0]), float(mirrored[1])),), neighbors)


@dataclass(frozen=True)
class PathIntegralResult:
    """Accumulated connectivity change along a path vs the endpoint difference.

    ``integral`` is midpoint quadrature of the connectivity differential along
    the path; ``direct`` re-solves the eigenproblem at both endpoints.  Any
    listed warning means a link crossed the range boundary mid-path, where the
    model jumps and the integral is unreliable.
    """

    integral: float
    direct: float
    warnings: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "integral": self.integral,
            "direct": self.direct,
            "difference": self.integral - self.direct,
            "warnings": list(self.warnings),
        }


def _lambda2_gap_fiedler(lap: np.ndarray) -> tuple[float, float, np.ndarray]:
    # Gap to the nearest neighbor on either side: the second eigenvalue must be
    # simple for its eigenvector (and derivative) to be well defined.
    w, v = _eigh_core(lap)
    gap = float(w[1] - w[0])
    if lap.shape[0] >= 3:
        gap = min(gap, float(w[2] - w[1]))
    return float(w[1]), gap, v[:, 1]


def integrate_connectivity_change(
    config: AgentConfiguration,
    mobile: int,
    waypoints: Sequence[Sequence[float]],
    steps: int,
    gap_tol: float = 1e-6,
) -> PathIntegralResult:
    """Integrate the connectivity differential while one agent walks a polyline.

    ``steps`` midpoint evaluations are spread over the segments by length; the
    direct endpoint difference is returned alongside for comparison.  Aborts if
    the gap isolating the second eigenvalue drops below ``gap_tol`` anywhere
    along the path (the differential stops being well defined), and warns if
    any link crosses the range boundary between evaluations.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    pos = config.positions()
    n = len(config.agents)
    if not 0 <= mobile < n:
        raise IndexError(f"agent index {mobile} out of range for order {n}")
    pts = [np.array([float(w[0]), float(w[1])]) for w in waypoints]
    sigma, comm_range = config.sigma, config.comm_range
    ids = config.ids()

    segments = []
    for a, b in zip(pts, pts[1:]):
        length = float(np.hypot(*(b - a)))
        if length > 0.0:
            segments.append((a, b, length))
    if not segments:
        return PathIntegralResult(0.0, 0.0)

    total = sum(length for _, _, length in segments)

    def lap_at(point: np.ndarray) -> np.ndarray:
        work = pos.copy()
        work[mobile] = point
        return _laplacian_from_positions(work, sigma, comm_range)

    def in_range_flags(point: np.ndarray) -> np.ndarray:
        d = np.hypot(*(pos - point).T)
        flags = d <= comm_range
        flags[mobile] = True
        return flags

    def check_gap(gap: float, where: str) -> None:
        if gap < gap_tol:
            raise DegenerateFiedlerError(
                f"eigenvalue gap {gap:.3e} below {gap_tol:.1e} {where}"
            )

    lam_start, gap, _ = _lambda2_gap_fiedler(lap_at(segments[0][0]))
    check_gap(gap, "at the path start")
    lam_end, gap, _ = _lambda2_gap_fiedler(lap_at(segments[-1][1]))
    check_gap(gap, "at the path end")

    warnings: list[str] = []
    warned: set[int] = set()

    def note_crossings(flags: np.ndarray, new_flags: np.ndarray) -> np.ndarray:
        # One warning per agent, at its first range crossing.
        for j in np.nonzero(new_flags != flags)[0]:
            if j != mobile and j not in warned:
                warned.add(int(j))
                warnings.append(f"range crossing: link to agent {ids[j]!r} changed state mid-path")
        return new_flags

    flags = in_range_flags(segments[0][0])
    integral = 0.0
    for a, b, length in segments:
        unit = (b - a) / length
        count = max(1, round(steps * length / total))
        h = length / count
        for k in range(count):
            mid = a + (k + 0.5) * h * unit
            work = pos.copy()
            work[mobile] = mid
            lap = _laplacian_from_positions(work, sigma, comm_range)
            _, gap, fiedler = _lambda2_gap_fiedler(lap)
            check_gap(gap, f"along the path (arc position {k + 0.5:.1f} of segment)")
            dlap = _motion_derivative(work, sigma, comm_range, mobile, unit)
            integral += float(fiedler @ dlap @ fiedler) * h
            flags = note_crossings(flags, in_range_flags(mid))
    note_crossings(flags, in_range_flags(segments[-1][1]))

    return PathIntegralResult(integral, lam_end - lam_start, tuple(warnings))
