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
    CoincidentAgentsError,
    DegenerateFiedlerError,
    InvalidVariationError,
    NonFiniteError,
    NotLaplacianError,
    OrderTooSmallError,
)
from .matrices import SquareMatrix, _check_tol, _eigh_stack, _stack_slices
from .spectral import algebraic_connectivity, fiedler_gap, fiedler_is_simple
from .topology import AgentConfiguration, _check_agent, _distances, _moved_laplacians, validate_laplacian


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
    coupling_total: float
    agent: int

    def __post_init__(self):
        arr = np.array(self.coupling, dtype=float)
        arr.flags.writeable = False
        object.__setattr__(self, "coupling", arr)

    @property
    def coupling_diag(self) -> SquareMatrix:
        return SquareMatrix(np.diag(self.coupling))

    @property
    def rest(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.reduced.order + 1) if i != self.agent)

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
    """Split a Laplacian around one agent; the order must be at least 2."""
    n = laplacian.order
    if n < 2:
        raise OrderTooSmallError("block decomposition needs order >= 2")
    _check_agent(agent, n)
    if not validate_laplacian(laplacian, 1e-9).passed:
        raise NotLaplacianError("matrix fails structural Laplacian validation")
    m = laplacian.entries
    rest = tuple(i for i in range(n) if i != agent)
    idx = np.array(rest)
    coupling = -m[idx, agent]
    reduced = m[np.ix_(idx, idx)] - np.diag(coupling)
    return BlockDecomposition(
        reduced=SquareMatrix(reduced),
        coupling=coupling,
        coupling_total=float(m[agent, agent]),
        agent=agent,
    )


def connectivity_differential(
    laplacian: SquareMatrix, variation: SquareMatrix, tol: float = 1e-9
) -> float:
    """Quadratic form fiedler^T @ variation @ fiedler with the unit Fiedler vector.

    The variation must be a valid Laplacian variation: symmetric with rows
    summing to zero within ``tol`` (positive and finite, relative to its
    largest entry).  Refuses a repeated second eigenvalue, where the
    differential is not well defined, and raises NonFiniteError when the
    quadratic form overflows float64.
    """
    _check_tol(tol)
    if laplacian.order != variation.order:
        raise InvalidVariationError(
            f"orders differ: {laplacian.order} vs {variation.order}"
        )
    d = variation.entries
    scale = max(1.0, float(np.abs(d).max()))
    # Partial sums of entries near the float64 limit overflow where the true
    # sums do not: a variation with an entry above 2^1000 is checked and
    # contracted scaled by an exact power of two, and the form scaled back.
    shift = math.frexp(scale)[1] if scale > 2.0**1000 else 0
    d = np.ldexp(d, -shift)
    bound = tol * math.ldexp(scale, -shift)
    asymmetry = float(np.abs(d - d.T).max())
    row_sum = float(np.abs(d.sum(axis=1)).max())
    if not asymmetry <= bound:
        raise InvalidVariationError("variation is not symmetric")
    if not row_sum <= bound:
        raise InvalidVariationError("variation rows do not sum to zero")
    report = algebraic_connectivity(laplacian)
    if not fiedler_is_simple(report):
        raise DegenerateFiedlerError("second eigenvalue is repeated; differential undefined")
    v = report.fiedler
    with np.errstate(over="ignore"):
        value = float(np.ldexp(v @ d @ v, shift))
    if not math.isfinite(value):
        raise NonFiniteError(
            f"differential overflows float64: {value} from variation entries up to {scale:.6e}"
        )
    return value


def laplacian_motion_derivative(
    config: AgentConfiguration, mobile: int, direction: Sequence[float]
) -> SquareMatrix:
    """Derivative of the Laplacian as one agent moves at unit speed along ``direction``.

    Differentiates the in-range exponential weights analytically; out-of-range
    links contribute zero.  At the range boundary itself the in-range branch is
    used (the model is one-sided there).
    """
    pos = config.positions()
    _check_agent(mobile, len(config.agents))
    u = np.asarray(direction, dtype=float)
    norm = float(np.hypot(u[0], u[1]))
    if norm == 0.0:
        raise ValueError("direction must be nonzero")
    u = u / norm
    linked = _moved_laplacians(pos, mobile, pos[[mobile]], config.sigma, config.comm_range)[:, mobile] < 0.0
    rate = config.sigma / config.comm_range
    return SquareMatrix(_motion_derivative_stack(pos, mobile, pos[[mobile]], u[None], linked, rate)[0])


def _motion_derivative_stack(
    pos: np.ndarray, mobile: int, points: np.ndarray, units: np.ndarray, linked: np.ndarray, rate: float
) -> np.ndarray:
    """Laplacian derivatives (G, n, n) of ``pos`` (n, 2) with agent ``mobile`` at ``points[g]`` moving along ``units[g]``.

    ``linked`` (G, n) flags its links, the negative entries of its row in
    ``_moved_laplacians``; ``rate`` is sigma / comm_range.  Each slice is
    bit-identical to differentiating those links one at a time in agent
    order: ``math.exp`` per link (``np.exp`` rounds differently),
    ``np.vecdot`` for the 2-vector dot (the BLAS dot of ``rel @ unit``; a
    multiply-and-add rounds differently), the link's degree entries as
    ``0.0 + da`` (no negative zero) and the mobile agent's degree summed left
    to right.
    """
    g_count, n = len(points), len(pos)
    g, j = np.nonzero(linked)
    rel = points[g] - pos[j]
    dist = np.hypot(rel[:, 0], rel[:, 1])
    decay = np.array(list(map(math.exp, ((-rate) * dist).tolist())))
    da = decay * (-rate) * np.vecdot(rel, units[g]) / dist
    d = np.zeros((g_count, n, n))
    d[g, j, j] = 0.0 + da
    d[g, j, mobile] = -da
    d[g, mobile, j] = -da
    diag = np.arange(n)
    d[:, mobile, mobile] = np.cumsum(d[:, diag, diag], axis=1)[:, -1]
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
    circle: Circle | None = None

    @property
    def free(self) -> bool:
        return not self.preserved_neighbors


def _collinear(points: np.ndarray, tol: float = 1e-9) -> bool:
    if points.shape[0] <= 2:
        return True
    base = points[0]
    d = points[1] - base
    d = d / np.hypot(d[0], d[1])
    for p in points[2:]:
        r = p - base
        if not abs(d[0] * r[1] - d[1] * r[0]) <= tol * max(1.0, float(np.hypot(r[0], r[1]))):
            return False
    return True


def _reflect_across_line(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = b - a
    d = d / np.hypot(d[0], d[1])
    v = point - a
    return a + 2.0 * float(v @ d) * d - v


# A witness or reflection near the float64 limit may overflow; kept() drops it.
@np.errstate(over="ignore", invalid="ignore")
def mirror_moves(config: AgentConfiguration, mobile: int) -> MoveSolution:
    """Alternative positions for one agent that leave the Laplacian unchanged.

    Every in-range neighbor pins the agent to a circle; the intersection of the
    circles (minus the current position) is returned, keeping only finite
    candidates with the current position's links.  Three or more
    non-collinear neighbors pin the agent completely.
    """
    pos = config.positions()
    _check_agent(mobile, len(pos))
    p0 = pos[mobile]
    original = (float(p0[0]), float(p0[1]))

    def links(points: np.ndarray) -> np.ndarray:
        return _moved_laplacians(pos, mobile, points, config.sigma, config.comm_range)[:, mobile] < 0.0

    current = links(p0[None])
    neighbors = tuple(np.nonzero(current[0])[0].tolist())

    def kept(candidates: np.ndarray) -> tuple[tuple[float, float], ...]:
        same = (links(candidates) == current).all(axis=1)
        return tuple(map(tuple, candidates[np.isfinite(candidates).all(axis=1) & same].tolist()))

    if not neighbors:
        return MoveSolution(original, (), ())

    if len(neighbors) == 1:
        center = pos[neighbors[0]]
        radius = float(_distances(p0[None], center[None])[0])
        phi0 = math.atan2(p0[1] - center[1], p0[0] - center[0])
        phis = [phi0 + 2.0 * math.pi * k / 8 for k in range(1, 8)]
        cands = center + radius * np.array([[math.cos(phi), math.sin(phi)] for phi in phis])
        return MoveSolution(
            original,
            kept(cands),
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
    return MoveSolution(original, kept(mirrored[None]), neighbors)


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


# Waypoints near the float64 limit overflow their differences to inf: the
# path length check then refuses the path.
@np.errstate(over="ignore")
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
    along the path (checked at the start, then the end, then the midpoints in
    path order), and warns if any link crosses the range boundary between
    evaluations.  ``gap_tol`` must be positive and finite.  Waypoints must be
    finite, and no midpoint may land exactly on a fixed agent
    (CoincidentAgentsError), where the derivative is undefined.

    The end points and midpoints are solved in stacks of bounded size, so
    memory does not grow with ``steps``.  A stack's solves, derivatives, range
    flags, gap checks and quadrature forms are array operations, each
    bit-identical to its point-by-point form; only the quadrature sum runs
    point by point, in path order.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps >= 2**62:
        # The schedule indexes its midpoints with int64.
        raise ValueError(f"steps must be below 2**62, got {steps}")
    _check_tol(gap_tol)
    pos = config.positions()
    n = len(config.agents)
    _check_agent(mobile, n)
    pts = [np.array([float(w[0]), float(w[1])]) for w in waypoints]
    for i, point in enumerate(pts):
        if not np.isfinite(point).all():
            raise NonFiniteError(f"waypoint {i} is not finite: {point.tolist()}")
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
    if not math.isfinite(steps * total):
        raise NonFiniteError(f"path length {total:.3e} times {steps} steps overflows")

    # The schedule: both ends, then every midpoint in path order.  Midpoint k
    # of segment s lies (k + 0.5) * seg_h[s] along seg_unit[s] from its start.
    counts = [max(1, round(steps * length / total)) for _, _, length in segments]
    seg_first = np.cumsum([0] + counts)
    seg_start = np.array([a for a, _, _ in segments])
    seg_unit = np.array([(b - a) / length for a, b, length in segments])
    seg_h = np.array([length / count for (_, _, length), count in zip(segments, counts)])
    ends_xy = np.array([segments[0][0], segments[-1][1]])
    start_flags, end_flags = _moved_laplacians(pos, mobile, ends_xy, sigma, comm_range)[:, mobile] < 0.0
    end_labels = ("at the path start", "at the path end")

    warnings: list[str] = []
    warned: set[int] = set()

    def note_crossings(agents: np.ndarray) -> None:
        # One warning per agent, at its first range crossing, in path order.
        for j in agents.tolist():
            if j not in warned:
                warned.add(j)
                warnings.append(f"range crossing: link to agent {ids[j]!r} changed state mid-path")

    per_stack = _stack_slices(n, vectors=True)
    size = 2 + int(seg_first[-1])
    ends: list[float] = []
    integral = 0.0
    for lo in range(0, size, per_stack):
        hi = min(lo + per_stack, size)
        mid = np.arange(max(lo, 2), hi) - 2
        seg = np.searchsorted(seg_first, mid, side="right") - 1
        arcs = (mid - seg_first[seg]) + 0.5
        h, unit = seg_h[seg], seg_unit[seg]
        points = np.concatenate([ends_xy[lo:min(hi, 2)], seg_start[seg] + (arcs * h)[:, None] * unit])
        n_ends = len(points) - len(mid)
        laps = _moved_laplacians(pos, mobile, points, sigma, comm_range)
        linked = laps[:, mobile] < 0.0
        values, vectors = _eigh_stack(laps, vectors=True)

        # The first failing point in path order: its gap, then (midpoints
        # only) a linked agent at its coordinates, where the derivative is undefined.
        gaps = fiedler_gap(values)
        touching = (points[n_ends:, None, :] == pos).all(axis=-1) & linked[n_ends:]
        failing = gaps < gap_tol
        failing[n_ends:] |= touching.any(axis=1)
        if failing.any():
            i = int(np.argmax(failing))
            if i < n_ends:
                where = end_labels[lo + i]
            else:
                where = f"along the path (arc position {float(arcs[i - n_ends]):.1f} of segment)"
            if gaps[i] < gap_tol:
                raise DegenerateFiedlerError(f"eigenvalue gap {float(gaps[i]):.3e} below {gap_tol:.1e} {where}")
            j = int(np.argmax(touching[i - n_ends]))
            raise CoincidentAgentsError(f"agents {ids[mobile]!r} and {ids[j]!r} coincide {where}")
        ends += values[:n_ends, 1].tolist()

        # An agent's flag equals its start flag until its first change, so
        # comparing each point with the start finds the same first crossings
        # as comparing consecutive points.
        note_crossings(np.nonzero(linked[n_ends:] != start_flags)[1])
        dlap = _motion_derivative_stack(pos, mobile, points[n_ends:], unit, linked[n_ends:], sigma / comm_range)
        fiedler = vectors[n_ends:, :, 1]
        # fiedler^T dlap fiedler, rounded as the 2-d product of one point.
        forms = np.vecdot((fiedler[:, None, :] @ dlap)[:, 0, :], fiedler)
        for step in (forms * h).tolist():
            integral += step
    note_crossings(np.nonzero(end_flags != start_flags)[0])

    lam_start, lam_end = ends
    return PathIntegralResult(integral, lam_end - lam_start, tuple(warnings))
