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
from .matrices import (
    SquareMatrix,
    _as_float,
    _as_int,
    _check_tol,
    _eigh_stack,
    _entry_scale,
    _finite_rows,
    _shown,
    _stack_slices,
    _tol_scale,
)
from .spectral import algebraic_connectivity, fiedler_gap
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
    agent = _check_agent(agent, n)
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
    largest entry).  Refuses a ``degenerate`` connectivity report (a repeated
    second eigenvalue, or a disconnected graph), where the differential is not
    well defined, and raises NonFiniteError when the quadratic form overflows
    float64.
    """
    tol = _check_tol(tol)
    if laplacian.order != variation.order:
        raise InvalidVariationError(
            f"orders differ: {laplacian.order} vs {variation.order}"
        )
    d, scale, shift = _tol_scale(variation.entries)
    asymmetry = float(np.abs(d - d.T).max())
    row_sum = float(np.abs(d.sum(axis=1)).max())
    if not asymmetry <= tol * scale:
        raise InvalidVariationError("variation is not symmetric")
    if not row_sum <= tol * scale:
        raise InvalidVariationError("variation rows do not sum to zero")
    report = algebraic_connectivity(laplacian)
    if report.degenerate:
        raise DegenerateFiedlerError("second eigenvalue is repeated; differential undefined")
    v = report.fiedler
    value = float(v @ d @ v) * 2.0**shift
    if not math.isfinite(value):
        raise NonFiniteError(
            f"differential overflows float64: {value} from variation entries up to {scale * 2.0**shift:.6e}"
        )
    return value


def laplacian_motion_derivative(
    config: AgentConfiguration, mobile: int, direction: Sequence[float]
) -> SquareMatrix:
    """Derivative of the Laplacian as one agent moves at unit speed along ``direction``.

    Differentiates the in-range exponential weights analytically, reading
    each weight from the Laplacian (``_link_rates``); out-of-range links
    contribute zero.  At the range boundary itself the in-range branch is
    used (the model is one-sided there).  ``direction`` must be two finite
    numbers, not both zero.
    """
    pos = config.positions()
    mobile = _check_agent(mobile, len(config.agents))
    u = _finite_rows([direction], 1, 2, "direction must be two finite numbers")[0]
    big = float(np.abs(u).max())
    if big == 0.0:
        raise ValueError("direction must be nonzero")
    # Scaling by a power of two is exact: every power-of-two multiple of a direction gives the same unit.
    u = np.ldexp(u, -math.frexp(big)[1])
    u = u / _distances(u[None], np.zeros(2))
    laps = _moved_laplacians(pos, mobile, pos[[mobile]], config.sigma, config.comm_range)
    da = _link_rates(pos, mobile, pos[[mobile]], u[None], laps, config.sigma / config.comm_range)[0]
    # Non-links are exactly +0.0, a link's degree entry 0.0 + da (never -0.0)
    # and the mobile agent's degree their sum, left to right.
    d = np.diag(0.0 + da)
    d[mobile] = d[:, mobile] = np.where(laps[0, mobile] < 0.0, -da, 0.0)
    d[mobile, mobile] = np.cumsum(d.diagonal())[-1]
    return SquareMatrix(d)


def _link_rates(
    pos: np.ndarray, mobile: int, points: np.ndarray, units: np.ndarray, laps: np.ndarray, rate: float
) -> np.ndarray:
    """Rates (G, n) at which the mobile agent's link weights change, at ``points[g]`` moving along ``units[g]``.

    ``pos`` (n, 2) holds the agents, ``laps`` (G, n, n) the Laplacians of
    ``_moved_laplacians`` at ``points`` and ``rate`` is sigma / comm_range.
    Link j's weight w_j = -laps[g, mobile, j] is exp(-rate * d_j), so its
    rate is w_j * (-rate) * (r_j . u) / d_j, with r_j the offset from agent j,
    d_j its ``_distances`` length and the dot written out.  The rate is 0
    where w_j is not positive: no link, or the mobile agent's own (minus
    degree) entry.
    """
    w = -laps[:, mobile]
    g, j = np.nonzero(w > 0.0)
    rel = points[g] - pos[j]
    da = np.zeros(w.shape)
    da[g, j] = w[g, j] * (-rate) * (rel[:, 0] * units[g, 0] + rel[:, 1] * units[g, 1]) / _distances(points[g], pos[j])
    return da


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


def _reflect_across_line(point: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = (b - a) / _distances(b[None], a)[0]
    v = point - a
    return a + 2.0 * float(v[0] * d[0] + v[1] * d[1]) * d - v


# A move must keep every preserved neighbor's distance, and leave the current
# position, to within this fraction of the distances it is judged by.  A circle
# witness rounds to an ulp of its centre: 1e-12 would drop the witnesses of a
# centre some 3e4 radii from the origin, 1e-9 only past about 3e7.
_MOVE_TOL = 1e-9


# A witness or reflection near the float64 limit may overflow; kept() drops it.
@np.errstate(over="ignore", invalid="ignore")
def mirror_moves(config: AgentConfiguration, mobile: int) -> MoveSolution:
    """Alternative positions for one agent that leave the Laplacian unchanged.

    Every in-range neighbor pins the agent to a circle: a candidate is kept
    only if it is finite, has the current position's links, keeps every
    neighbor's distance within ``_MOVE_TOL`` times that distance and lies
    more than ``_MOVE_TOL`` times the shortest one from the current position.
    The candidates are witness points on the circle of a single neighbor, or
    else the reflection across the line of the first two neighbors, which a
    third neighbor off that line refuses.
    """
    pos = config.positions()
    mobile = _check_agent(mobile, len(pos))
    p0 = pos[mobile]
    original = (float(p0[0]), float(p0[1]))

    def links(points: np.ndarray) -> np.ndarray:
        return _moved_laplacians(pos, mobile, points, config.sigma, config.comm_range)[:, mobile] < 0.0

    current = links(p0[None])
    neighbors = tuple(np.nonzero(current[0])[0].tolist())
    if not neighbors:
        return MoveSolution(original, (), ())
    anchors = pos[list(neighbors)]
    radii = _distances(p0, anchors)

    def kept(candidates: np.ndarray) -> tuple[tuple[float, float], ...]:
        keep = np.isfinite(candidates).all(axis=1) & (links(candidates) == current).all(axis=1)
        keep &= (np.abs(_distances(candidates[:, None], anchors) - radii) <= _MOVE_TOL * radii).all(axis=1)
        keep &= _distances(candidates, p0) > _MOVE_TOL * radii.min()
        return tuple(map(tuple, candidates[keep].tolist()))

    if len(neighbors) > 1:
        return MoveSolution(original, kept(_reflect_across_line(p0, anchors[0], anchors[1])[None]), neighbors)
    center, radius = anchors[0], float(radii[0])
    phi0 = math.atan2(p0[1] - center[1], p0[0] - center[0])
    phis = [phi0 + 2.0 * math.pi * k / 8 for k in range(1, 8)]
    cands = center + radius * np.array([[math.cos(phi), math.sin(phi)] for phi in phis])
    return MoveSolution(original, kept(cands), neighbors, circle=Circle((float(center[0]), float(center[1])), radius))


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


# Most midpoint evaluations a path may ask for: more buy nothing.  With the
# agents and path of the two-crossings CLI example at range 100, where no link
# crosses the range, the midpoint rule's error falls as about 2.5e-4 / steps^2
# and meets the rounding of the sequential sum (1e-17 to 2e-16) near 2^21
# steps.  At range 4 the two crossings make it up to about 3e-4 / steps, some
# 2e-11 at 2^24 steps, where the crossings' own jumps, which no step count
# sees, are 8.5e-5.  A count of 1e18 used to run until killed; 2^24 steps of
# that order-8 path take about 11 minutes on a 2-CPU x86-64 host.
_MAX_STEPS = 1 << 24


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

    ``steps`` midpoint evaluations, an integer from 1 to 2**24, are spread
    over the segments by length; the direct endpoint difference is returned
    alongside for comparison.  Aborts if ``fiedler_gap``, the gap isolating
    the second eigenvalue, drops below ``gap_tol`` times the Laplacian's
    ``max(1, largest |entry|)`` anywhere along the path (checked at the start,
    then the end, then the midpoints in path order), and warns if any link
    crosses the range boundary between evaluations (one warning per agent, in
    the order of first crossings).  ``gap_tol`` must be positive and finite.
    Each waypoint must be two finite numbers (x, y), and no midpoint may land
    exactly on a fixed agent (CoincidentAgentsError), where the derivative is
    undefined.

    The end points and midpoints are solved in stacks of bounded size, so
    memory does not grow with ``steps``.  A stack's solves, link rates, range
    flags, gap checks and quadrature forms are array operations, each
    bit-identical to its point-by-point form.  A point's form f^T (dL) f is
    the sum over agents j, left to right, of link j's rate times
    (f_j - f_mobile)^2, so no dot product runs through BLAS; the quadrature
    sum runs point by point, in path order.
    """
    steps = _as_int(steps, "steps")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if steps > _MAX_STEPS:
        raise ValueError(f"steps must be at most 2**24, got {_shown(steps)}")
    gap_tol = _check_tol(gap_tol, "gap_tol")
    pos = config.positions()
    n = len(config.agents)
    mobile = _check_agent(mobile, n)
    rows = []
    try:
        for i, w in enumerate(waypoints):
            if len(w) != 2:
                raise ValueError(f"waypoint {i} must be two numbers (x, y), got length {len(w)}")
            rows.append([_as_float(w[0], f"waypoint {i} x"), _as_float(w[1], f"waypoint {i} y")])
    except (TypeError, KeyError):  # not iterable, or a waypoint without a length or an index
        raise ValueError("waypoints must be a sequence of (x, y) pairs") from None
    pts = np.array(rows).reshape(-1, 2)
    for i, point in enumerate(pts):
        if not np.isfinite(point).all():
            raise NonFiniteError(f"waypoint {i} is not finite: {point.tolist()}")
    sigma, comm_range = config.sigma, config.comm_range
    ids = config.ids()

    lengths = _distances(pts[1:], pts[:-1])
    moves = lengths > 0.0
    if not moves.any():
        return PathIntegralResult(0.0, 0.0)
    seg_start, seg_end, seg_len = pts[:-1][moves], pts[1:][moves], lengths[moves]
    total = sum(seg_len.tolist())
    if not math.isfinite(steps * total):
        raise NonFiniteError(f"path length {total:.3e} times {steps} steps overflows")

    # The schedule: both ends, then every midpoint in path order.  Midpoint k
    # of segment s lies (k + 0.5) * seg_h[s] along seg_unit[s] from its start.
    counts = [max(1, round(steps * length / total)) for length in seg_len.tolist()]
    seg_first = np.cumsum([0] + counts)
    seg_unit = (seg_end - seg_start) / seg_len[:, None]
    seg_h = seg_len / counts
    ends_xy = np.array([seg_start[0], seg_end[-1]])
    start_flags, end_flags = _moved_laplacians(pos, mobile, ends_xy, sigma, comm_range)[:, mobile] < 0.0
    end_labels = ("at the path start", "at the path end")
    crossed: dict[int, None] = {}  # agents whose link changes state, in first-crossing order

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
        bounds = gap_tol * _entry_scale(laps, axis=(1, 2))
        touching = (points[n_ends:, None, :] == pos).all(axis=-1) & linked[n_ends:]
        failing = gaps < bounds
        failing[n_ends:] |= touching.any(axis=1)
        if failing.any():
            i = int(np.argmax(failing))
            if i < n_ends:
                where = end_labels[lo + i]
            else:
                where = f"along the path (arc position {float(arcs[i - n_ends]):.1f} of segment)"
            if gaps[i] < bounds[i]:
                raise DegenerateFiedlerError(
                    f"eigenvalue gap {float(gaps[i]):.3e} below {float(bounds[i]):.3e} {where}"
                )
            j = int(np.argmax(touching[i - n_ends]))
            raise CoincidentAgentsError(f"agents {ids[mobile]!r} and {ids[j]!r} coincide {where}")
        ends += values[:n_ends, 1].tolist()

        # An agent's flag equals its start flag until its first change, so
        # comparing each point with the start finds the same first crossings
        # as comparing consecutive points.
        crossed.update(dict.fromkeys(np.nonzero(linked[n_ends:] != start_flags)[1].tolist()))
        rates = _link_rates(pos, mobile, points[n_ends:], unit, laps[n_ends:], sigma / comm_range)
        fiedler = vectors[n_ends:, :, 1]
        # f^T (dL) f = sum_j da_j (f_j - f_mobile)^2, summed in agent order.
        spread = fiedler - fiedler[:, mobile, None]
        forms = np.cumsum(rates * (spread * spread), axis=1)[:, -1]
        for step in (forms * h).tolist():
            integral += step
    crossed.update(dict.fromkeys(np.nonzero(end_flags != start_flags)[0].tolist()))

    lam_start, lam_end = ends
    warnings = tuple(f"range crossing: link to agent {ids[j]!r} changed state mid-path" for j in crossed)
    return PathIntegralResult(integral, lam_end - lam_start, warnings)
