"""A dense four-agent family with two variable link weights, and zone sampling.

The family is the complete graph on four agents where agent 4 is mobile: its
links to agents 1 and 2 carry weights alpha and beta while every other link has
weight 1.  Its connectivity level stays pinned at 4 over part of the parameter
plane, which is what makes "move without changing connectivity" zones possible.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from .errors import (
    EmptyGridError,
    NonFiniteError,
    NonPositiveParameterError,
)
from .matrices import (
    SquareMatrix,
    _as_float,
    _as_int,
    _check_tol,
    _count_below,
    _eigh_stack,
    _entry_scale,
    _list_eigenvalues,
    _shown,
    _stack_slices,
)
from .topology import AgentConfiguration, _check_agent, _moved_laplacians

TARGET_CONNECTIVITY = 4.0
# Most cells a grid may have: a zone scan builds every cell, so more would
# ask for unbounded work the way an unbounded path step count did.
_MAX_CELLS = 1 << 24


def _check_parameters(alpha: float, beta: float) -> tuple[float, float]:
    """The parameters as Python floats by the float rule, positive and finite."""
    alpha, beta = _as_float(alpha, "alpha"), _as_float(beta, "beta")
    if not (alpha > 0 and beta > 0):
        raise NonPositiveParameterError(f"parameters must be positive, got ({alpha}, {beta})")
    if not (math.isfinite(alpha) and math.isfinite(beta)):
        raise NonFiniteError(f"parameters overflow float64: ({alpha}, {beta})")
    return alpha, beta


def _dense_family_entries(alpha: float, beta: float) -> list[list[float]]:
    """The family's rows as nested lists of floats, the form ``_list_eigenvalues`` takes."""
    return [
        [2.0 + alpha, -1.0, -1.0, -alpha],
        [-1.0, 2.0 + beta, -1.0, -beta],
        [-1.0, -1.0, 3.0, -1.0],
        [-alpha, -beta, -1.0, 1.0 + alpha + beta],
    ]


def dense_family_laplacian(alpha: float, beta: float) -> SquareMatrix:
    """The four-agent complete-graph Laplacian with variable weights alpha, beta."""
    return SquareMatrix(_dense_family_entries(*_check_parameters(alpha, beta)))


def _discriminant(alpha: float, beta: float) -> float:
    # Equals 1 - a + a^2 - b - a*b + b^2, written as a sum of squares so
    # rounding can never push it negative.
    try:
        disc = ((2.0 * alpha - beta - 1.0) ** 2 + 3.0 * (beta - 1.0) ** 2) / 4.0
    except OverflowError:  # a float square above the float64 range
        disc = math.inf
    if not math.isfinite(disc):
        raise NonFiniteError(f"discriminant overflows float64 at ({alpha}, {beta})")
    return disc


def dense_family_spectrum(alpha: float, beta: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum of the family: {0, 4, 2+a+b +/- sqrt(disc)} ascending."""
    alpha, beta = _check_parameters(alpha, beta)
    plus = 2.0 + alpha + beta + math.sqrt(_discriminant(alpha, beta))
    # The minus root as the product of the roots over the plus root, where
    # 2 + a + b - sqrt(disc) would cancel.  3ab stays finite: the finite sum
    # of squares 4 disc is at least 4 (a - 1)(b - 1).
    minus = (3.0 + 5.0 * alpha + 5.0 * beta + 3.0 * alpha * beta) / plus
    return tuple(sorted([0.0, 4.0, minus, plus]))


@dataclass(frozen=True)
class ValidityCheck:
    """Verdict of the plus-root inequality against the actual connectivity level.

    ``inequality_holds`` is the simple test 2+a+b+sqrt(disc) > 4.  The level
    stays at 4 exactly when a >= 1 and b >= 1, and the test is not equivalent
    to that: when one parameter is below 1 and the other above 1, the minus
    root drops under 4 and the connectivity level moves even though the
    inequality still holds.  ``discrepancy`` flags those points.  At (1, 1)
    the verdicts differ the other way: 4 is a triple eigenvalue, so the level
    is at target, but the inequality fails; ``discrepancy`` stays unset there.
    """

    inequality_holds: bool
    lambda2: float
    lambda2_at_target: bool

    @property
    def discrepancy(self) -> bool:
        return self.inequality_holds and not self.lambda2_at_target

    def to_json_dict(self) -> dict:
        return asdict(self) | {"discrepancy": self.discrepancy}


def dense_family_validity(alpha: float, beta: float, tol: float = 1e-9) -> ValidityCheck:
    """Evaluate the plus-root inequality and cross-check the numeric connectivity.

    ``tol`` must be positive and finite.
    """
    return _validity_check(alpha, beta, tol)


def _validity_check(
    alpha: float, beta: float, tol: float = 1e-9, lambda2: float | None = None
) -> ValidityCheck:
    """``dense_family_validity``, with lambda2 from the caller's own solve if given."""
    tol = _check_tol(tol)
    alpha, beta = _check_parameters(alpha, beta)
    root = math.sqrt(_discriminant(alpha, beta))
    inequality_holds = 2.0 + alpha + beta + root > 4.0
    if lambda2 is None:
        # Finite entries: the discriminant would have overflowed first.
        lambda2 = _list_eigenvalues(_dense_family_entries(alpha, beta))[1]
    return ValidityCheck(inequality_holds, lambda2, abs(lambda2 - TARGET_CONNECTIVITY) <= tol)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid; positions are the nx-by-ny cell centers.

    Bounds are stored as Python floats by the float rule, and the grid has at
    most 2**24 cells.
    """

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        for name in ("nx", "ny"):
            object.__setattr__(self, name, _as_int(getattr(self, name), name))
        for name in ("xmin", "xmax", "ymin", "ymax"):
            object.__setattr__(self, name, _as_float(getattr(self, name), name))
        if self.nx < 1 or self.ny < 1 or self.xmax < self.xmin or self.ymax < self.ymin:
            raise EmptyGridError(
                f"grid has no cells: {_shown(self.nx)} x {_shown(self.ny)} cells"
                f" over x [{self.xmin}, {self.xmax}], y [{self.ymin}, {self.ymax}]"
            )
        if self.nx * self.ny > _MAX_CELLS:
            raise ValueError(f"grid must have at most 2**24 cells, got {_shown(self.nx)} x {_shown(self.ny)}")
        if not all(map(math.isfinite, (self.xmin, self.xmax, self.ymin, self.ymax))):
            raise NonFiniteError(f"grid bounds must be finite: {self}")
        if not all(map(math.isfinite, self._cell_size())):
            raise NonFiniteError(f"grid cell size overflows float64: {self}")

    def _cell_size(self) -> tuple[float, float]:
        return (self.xmax - self.xmin) / self.nx, (self.ymax - self.ymin) / self.ny

    def centers(self):
        """Cell centers in deterministic row-major order (y rows ascending, x within)."""
        dx, dy = self._cell_size()
        for iy in range(self.ny):
            y = self.ymin + (iy + 0.5) * dy
            for ix in range(self.nx):
                yield self.xmin + (ix + 0.5) * dx, y

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ZonePoint:
    x: float
    y: float
    lambda2: float


@dataclass(frozen=True)
class ZoneSample:
    """Grid scan of positions where the mobile agent keeps a target connectivity."""

    target: float
    tol: float
    grid: GridSpec
    accepted: tuple[ZonePoint, ...]

    @property
    def rejected_count(self) -> int:
        return self.grid.nx * self.grid.ny - len(self.accepted)

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "tol": self.tol,
            "grid": self.grid.to_json_dict(),
            "accepted": [
                {"x": p.x, "y": p.y, "lambda2": p.lambda2} for p in self.accepted
            ],
            "rejected_count": self.rejected_count,
        }


def _may_accept(laps: np.ndarray, target: float, tol: float) -> np.ndarray:
    """Mask of the (G, n, n) stack's cells whose lambda2 may lie within ``tol`` of ``target``.

    Every other cell is certified to lie more than m / 2 outside the band,
    m = 1e-9 * ``_entry_scale`` of its Laplacian: it has at most one
    eigenvalue below target + tol + m, or at least two below target - tol - m,
    each count certified by ``_count_below`` to within m / 2.  The solve's own
    error in lambda2, about 1e-14 * ||L||_F, is far below m / 4, and so is
    the rounding of the shifts and of the acceptance test, under
    2^-51 (|target| + tol + m), while |target| + tol <= 2^40 m; so no cell
    the solve would accept is dropped.  Past that bound every cell is kept.
    """
    m = 1e-9 * _entry_scale(laps, axis=(1, 2))
    below_hi, below_lo = _count_below(laps, np.stack([target + tol + m, target - tol - m]), m)
    return (below_hi < 0) | ((below_hi >= 2) & (below_lo < 2)) | (abs(target) + tol > 2.0**40 * m)


def iso_connectivity_zone(
    config: AgentConfiguration,
    mobile: int,
    grid: GridSpec,
    target: float | None = None,
    tol: float = 1e-6,
) -> ZoneSample:
    """Scan a grid for mobile-agent positions with connectivity near ``target``.

    Each cell center is tried in row-major order; the default target is the
    configuration's own connectivity level, solved first on its own.  Cells
    that would stack the mobile agent on top of another one are never solved,
    and every cell not accepted counts as rejected.  The other cells are
    taken from the grid one fixed-size stack at a time.  An eigenvalue count
    of each cell's shifted Laplacian (``_count_below``) rejects the cells
    whose lambda2 is certified to lie outside the band; the rest are solved
    together, each cell bit-identical to its own single solve, so memory
    grows with the accepted points only.  ``tol`` and ``target`` must be
    finite.
    """
    tol = _check_tol(tol)
    if target is not None:
        target = _as_float(target, "target")
        if not math.isfinite(target):
            raise ValueError(f"target must be finite, got {target}")
    n = len(config.agents)
    mobile = _check_agent(mobile, n)
    pos = config.positions()
    fixed = set(map(tuple, np.delete(pos, mobile, axis=0).tolist()))
    cells = (c for c in grid.centers() if c not in fixed)
    if target is None:
        own = _moved_laplacians(pos, mobile, pos[mobile][None], config.sigma, config.comm_range)
        target = _eigh_stack(own)[0][0, 1].item()
    per_chunk = _stack_slices(n, vectors=False)
    accepted: list[ZonePoint] = []
    while chunk := list(islice(cells, per_chunk)):
        laps = _moved_laplacians(pos, mobile, np.array(chunk), config.sigma, config.comm_range)
        keep = np.flatnonzero(_may_accept(laps, target, tol))
        if not keep.size:
            continue
        for i, lam in zip(keep.tolist(), _eigh_stack(laps[keep])[0][:, 1].tolist()):
            if abs(lam - target) <= tol:
                accepted.append(ZonePoint(*chunk[i], lam))
    return ZoneSample(target, tol, grid, tuple(accepted))
