"""A dense four-agent family with two variable link weights, and zone sampling.

The family is the complete graph on four agents where agent 4 is mobile: its
links to agents 1 and 2 carry weights alpha and beta while every other link has
weight 1.  Its connectivity level stays pinned at 4 over part of the parameter
plane, which is what makes "move without changing connectivity" zones possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import (
    EmptyGridError,
    NonFiniteError,
    NonPositiveParameterError,
)
from .matrices import SquareMatrix, _check_tol, _eigh_stack, _stack_slices
from .topology import AgentConfiguration, _check_agent, _moved_laplacians

TARGET_CONNECTIVITY = 4.0


def _check_parameters(alpha: float, beta: float) -> None:
    if not (alpha > 0 and beta > 0):
        raise NonPositiveParameterError(f"parameters must be positive, got ({alpha}, {beta})")


def _dense_family_entries(alpha: float, beta: float) -> np.ndarray:
    return np.array(
        [
            [2.0 + alpha, -1.0, -1.0, -alpha],
            [-1.0, 2.0 + beta, -1.0, -beta],
            [-1.0, -1.0, 3.0, -1.0],
            [-alpha, -beta, -1.0, 1.0 + alpha + beta],
        ]
    )


def dense_family_laplacian(alpha: float, beta: float) -> SquareMatrix:
    """The four-agent complete-graph Laplacian with variable weights alpha, beta."""
    _check_parameters(alpha, beta)
    return SquareMatrix(_dense_family_entries(alpha, beta))


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
    _check_parameters(alpha, beta)
    root = math.sqrt(_discriminant(alpha, beta))
    values = sorted([0.0, 4.0, 2.0 + alpha + beta - root, 2.0 + alpha + beta + root])
    return tuple(values)


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
        return {
            "inequality_holds": self.inequality_holds,
            "lambda2": self.lambda2,
            "lambda2_at_target": self.lambda2_at_target,
            "discrepancy": self.discrepancy,
        }


def dense_family_validity(alpha: float, beta: float, tol: float = 1e-9) -> ValidityCheck:
    """Evaluate the plus-root inequality and cross-check the numeric connectivity.

    ``tol`` must be positive and finite.
    """
    return _validity_check(alpha, beta, tol)


def _validity_check(
    alpha: float, beta: float, tol: float = 1e-9, lambda2: float | None = None
) -> ValidityCheck:
    """``dense_family_validity``, with lambda2 from the caller's own solve if given."""
    _check_tol(tol)
    _check_parameters(alpha, beta)
    root = math.sqrt(_discriminant(alpha, beta))
    inequality_holds = 2.0 + alpha + beta + root > 4.0
    if lambda2 is None:
        # Finite entries: the discriminant would have overflowed first.
        lambda2 = float(_eigh_stack(_dense_family_entries(alpha, beta)[None])[0][0, 1])
    return ValidityCheck(inequality_holds, lambda2, abs(lambda2 - TARGET_CONNECTIVITY) <= tol)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid; positions are the nx-by-ny cell centers."""

    xmin: float
    xmax: float
    ymin: float
    ymax: float
    nx: int
    ny: int

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1 or self.xmax < self.xmin or self.ymax < self.ymin:
            raise EmptyGridError(f"grid has no cells: {self}")
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
        return {
            "xmin": self.xmin,
            "xmax": self.xmax,
            "ymin": self.ymin,
            "ymax": self.ymax,
            "nx": self.nx,
            "ny": self.ny,
        }


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


def iso_connectivity_zone(
    config: AgentConfiguration,
    mobile: int,
    grid: GridSpec,
    target: float | None = None,
    tol: float = 1e-6,
) -> ZoneSample:
    """Scan a grid for mobile-agent positions with connectivity near ``target``.

    Each cell center is tried in row-major order; the default target is the
    configuration's own connectivity level.  Cells that would stack the mobile
    agent on top of another one are never solved, and every cell not accepted
    counts as rejected.  The other cells are taken from the grid one
    fixed-size stack at a time and solved together, each cell bit-identical
    to its own single solve, so memory grows with the accepted points only.
    The default target is one more slice of the first stack, with the mobile
    agent at its own position.  ``tol`` and ``target`` must be finite.
    """
    _check_tol(tol)
    if target is not None and not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    n = len(config.agents)
    _check_agent(mobile, n)
    pos = config.positions()
    fixed = set(map(tuple, np.delete(pos, mobile, axis=0).tolist()))
    cells = (c for c in grid.centers() if c not in fixed)
    per_chunk = _stack_slices(n, vectors=False)
    # The first stack also holds the default target, so it takes one cell
    # less; at one slice per stack (orders above 128) it holds the target only.
    take = per_chunk - (target is None)
    accepted: list[ZonePoint] = []
    while (chunk := list(islice(cells, take))) or target is None:
        take = per_chunk
        placed = np.array(chunk).reshape(-1, 2)
        if target is None:
            placed = np.concatenate([pos[mobile][None], placed])
        laps = _moved_laplacians(pos, mobile, placed, config.sigma, config.comm_range)
        solved = _eigh_stack(laps)[0][:, 1].tolist()
        if target is None:
            target, solved = solved[0], solved[1:]
        for (x, y), lam in zip(chunk, solved):
            if abs(lam - target) <= tol:
                accepted.append(ZonePoint(x, y, lam))
    return ZoneSample(target, tol, grid, tuple(accepted))
