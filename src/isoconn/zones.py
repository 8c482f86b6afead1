"""A dense four-agent family with two variable link weights, and zone sampling.

The family is the complete graph on four agents where agent 4 is mobile: its
links to agents 1 and 2 carry weights alpha and beta while every other link has
weight 1.  Its connectivity level stays pinned at 4 over part of the parameter
plane, which is what makes "move without changing connectivity" zones possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyGridError,
    NegativeDiscriminantError,
    NonPositiveParameterError,
)
from .matrices import SquareMatrix, _eigh_core, _eigvals_stack
from .topology import AgentConfiguration, _laplacian_from_positions, build_laplacian

TARGET_CONNECTIVITY = 4.0
# Matrix entries per solved zone-scan stack (256 KiB): bounds a scan's memory
# whatever its grid or order.
_ZONE_CHUNK_ENTRIES = 1 << 15


def _check_parameters(alpha: float, beta: float) -> None:
    if not (alpha > 0 and beta > 0):
        raise NonPositiveParameterError(f"parameters must be positive, got ({alpha}, {beta})")


def dense_family_laplacian(alpha: float, beta: float) -> SquareMatrix:
    """The four-agent complete-graph Laplacian with variable weights alpha, beta."""
    _check_parameters(alpha, beta)
    return SquareMatrix(
        np.array(
            [
                [2.0 + alpha, -1.0, -1.0, -alpha],
                [-1.0, 2.0 + beta, -1.0, -beta],
                [-1.0, -1.0, 3.0, -1.0],
                [-alpha, -beta, -1.0, 1.0 + alpha + beta],
            ]
        )
    )


def _discriminant(alpha: float, beta: float) -> float:
    # Equals 1 - a + a^2 - b - a*b + b^2, written as a sum of squares so
    # rounding can never push it negative.
    return ((2.0 * alpha - beta - 1.0) ** 2 + 3.0 * (beta - 1.0) ** 2) / 4.0


def dense_family_spectrum(alpha: float, beta: float) -> tuple[float, float, float, float]:
    """Closed-form spectrum of the family: {0, 4, 2+a+b +/- sqrt(disc)} ascending."""
    _check_parameters(alpha, beta)
    disc = _discriminant(alpha, beta)
    if disc < 0:
        raise NegativeDiscriminantError(f"discriminant {disc} < 0 at ({alpha}, {beta})")
    root = math.sqrt(disc)
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
    discrepancy: bool

    def to_json_dict(self) -> dict:
        return {
            "inequality_holds": self.inequality_holds,
            "lambda2": self.lambda2,
            "lambda2_at_target": self.lambda2_at_target,
            "discrepancy": self.discrepancy,
        }


def dense_family_validity(alpha: float, beta: float, tol: float = 1e-9) -> ValidityCheck:
    """Evaluate the plus-root inequality and cross-check the numeric connectivity."""
    _check_parameters(alpha, beta)
    root = math.sqrt(_discriminant(alpha, beta))
    inequality_holds = 2.0 + alpha + beta + root > 4.0
    w, _ = _eigh_core(dense_family_laplacian(alpha, beta).entries)
    lambda2 = float(w[1])
    at_target = abs(lambda2 - TARGET_CONNECTIVITY) <= tol
    return ValidityCheck(
        inequality_holds=inequality_holds,
        lambda2=lambda2,
        lambda2_at_target=at_target,
        discrepancy=inequality_holds and not at_target,
    )


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

    def centers(self):
        """Cell centers in deterministic row-major order (y rows ascending, x within)."""
        dx = (self.xmax - self.xmin) / self.nx
        dy = (self.ymax - self.ymin) / self.ny
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
    rejected_count: int

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
    agent on top of another one are counted as rejected.  The other cells are
    solved together in fixed-size stacks, each cell bit-identical to its own
    single solve.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    n = len(config.agents)
    if not 0 <= mobile < n:
        raise IndexError(f"agent index {mobile} out of range for order {n}")
    pos = config.positions()
    if target is None:
        w, _ = _eigh_core(build_laplacian(config).entries)
        target = float(w[1])
    cells = list(grid.centers())
    others = np.delete(pos, mobile, axis=0)
    points = np.array(cells)
    coincident = (points[:, None, :] == others[None, :, :]).all(axis=-1).any(axis=-1)
    live = np.nonzero(~coincident)[0]
    lam2 = np.full(len(cells), np.nan)  # stays NaN on coincident cells
    per_chunk = max(1, _ZONE_CHUNK_ENTRIES // (n * n))
    for start in range(0, live.size, per_chunk):
        chunk = live[start:start + per_chunk]
        work = np.repeat(pos[None], chunk.size, axis=0)
        work[:, mobile] = points[chunk]
        laps = _laplacian_from_positions(work, config.sigma, config.comm_range)
        lam2[chunk] = _eigvals_stack(laps)[:, 1]
    accepted: list[ZonePoint] = []
    rejected = 0
    for (x, y), skip, lam in zip(cells, coincident.tolist(), lam2.tolist()):
        if not skip and abs(lam - target) <= tol:
            accepted.append(ZonePoint(x, y, lam))
        else:
            rejected += 1
    return ZoneSample(target, tol, grid, tuple(accepted), rejected)
