"""Connectivity-level analysis: algebraic connectivity, Fiedler vectors, spectrum tests."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateFiedlerError, NotLaplacianError, OrderMismatchError
from .matrices import SYMMETRY_TOL, SquareMatrix, _check_symmetric, _check_tol, _symmetric_eigenvalues, _tol_scale
from .topology import _validated_eigensystem

DEFAULT_EIGENVALUE_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-8
DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class ConnectivityReport:
    """Second eigenvalue and its eigenvector, with a degeneracy flag.

    ``fiedler`` is unit-norm under the solver's sign convention.  ``scale`` is
    ``max(1, largest |entry|)`` of the solved Laplacian; it is not part of the
    JSON.  ``lambda2`` and ``degenerate`` are read from ``spectrum``:
    ``degenerate`` means ``fiedler_gap``, the gap from the second eigenvalue to
    the nearer of its neighbours, is below 1e-9 times ``scale``, in which case
    the reported vector is still deterministic but not mathematically unique.
    A disconnected graph, whose second eigenvalue is a second zero, is
    degenerate too.
    """

    fiedler: np.ndarray
    spectrum: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        for name in ("fiedler", "spectrum"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def lambda2(self) -> float:
        return float(self.spectrum[1])

    @property
    def degenerate(self) -> bool:
        return bool(fiedler_gap(self.spectrum) < DEGENERACY_GAP * self.scale)

    def to_json_dict(self) -> dict:
        return {
            "lambda2": self.lambda2,
            "fiedler": [float(x) for x in self.fiedler],
            "degenerate": self.degenerate,
            "spectrum": [float(x) for x in self.spectrum],
        }


def algebraic_connectivity(
    laplacian: SquareMatrix, tol: float = DEFAULT_EIGENVALUE_TOL
) -> ConnectivityReport:
    """Connectivity report for a structurally valid Laplacian."""
    if laplacian.order < 2:
        raise NotLaplacianError("need order >= 2 for a second eigenvalue")
    checks, w, v, scale = _validated_eigensystem(laplacian, tol, vectors=True)
    if not checks.passed:
        raise NotLaplacianError(f"structural validation failed: {checks.to_json_dict()}")
    # Validation passes asymmetries up to ``tol``; the eigensystem, read from
    # the symmetrized matrix, stands for the input only up to SYMMETRY_TOL.
    _check_symmetric(laplacian.entries, SYMMETRY_TOL)
    return ConnectivityReport(fiedler=v[:, 1], spectrum=w, scale=scale)


def fiedler_gap(values: np.ndarray) -> np.ndarray:
    """Gap isolating the second eigenvalue: min(w[1] - w[0], w[2] - w[1]).

    ``values`` is a (..., n) array of ascending eigenvalues with n >= 2; at
    n = 2 only the lower gap exists.  Like Python's ``min``, the lower gap is
    kept unless the upper one is strictly smaller.
    """
    lower = values[..., 1] - values[..., 0]
    if values.shape[-1] < 3:
        return lower
    upper = values[..., 2] - values[..., 1]
    return np.where(upper < lower, upper, lower)


def _require_same_order(p: int, q: int) -> None:
    if p != q:
        raise OrderMismatchError(f"orders differ: {p} vs {q}")


def _spectra_agree(a: SquareMatrix, b: SquareMatrix, wa: np.ndarray, wb: np.ndarray, tol: float) -> bool:
    """``is_isospectral``'s verdict on the spectra ``wa`` and ``wb`` already solved from ``a`` and ``b``."""
    _require_same_order(wa.size, wb.size)
    _, scale, shift = _tol_scale(np.stack([a.entries, b.entries]))
    w = np.ldexp(np.stack([wa, wb]), -shift)
    return bool(np.abs(w[0] - w[1]).max() <= tol * scale)


def is_isospectral(a: SquareMatrix, b: SquareMatrix, tol: float = DEFAULT_EIGENVALUE_TOL) -> bool:
    """True when the full sorted spectra agree element-wise within ``tol`` times the larger scale.

    ``tol`` must be positive and finite; the scale of a matrix is
    ``max(1, largest |entry|)``, so the verdict does not depend on the units.
    """
    tol = _check_tol(tol)
    _require_same_order(a.order, b.order)
    return _spectra_agree(a, b, _symmetric_eigenvalues(a), _symmetric_eigenvalues(b), tol)


@dataclass(frozen=True)
class NullSpaceCheck:
    """Whether one Laplacian's Fiedler vector lies in the null space of the difference.

    Two Laplacians sharing both the connectivity level and the Fiedler vector
    satisfy (L_b - L_a) v = 0; ``residual`` is the infinity norm of that product
    and ``lambda2_match`` cross-checks the connectivity agreement.
    """

    ok: bool
    residual: float
    lambda2_base: float
    lambda2_other: float
    lambda2_match: bool

    def to_json_dict(self) -> dict:
        return asdict(self)


def fiedler_null_space_check(
    base: SquareMatrix, other: SquareMatrix, tol: float = DEFAULT_RESIDUAL_TOL
) -> NullSpaceCheck:
    """Test (other - base) @ fiedler(base) == 0 within ``tol`` times the larger scale.

    ``tol`` must be positive and finite; the scale of a matrix is
    ``max(1, largest |entry|)``, and ``lambda2_match`` allows the same bound.
    Both inputs must be valid Laplacians whose reports are not ``degenerate``;
    degenerate inputs are refused because the Fiedler vector is not unique there.
    """
    tol = _check_tol(tol)
    _require_same_order(base.order, other.order)
    rep_a = algebraic_connectivity(base)
    rep_b = algebraic_connectivity(other)
    if rep_a.degenerate or rep_b.degenerate:
        raise DegenerateFiedlerError("second eigenvalue is repeated; Fiedler vector not unique")
    m, scale, shift = _tol_scale(np.stack([base.entries, other.entries]))
    residual = float(np.abs((m[1] - m[0]) @ rep_a.fiedler).max())
    return NullSpaceCheck(
        ok=residual <= tol * scale,
        residual=residual * 2.0**shift,
        lambda2_base=rep_a.lambda2,
        lambda2_other=rep_b.lambda2,
        lambda2_match=math.ldexp(abs(rep_a.lambda2 - rep_b.lambda2), -shift) <= tol * scale,
    )
