"""Connectivity-level analysis: algebraic connectivity, Fiedler vectors, spectrum tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFiedlerError, NotLaplacianError, OrderMismatchError
from .matrices import SYMMETRY_TOL, SquareMatrix, _check_symmetric, _check_tol, _symmetric_eigenvalues
from .topology import _validated_eigensystem

DEFAULT_EIGENVALUE_TOL = 1e-9
DEFAULT_RESIDUAL_TOL = 1e-8
DEGENERACY_GAP = 1e-9


@dataclass(frozen=True)
class ConnectivityReport:
    """Second eigenvalue and its eigenvector, with a degeneracy flag.

    ``fiedler`` is unit-norm under the solver's sign convention.  ``lambda2``
    and ``degenerate`` are read from ``spectrum``: ``degenerate`` means the gap
    to the third eigenvalue is below 1e-9, in which case the reported vector
    is still deterministic but not mathematically unique.
    """

    fiedler: np.ndarray
    spectrum: np.ndarray

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
        return self.spectrum.size >= 3 and bool(self.spectrum[2] - self.spectrum[1] < DEGENERACY_GAP)

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
    checks, w, v = _validated_eigensystem(laplacian, tol, vectors=True)
    if not checks.passed:
        raise NotLaplacianError(f"structural validation failed: {checks.to_json_dict()}")
    # Validation passes asymmetries up to ``tol``; the eigensystem, read from
    # the symmetrized matrix, stands for the input only up to SYMMETRY_TOL.
    _check_symmetric(laplacian.entries, SYMMETRY_TOL)
    return ConnectivityReport(fiedler=v[:, 1], spectrum=w)


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


def fiedler_is_simple(report: ConnectivityReport) -> bool:
    """True when the second eigenvalue is separated from both neighbors.

    ``report.degenerate`` only covers the gap to the third eigenvalue; a
    disconnected graph has its second eigenvalue glued to the zero eigenvalue
    instead, which makes the Fiedler vector just as ill-defined.
    """
    return bool(fiedler_gap(report.spectrum) >= DEGENERACY_GAP)


def _require_same_order(p: int, q: int) -> None:
    if p != q:
        raise OrderMismatchError(f"orders differ: {p} vs {q}")


def _spectra_agree(wa: np.ndarray, wb: np.ndarray, tol: float) -> bool:
    """``is_isospectral``'s verdict on two spectra already solved."""
    _require_same_order(wa.size, wb.size)
    return bool(np.abs(wa - wb).max() <= tol)


def is_isospectral(a: SquareMatrix, b: SquareMatrix, tol: float = DEFAULT_EIGENVALUE_TOL) -> bool:
    """True when the full sorted spectra agree element-wise within ``tol`` (positive, finite)."""
    _check_tol(tol)
    _require_same_order(a.order, b.order)
    return _spectra_agree(_symmetric_eigenvalues(a), _symmetric_eigenvalues(b), tol)


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
        return {
            "ok": self.ok,
            "residual": self.residual,
            "lambda2_base": self.lambda2_base,
            "lambda2_other": self.lambda2_other,
            "lambda2_match": self.lambda2_match,
        }


def fiedler_null_space_check(
    base: SquareMatrix, other: SquareMatrix, tol: float = DEFAULT_RESIDUAL_TOL
) -> NullSpaceCheck:
    """Test (other - base) @ fiedler(base) == 0 within ``tol`` (positive, finite).

    Both inputs must be valid Laplacians with a simple second eigenvalue;
    degenerate inputs are refused because the Fiedler vector is not unique there.
    """
    _check_tol(tol)
    _require_same_order(base.order, other.order)
    rep_a = algebraic_connectivity(base)
    rep_b = algebraic_connectivity(other)
    if not (fiedler_is_simple(rep_a) and fiedler_is_simple(rep_b)):
        raise DegenerateFiedlerError("second eigenvalue is repeated; Fiedler vector not unique")
    residual = float(np.abs((other.entries - base.entries) @ rep_a.fiedler).max())
    return NullSpaceCheck(
        ok=residual <= tol,
        residual=residual,
        lambda2_base=rep_a.lambda2,
        lambda2_other=rep_b.lambda2,
        lambda2_match=abs(rep_a.lambda2 - rep_b.lambda2) <= tol,
    )
