"""Dense symmetric matrix values and the deterministic eigensolver behind everything else.

Matrices here are desk-scale (orders up to a few hundred), so storage is a plain
float64 ndarray and the eigensolver is a cyclic Jacobi sweep.  Jacobi was chosen
over a library call because it makes results reproducible to the bit across runs:
fixed sweep order, fixed rotation choice, fixed eigenvector sign convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConvergenceError,
    NonFiniteError,
    NonSymmetricError,
    NotBijectionError,
    OrderTooSmallError,
)

SYMMETRY_TOL = 1e-12
_SWEEP_TOL = 1e-14   # off-diagonal Frobenius mass relative to ||M||_F
_MAX_SWEEPS = 100


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable dense real square matrix with finite entries."""

    entries: np.ndarray

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1:
            raise ValueError("matrix order must be >= 1")
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix entries must be finite")
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    @property
    def order(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_rows(cls, rows) -> "SquareMatrix":
        return cls(np.array(rows, dtype=float))

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        return cls(np.eye(n))

    def isclose(self, other: "SquareMatrix", tol: float) -> bool:
        """Element-wise equality within absolute tolerance ``tol``."""
        if self.order != other.order:
            return False
        return bool(np.abs(self.entries - other.entries).max() <= tol)

    def equals(self, other: "SquareMatrix") -> bool:
        """Exact element-wise equality, no tolerance."""
        return self.order == other.order and bool(np.array_equal(self.entries, other.entries))

    def to_json_dict(self) -> dict:
        return {"order": self.order, "rows": [[float(x) for x in row] for row in self.entries]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "SquareMatrix":
        if not isinstance(data, dict) or "rows" not in data:
            raise ValueError("matrix JSON must be an object with a 'rows' field")
        m = cls.from_rows(data["rows"])
        if "order" in data and int(data["order"]) != m.order:
            raise ValueError("matrix JSON 'order' does not match the shape of 'rows'")
        return m


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigensystem of a symmetric matrix: ascending eigenvalues, orthonormal columns.

    ``eigenvectors[:, i]`` pairs with ``eigenvalues[i]``; ``residual`` is
    max_i of the infinity norm of ``M v_i - w_i v_i`` against the input matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residual: float

    def __post_init__(self):
        for name in ("eigenvalues", "eigenvectors"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float]:
    """Cosine/sine annihilating the (p, q) entry; the smaller-angle root, sign-fixed."""
    theta = (aqq - app) / (2.0 * apq)
    if abs(theta) > 1e150:  # avoid overflow in theta*theta
        t = 0.5 / theta
    else:
        t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
    c = 1.0 / math.sqrt(t * t + 1.0)
    return c, t * c


def _jacobi_python(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Scalar loops on nested lists: one matrix solves faster this way than with
    # per-pair ndarray updates at every order measured (16 to 64).
    n = sym.shape[0]
    a = sym.tolist()
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    fro2 = 0.0
    for i in range(n):
        for j in range(n):
            fro2 += a[i][j] * a[i][j]
    thr2 = (_SWEEP_TOL * _SWEEP_TOL) * fro2
    sweeps = 0
    while True:
        off2 = 0.0
        for i in range(n):
            ai = a[i]
            for j in range(i + 1, n):
                off2 += 2.0 * ai[j] * ai[j]
        if off2 <= thr2:
            break
        if sweeps == _MAX_SWEEPS:
            raise ConvergenceError(f"no convergence after {_MAX_SWEEPS} sweeps (order {n})")
        sweeps += 1
        for p in range(n - 1):
            ap = a[p]
            for q in range(p + 1, n):
                aq = a[q]
                apq = ap[q]
                if apq == 0.0:
                    continue
                c, s = _rotation(ap[p], aq[q], apq)
                for k in range(n):
                    ak = a[k]
                    akp = ak[p]
                    akq = ak[q]
                    ak[p] = c * akp - s * akq
                    ak[q] = s * akp + c * akq
                for k in range(n):
                    akp = ap[k]
                    akq = aq[k]
                    ap[k] = c * akp - s * akq
                    aq[k] = s * akp + c * akq
                for k in range(n):
                    vk = v[k]
                    vkp = vk[p]
                    vkq = vk[q]
                    vk[p] = c * vkp - s * vkq
                    vk[q] = s * vkp + c * vkq
    w = np.array([a[i][i] for i in range(n)])
    return w, np.array(v)


def _eigh_core(sym: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigensystem of an exactly symmetric ndarray: ascending values, sign-fixed columns."""
    w, v = _jacobi_python(sym)
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    # Sign convention: the largest-magnitude entry of each eigenvector is positive;
    # np.argmax resolves magnitude ties toward the lowest index.
    for j in range(v.shape[1]):
        k = int(np.argmax(np.abs(v[:, j])))
        if v[k, j] < 0.0:
            v[:, j] = -v[:, j]
    return w, v


def _eigvals_stack(stack: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of every slice of a (G, n, n) stack, as a (G, n) array.

    Row g is bit-identical to ``_eigh_core(stack[g])[0]``: the sweeps repeat
    ``_jacobi_python``'s sums, pair order and rotations elementwise over the
    slices.  A slice leaves the stack once it converges.  Where a slice's
    (p, q) entry is exactly zero its values are kept by selection, never by an
    identity rotation, which could flip the sign of a zero.
    """
    g_count, n = stack.shape[0], stack.shape[-1]
    # Layout (n, n, G): each matrix entry is one contiguous vector over the slices.
    a = np.array(np.moveaxis(stack, 0, -1), dtype=float, order="C")
    out = np.empty((g_count, n))
    live = np.arange(g_count)
    diag = np.arange(n)
    fro2 = np.zeros(g_count)
    for i in range(n):
        for j in range(n):
            fro2 = fro2 + a[i, j] * a[i, j]
    thr2 = (_SWEEP_TOL * _SWEEP_TOL) * fro2
    sweeps = 0
    # Lanes with a zero (p, q) entry divide by zero and are then discarded; a
    # subnormal entry overflows theta into the |theta| > 1e150 branch.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while live.size:
            off2 = np.zeros(live.size)
            for i in range(n):
                for j in range(i + 1, n):
                    off2 = off2 + 2.0 * a[i, j] * a[i, j]
            done = off2 <= thr2
            if done.any():
                out[live[done]] = a[diag, diag][:, done].T
                keep = ~done
                a, live, thr2 = a[..., keep], live[keep], thr2[keep]
                if not live.size:
                    break
            if sweeps == _MAX_SWEEPS:
                raise ConvergenceError(f"no convergence after {_MAX_SWEEPS} sweeps (order {n})")
            sweeps += 1
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    rot = apq != 0.0
                    if not rot.any():
                        continue
                    partial = not rot.all()
                    # _rotation, elementwise.
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    mag = np.abs(theta)
                    t = np.where(theta >= 0.0, 1.0, -1.0) / (mag + np.sqrt(theta * theta + 1.0))
                    big = mag > 1e150
                    if big.any():
                        t = np.where(big, 0.5 / theta, t)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    for first, second in ((a[:, p], a[:, q]), (a[p], a[q])):
                        new_first = c * first - s * second
                        new_second = s * first + c * second
                        if partial:
                            new_first = np.where(rot, new_first, first)
                            new_second = np.where(rot, new_second, second)
                        first[...] = new_first
                        second[...] = new_second
    return np.take_along_axis(out, np.argsort(out, axis=1, kind="stable"), axis=1)


def symmetric_eigendecomposition(
    matrix: SquareMatrix, symmetry_tol: float = SYMMETRY_TOL
) -> SpectralDecomposition:
    """Full eigensystem of a symmetric matrix, deterministic down to the bit.

    The input must be symmetric within ``symmetry_tol`` relative to its largest
    entry; it is then symmetrized exactly before the sweeps so that rounding in
    the caller cannot change the result.
    """
    a = matrix.entries
    scale = max(1.0, float(np.abs(a).max()))
    asym = float(np.abs(a - a.T).max())
    if asym > symmetry_tol * scale:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds {symmetry_tol:.1e} * {scale:.3e}")
    sym = 0.5 * (a + a.T)
    w, v = _eigh_core(sym)
    residual = float(np.abs(a @ v - v * w).max())
    return SpectralDecomposition(w, v, residual)


def _as_permutation(perm: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(i) for i in perm)
    if sorted(p) != list(range(len(p))):
        raise NotBijectionError(f"not a bijection on 0..{len(p) - 1}: {list(perm)}")
    return p


def permutation_matrix(perm: Sequence[int]) -> SquareMatrix:
    """Matrix J with J[i, perm[i]] = 1.

    Conjugating by J (``J.T @ L @ J``) moves the node at old index k to new
    index perm[k].  J is orthonormal and fixes the all-ones vector.
    """
    p = _as_permutation(perm)
    n = len(p)
    m = np.zeros((n, n))
    for i, j in enumerate(p):
        m[i, j] = 1.0
    return SquareMatrix(m)


@dataclass(frozen=True)
class TransformValidation:
    """Outcome of checking a candidate similarity transform.

    ``passed`` requires orthonormality and the ones fixed point; the permutation
    and identity flags are informational.
    """

    orthonormal: bool
    fixes_ones: bool
    is_permutation: bool
    is_identity: bool
    orthonormality_residual: float
    ones_residual: float

    @property
    def passed(self) -> bool:
        return self.orthonormal and self.fixes_ones

    def to_json_dict(self) -> dict:
        return {
            "orthonormal": self.orthonormal,
            "fixes_ones": self.fixes_ones,
            "is_permutation": self.is_permutation,
            "is_identity": self.is_identity,
            "orthonormality_residual": self.orthonormality_residual,
            "ones_residual": self.ones_residual,
            "passed": self.passed,
        }


def validate_iso_transform(transform: SquareMatrix, tol: float) -> TransformValidation:
    """Check that a matrix is orthonormal and maps the all-ones vector to itself.

    Matrices passing both tests conjugate zero-row-sum matrices to zero-row-sum
    matrices; this is necessary for the result to be a Laplacian but not
    sufficient, so structure is always re-validated downstream.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    q = transform.entries
    n = transform.order
    orth_res = float(np.abs(q.T @ q - np.eye(n)).max())
    ones_res = float(np.abs(q @ np.ones(n) - 1.0).max())
    rounded = np.rint(q)
    is_perm = (
        float(np.abs(q - rounded).max()) <= tol
        and bool(np.isin(rounded, (0.0, 1.0)).all())
        and bool((rounded.sum(axis=0) == 1.0).all())
        and bool((rounded.sum(axis=1) == 1.0).all())
    )
    is_identity = float(np.abs(q - np.eye(n)).max()) <= tol
    return TransformValidation(
        orthonormal=orth_res <= tol,
        fixes_ones=ones_res <= tol,
        is_permutation=is_perm,
        is_identity=is_identity,
        orthonormality_residual=orth_res,
        ones_residual=ones_res,
    )


def ones_axis_rotation(n: int, theta: float) -> SquareMatrix:
    """Orthonormal matrix fixing the all-ones vector: rotation by ``theta``.

    The rotation acts in the fixed plane spanned by (1,-1,0,...)/sqrt(2) and
    (1,1,-2,0,...)/sqrt(6), both orthogonal to the ones vector, so the result
    always passes :func:`validate_iso_transform` and equals the identity at
    theta = 0.  Requires n >= 3: for n = 2 the only row-sum-1 orthonormal
    matrices are the two permutation matrices, leaving nothing to rotate.
    """
    if n < 3:
        raise OrderTooSmallError("ones-axis rotations need order >= 3")
    u = np.zeros(n)
    u[0], u[1] = 1.0, -1.0
    u /= math.sqrt(2.0)
    v = np.zeros(n)
    v[0], v[1], v[2] = 1.0, 1.0, -2.0
    v /= math.sqrt(6.0)
    c, s = math.cos(theta), math.sin(theta)
    q = np.eye(n) + (c - 1.0) * (np.outer(u, u) + np.outer(v, v)) + s * (np.outer(v, u) - np.outer(u, v))
    return SquareMatrix(q)
