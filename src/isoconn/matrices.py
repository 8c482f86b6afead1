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
# Matrix entries per solved stack, eigenvectors included (1 MiB): bounds the
# memory of a stacked caller whatever its number of slices.  Each stack pays
# its sweeps x pairs of array calls whatever its size (order 8 with vectors,
# on a 2-CPU x86-64 host: 256 slices in about 23 ms, 502 in about 34 ms), so
# the budget lets a 500-step path of any order up to 11 run as one stack.
_STACK_ENTRIES = 1 << 17
# Largest entry a slice may have before it is solved scaled (and its inverse,
# the smallest nonzero one): inside the band the sweeps' sum of squares and
# 1e-28 times it stay normal floats at any order below 2^100.
_SCALE_BAND = 2.0 ** 400


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


def _jacobi_python(sym: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # Scalar loops on nested lists: one matrix solves faster this way than as a
    # stack of one in _jacobi_stack at every order measured (median of repeated
    # solves of a geometric Laplacian: 0.078 vs 1.8 ms at n=4, 7.6 vs 37 ms at
    # n=16, 0.34 vs 0.69 s at n=64).  The eigenvector rotations never feed
    # back into ``a``, so skipping them leaves the eigenvalues' bits alone.
    sqrt = math.sqrt
    n = sym.shape[0]
    a = sym.tolist()
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)] if vectors else None
    # The rows are updated in place, so these lists stay valid for the whole
    # solve: the cyclic (p, q) order with both rows, and the upper triangle.
    pairs = [(p, q, a[p], a[q]) for p in range(n - 1) for q in range(p + 1, n)]
    upper = [(a[i], j) for i in range(n) for j in range(i + 1, n)]
    fro2 = 0.0
    for ai in a:
        for aij in ai:
            fro2 += aij * aij
    thr2 = (_SWEEP_TOL * _SWEEP_TOL) * fro2
    sweeps = 0
    while True:
        off2 = 0.0
        for ai, j in upper:
            off2 += 2.0 * ai[j] * ai[j]
        if off2 <= thr2:
            break
        if sweeps == _MAX_SWEEPS:
            raise ConvergenceError(f"no convergence after {_MAX_SWEEPS} sweeps (order {n})")
        sweeps += 1
        for p, q, ap, aq in pairs:
            apq = ap[q]
            if apq == 0.0:
                continue
            # Cosine and sine annihilating (p, q): the smaller-angle root, sign-fixed.
            theta = (aq[q] - ap[p]) / (2.0 * apq)
            if abs(theta) > 1e150:  # avoid overflow in theta*theta
                t = 0.5 / theta
            else:
                t = (1.0 if theta >= 0.0 else -1.0) / (abs(theta) + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            # Columns first: the rows' update reads the (p, q) block they leave.
            for ak in a:
                akp = ak[p]
                akq = ak[q]
                ak[p] = c * akp - s * akq
                ak[q] = s * akp + c * akq
            for k in range(n):
                akp = ap[k]
                akq = aq[k]
                ap[k] = c * akp - s * akq
                aq[k] = s * akp + c * akq
            if vectors:
                for vk in v:
                    vkp = vk[p]
                    vkq = vk[q]
                    vk[p] = c * vkp - s * vkq
                    vk[q] = s * vkp + c * vkq
    w = np.array([a[i][i] for i in range(n)])
    return w, None if v is None else np.array(v)


def _stack_slices(n: int, vectors: bool) -> int:
    """Slices of order ``n`` per ``_eigh_stack`` call that fit ``_STACK_ENTRIES``."""
    return max(1, _STACK_ENTRIES // ((2 if vectors else 1) * n * n))


def _jacobi_stack(stack: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # ``_jacobi_python`` elementwise over the slices of a (G, n, n) stack:
    # returns the unsorted diagonals (G, n) and, with ``vectors``, the
    # transposed eigenvector matrices (G, n, n).
    g_count, n = stack.shape[0], stack.shape[-1]
    # Layout (n, n, G): each matrix entry is one contiguous vector over the slices.
    a = np.array(np.moveaxis(stack, 0, -1), dtype=float, order="C")
    out = np.empty((g_count, n))
    out_vt = None
    live = np.arange(g_count)
    diag = np.arange(n)
    if vectors:
        v = np.zeros_like(a)
        v[diag, diag] = 1.0
        out_vt = np.empty((g_count, n, n))
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
                if vectors:
                    out_vt[live[done]] = v[..., done].T
                    v = v[..., keep]
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
                    # _jacobi_python's rotation, elementwise.
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    mag = np.abs(theta)
                    t = np.where(theta >= 0.0, 1.0, -1.0) / (mag + np.sqrt(theta * theta + 1.0))
                    big = mag > 1e150
                    if big.any():
                        t = np.where(big, 0.5 / theta, t)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    pairs = [(a[:, p], a[:, q]), (a[p], a[q])]
                    if vectors:
                        pairs.append((v[:, p], v[:, q]))
                    for first, second in pairs:
                        new_first = c * first - s * second
                        new_second = s * first + c * second
                        if partial:
                            new_first = np.where(rot, new_first, first)
                            new_second = np.where(rot, new_second, second)
                        first[...] = new_first
                        second[...] = new_second
    return out, out_vt


def _band_exponents(stack: np.ndarray) -> np.ndarray | None:
    """Per-slice power-of-two exponents that bring out-of-band slices to [0.5, 1).

    A slice whose largest entry lies outside [2^-400, 2^400] would overflow or
    underflow the sweeps' squared sums, which stops them at once and leaves
    the diagonal as the answer.  Returns None when every slice is in the band
    (or zero), so that those keep their bits; in-band slices of a mixed stack
    get exponent 0.
    """
    mags = np.abs(stack).max(axis=(1, 2), initial=0.0)
    listed = mags.tolist()  # the common case first: every slice in the band
    if listed and 1.0 / _SCALE_BAND <= min(listed) and max(listed) <= _SCALE_BAND:
        return None
    outside = (mags > _SCALE_BAND) | ((mags < 1.0 / _SCALE_BAND) & (mags > 0.0))
    if not outside.any():
        return None
    return np.where(outside, np.frexp(mags)[1], 0)


def _eigh_stack(stack: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigensystems of every slice of a (G, n, n) stack of exactly symmetric matrices.

    The one entry point to the eigensolver.  Returns ascending eigenvalues as a
    (G, n) array and, when ``vectors`` is true, the sign-fixed eigenvectors as
    a (G, n, n) array (None otherwise); ``vectors[g][:, i]`` pairs with
    ``values[g, i]`` and each slice is column-major.

    A stack of one runs the scalar ``_jacobi_python`` sweeps, a larger stack
    runs ``_jacobi_stack``, which repeats the scalar sums, pair order and
    rotations elementwise, drops a slice once it converges and keeps a slice's
    values by selection, never by an identity rotation (which could flip the
    sign of a zero), where its (p, q) entry is exactly zero.  Either way slice
    g is bit-identical to the solve of ``stack[g]`` alone.  Slices outside the
    scaling band are solved scaled by a power of two and their eigenvalues
    unscaled; a spectrum that then overflows float64 raises NonFiniteError.
    """
    exps = _band_exponents(stack)
    if exps is not None:
        stack = np.ldexp(stack, -exps[:, None, None])
    if stack.shape[0] == 1:
        w, v = _jacobi_python(stack[0], vectors)
        values, vt = w[None], None if v is None else v.T[None]
    else:
        values, vt = _jacobi_stack(stack, vectors)
    if exps is not None:
        scaled = values
        with np.errstate(over="ignore"):
            values = np.ldexp(scaled, exps[:, None])
        overflow = ~np.isfinite(values)
        if overflow.any():
            g, i = np.argwhere(overflow)[0]
            raise NonFiniteError(
                f"spectrum overflows float64: eigenvalue {scaled[g, i]:.6e} * 2**{exps[g]}"
            )
    if not vectors:
        # Stable, so equal values (0.0 and -0.0) keep the order argsort gives them.
        return np.sort(values, axis=1, kind="stable"), None
    slices = np.arange(values.shape[0])[:, None]
    order = np.argsort(values, axis=1, kind="stable")
    values = values[slices, order]
    vt = vt[slices, order]
    # Sign convention: each eigenvector's largest-magnitude entry is made
    # positive, argmax resolving magnitude ties toward the lowest index.
    top = np.argmax(np.abs(vt), axis=2)
    flip = vt[slices, np.arange(vt.shape[1]), top] < 0.0
    vt[flip] = -vt[flip]
    # Column-major per slice, so that a product with a contiguous column
    # rounds the same whichever kernel solved the slice.
    return values, vt.transpose(0, 2, 1)


def _check_tol(tol: float) -> None:
    """The one rule for a public ``tol``: positive and finite, else ValueError."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not math.isfinite(tol):
        raise ValueError(f"tol must be finite, got {tol}")


def _check_symmetric(a: np.ndarray, symmetry_tol: float) -> None:
    """Raise NonSymmetricError unless ``a`` is symmetric within ``symmetry_tol`` of its largest entry."""
    scale = max(1.0, float(np.abs(a).max()))
    with np.errstate(over="ignore"):
        asym = float(np.abs(a - a.T).max())
    if asym > symmetry_tol * scale:
        raise NonSymmetricError(f"asymmetry {asym:.3e} exceeds {symmetry_tol:.1e} * {scale:.3e}")


def _symmetrized(a: np.ndarray) -> np.ndarray:
    """The exactly symmetric 0.5 * (a + a.T); NonFiniteError if a sum overflows."""
    with np.errstate(over="ignore"):
        sym = 0.5 * (a + a.T)
    if not np.isfinite(sym).all():
        raise NonFiniteError(
            f"symmetrized matrix overflows float64 (largest entry {float(np.abs(a).max()):.3e})"
        )
    return sym


def symmetric_eigendecomposition(
    matrix: SquareMatrix, symmetry_tol: float = SYMMETRY_TOL
) -> SpectralDecomposition:
    """Full eigensystem of a symmetric matrix, deterministic down to the bit.

    The input must be symmetric within ``symmetry_tol`` relative to its largest
    entry; it is then symmetrized exactly before the sweeps so that rounding in
    the caller cannot change the result.
    """
    a = matrix.entries
    _check_symmetric(a, symmetry_tol)
    w, v = _eigh_stack(_symmetrized(a)[None], vectors=True)
    w, v = w[0], v[0]
    residual = float(np.abs(a @ v - v * w).max())
    return SpectralDecomposition(w, v, residual)


def _symmetric_eigenvalues(matrix: SquareMatrix) -> np.ndarray:
    """``symmetric_eigendecomposition(matrix).eigenvalues``, bit for bit, without eigenvectors or residual."""
    a = matrix.entries
    _check_symmetric(a, SYMMETRY_TOL)
    return _eigh_stack(_symmetrized(a)[None])[0][0]


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
    sufficient, so structure is always re-validated downstream.  ``tol``
    must be positive and finite.
    """
    _check_tol(tol)
    q = transform.entries
    n = transform.order
    # Products of huge entries overflow to inf or nan, and both fail the tests.
    with np.errstate(over="ignore", invalid="ignore"):
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
