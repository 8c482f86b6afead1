"""Dense symmetric matrix values and the deterministic eigensolver behind everything else.

Matrices here are desk-scale (orders up to a few hundred), so storage is a plain
float64 ndarray and the eigensolver is a cyclic Jacobi sweep.  Jacobi was chosen
over a library call because it makes results reproducible to the bit across runs:
fixed sweep order, fixed rotation choice, fixed eigenvector sign convention.
Arrays are solved by ``_eigh_stack``: a single matrix by list loops, a larger
stack by vectorised sweeps.  The dense-family check's 4x4 rows, as nested lists
of floats, are solved by ``_list_eigenvalues`` through a generated kernel.
``_count_below`` counts a stack's eigenvalues below one or more shifts by the
inertia of an LDL^T factorisation, for the zone scan's filter.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from itertools import chain
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
# on a 2-CPU x86-64 host: 256 slices in about 18 ms, 502 in about 28 ms), so
# the budget lets a 500-step path of any order up to 11 run as one stack.
_STACK_ENTRIES = 1 << 17
# Largest entry a slice may have before it is solved scaled (and its inverse,
# the smallest nonzero one): inside the band the sweeps' sum of squares and
# 1e-28 times it stay normal floats at any order below 2^100.
_SCALE_BAND = 2.0 ** 400
def _as_int(value, name: str) -> int:
    """The one integer rule, for JSON fields and for library indices and counts.

    An int, a numpy integer or an integral float, never a bool or a string;
    anything else is a ValueError.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1 != 0:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _as_float(value, name: str) -> float:
    """The one float rule, ``_as_int``'s twin, for every public float parameter and JSON field.

    A Python float, an int, or a numpy floating or integer scalar becomes a
    Python float, so numpy scalars compute in float64; an int past float64's
    range becomes the +-inf that rounding gives it.  A bool, a string or
    anything else is a ValueError.  Finiteness is the caller's check.
    """
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _finite_rows(value, rows: int | None, cols: int, message: str) -> np.ndarray:
    """``value`` as rows x cols finite floats by the float rule (rows None: any from 1), else ValueError(message)."""
    try:
        arr = np.array([[_as_float(x, "entry") for x in row] for row in value])
    except (TypeError, ValueError):  # not rows of numbers, or ragged rows
        arr = np.empty(0)
    if arr.shape != (rows or max(len(arr), 1), cols) or not np.isfinite(arr).all():
        raise ValueError(message)
    return arr


def _shown(value) -> str:
    """``value`` for an error message: an integer past 64 bits by its sign and size, which stays short."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"{'a negative' if value < 0 else 'a'} {value.bit_length()}-bit integer"
    return str(value)


@dataclass(frozen=True)
class SquareMatrix:
    """Immutable dense real square matrix with finite entries, each a number by the float rule."""

    entries: np.ndarray

    def __post_init__(self):
        arr = self.entries
        if not (isinstance(arr, np.ndarray) and arr.dtype.kind in "iuf"):  # entry by entry, by the float rule
            obj = np.array(arr, dtype=object)
            arr = np.reshape([_as_float(x, "matrix entry") for x in obj.ravel()], obj.shape)
        arr = np.array(arr, dtype=float)
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
        return cls(rows)

    @classmethod
    def identity(cls, n: int) -> "SquareMatrix":
        n = _as_int(n, "n")
        if n < 1:
            raise ValueError("matrix order must be >= 1")
        return cls(np.eye(n))

    def isclose(self, other: "SquareMatrix", tol: float) -> bool:
        """Element-wise equality within absolute tolerance ``tol``."""
        tol = _as_float(tol, "tol")
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
        if "order" in data and _as_int(data["order"], "order") != m.order:
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


# The compile, once per process, costs some 80 solves' saving (a dense-family
# matrix on a 2-CPU x86-64 host: about 1.1 ms against 13 us per solve).  Only
# a sweep of the dense-family check over its (alpha, beta) plane makes that
# many single solves in one process, so no array route runs this kernel.
@functools.cache
def _unrolled_kernel(n: int):
    """``_jacobi_lists`` without vectors for order ``n`` with every loop written out, compiled once.

    Each matrix entry ``a[i][j]`` is a local ``ai_j``, and each sweep lists its
    (p, q) rotations in the cyclic order, so a solve does the list kernel's
    arithmetic in the same order, without its subscripts and inner loops: the
    same bits, signed zeros and ``ConvergenceError`` messages.  It takes the
    rows as nested lists of floats and returns the diagonal as a list.  The
    kernel reads ``_SWEEP_TOL``, ``_MAX_SWEEPS`` and ``ConvergenceError``
    from this module when it runs.
    """
    a = [[f"a{i}_{j}" for j in range(n)] for i in range(n)]

    def rotated(x: str, y: str) -> str:
        return f"{x}, {y} = c * {x} - s * {y}, s * {x} + c * {y}"

    def listed(names) -> str:
        return "[" + ", ".join(names) + "]"

    body = [
        "sqrt = math.sqrt",
        f"{listed(listed(row) for row in a)} = rows",
        "fro2 = " + " + ".join(["0.0"] + [f"{x} * {x}" for row in a for x in row]),
        "thr2 = (_SWEEP_TOL * _SWEEP_TOL) * fro2",
        "sweeps = 0",
        "while True:",
        "    off2 = " + " + ".join(["0.0"] + [f"2.0 * {a[i][j]} * {a[i][j]}" for i in range(n) for j in range(i + 1, n)]),
        "    if off2 <= thr2:",
        "        break",
        "    if sweeps == _MAX_SWEEPS:",
        f'        raise ConvergenceError(f"no convergence after {{_MAX_SWEEPS}} sweeps (order {n})")',
        "    sweeps += 1",
    ]
    for p in range(n - 1):
        for q in range(p + 1, n):
            body += [
                f"    if {a[p][q]} != 0.0:",
                f"        theta = ({a[q][q]} - {a[p][p]}) / (2.0 * {a[p][q]})",
                "        mag = abs(theta)",
                "        if mag > 1e150:",
                "            t = 0.5 / theta",
                "        else:",
                "            t = (1.0 if theta >= 0.0 else -1.0) / (mag + sqrt(theta * theta + 1.0))",
                "        c = 1.0 / sqrt(t * t + 1.0)",
                "        s = t * c",
                *(f"        {rotated(a[k][p], a[k][q])}" for k in range(n)),
                *(f"        {rotated(a[p][k], a[q][k])}" for k in range(n)),
            ]
    body.append(f"return {listed(a[i][i] for i in range(n))}")
    source = "def kernel(rows):\n" + "".join(f"    {line}\n" for line in body)
    namespace: dict = {}
    exec(compile(source, f"<jacobi order {n}>", "exec"), globals(), namespace)
    return namespace["kernel"]


def _jacobi_lists(rows: list, vectors: bool) -> tuple[list, list | None]:
    """The scalar Jacobi sweeps as list loops: the diagonal and the eigenvector rows (None without ``vectors``).

    The diagonal has the same bits with or without ``vectors``.
    """
    sqrt = math.sqrt
    n = len(rows)
    # With ``vectors`` the eigenvector rows start as the identity under the
    # matrix rows, as in ``_jacobi_stack``, so one column update rotates both.
    a = [list(row) for row in rows] + [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n) if vectors]
    # The rows are updated in place, so this list stays valid for the whole
    # solve: the cyclic (p, q) order with both rows, which is also the order
    # of the upper triangle that the stopping sum reads.
    pairs = [(p, q, a[p], a[q]) for p in range(n - 1) for q in range(p + 1, n)]
    fro2 = 0.0
    for ai in a[:n]:
        for aij in ai:
            fro2 += aij * aij
    thr2 = (_SWEEP_TOL * _SWEEP_TOL) * fro2
    sweeps = 0
    while True:
        off2 = 0.0
        for _, q, ap, _ in pairs:
            off2 += 2.0 * ap[q] * ap[q]
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
            mag = abs(theta)
            if mag > 1e150:  # avoid overflow in theta*theta
                t = 0.5 / theta
            else:
                t = (1.0 if theta >= 0.0 else -1.0) / (mag + sqrt(theta * theta + 1.0))
            c = 1.0 / sqrt(t * t + 1.0)
            s = t * c
            # Columns first (the eigenvector rows' too): the rows' update
            # reads the (p, q) block they leave.
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
    return [a[i][i] for i in range(n)], a[n:] if vectors else None


def _stack_slices(n: int, vectors: bool) -> int:
    """Slices of order ``n`` per ``_eigh_stack`` call that fit ``_STACK_ENTRIES``."""
    return max(1, _STACK_ENTRIES // ((2 if vectors else 1) * n * n))


def _jacobi_stack(stack: np.ndarray, vectors: bool) -> tuple[np.ndarray, np.ndarray | None]:
    # ``_jacobi_lists`` elementwise over the slices of a (G, n, n) stack:
    # returns the unsorted diagonals (G, n) and, with ``vectors``, the
    # transposed eigenvector matrices (G, n, n).
    g_count, n = stack.shape[0], stack.shape[-1]
    # Layout (n, n, G): each matrix entry is one contiguous vector over the
    # slices.  With ``vectors`` the eigenvector matrix sits under the matrix,
    # rows n..2n-1 of ``m``, so that one update rotates the columns of both.
    m = np.empty((2 * n if vectors else n, n, g_count))
    m[:n] = np.moveaxis(stack, 0, -1)
    a = m[:n]
    out = np.empty((g_count, n))
    out_vt = None
    live = np.arange(g_count)
    diag = np.arange(n)
    if vectors:
        m[n:] = 0.0
        m[n + diag, diag] = 1.0
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
                if vectors:
                    out_vt[live[done]] = m[n:, :, done].T
                keep = ~done
                m, live, thr2 = m[..., keep], live[keep], thr2[keep]
                a = m[:n]
                if not live.size:
                    break
            if sweeps == _MAX_SWEEPS:
                raise ConvergenceError(f"no convergence after {_MAX_SWEEPS} sweeps (order {n})")
            sweeps += 1
            lanes = live.size
            # Cosine, sine, result and scratch buffers, once per sweep, so that
            # the pair updates allocate nothing; the row updates use n rows.
            col_bufs = tuple(np.empty((m.shape[0], lanes)) for _ in range(4))
            row_bufs = tuple(buf[:n] for buf in col_bufs)
            for p in range(n - 1):
                for q in range(p + 1, n):
                    apq = a[p, q]
                    rot = apq != 0.0
                    rotated = np.count_nonzero(rot)
                    if not rotated:
                        continue
                    # Lanes whose (p, q) entry is exactly zero keep their
                    # values, never rotated by the identity (which could flip
                    # the sign of a zero).
                    where = rot if rotated < lanes else True
                    # _jacobi_lists's rotation, elementwise.
                    theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                    mag = np.abs(theta)
                    t = np.where(theta >= 0.0, 1.0, -1.0) / (mag + np.sqrt(theta * theta + 1.0))
                    big = mag > 1e150
                    if big.any():
                        t = np.where(big, 0.5 / theta, t)
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    col_bufs[0][...] = c
                    col_bufs[1][...] = t * c
                    # Columns first (the eigenvectors' too): the rows' update
                    # reads the (p, q) block they leave.
                    for first, second, (c, s, new, tmp) in (
                        (m[:, p], m[:, q], col_bufs),
                        (a[p], a[q], row_bufs),
                    ):
                        # first, second = c * first - s * second, s * first + c * second
                        np.multiply(c, first, out=new)
                        np.multiply(s, second, out=tmp)
                        np.subtract(new, tmp, out=new)
                        np.multiply(s, first, out=tmp)
                        np.copyto(first, new, where=where)
                        np.multiply(c, second, out=new)
                        np.add(tmp, new, out=new)
                        np.copyto(second, new, where=where)
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
    outside = (mags > _SCALE_BAND) | ((mags < 1.0 / _SCALE_BAND) & (mags > 0.0))
    if not outside.any():
        return None
    return np.where(outside, np.frexp(mags)[1], 0)


def _eigh_stack(stack: np.ndarray, vectors: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Eigensystems of every slice of a (G, n, n) ndarray of exactly symmetric matrices.

    Returns ascending eigenvalues as a (G, n) array and, when ``vectors`` is
    true, the sign-fixed eigenvectors as a (G, n, n) array (None otherwise);
    ``vectors[g][:, i]`` pairs with ``values[g, i]``, column-major per slice.

    A stack of one runs the list loops ``_jacobi_lists``, which beat a stack
    of one in ``_jacobi_stack`` at every order measured (geometric Laplacians
    with eigenvectors, 2-CPU x86-64: 0.059 vs 1.9 ms at n=4, 0.41 vs 0.55 s
    at n=64); a larger stack runs ``_jacobi_stack``, which repeats the list
    loops' sums, pair order and rotations elementwise, drops a slice once it
    converges and keeps a slice's values by selection, never by an identity
    rotation (which could flip the sign of a zero), where its (p, q) entry is
    exactly zero.  Either way slice g is bit-identical to the solve of
    ``stack[g]`` alone.  Slices outside the scaling band are solved scaled by
    a power of two and their eigenvalues unscaled; a spectrum that then
    overflows float64 raises NonFiniteError.
    """
    exps = _band_exponents(stack)
    if exps is not None:
        stack = np.ldexp(stack, -exps[:, None, None])
    if stack.shape[0] == 1:
        w, v = _jacobi_lists(stack[0].tolist(), vectors)
        values, vt = np.array([w]), None if v is None else np.array(v).T[None]
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


def _list_eigenvalues(rows: list[list[float]]) -> list[float]:
    """``_eigh_stack``'s ascending eigenvalues, bit for bit, of one symmetric matrix as nested lists of floats.

    Its one caller, the dense-family check, passes the family's 4x4 rows.  In
    the scaling band they run the generated ``_unrolled_kernel`` and no numpy
    call, since numpy calls on n * n numbers cost as much as the sweeps at
    small orders; ``sorted`` is stable like the arrays' sort, so 0.0 and -0.0
    keep the sweeps' order.  Out of band the rows are solved as an array.
    """
    mag = max(map(abs, chain.from_iterable(rows)))
    if mag <= _SCALE_BAND and not 0.0 < mag < 1.0 / _SCALE_BAND:
        return sorted(_unrolled_kernel(len(rows))(rows))
    return _eigh_stack(np.array([rows]))[0][0].tolist()


# Why a count of ``_count_below`` holds.  Sylvester's law of inertia: L^ is
# unit lower triangular, so L^ D^ L^T has as many negative eigenvalues as D^
# has negative pivots (Parlett, The Symmetric Eigenvalue Problem, ch. 3).
# Its distance to A = L - x I: the shifted diagonal rounds once, by at most
# u |a_ii| (u = 2^-53), and with w_jk the computed column k below the pivot
# d_k and l_jk = fl(w_jk / d_k), entry (i, j) of the factor is a_ij minus
# j sequential products, so (as for Gaussian elimination, Higham, Accuracy
# and Stability, 2nd ed., chs. 9-11)
#   |a_ij - sum_k l_ik w_jk - w_ij| <= gamma_n (sum_k |l_ik w_jk| + |w_ij|),
# and |w_jk - d_k l_jk| <= u |w_jk| <= u |d_k l_jk| / (1 - u).  Together
#   |A - L^ D^ L^T| <= gamma_(n+1) |L^| |D^| |L^|^T   (entrywise), and
#   ||A - L^ D^ L^T||_2 <= gamma_(n+1) ||L^ |D^|^(1/2)||_F^2
#                        = gamma_(n+1) sum_ik l_ik^2 |d_k|,
# a sum taken while factoring, with no product matrix or residual.  The
# bound used, 2 (n + 2) u (that sum + max_i |a_ii|), is at least twice
# gamma_(n+1) times the exact sum plus the diagonal's rounding.  The factor
# two covers the rounding of the sum (at most 2n + 2 roundings of
# nonnegative terms), that of the test itself, and underflow, which adds at
# most 2^-1074 per operation, far below any margin used (1e-9 at the
# least).  Finite, normal pivots keep every step inside that rounding
# model, and the scaling band keeps the entries from overflowing.  A
# certified count therefore holds for a symmetric matrix within margin / 2
# of L - x I, and by Weyl's inequality each eigenvalue of L lies within
# margin / 2 of its place in that count.
def _count_below(stack: np.ndarray, shifts: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Per slice of a (G, n, n) stack of exactly symmetric matrices, the eigenvalues below ``shifts[..., g]``, or -1.

    ``shifts`` has shape (G,) or (k, G), and the counts its shape.  A count
    is the number of negative pivots of an unpivoted LDL^T factorisation of
    ``stack[g] - shifts[..., g] * I``; it is certified, and returned, only
    where the factorisation is provably within ``margin[g] / 2`` of that
    matrix in the 2-norm (see the note above), so that the count misplaces
    no eigenvalue by more than ``margin[g] / 2``.  Elementwise ufuncs in the
    (n, n) + ``shifts.shape`` layout of ``_jacobi_stack``: no BLAS call, one
    copy of the stack per shift, and each count that of its shift alone.
    """
    n = stack.shape[-1]
    a = np.moveaxis(np.broadcast_to(stack, shifts.shape + (n, n)), (-2, -1), (0, 1)).copy()
    diag = np.arange(n)
    a[diag, diag] -= shifts
    total = np.abs(a[diag, diag]).max(axis=0)
    buf = np.empty((n,) + shifts.shape)
    # A zero pivot divides by zero and an overflowing one leaves inf or nan,
    # and each leaves its lane uncertified.
    with np.errstate(all="ignore"):
        for k in range(n):
            d = a[k, k]
            lk = a[k + 1:, k] / d
            total += np.abs(d) * (1.0 + (lk * lk).sum(axis=0))
            # The Schur complement's lower triangle, one column at a time;
            # the diagonal then holds the pivots, each final once reached.
            for j in range(k + 1, n):
                col, prod = a[j:, j], buf[: n - j]
                np.multiply(lk[j - k - 1:], a[j, k], out=prod)
                np.subtract(col, prod, out=col)
        pivots = a[diag, diag]
        normal = (np.abs(pivots) >= np.finfo(float).tiny).all(axis=0)
        certified = normal & ((n + 2) * 2.0**-52 * total <= 0.5 * margin)
    exps = _band_exponents(stack)
    if exps is not None:
        certified &= exps == 0
    return np.where(certified, (pivots < 0.0).sum(axis=0), -1)


def _check_tol(tol: float, name: str = "tol") -> float:
    """The one rule for a public tolerance: ``tol`` as a float by ``_as_float``, positive and finite, else ValueError."""
    tol = _as_float(tol, name)
    if tol <= 0:
        raise ValueError(f"{name} must be positive")
    if not math.isfinite(tol):
        raise ValueError(f"{name} must be finite, got {tol}")
    return tol


def _entry_scale(a: np.ndarray, axis: tuple[int, ...] | None = None) -> np.ndarray | float:
    """``max(1, largest |entry|)`` of ``a``, or of each slice over ``axis``: the scale of every tolerance."""
    return np.maximum(1.0, np.abs(a).max(axis=axis))


def _tol_scale(a: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The scale of every tolerance on a matrix: ``a`` and ``scale`` times 2**-shift, and ``shift``.

    A check of ``a`` at ``tol`` passes residuals up to ``tol * scale``, where
    ``scale = _entry_scale(a)``; a decision on its spectrum passes gaps or
    differences of eigenvalues up to the same bound.  Above 2^1000 the
    returned scale is in [1, 2), so residual sums and ``tol * scale`` stay
    finite; else ``shift`` is 0.
    """
    scale = float(_entry_scale(a))
    shift = math.frexp(scale)[1] - 1 if scale > 2.0**1000 else 0
    return np.ldexp(a, -shift), math.ldexp(scale, -shift), shift


def _check_symmetric(a: np.ndarray, symmetry_tol: float) -> None:
    """Raise NonSymmetricError unless ``a`` is symmetric within ``symmetry_tol`` of its largest entry."""
    a, scale, shift = _tol_scale(a)
    asym = float(np.abs(a - a.T).max())
    if asym > symmetry_tol * scale:
        raise NonSymmetricError(f"asymmetry {asym * 2.0**shift:.3e} exceeds {symmetry_tol:.1e} * {scale * 2.0**shift:.3e}")


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
    _check_symmetric(a, _check_tol(symmetry_tol, "symmetry_tol"))
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
    p = tuple(_as_int(i, "permutation entry") for i in perm)
    if sorted(p) != list(range(len(p))):
        raise NotBijectionError(f"not a bijection on 0..{len(p) - 1}: [{', '.join(map(_shown, p))}]")
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
        return asdict(self) | {"passed": self.passed}


def validate_iso_transform(transform: SquareMatrix, tol: float) -> TransformValidation:
    """Check that a matrix is orthonormal and maps the all-ones vector to itself.

    Matrices passing both tests conjugate zero-row-sum matrices to zero-row-sum
    matrices; this is necessary for the result to be a Laplacian but not
    sufficient, so structure is always re-validated downstream.  ``tol``
    must be positive and finite.
    """
    tol = _check_tol(tol)
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
    n, theta = _as_int(n, "n"), _as_float(theta, "theta")
    if n < 3:
        raise OrderTooSmallError("ones-axis rotations need order >= 3")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    u = np.zeros(n)
    u[0], u[1] = 1.0, -1.0
    u /= math.sqrt(2.0)
    v = np.zeros(n)
    v[0], v[1], v[2] = 1.0, 1.0, -2.0
    v /= math.sqrt(6.0)
    c, s = math.cos(theta), math.sin(theta)
    q = np.eye(n) + (c - 1.0) * (np.outer(u, u) + np.outer(v, v)) + s * (np.outer(v, u) - np.outer(u, v))
    return SquareMatrix(q)
