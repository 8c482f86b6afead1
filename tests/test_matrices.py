import math

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from isoconn import (
    ConvergenceError,
    algebraic_connectivity,
    build_laplacian,
    dense_family_laplacian,
    dense_family_validity,
    NonFiniteError,
    NonSymmetricError,
    NotBijectionError,
    OrderTooSmallError,
    SquareMatrix,
    ones_axis_rotation,
    permutation_matrix,
    symmetric_eigendecomposition,
    validate_iso_transform,
    validate_laplacian,
)
from isoconn import matrices
from isoconn.matrices import _eigh_stack, _list_eigenvalues
from isoconn.topology import _laplacian_from_positions
from conftest import K4_ROWS, L1_ROWS, L1_SPECTRUM, L4P_ROWS, L4P_SPECTRUM, PATH4_ROWS, _eigh_core, geometric_config
from conftest import _jacobi_python as frozen_jacobi


def random_symmetric(seed, n, lo=-10.0, hi=10.0):
    rng = np.random.default_rng(seed)
    m = rng.uniform(lo, hi, size=(n, n))
    return SquareMatrix(0.5 * (m + m.T))


# The orders whose values-only solves are also run through the generated
# kernel, which the dense-family check runs at order 4.
UNROLLED_ORDERS = range(1, 5)


def scalar_solve(sym, vectors):
    """The list loops on ``sym``'s rows: diagonal and eigenvector rows as arrays.

    Values only at ``UNROLLED_ORDERS``, the generated kernel runs too and must
    give the same diagonal bytes.
    """
    rows = sym.tolist()
    w, v = matrices._jacobi_lists(rows, vectors)
    w = np.array(w)
    if not vectors and len(rows) in UNROLLED_ORDERS:
        assert np.array(matrices._unrolled_kernel(len(rows))(rows)).tobytes() == w.tobytes()
    return w, None if v is None else np.array(v)


def charpoly_roots(rows):
    """Independent oracle: exact symbolic eigenvalues via the characteristic polynomial."""
    lam = sympy.symbols("lam")
    eigs = sympy.Matrix(rows).eigenvals()
    out = []
    for value, mult in eigs.items():
        out.extend([float(value)] * mult)
    return sorted(out)


class TestSquareMatrix:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SquareMatrix.from_rows([[1.0, 2.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteError):
            SquareMatrix.from_rows([[1.0, np.nan], [0.0, 1.0]])
        with pytest.raises(NonFiniteError):
            SquareMatrix.from_rows([[np.inf, 0.0], [0.0, 1.0]])

    @pytest.mark.parametrize("huge", [10**400, -10**400], ids=["10**400", "-10**400"])
    def test_an_integer_entry_past_float64_is_non_finite(self, huge):
        # It used to raise numpy's bare OverflowError.
        for build in (SquareMatrix.from_rows, SquareMatrix, lambda rows: SquareMatrix(np.array(rows, dtype=object))):
            with pytest.raises(NonFiniteError, match="^matrix entries must be finite$"):
                build([[1, -1], [-1, huge]])

    @pytest.mark.parametrize("n", [0, -1])
    def test_identity_refuses_an_order_below_one(self, n):
        # identity(-1) used to raise numpy's "negative dimensions are not allowed".
        with pytest.raises(ValueError, match=r"^matrix order must be >= 1$"):
            SquareMatrix.identity(n)

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError, match=r"^matrix order must be >= 1$"):
            SquareMatrix(np.zeros((0, 0)))

    def test_isclose_across_orders_is_false(self, l1):
        assert not l1.isclose(SquareMatrix.identity(3), 1e9)

    @pytest.mark.parametrize("data", [[[1.0]], "rows", None, {"order": 1}])
    def test_json_must_be_an_object_with_rows(self, data):
        with pytest.raises(ValueError, match="^matrix JSON must be an object with a 'rows' field$"):
            SquareMatrix.from_json_dict(data)

    @pytest.mark.parametrize(
        "depth,message",
        [(33, "expected a square 2-d array"), (64, "expected a square 2-d array"), (100, "matrix entry must be a number")],
    )
    def test_rows_nested_past_numpy_dimensions_are_a_value_error(self, depth, message):
        # Walking the entries by .flat raised numpy's RuntimeError past 32
        # dimensions; numpy stops at 64, leaving lists as entries.
        rows = [1.0]
        for _ in range(depth - 1):
            rows = [rows]
        with pytest.raises(ValueError, match=f"^{message}"):
            SquareMatrix.from_json_dict({"rows": rows})

    def test_entries_are_immutable(self, l1):
        with pytest.raises(ValueError):
            l1.entries[0, 0] = 99.0

    def test_tolerance_vs_exact_equality(self, l1):
        nudged = SquareMatrix(l1.entries + 1e-12)
        assert l1.isclose(nudged, 1e-10)
        assert not l1.isclose(nudged, 1e-14)
        assert not l1.equals(nudged)
        assert l1.equals(SquareMatrix.from_rows(L1_ROWS))

    def test_json_round_trip(self, l4p):
        again = SquareMatrix.from_json_dict(l4p.to_json_dict())
        assert l4p.equals(again)

    def test_json_order_mismatch(self):
        with pytest.raises(ValueError):
            SquareMatrix.from_json_dict({"order": 3, "rows": [[1.0]]})

    @pytest.mark.parametrize("order", [0.9, 1.5, "1", True, math.inf, math.nan, None])
    def test_json_order_must_be_an_integer(self, order):
        # int() used to truncate 1.5 to 1 and accept "1" and True.
        with pytest.raises(ValueError, match="order must be an integer"):
            SquareMatrix.from_json_dict({"order": order, "rows": [[1.0]]})

    @pytest.mark.parametrize("order", [1, 1.0])
    def test_json_integral_order_accepted(self, order):
        assert SquareMatrix.from_json_dict({"order": order, "rows": [[1.0]]}).order == 1


class TestEigendecomposition:
    def test_diagonal_matrix(self):
        d = symmetric_eigendecomposition(SquareMatrix.from_rows(np.diag([3.0, 1.0, 2.0])))
        assert np.array_equal(d.eigenvalues, [1.0, 2.0, 3.0])
        expected = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert np.array_equal(d.eigenvectors, expected)
        assert d.residual == 0.0

    def test_zero_matrix(self):
        d = symmetric_eigendecomposition(SquareMatrix(np.zeros((4, 4))))
        assert np.array_equal(d.eigenvalues, np.zeros(4))

    def test_order_one(self):
        d = symmetric_eigendecomposition(SquareMatrix.from_rows([[5.0]]))
        assert d.eigenvalues[0] == 5.0
        assert d.eigenvectors[0, 0] == 1.0

    def test_reference_values(self, l4p):
        d = symmetric_eigendecomposition(l4p)
        assert np.abs(d.eigenvalues - np.array(L4P_SPECTRUM)).max() < 1e-3

    def test_matches_charpoly_oracle(self, l1, path4):
        for matrix, rows in ((l1, L1_ROWS), (path4, PATH4_ROWS)):
            w = symmetric_eigendecomposition(matrix).eigenvalues
            assert np.abs(w - np.array(charpoly_roots(rows))).max() < 1e-12
        assert charpoly_roots(L1_ROWS) == list(L1_SPECTRUM)

    def test_rejects_asymmetric(self):
        with pytest.raises(NonSymmetricError):
            symmetric_eigendecomposition(SquareMatrix.from_rows([[1.0, 2.0], [0.0, 1.0]]))

    def test_deterministic_bit_identical(self):
        m = random_symmetric(7, 9)
        first = symmetric_eigendecomposition(m)
        second = symmetric_eigendecomposition(SquareMatrix(m.entries.copy()))
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_orthonormality(self, seed, n):
        m = random_symmetric(seed, n)
        d = symmetric_eigendecomposition(m)
        scale = max(1.0, float(np.abs(m.entries).max()))
        v = d.eigenvectors
        assert np.abs(v.T @ v - np.eye(n)).max() <= 1e-9
        recon = v @ np.diag(d.eigenvalues) @ v.T
        assert np.abs(recon - m.entries).max() <= 1e-9 * scale
        assert (np.diff(d.eigenvalues) >= -1e-12).all()

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_conjugation_invariance(self, seed, n):
        m = random_symmetric(seed, n)
        rng = np.random.default_rng(seed + 1)
        p = permutation_matrix(rng.permutation(n))
        conj = SquareMatrix(p.entries.T @ m.entries @ p.entries)
        wa = symmetric_eigendecomposition(m).eigenvalues
        wb = symmetric_eigendecomposition(conj).eigenvalues
        assert np.abs(wa - wb).max() <= 1e-9

    def test_convergence_error_is_exported(self):
        assert issubclass(ConvergenceError, Exception)


class TestLargeOrders:
    """Geometric Laplacians above order 16, where the solver once lost convergence."""

    @pytest.mark.parametrize("n", [17, 20, 23, 26, 29, 32, 48, 64])
    def test_matches_numpy_without_convergence_error(self, n):
        rng = np.random.default_rng([n, 17])
        for _ in range(3):
            m = build_laplacian(geometric_config(rng, n))
            w = symmetric_eigendecomposition(m).eigenvalues
            ref = np.linalg.eigvalsh(m.entries)
            assert np.abs(w - ref).max() <= 1e-9 * max(1.0, np.linalg.norm(m.entries, 2))

    @pytest.mark.parametrize("n", [17, 32, 64])
    def test_bit_identical_repeat(self, n):
        m = build_laplacian(geometric_config(np.random.default_rng([n, 18]), n))
        first = symmetric_eigendecomposition(m)
        second = symmetric_eigendecomposition(SquareMatrix(m.entries.copy()))
        assert first.eigenvalues.tobytes() == second.eigenvalues.tobytes()
        assert first.eigenvectors.tobytes() == second.eigenvectors.tobytes()


class TestValuesOnlySolves:
    """The scalar kernel without eigenvector rotations: the same eigenvalue bytes."""

    @staticmethod
    def assert_same_values(sym):
        values, none = scalar_solve(sym, vectors=False)
        assert none is None
        assert values.tobytes() == scalar_solve(sym, vectors=True)[0].tobytes()

    @pytest.mark.parametrize("n", range(2, 33))
    def test_geometric_laplacians(self, n):
        rng = np.random.default_rng([n, 19])
        for _ in range(2):
            self.assert_same_values(build_laplacian(geometric_config(rng, n)).entries)

    def test_dense_family_grid(self):
        for i in range(50):
            for j in range(50):
                self.assert_same_values(dense_family_laplacian((i + 1) * 0.1, (j + 1) * 0.1).entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_symmetric_eigenvalues_match_the_decomposition(self, seed):
        m = random_symmetric(seed, 2 + 3 * seed)
        for matrix in (m, SquareMatrix(m.entries * 1e300), SquareMatrix(m.entries * 1e-300)):
            got = matrices._symmetric_eigenvalues(matrix)
            assert got.tobytes() == symmetric_eigendecomposition(matrix).eigenvalues.tobytes()

    def test_symmetric_eigenvalues_check_symmetry_first(self):
        with pytest.raises(NonSymmetricError):
            matrices._symmetric_eigenvalues(SquareMatrix.from_rows([[1.0, 2.0], [2.0 + 1e-6, 1.0]]))


def zone_stack(seed, n, cells=24, comm_range=6.0):
    """Laplacians of one geometric configuration with agent 0 moved to random cells."""
    rng = np.random.default_rng([seed, n])
    pos = geometric_config(rng, n, comm_range=comm_range).positions()
    work = np.repeat(pos[None], cells, axis=0)
    work[:, 0] = rng.uniform(-2.0, 12.0, size=(cells, 2))
    return _laplacian_from_positions(work, 1.0, comm_range)


def sweeps_needed(m):
    """Sweeps the single solve takes: the smallest cap it converges under."""
    for cap in range(matrices._MAX_SWEEPS + 1):
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(matrices, "_MAX_SWEEPS", cap)
                _eigh_core(m)
            return cap
        except ConvergenceError:
            continue
    raise AssertionError("no convergence")


def assert_rows_match_single_solves(stack):
    """Both stacked variants against the single solve, slice by slice."""
    values, none = _eigh_stack(stack)
    assert none is None and values.shape == stack.shape[:2]
    with_vectors, vectors = _eigh_stack(stack, vectors=True)
    assert vectors.shape == stack.shape
    for g in range(stack.shape[0]):
        w, v = _eigh_core(stack[g])
        # tobytes also tells -0.0 from 0.0.
        assert values[g].tobytes() == with_vectors[g].tobytes() == w.tobytes(), g
        assert vectors[g].tobytes() == v.tobytes(), g
        # Same memory layout too: products with a strided column round differently.
        assert vectors[g].strides == v.strides, g


# Rotation edge cases for the kernels, each a 4x4 symmetric matrix.
EDGE_ROWS = [
    # Exact zeros of either sign beside rotated pairs: a skipped pair must keep them.
    [[0.0, 0.0, 0.0, 0.0], [0.0, -0.5, 0.5, -1.0], [0.0, 0.5, -1e-300, -0.5], [0.0, -1.0, -0.5, 0.0]],
    # Equal diagonal entries over a negative one: theta is -0.0, rotated as +1.
    [[2.0, -1e-300, 2.0, 3.0], [-1e-300, 2.0, 0.0, 1.0], [2.0, 0.0, 0.0, 3.0], [3.0, 1.0, 3.0, -1e-300]],
    # Tiny off-diagonal entries: |theta| > 1e150 takes the overflow-safe branch.
    [[0.0, 1e-160, 0.0, 3.0], [1e-160, -1.0, 1.0, 1e-160], [0.0, 1.0, 0.0, 3.0], [3.0, 1e-160, 3.0, 0.5]],
    # Exact |v| ties in the eigenvectors: the lowest tied index decides the sign,
    # whether its entry comes out of the sweeps positive or negative.
    [[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 3.0, -1.0], [0.0, 0.0, -1.0, 3.0]],
    PATH4_ROWS,
    K4_ROWS,
]


def signed_zero_corpus(seed, n):
    """Random symmetric matrices of order ``n`` with exact signed zeros and tiny (p, q) entries."""
    rng = np.random.default_rng([seed, n, 41])
    m = rng.uniform(-10.0, 10.0, size=(n, n))
    m = np.triu(m) + np.triu(m, 1).T
    mats = [m]
    for fill in (0.0, -0.0, 1e-160, 5e-324, -5e-324):
        x = m.copy()
        mask = np.triu(rng.random((n, n)) < 0.4)
        # Off the diagonal only for the tiny ones: they are there to make theta huge.
        if abs(fill) > 0.0:
            mask &= ~np.eye(n, dtype=bool)
        x[mask] = fill
        x.T[mask] = fill
        mats.append(x)
    mats.append(np.diag(rng.choice([-0.0, 0.0, 1.0], size=n)))
    return mats


class TestScalarKernelMatchesFrozenReference:
    """The live scalar kernel against conftest's frozen copy: the same bytes, with and without vectors."""

    @staticmethod
    def assert_same_bytes(sym):
        for vectors in (False, True):
            w, v = scalar_solve(sym, vectors)
            ref_w, ref_v = frozen_jacobi(sym, vectors)
            # tobytes also tells -0.0 from 0.0.
            assert w.tobytes() == ref_w.tobytes()
            if vectors:
                assert v.tobytes() == ref_v.tobytes()
            else:
                assert v is None and ref_v is None

    def test_dense_family_lattice(self):
        for i in range(100):
            for j in range(100):
                self.assert_same_bytes(dense_family_laplacian((i + 1) * 0.05, (j + 1) * 0.05).entries)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_geometric_laplacians(self, n):
        rng = np.random.default_rng([n, 20])
        for _ in range(2):
            self.assert_same_bytes(build_laplacian(geometric_config(rng, n)).entries)

    @pytest.mark.parametrize("rows", EDGE_ROWS)
    def test_edge_rows(self, rows):
        self.assert_same_bytes(np.array(rows, dtype=float))

    @pytest.mark.parametrize("apq", [1e-160, 5e-324])
    def test_tiny_off_diagonal_entries(self, apq):
        m = np.array([[1.0, apq, 0.5, 0.0], [apq, 2.0, 0.0, 0.0], [0.5, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 4.0]])
        self.assert_same_bytes(m)

    def test_signed_zeros_and_zero_matrix(self):
        self.assert_same_bytes(np.diag([-0.0, 0.0] * 4))
        self.assert_same_bytes(np.zeros((3, 3)))
        self.assert_same_bytes(np.array([[-0.0]]))

    @pytest.mark.parametrize("n", UNROLLED_ORDERS)
    def test_small_orders_with_signed_zeros_and_tiny_entries(self, n):
        # The orders the generated kernel solves.
        for seed in range(40):
            for m in signed_zero_corpus(seed, n):
                self.assert_same_bytes(m)


class TestUnrolledKernel:
    """The dense-family check's kernel: values only, generated once per order, never run by an array solve."""

    def test_sweep_cap_message(self, monkeypatch):
        dense = random_symmetric(7, 4).entries
        monkeypatch.setattr(matrices, "_MAX_SWEEPS", 1)
        message = "no convergence after 1 sweeps (order 4)"
        for vectors in (False, True):
            with pytest.raises(ConvergenceError) as frozen:
                frozen_jacobi(dense, vectors)
            with pytest.raises(ConvergenceError) as live:
                scalar_solve(dense, vectors)
            assert str(live.value) == str(frozen.value) == message
        with pytest.raises(ConvergenceError) as unrolled:
            matrices._unrolled_kernel(4)(dense.tolist())
        assert str(unrolled.value) == message

    @staticmethod
    def compiles(monkeypatch):
        """The file names of the kernels compiled from here on, the cache emptied first."""
        compiled = []

        def counting_compile(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        matrices._unrolled_kernel.cache_clear()
        monkeypatch.setattr(matrices, "compile", counting_compile, raising=False)
        return compiled

    def test_each_kernel_compiles_once(self, monkeypatch):
        compiled = self.compiles(monkeypatch)
        # No array solve, of a stack of one or more, at any order, runs it.
        for n in [*UNROLLED_ORDERS, 5, 8]:
            for slices in (1, 2):
                for vectors in (False, True):
                    _eigh_stack(np.array([random_symmetric(90 + g, n).entries for g in range(slices)]), vectors)
        assert compiled == []
        for _ in range(3):
            for n in UNROLLED_ORDERS:
                for vectors in (False, True):
                    scalar_solve(random_symmetric(n, n).entries, vectors)
        assert sorted(compiled) == [f"<jacobi order {n}>" for n in UNROLLED_ORDERS]
        assert matrices._unrolled_kernel.cache_info().currsize == len(compiled)

    def test_only_the_dense_family_check_compiles_it(self, monkeypatch):
        compiled = self.compiles(monkeypatch)
        lap = dense_family_laplacian(2.0, 3.0)
        algebraic_connectivity(lap)
        symmetric_eigendecomposition(lap)
        validate_laplacian(lap, 1e-9)
        assert compiled == []
        dense_family_validity(2.0, 3.0)
        assert compiled == ["<jacobi order 4>"]


class TestEigvalsStack:
    @pytest.mark.parametrize("n", range(2, 17))
    def test_zone_stacks_bit_identical(self, n):
        stack = zone_stack(n, n)
        # Links out of range leave exact (negative) zeros off the diagonal.
        assert (stack[:, ~np.eye(n, dtype=bool)] == 0.0).any()
        assert_rows_match_single_solves(stack)

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_random_symmetric_stacks_bit_identical(self, n):
        stack = np.array([random_symmetric(100 * n + g, n).entries for g in range(12)])
        assert_rows_match_single_solves(stack)

    def test_diagonal_slices(self):
        stack = np.array(
            [
                np.diag([3.0, -0.0, 1.0, 0.0]),
                np.zeros((4, 4)),
                random_symmetric(1, 4).entries,
                np.diag([2.0, 2.0, -1.0, 5.0]),
            ]
        )
        assert_rows_match_single_solves(stack)
        assert np.array_equal(_eigh_stack(stack)[0][0], [-0.0, 0.0, 1.0, 3.0])

    def test_slices_converging_on_different_sweeps(self):
        one_pair = np.diag([1.0, 2.0, 3.0, 4.0])
        one_pair[0, 1] = one_pair[1, 0] = 0.5
        tiny = np.array(
            [[1.0, 1e-160, 0.5, 0.0], [1e-160, 2.0, 0.0, 0.0], [0.5, 0.0, 3.0, 0.0], [0.0, 0.0, 0.0, 4.0]]
        )
        subnormal = tiny.copy()
        subnormal[0, 1] = subnormal[1, 0] = 5e-324
        stack = np.array(
            [random_symmetric(3, 4).entries, np.diag([4.0, 3.0, 2.0, 1.0]), one_pair, tiny, subnormal]
            + [m for m in zone_stack(4, 4, cells=6)]
        )
        assert len({sweeps_needed(m) for m in stack}) >= 3
        assert_rows_match_single_solves(stack)

    @pytest.mark.parametrize("rows", EDGE_ROWS)
    def test_edge_rotations_bit_identical(self, rows):
        # The dense companion slice rotates every pair, so the stack mixes rotated and skipped lanes.
        assert_rows_match_single_solves(np.array([rows, random_symmetric(5, 4).entries]))

    def test_signed_zero_eigenvalues_keep_their_order(self):
        zeros = np.diag([-0.0, 0.0] * 40)
        assert_rows_match_single_solves(zeros[None])
        assert _eigh_stack(zeros[None])[0][0].tobytes() == np.diag(zeros).tobytes()

    def test_empty_stack(self):
        for want_vectors in (False, True):
            values, vectors = _eigh_stack(np.empty((0, 3, 3)), want_vectors)
            assert values.shape == (0, 3)
            if want_vectors:
                assert vectors.shape == (0, 3, 3)
            else:
                assert vectors is None

    def test_convergence_error_matches_single_solve(self, monkeypatch):
        dense = random_symmetric(11, 6).entries
        stack = np.array([np.diag(np.arange(6.0)), dense, np.diag(np.arange(6.0))])
        monkeypatch.setattr(matrices, "_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError) as single:
            _eigh_core(dense)
        for vectors in (False, True):
            with pytest.raises(ConvergenceError) as stacked:
                _eigh_stack(stack, vectors)
            assert str(stacked.value) == str(single.value) == "no convergence after 1 sweeps (order 6)"


class TestScalingBand:
    """Slices whose largest entry lies outside [2^-400, 2^400] are solved scaled."""

    def test_scaled_spectra_match_numpy(self):
        b = random_symmetric(5, 8).entries
        for e in range(-300, 301, 5):
            a = b * 10.0**e
            w = symmetric_eigendecomposition(SquareMatrix(a)).eigenvalues
            ref = np.linalg.eigvalsh(a)
            assert np.abs(w - ref).max() <= 1e-12 * np.abs(ref).max(), e

    def test_band_edges_keep_their_bits(self):
        b = random_symmetric(6, 5).entries
        b = b / np.abs(b).max()
        for edge in (2.0**400, 2.0**-400):
            a = b * edge
            assert np.abs(a).max() == edge
            w, v = _eigh_core(a)
            values, vectors = _eigh_stack(a[None], vectors=True)
            assert values[0].tobytes() == w.tobytes()
            assert vectors[0].tobytes() == v.tobytes()

    def test_mixed_stack_bit_identical_to_single_solves(self):
        b = random_symmetric(7, 6).entries
        stack = np.array([b * 1e200, b, b * 1e-250, np.zeros((6, 6)), b * 2.0**401])
        for vectors in (False, True):
            values, vecs = _eigh_stack(stack, vectors)
            for g in range(stack.shape[0]):
                w, v = _eigh_stack(stack[g:g + 1], vectors)
                assert values[g].tobytes() == w[0].tobytes(), g
                if vectors:
                    assert vecs[g].tobytes() == v[0].tobytes(), g
                    assert vecs[g].strides == v[0].strides, g
        # In-band slices keep the unscaled solve's bits; the scaled ones keep
        # the unscaled eigenvectors of the same matrix.
        values, vecs = _eigh_stack(stack, vectors=True)
        w, v = _eigh_core(b)
        assert values[1].tobytes() == w.tobytes() and vecs[1].tobytes() == v.tobytes()
        assert vecs[4].tobytes() == v.tobytes()
        assert values[4].tobytes() == (w * 2.0**401).tobytes()

    def test_in_band_stack_with_a_zero_slice_needs_no_scaling(self):
        b = random_symmetric(8, 5).entries
        assert matrices._band_exponents(np.array([b, np.zeros((5, 5)), b * 1e-100])) is None
        assert matrices._band_exponents(np.zeros((2, 5, 5))) is None
        assert matrices._band_exponents(np.empty((0, 5, 5))) is None

    def test_mixed_stack_exponents(self):
        # Zero, in-band and out-of-band slices; the exponents are those the
        # per-slice mask gave before the whole-stack in-band test went first.
        b = random_symmetric(8, 5).entries
        zero = np.zeros((5, 5))
        stack = np.array([zero, b, b * 2.0**401, b * 1e-250, b * 1e200, zero])
        assert matrices._band_exponents(stack).tolist() == [0, 0, 405, -827, 668, 0]

    def test_stacked_band_edges_keep_their_bits(self):
        b = random_symmetric(6, 5).entries
        b = b / np.abs(b).max()
        edges = np.array([b * 2.0**400, b * 2.0**-400])
        assert matrices._band_exponents(edges) is None
        values, vectors = _eigh_stack(edges, vectors=True)
        for g in range(2):
            w, v = _eigh_core(edges[g])
            assert values[g].tobytes() == w.tobytes(), g
            assert vectors[g].tobytes() == v.tobytes(), g
        # One ulp outside either edge is scaled.
        below = np.array([b * 2.0**400, b * np.nextafter(2.0**-400, 0.0)])
        above = np.array([b * np.nextafter(2.0**400, np.inf), b])
        assert matrices._band_exponents(below).tolist() == [0, -400]
        assert matrices._band_exponents(above).tolist() == [401, 0]

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[1e308, -1e308], [-1e308, 1e308]], "symmetrized matrix overflows float64"),
            (np.full((3, 3), 8e307), "spectrum overflows float64"),
        ],
    )
    def test_overflowing_spectrum_is_non_finite(self, rows, message):
        with pytest.raises(NonFiniteError, match=message):
            symmetric_eigendecomposition(SquareMatrix.from_rows(rows))


class TestStackRotations:
    """The in-place pair updates: lanes that skip a rotation and converge apart keep their bits."""

    @pytest.mark.parametrize("n", range(5, 13))
    def test_sparse_stacks(self, n):
        # At range 3 many pairs are unlinked, so a first-sweep rotation is
        # skipped by some lanes and applied by others, and the slices need
        # different sweep counts; with and without eigenvectors.
        one_pair = np.diag(np.arange(1.0, n + 1.0))
        one_pair[0, 1] = one_pair[1, 0] = 0.5
        stack = np.concatenate([zone_stack(n + 50, n, cells=12, comm_range=3.0), one_pair[None]])
        iu, ju = np.triu_indices(n, 1)
        zero = stack[:, iu, ju] == 0.0
        assert (zero.any(axis=0) & ~zero.all(axis=0)).any()
        assert len({sweeps_needed(m) for m in stack}) >= 2
        assert_rows_match_single_solves(stack)


class TestSingleValuesRoute:
    """``_list_eigenvalues``: Python floats in and out, the array route's bytes."""

    @staticmethod
    def assert_route_matches(sym):
        # The eigenvector route sorts with the arrays' stable argsort.
        want = _eigh_stack(sym[None], vectors=True)[0]
        values, none = _eigh_stack(sym[None])
        listed = _list_eigenvalues(sym.tolist())
        assert none is None
        assert all(type(x) is float for x in listed)
        # tobytes also tells -0.0 from 0.0.
        assert values.tobytes() == want.tobytes() == np.array([listed]).tobytes()

    @pytest.mark.parametrize("n", [1, 3, 4, 5, 9])
    def test_zero_matrices(self, n):
        self.assert_route_matches(np.zeros((n, n)))
        self.assert_route_matches(np.full((n, n), -0.0))

    @pytest.mark.parametrize(
        "diag", [[0.0, -0.0, 1.0, -0.0], [-0.0, 0.0, -0.0], [-0.0, 0.0] * 3, [1.0, -0.0, 0.0, -1.0, 0.0, -0.0]]
    )
    def test_signed_zero_ties_keep_the_stable_order(self, diag):
        sym = np.diag(diag)
        self.assert_route_matches(sym)
        assert _eigh_stack(sym[None])[0][0].tobytes() == np.sort(np.array(diag), kind="stable").tobytes()

    def test_signed_zeros_beside_a_rotated_pair(self):
        # The pair's eigenvalue 0 comes out of the sweeps, beside an exact -0.0 and 0.0.
        sym = np.array([[1.0, -1.0, 0.0, 0.0], [-1.0, 1.0, 0.0, 0.0], [0.0, 0.0, -0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        self.assert_route_matches(sym)
        # Order 8 takes the list loops.
        self.assert_route_matches(np.kron(np.eye(2), sym))

    @pytest.mark.parametrize(
        "scale",
        [2.0**400, 2.0**-400, np.nextafter(2.0**400, np.inf), np.nextafter(2.0**-400, 0.0), 2.0**401, 1e-250, 1e200],
    )
    @pytest.mark.parametrize("n", [4, 6])
    def test_band_edges_and_scaled_matrices(self, scale, n):
        b = random_symmetric(60 + n, n).entries
        b = b / np.abs(b).max()
        assert np.abs(b * scale).max() == scale
        self.assert_route_matches(b * scale)

    @pytest.mark.parametrize("n", [4, 6])
    def test_sweep_cap_message_through_every_route(self, monkeypatch, n):
        dense = random_symmetric(11, n).entries
        monkeypatch.setattr(matrices, "_MAX_SWEEPS", 1)
        message = f"^no convergence after 1 sweeps \\(order {n}\\)$"
        with pytest.raises(ConvergenceError, match=message):
            _list_eigenvalues(dense.tolist())
        for stack in (dense[None], np.array([dense, np.diag(np.arange(float(n))), dense[::-1, ::-1]])):
            for vectors in (False, True):
                with pytest.raises(ConvergenceError, match=message):
                    _eigh_stack(stack, vectors)


@pytest.fixture
def kernel_runs(monkeypatch):
    """The kernels run, in order: "unrolled", "lists" or "stack", one entry per solve."""
    runs = []
    unrolled, lists, stacked = matrices._unrolled_kernel, matrices._jacobi_lists, matrices._jacobi_stack

    def recording(name, kernel):
        def run(*args, **kwargs):
            runs.append(name)
            return kernel(*args, **kwargs)

        return run

    monkeypatch.setattr(matrices, "_unrolled_kernel", lambda n: recording("unrolled", unrolled(n)))
    monkeypatch.setattr(matrices, "_jacobi_lists", recording("lists", lists))
    monkeypatch.setattr(matrices, "_jacobi_stack", recording("stack", stacked))
    return runs


CHOICE_ORDERS = [1, 2, 3, 4, 5, 8, 17]


class TestKernelChoice:
    """Which kernel a solve runs, once per call: nested lists in band the generated one, a stack of one the list loops, a larger stack the vectorised sweeps."""

    @pytest.mark.parametrize("scale", [1.0, 2.0**401])
    @pytest.mark.parametrize("vectors", [False, True])
    @pytest.mark.parametrize("slices", [1, 2])
    @pytest.mark.parametrize("n", CHOICE_ORDERS)
    def test_eigh_stack(self, kernel_runs, n, slices, vectors, scale):
        stack = np.array([random_symmetric(70 + g, n).entries * scale for g in range(slices)])
        assert (matrices._band_exponents(stack) is None) == (scale == 1.0)
        _eigh_stack(stack, vectors)
        assert kernel_runs == ["lists" if slices == 1 else "stack"]

    @pytest.mark.parametrize("scale", [1.0, 2.0**401])
    @pytest.mark.parametrize("n", CHOICE_ORDERS)
    def test_list_eigenvalues(self, kernel_runs, monkeypatch, n, scale):
        # In band the rows go straight to the kernel; out of band through _eigh_stack.
        arrays = []
        monkeypatch.setattr(matrices, "_eigh_stack", lambda stack: arrays.append(stack) or _eigh_stack(stack))
        _list_eigenvalues((random_symmetric(80, n).entries * scale).tolist())
        assert kernel_runs == ["unrolled" if scale == 1.0 else "lists"]
        assert len(arrays) == (scale != 1.0)


class TestPermutationMatrix:
    def test_reversal_matches_reference(self):
        j1 = permutation_matrix((3, 2, 1, 0))
        expected = [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]
        assert np.array_equal(j1.entries, np.array(expected, dtype=float))

    def test_middle_swap_matches_reference(self):
        j2 = permutation_matrix((0, 2, 1, 3))
        expected = [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]]
        assert np.array_equal(j2.entries, np.array(expected, dtype=float))

    def test_identity(self):
        assert permutation_matrix(range(5)).equals(SquareMatrix.identity(5))

    def test_not_bijection(self):
        with pytest.raises(NotBijectionError):
            permutation_matrix((0, 0, 1))
        with pytest.raises(NotBijectionError):
            permutation_matrix((0, 2, 3))

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_transpose_is_inverse_permutation(self, seed, n):
        rng = np.random.default_rng(seed)
        p = rng.permutation(n)
        inv = np.argsort(p)
        assert np.array_equal(permutation_matrix(p).entries.T, permutation_matrix(inv).entries)


class TestTransformValidation:
    def test_permutation_passes(self):
        verdict = validate_iso_transform(permutation_matrix((3, 2, 1, 0)), 1e-9)
        assert verdict.passed and verdict.is_permutation and not verdict.is_identity

    def test_identity_passes(self):
        verdict = validate_iso_transform(SquareMatrix.identity(4), 1e-9)
        assert verdict.passed and verdict.is_identity and verdict.is_permutation

    def test_plane_rotation_fails_ones_test(self):
        c = math.sqrt(2.0) / 2.0
        verdict = validate_iso_transform(SquareMatrix.from_rows([[c, -c], [c, c]]), 1e-9)
        assert verdict.orthonormal
        assert not verdict.fixes_ones  # row sums are 0 and 2c, not 1
        assert not verdict.passed

    def test_requires_positive_tol(self):
        with pytest.raises(ValueError):
            validate_iso_transform(SquareMatrix.identity(2), 0.0)

    @pytest.mark.parametrize(
        "rows",
        [
            [[1e308, -1e308], [-1e308, 1e308]],  # q.T @ q overflows to inf
            [[1e308, 1e308], [1e308, -1e308]],  # inf - inf: a nan residual
        ],
    )
    def test_overflowing_products_fail_without_warnings(self, rows):
        verdict = validate_iso_transform(SquareMatrix.from_rows(rows), 1e-9)
        assert not verdict.orthonormal and not verdict.fixes_ones and not verdict.passed


class TestOnesAxisRotation:
    def test_zero_angle_is_identity(self):
        assert ones_axis_rotation(3, 0.0).equals(SquareMatrix.identity(3))

    def test_full_turn_is_identity(self):
        q = ones_axis_rotation(3, 2.0 * math.pi)
        assert q.isclose(SquareMatrix.identity(3), 1e-12)

    def test_direct_multiplication_oracle(self):
        q = ones_axis_rotation(3, math.pi / 4).entries
        assert np.abs(q @ np.ones(3) - 1.0).max() <= 1e-12
        assert np.abs(q.T @ q - np.eye(3)).max() <= 1e-12

    def test_too_small(self):
        with pytest.raises(OrderTooSmallError):
            ones_axis_rotation(2, 0.3)

    def test_an_integral_float_order(self):
        # n = 3.0 used to raise numpy's TypeError.
        assert ones_axis_rotation(3.0, 0.4).equals(ones_axis_rotation(3, 0.4))
        assert SquareMatrix.identity(3.0).equals(SquareMatrix.identity(3))

    @pytest.mark.parametrize("n", [True, 3.5, "3"])
    def test_the_order_follows_the_integer_rule(self, n):
        # ones_axis_rotation(True, ...) used to be an OrderTooSmallError.
        with pytest.raises(ValueError, match="n must be an integer"):
            ones_axis_rotation(n, 0.4)
        with pytest.raises(ValueError, match="n must be an integer"):
            SquareMatrix.identity(n)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf, math.nan])
    def test_a_non_finite_angle(self, theta):
        # inf used to raise "math domain error" from math.cos.
        with pytest.raises(ValueError, match="theta must be finite"):
            ones_axis_rotation(4, theta)

    @given(n=st.integers(3, 9), k=st.integers(-12, 12))
    @settings(max_examples=40, deadline=None)
    def test_always_validates(self, n, k):
        q = ones_axis_rotation(n, k * math.pi / 7.0)
        assert validate_iso_transform(q, 1e-12).passed
