import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isoconn import (
    InvalidTransformError,
    NotBijectionError,
    NotLaplacianError,
    OrderTooLargeError,
    SquareMatrix,
    build_laplacian,
    is_isospectral,
    ones_axis_rotation,
    permutation_family,
    permutation_matrix,
    relabel_configuration,
    similarity_transform,
    validate_laplacian,
)
from conftest import (
    J1_PERM,
    J2_PERM,
    K4_ROWS,
    L1_ROWS,
    L2_ROWS,
    L3_ROWS,
    PATH3_WEIGHTED_ROWS,
    make_config,
    random_config,
)

NOT_LAPLACIAN = SquareMatrix.from_rows([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]])  # positive off-diagonal


def brute_force_conjugates(rows):
    """Oracle: all distinct non-identity relabeling conjugates, by direct matmul."""
    m = np.array(rows, dtype=float)
    n = m.shape[0]
    seen = {}
    for perm in itertools.permutations(range(n)):
        if perm == tuple(range(n)):
            continue
        j = permutation_matrix(perm).entries
        seen.setdefault((j.T @ m @ j).tobytes(), perm)
    return [np.frombuffer(k).reshape(n, n) for k in seen]


class TestSimilarityTransform:
    def test_orders_must_agree(self, l1):
        with pytest.raises(InvalidTransformError, match="^orders differ: 4 vs 3$"):
            similarity_transform(l1, permutation_matrix([2, 1, 0]))

    def test_base_must_be_a_laplacian(self):
        with pytest.raises(NotLaplacianError, match="^base matrix fails structural Laplacian validation$"):
            similarity_transform(NOT_LAPLACIAN, permutation_matrix([2, 1, 0]))

    def test_reversal_reproduces_reference(self, l1, l2):
        entry = similarity_transform(l1, permutation_matrix(J1_PERM))
        assert entry.result.equals(l2)
        assert entry.laplacian_structured
        assert entry.distinct_from_base
        assert entry.perm == J1_PERM

    def test_middle_swap_reproduces_reference(self, l1, l3):
        entry = similarity_transform(l1, permutation_matrix(J2_PERM))
        assert entry.result.equals(l3)
        assert entry.distinct_from_base

    def test_identity_is_not_distinct(self, l1):
        entry = similarity_transform(l1, SquareMatrix.identity(4))
        assert entry.result.equals(l1)
        assert not entry.distinct_from_base

    def test_invalid_transform_rejected(self, l1):
        c = math.sqrt(2.0) / 2.0
        bad = SquareMatrix.from_rows(
            [[c, -c, 0, 0], [c, c, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        )
        with pytest.raises(InvalidTransformError):
            similarity_transform(l1, bad)

    def test_rotation_conjugate_keeps_row_sums(self, l1):
        entry = similarity_transform(l1, ones_axis_rotation(4, 0.7))
        assert np.abs(entry.result.entries.sum(axis=1)).max() <= 1e-12


class TestPermutationFamily:
    def test_base_must_be_a_laplacian(self):
        with pytest.raises(NotLaplacianError, match="^base matrix fails structural Laplacian validation$"):
            permutation_family(NOT_LAPLACIAN)

    def test_deduped_base_family_matches_oracle(self, l1, l2, l3):
        entries = permutation_family(l1, dedupe=True)
        assert len(entries) == 6
        results = [e.result.entries for e in entries]
        assert any(np.array_equal(r, l2.entries) for r in results)
        assert any(np.array_equal(r, l3.entries) for r in results)
        oracle = brute_force_conjugates(L1_ROWS)
        assert len(oracle) == 6
        for r in results:
            assert any(np.array_equal(r, o) for o in oracle)

    def test_complete_graph_collapses_to_itself(self, k4):
        entries = permutation_family(k4, dedupe=True)
        assert len(entries) == 1
        assert entries[0].result.equals(k4)
        assert not entries[0].distinct_from_base

    def test_limit_without_dedupe_is_lexicographic(self, l1):
        entries = permutation_family(l1, limit=2, dedupe=False)
        perms = [e.perm for e in entries]
        assert perms == [(0, 1, 3, 2), (0, 2, 1, 3)]
        for entry in entries:
            j = entry.transform.entries
            expected = j.T @ l1.entries @ j
            assert np.array_equal(entry.result.entries, expected)

    def test_full_enumeration_refused_beyond_cutoff(self):
        lap = build_laplacian(make_config([(float(i), 0.0) for i in range(9)]))
        with pytest.raises(OrderTooLargeError):
            permutation_family(lap, sample=False)

    def test_sampling_is_seeded_and_deterministic(self):
        lap = build_laplacian(make_config([(float(i), 0.3 * i * i) for i in range(9)]))
        a = permutation_family(lap, limit=5, seed=42)
        b = permutation_family(lap, limit=5, seed=42)
        assert [x.perm for x in a] == [x.perm for x in b]
        assert len(a) == 5
        for entry in a:
            assert is_isospectral(lap, entry.result, 1e-9)

    def test_every_entry_is_isospectral_and_structured(self, l1):
        for entry in permutation_family(l1, dedupe=False):
            assert is_isospectral(l1, entry.result, 1e-9)
            assert validate_laplacian(entry.result, 1e-9).passed

    def test_json_shape(self, l1):
        data = permutation_family(l1, limit=1)[0].to_json_dict()
        assert set(data) == {"perm", "matrix", "laplacian_structured", "distinct_from_base"}

    def test_bad_limit(self, l1):
        with pytest.raises(ValueError):
            permutation_family(l1, limit=0)

    @pytest.mark.parametrize("dedupe", [False, True])
    def test_entry_cap_refuses_before_any_draw(self, monkeypatch, dedupe):
        # At order 64, 2**24 matrix entries hold 2048 relabelings' transforms and results.
        class Drawn(Exception):
            pass

        class NoDraws:
            def permutation(self, n):
                raise Drawn

        monkeypatch.setattr(np.random, "default_rng", lambda seed: NoDraws())
        zero = SquareMatrix(np.zeros((64, 64)))
        with pytest.raises(Drawn):
            permutation_family(zero, limit=2048, sample=True, dedupe=dedupe)
        with pytest.raises(ValueError, match="^2049 relabelings of order 64 would hold 16785408 matrix entries"):
            permutation_family(zero, limit=2049, sample=True, dedupe=dedupe)


class TestRelabelConfiguration:
    @pytest.mark.parametrize("perm", [(0, 1), (0, 1, 2, 3)])
    def test_one_entry_per_agent(self, perm):
        config = make_config([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(ValueError, match=f"^permutation length {len(perm)} != agent count 3$"):
            relabel_configuration(config, perm)

    def test_identity_is_noop(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert relabel_configuration(config, (0, 1, 2)) == config

    @pytest.mark.parametrize("perm", [J1_PERM, J2_PERM])
    def test_conjugation_oracle(self, perm):
        config = make_config(
            [(0.0, 0.0), (3.0, 0.5), (1.0, 2.0), (4.0, 4.0)], sigma=1.0, comm_range=8.0
        )
        relabeled = relabel_configuration(config, perm)
        j = permutation_matrix(perm).entries
        direct = build_laplacian(relabeled).entries
        conjugated = j.T @ build_laplacian(config).entries @ j
        assert np.abs(direct - conjugated).max() <= 1e-15

    def test_ids_travel_with_positions(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0)], ids=["left", "right"])
        swapped = relabel_configuration(config, (1, 0))
        assert swapped.agents[0].id == "right"
        assert swapped.agents[0].x == 1.0

    def test_not_bijection(self):
        config = make_config([(0.0, 0.0), (1.0, 0.0)])
        with pytest.raises(NotBijectionError):
            relabel_configuration(config, (0, 0))

    @given(seed=st.integers(0, 2**32 - 1))
    @example(seed=7773289)  # a degree off by 1.78e-15 in its last bits
    @settings(max_examples=25, deadline=None)
    def test_random_permutations_conjugate_exactly(self, seed):
        """Off-diagonals conjugate exactly; each degree up to a reordered sum's rounding.

        Relabeling moves every link weight exactly, but a degree sums the same
        weights in another order, so it may differ in its last bits: by at
        most 2 * gamma_(n-1) * (sum of the row's weights), gamma_k = k*u/(1 - k*u).
        """
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        config = random_config(rng, n=n)
        perm = tuple(int(i) for i in rng.permutation(n))
        j = permutation_matrix(perm).entries
        direct = build_laplacian(relabel_configuration(config, perm)).entries
        conjugated = j.T @ build_laplacian(config).entries @ j
        off = ~np.eye(n, dtype=bool)
        assert np.array_equal(direct[off], conjugated[off])
        u = np.finfo(float).eps / 2
        gamma = (n - 1) * u / (1 - (n - 1) * u)
        weights = -direct[off].reshape(n, n - 1)
        bound = 2 * gamma * weights.sum(axis=1)
        assert (np.abs(np.diag(direct) - np.diag(conjugated)) <= bound).all()


class TestStructureCaveatWitness:
    def test_rotation_conjugate_escapes_laplacian_structure(self):
        # A lopsided 3-node path, rotated about the ones axis: the spectrum and
        # the zero row sums survive, but an off-diagonal entry turns positive,
        # so the conjugate is no longer a Laplacian.
        base = SquareMatrix.from_rows(PATH3_WEIGHTED_ROWS)
        entry = similarity_transform(base, ones_axis_rotation(3, math.pi / 6))
        assert is_isospectral(base, entry.result, 1e-9)
        checks = validate_laplacian(entry.result, 1e-9)
        assert checks.symmetric and checks.zero_row_sums and checks.psd
        assert not checks.nonpositive_offdiag
        assert not entry.laplacian_structured
