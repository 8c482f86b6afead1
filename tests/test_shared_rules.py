"""One tolerance rule, one integer rule, one float rule and one link rule across the public functions."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from isoconn import (
    Agent,
    AnalysisError,
    AgentConfiguration,
    DegenerateFiedlerError,
    EmptyGridError,
    GridSpec,
    LaplacianValidation,
    NonSymmetricError,
    NotBijectionError,
    SpectralDecomposition,
    SquareMatrix,
    adjacency_weight,
    algebraic_connectivity,
    block_decompose,
    build_adjacency,
    build_laplacian,
    connectivity_differential,
    dense_family_laplacian,
    dense_family_spectrum,
    dense_family_validity,
    fiedler_null_space_check,
    integrate_connectivity_change,
    is_connected,
    is_isospectral,
    iso_connectivity_zone,
    laplacian_motion_derivative,
    mirror_moves,
    ones_axis_rotation,
    permutation_family,
    permutation_matrix,
    relabel_configuration,
    similarity_transform,
    symmetric_eigendecomposition,
    validate_iso_transform,
    validate_laplacian,
)
from isoconn.spectral import DEGENERACY_GAP
from conftest import L4P_ROWS, L4PP_ROWS, geometric_config, make_config

L = dense_family_laplacian(2.0, 3.0)
Q = permutation_matrix([3, 2, 1, 0])
V = SquareMatrix.from_rows([[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]])
# Equilateral agents: the second eigenvalue is repeated at the path start, so
# an unchecked nan, negative or zero gap_tol returned an integral here.
TRIANGLE = make_config([(0.0, 0.0), (2.0, 0.0), (1.0, math.sqrt(3.0))], comm_range=5.0)

TOL_CALLS = {
    "validate_laplacian": lambda tol: validate_laplacian(L, tol),
    "algebraic_connectivity": lambda tol: algebraic_connectivity(L, tol),
    "validate_iso_transform": lambda tol: validate_iso_transform(Q, tol),
    "similarity_transform": lambda tol: similarity_transform(L, Q, tol),
    "is_isospectral": lambda tol: is_isospectral(L, L, tol),
    "fiedler_null_space_check": lambda tol: fiedler_null_space_check(L, L, tol),
    "connectivity_differential": lambda tol: connectivity_differential(L, V, tol),
    "integrate_connectivity_change": lambda tol: integrate_connectivity_change(
        TRIANGLE, 2, [(1.0, math.sqrt(3.0)), (1.5, 2.5)], 20, gap_tol=tol
    ),
    "symmetric_eigendecomposition": lambda tol: symmetric_eigendecomposition(L, symmetry_tol=tol),
}


@pytest.mark.parametrize("name", sorted(TOL_CALLS))
@pytest.mark.parametrize(
    "tol,message",
    [
        (math.inf, "tol must be finite, got inf"),
        (math.nan, "tol must be finite, got nan"),
        (0.0, "tol must be positive"),
        (-1.0, "tol must be positive"),
        pytest.param(10**400, "tol must be finite, got inf", id="10**400"),
    ],
)
def test_bad_tol_rejected(name, tol, message):
    with pytest.raises(ValueError, match=message):
        TOL_CALLS[name](tol)


def test_non_finite_tol_cannot_pass_or_fail_everything():
    # Unchecked, an infinite tol passes every flag of a non-Laplacian and of
    # a non-orthonormal transform, and a nan tol calls two equal matrices
    # non-isospectral.
    with pytest.raises(ValueError):
        validate_laplacian(SquareMatrix.from_rows([[1, 5], [-3, 1]]), math.inf)
    with pytest.raises(ValueError):
        validate_iso_transform(SquareMatrix.from_rows([[2, 0], [0, 7]]), math.inf)
    with pytest.raises(ValueError):
        is_isospectral(L, L, math.nan)
    # An unchecked symmetry_tol accepted this matrix and returned the
    # eigensystem of its symmetrisation, residual 2.83.
    for symmetry_tol in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^symmetry_tol must be finite"):
            symmetric_eigendecomposition(SquareMatrix.from_rows([[1, 5], [-3, 1]]), symmetry_tol=symmetry_tol)


# The scale of a tolerance: every structural check of a matrix allows tol
# times max(1, largest |entry|), so a Laplacian validates at any scale.
FOUR_AGENTS = build_laplacian(make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 3.0)]))


@pytest.mark.parametrize("n,seed", [(4, 1), (6, 2), (9, 3)])
def test_power_of_two_scalings_validate_with_the_scaled_lambda2(n, seed):
    lap = build_laplacian(geometric_config(np.random.default_rng(seed), n))
    lambda2 = algebraic_connectivity(lap).lambda2
    for k in range(-20, 61):
        scaled = SquareMatrix(np.ldexp(lap.entries, k))
        assert validate_laplacian(scaled, 1e-9).passed, k
        assert algebraic_connectivity(scaled).lambda2.hex() == math.ldexp(lambda2, k).hex(), k


@pytest.mark.parametrize("factor", [1e8, 1e10])
def test_decimal_scalings_validate(factor):
    # The absolute rule failed zero_row_sums at both scales.
    assert validate_laplacian(SquareMatrix(FOUR_AGENTS.entries * factor), 1e-9).passed


def test_overflowing_asymmetry_is_not_symmetric():
    # The true asymmetry, 3.4e308, is 2 times the largest entry; tol * scale
    # and the differences overflow unless compared scaled by a power of two.
    m = SquareMatrix.from_rows([[0.0, 1.7e308, -1.7e308], [-1.7e308, 0.0, 0.0], [1.7e308, 0.0, 0.0]])
    assert not validate_laplacian(m, 1.5).symmetric
    assert validate_laplacian(m, 2.5).symmetric
    with pytest.raises(NonSymmetricError, match=r"^asymmetry inf exceeds 1\.5e\+00 \* 1\.700e\+308$"):
        symmetric_eigendecomposition(m, symmetry_tol=1.5)


def absolute_flags(m, tol):
    """validate_laplacian's flags under the absolute rule: every residual against tol itself."""
    w = symmetric_eigendecomposition(SquareMatrix(0.5 * (m + m.T))).eigenvalues
    return LaplacianValidation(
        symmetric=float(np.abs(m - m.T).max()) <= tol,
        zero_row_sums=float(np.abs(m.sum(axis=1)).max()) <= tol,
        nonpositive_offdiag=all(m[i, j] <= tol for i in range(len(m)) for j in range(len(m)) if i != j),
        psd=w[0] >= -tol,
        connected=len(m) == 1 or w[1] > tol,
    )


@st.composite
def unit_matrices(draw):
    """Laplacians with entries up to 1, nudged by a noise that straddles the tolerances."""
    n = draw(st.integers(1, 6))
    upper = np.triu(draw(arrays(float, (n, n), elements=st.floats(0.0, 1.0 / n))), 1)
    weights = upper + upper.T
    noise = draw(arrays(float, (n, n), elements=st.sampled_from([0.0, 0.0, 1e-13, -1e-10, 1e-8, -1e-6, 1e-3, -0.5])))
    return np.clip(np.diag(weights.sum(axis=1)) - weights + noise, -1.0, 1.0)


@given(unit_matrices(), st.sampled_from([1e-12, 1e-9, 1e-7, 1e-4, 0.1]))
@settings(max_examples=200, deadline=None)
def test_entries_up_to_one_keep_the_absolute_rule(m, tol):
    assert validate_laplacian(SquareMatrix(m), tol) == absolute_flags(m, tol)


# One rule for every decision on a spectrum: a gap or a difference of
# eigenvalues is compared with its threshold times max(1, largest |entry|) of
# the matrix it was solved from.  A power of two scales every eigenvalue
# exactly, so no verdict may depend on it; the scales run past 2^1000, where
# the comparisons must stay finite and warning-free.
SCALES = [-10, 0, 10, 16, 20, 30, 40, 50, 60, 1010]


def scaled(matrix, k):
    return SquareMatrix(np.ldexp(matrix.entries, k))


def relabeled_pair(seed):
    """A seven-agent geometric Laplacian (range 3) and a random relabeling of it."""
    rng = np.random.default_rng([seed, 7])
    lap = build_laplacian(geometric_config(rng, 7, comm_range=3.0))
    perm = rng.permutation(7)
    return lap, SquareMatrix(lap.entries[np.ix_(perm, perm)])


# Until every decision read the scale, all 50 pairs were non-isospectral from
# 2^20 on, though their spectra agree to about 1e-15 of the entries.
@pytest.mark.parametrize("k", [k for k in SCALES if k >= 0])
def test_relabelings_are_isospectral_at_every_scale(k):
    for seed in range(50):
        a, b = relabeled_pair(seed)
        assert is_isospectral(scaled(a, k), scaled(b, k)), seed


# The unit square has lambda2 = lambda3 by symmetry, a computed gap of about
# 1e-15 of its entries; the absolute rule called it simple from 2^30 on.
UNIT_SQUARE = build_laplacian(make_config([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)], comm_range=1.2))


@pytest.mark.parametrize("k", SCALES)
def test_a_repeated_lambda2_is_degenerate_at_every_scale(k):
    square = scaled(UNIT_SQUARE, k)
    assert algebraic_connectivity(square).degenerate
    with pytest.raises(DegenerateFiedlerError):
        connectivity_differential(square, V)
    with pytest.raises(DegenerateFiedlerError):
        fiedler_null_space_check(square, square)


def two_clusters():
    """Two four-agent clusters in 2x2 boxes 50 apart, range 3: each connected, the whole not."""
    rng = np.random.default_rng(5)
    points = np.vstack([rng.uniform(0.0, 2.0, size=(4, 2)), rng.uniform(0.0, 2.0, size=(4, 2)) + 50.0])
    return build_laplacian(make_config(points, comm_range=3.0))


# Two zero eigenvalues, whose rounding the absolute rule read as connected
# from 2^30 on; the one-sided degeneracy rule never saw them.
TWO_CLUSTERS = two_clusters()


@pytest.mark.parametrize("k", SCALES)
def test_a_disconnected_laplacian_reads_disconnected_at_every_scale(k):
    lap = scaled(TWO_CLUSTERS, k)
    assert not validate_laplacian(lap, 1e-9).connected
    assert algebraic_connectivity(lap).degenerate


def test_two_components_are_degenerate():
    # Spectrum [0, 0, 2, 4]: the gap to the third eigenvalue is 2, but the
    # second eigenvalue is a second zero.
    rows = [[1, -1, 0, 0], [-1, 1, 0, 0], [0, 0, 2, -2], [0, 0, -2, 2]]
    report = algebraic_connectivity(SquareMatrix.from_rows(rows))
    assert report.spectrum == pytest.approx([0.0, 0.0, 2.0, 4.0], abs=1e-12)
    assert report.degenerate and report.to_json_dict()["degenerate"] is True


@pytest.mark.parametrize("k", SCALES)
def test_a_shared_fiedler_vector_passes_at_every_scale(k):
    base, other = (scaled(SquareMatrix.from_rows(rows), k) for rows in (L4P_ROWS, L4PP_ROWS))
    check = fiedler_null_space_check(base, other)
    assert check.ok and check.lambda2_match


@st.composite
def unit_laplacian_pairs(draw):
    """A Laplacian with entries up to 1, and a relabeling of it nudged on one link.

    Repeated weights give repeated eigenvalues and zero weights give several
    components; the nudges straddle the tolerances.
    """
    n = draw(st.integers(2, 6))
    levels = st.sampled_from([0.0, 0.25 / n, 0.5 / n, 1.0 / n])
    upper = np.triu(draw(arrays(float, (n, n), elements=levels)), 1)
    weights = upper + upper.T
    a = np.diag(weights.sum(axis=1)) - weights
    perm = draw(st.permutations(range(n)))
    nudge = np.zeros((n, n))
    nudge[0, 0] = nudge[1, 1] = draw(st.sampled_from([0.0, 1e-12, 1e-10, 1e-8, 1e-6]))
    nudge[0, 1] = nudge[1, 0] = -nudge[0, 0]
    return SquareMatrix(a), SquareMatrix(a[np.ix_(perm, perm)] + nudge)


def absolute_degenerate(w):
    """The two-sided rule at scale 1: the second eigenvalue within DEGENERACY_GAP of a neighbour."""
    return bool(np.diff(w)[:2].min() < DEGENERACY_GAP)


@given(unit_laplacian_pairs(), st.sampled_from([1e-12, 1e-9, 1e-7, 1e-4]))
@settings(max_examples=200, deadline=None)
def test_scale_one_keeps_the_absolute_rule(pair, tol):
    a, b = pair
    wa, wb = (symmetric_eigendecomposition(m).eigenvalues for m in pair)
    reports = [algebraic_connectivity(m) for m in pair]
    assert [r.scale for r in reports] == [1.0, 1.0]
    assert [r.degenerate for r in reports] == [absolute_degenerate(wa), absolute_degenerate(wb)]
    assert validate_laplacian(a, tol).connected is bool(wa[1] > tol)
    assert is_isospectral(a, b, tol) is bool(np.abs(wa - wb).max() <= tol)
    if any(r.degenerate for r in reports):
        with pytest.raises(DegenerateFiedlerError):
            fiedler_null_space_check(a, b, tol)
        return
    check = fiedler_null_space_check(a, b, tol)
    residual = float(np.abs((b.entries - a.entries) @ reports[0].fiedler).max())
    assert check.residual == residual and check.ok is (residual <= tol)
    assert check.lambda2_match is bool(abs(wa[1] - wb[1]) <= tol)


CONFIG = make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0)], comm_range=10.0)
INDEX_CALLS = {
    "block_decompose": lambda i: block_decompose(build_laplacian(CONFIG), i),
    "laplacian_motion_derivative": lambda i: laplacian_motion_derivative(CONFIG, i, (1.0, 0.0)),
    "mirror_moves": lambda i: mirror_moves(CONFIG, i),
    "integrate_connectivity_change": lambda i: integrate_connectivity_change(CONFIG, i, [(1.0, 2.0), (1.5, 2.0)], 3),
    "iso_connectivity_zone": lambda i: iso_connectivity_zone(CONFIG, i, GridSpec(0.0, 1.0, 0.0, 1.0, 1, 1)),
}


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
@pytest.mark.parametrize("index", [-1, 3, 10])
def test_agent_index_out_of_range(name, index):
    with pytest.raises(IndexError, match=f"^agent index {index} out of range for order 3$"):
        INDEX_CALLS[name](index)


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
@pytest.mark.parametrize("index", [True, 1.5, "1", None, math.nan])
def test_agent_index_must_be_an_integer(name, index):
    # A bool used to run as agent 1, a float leaked numpy's indexing error and
    # iso_connectivity_zone leaked np.delete's ValueError.
    with pytest.raises(ValueError, match="^agent index must be an integer, got "):
        INDEX_CALLS[name](index)


@pytest.mark.parametrize("name", sorted(INDEX_CALLS))
def test_integral_agent_indices_name_the_agent(name):
    want = repr(INDEX_CALLS[name](1))
    for index in (1.0, np.int64(1), np.uint8(1)):
        assert repr(INDEX_CALLS[name](index)) == want


@pytest.mark.parametrize("perm", [[0.5, 1, 2], [1, True, 2], ["1", 0, 2], [2, 0, 1.25]])
def test_permutation_entries_must_be_integers(perm):
    # 0.5 used to truncate to 0, relabelling by the identity.
    for call in (permutation_matrix, lambda p: relabel_configuration(CONFIG, p)):
        with pytest.raises(ValueError, match="^permutation entry must be an integer, got "):
            call(perm)


def test_integral_permutation_entries():
    want = relabel_configuration(CONFIG, [2, 0, 1])
    for perm in ([2.0, 0.0, 1.0], np.array([2, 0, 1]), (np.int32(2), 0, 1)):
        assert relabel_configuration(CONFIG, perm) == want
        assert permutation_matrix(perm).equals(permutation_matrix([2, 0, 1]))


COUNT_CALLS = {
    "steps": lambda k: integrate_connectivity_change(CONFIG, 2, [(1.0, 2.0), (1.5, 2.0)], k),
    "limit": lambda k: permutation_family(build_laplacian(CONFIG), limit=k),
    "nx": lambda k: GridSpec(0.0, 1.0, 0.0, 1.0, k, 1),
    "ny": lambda k: GridSpec(0.0, 1.0, 0.0, 1.0, 1, k),
}


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
@pytest.mark.parametrize("count", [2.5, True, "2", math.inf, math.nan])
def test_counts_must_be_integers(name, count):
    # limit=2.5 used to return every relabelling, steps=10.5 and steps=True
    # ran, and a fractional nx raised a bare TypeError mid-scan.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        COUNT_CALLS[name](count)


@pytest.mark.parametrize("name", sorted(COUNT_CALLS))
def test_integral_counts(name):
    want = repr(COUNT_CALLS[name](2))
    for count in (2.0, np.int64(2)):
        assert repr(COUNT_CALLS[name](count)) == want


# Where two distance formulas would disagree: agent 1 exactly at the range by
# the sum of squares but one ulp beyond it by hypot, distances whose squares
# underflow (scaled by 1e199 no pair is in range), one distance of 7.07e307
# whose square overflows, and a weight exp(-1000) that underflows to 0 in
# range.  Each case lists the pairs the link rule links.
LINK_CASES = {
    "boundary": (
        make_config([(0.0, 0.0), (1.7156854108455517, 3.9633006467991816), (-1.0, 0.0)], comm_range=4.318718380018206),
        {(0, 1), (0, 2)},
    ),
    "tiny": (make_config([(0.0, 0.0), (2e-199, 0.0), (0.0, 4e-199)], comm_range=1e-199), set()),
    "huge": (make_config([(1e308, 0.0), (1.7e308, 1e307), (-1e308, 0.0)], sigma=0.7, comm_range=1e308), {(0, 1)}),
    "underflow": (make_config([(0.0, 0.0), (1.0, 0.0), (0.0, -0.001)], sigma=1000.0, comm_range=1.0), {(0, 2)}),
}


def linked_pairs(mobile, neighbors):
    return {tuple(sorted((mobile, int(j)))) for j in neighbors if j != mobile}


def link_views(config):
    """The link set as each public function reports it."""
    n = len(config.agents)
    adjacency = build_adjacency(config).entries
    derivative, mirror = set(), set()
    for mobile in range(n):
        row = laplacian_motion_derivative(config, mobile, (1.0, -3.0)).entries[mobile]
        derivative |= linked_pairs(mobile, np.nonzero(row)[0])
        mirror |= linked_pairs(mobile, mirror_moves(config, mobile).preserved_neighbors)
    return {
        "build_adjacency": {(i, j) for i in range(n) for j in range(i + 1, n) if adjacency[i, j] > 0.0},
        "laplacian_motion_derivative": derivative,
        "mirror_moves": mirror,
    }


def connects_all(n, pairs):
    seen = {0}
    for _ in range(n):
        seen |= {b for a, b in pairs if a in seen} | {a for a, b in pairs if b in seen}
    return len(seen) == n


@pytest.mark.parametrize("name", sorted(LINK_CASES))
def test_one_link_rule(name):
    config, pairs = LINK_CASES[name]
    views = link_views(config)
    assert views == dict.fromkeys(views, pairs)
    connected = connects_all(len(config.agents), pairs)
    assert is_connected(config) == connected
    # The path integral: a step of 1% of the range toward a linked agent keeps
    # every link, so its range flags must see no crossing.  A disconnected
    # start has a repeated zero eigenvalue and is refused.
    pos = config.positions()
    for mobile in range(len(pos)):
        partners = [b if a == mobile else a for a, b in sorted(pairs) if mobile in (a, b)]
        toward = pos[partners[0]] - pos[mobile] if partners else np.array([1.0, 0.0])
        walk = [pos[mobile], pos[mobile] + toward / np.hypot(*toward) * (0.01 * config.comm_range)]
        if not connected:
            with pytest.raises(DegenerateFiedlerError, match="at the path start"):
                integrate_connectivity_change(config, mobile, walk, 4)
        else:
            assert integrate_connectivity_change(config, mobile, walk, 4).warnings == ()


# At the first example np.exp and math.exp round the weight differently; at
# the second the weight exp(-800) underflows to 0 in range.
@given(st.floats(1e-9, 1e3), st.floats(1e-3, 1e4), st.floats(1e-3, 1e3))
@example(5.307950165029082, 1.3, 10.0)
@example(4.0, 2000.0, 10.0)
@settings(max_examples=100, deadline=None)
def test_adjacency_weight_is_the_adjacency_entry(distance, sigma, comm_range):
    config = make_config([(0.0, 0.0), (distance, 0.0)], sigma=sigma, comm_range=comm_range)
    entry = float(build_adjacency(config).entries[0, 1])
    assert adjacency_weight(distance, sigma, comm_range).hex() == entry.hex()


@pytest.mark.parametrize("distance,sigma,comm_range", [(0.0, 1e300, 1e-10), (0.0, math.inf, 10.0), (math.nan, 1.0, 1.0)])
def test_adjacency_weight_refuses_a_non_finite_decay_rate_or_distance(distance, sigma, comm_range):
    with pytest.raises(ValueError):
        adjacency_weight(distance, sigma, comm_range)


# A caller's integer past 4300 digits in an error message used to raise
# Python's own ValueError for the int-to-str conversion instead.
HUGE_INT_CALLS = {
    "steps": (lambda: integrate_connectivity_change(CONFIG, 2, [(1.0, 2.0), (1.5, 2.0)], 10**5000), ValueError),
    "mirror_moves": (lambda: mirror_moves(CONFIG, 10**5000), IndexError),
    "with_position": (lambda: CONFIG.with_position(10**5000, 1.0, 2.0), IndexError),
    "nx": (lambda: GridSpec(0, 1, 0, 1, -10**5000, 1), EmptyGridError),
    "ny": (lambda: GridSpec(0, 1, 0, 1, 1, 10**5000), ValueError),
    "permutation": (lambda: permutation_matrix([0, 10**5000]), NotBijectionError),
}


@pytest.mark.parametrize("name", sorted(HUGE_INT_CALLS))
def test_a_huge_integer_in_a_message_is_shown_by_its_size(name):
    call, error = HUGE_INT_CALLS[name]
    with pytest.raises(error, match="a (negative )?16610-bit integer"):
        call()


# The float rule: every public float parameter takes a Python float, an int,
# or a numpy floating or integer scalar as the equal Python float, and
# refuses a bool or a string with a ValueError naming it.  Each row is
# (call of the value, name in the message, a fraction for the float kinds,
# an integer for the integer kinds).
TWO = (Agent("a1", 0.0, 0.0), Agent("a2", 1.0, 0.0))
ZONE_GRID = GridSpec(0.0, 4.0, 1.0, 3.0, 2, 1)


def json_config(key, value, agent=None):
    data = CONFIG.to_json_dict()
    (data if agent is None else data["agents"][agent])[key] = value
    return AgentConfiguration.from_json_dict(data)


FLOAT_CALLS = {
    "Agent.x": (lambda v: AgentConfiguration((Agent("a1", v, 0.0), TWO[1]), 1.0, 10.0), "agents[0].x", 0.3, 2),
    "Agent.y": (lambda v: AgentConfiguration((TWO[0], Agent("a2", 1.0, v)), 1.0, 10.0), "agents[1].y", 0.3, 2),
    "sigma": (lambda v: AgentConfiguration(TWO, v, 10.0), "sigma", 0.3, 2),
    "comm_range": (lambda v: AgentConfiguration(TWO, 1.0, v), "comm_range", 1.3, 3),
    "from_json_dict.sigma": (lambda v: json_config("sigma", v), "sigma", 0.3, 2),
    "from_json_dict.range": (lambda v: json_config("range", v), "comm_range", 1.3, 3),
    "from_json_dict.x": (lambda v: json_config("x", v, 2), "agents[2].x", 0.3, 2),
    "with_position.x": (lambda v: CONFIG.with_position(2, v, 2.0), "agents[2].x", 0.3, 2),
    "with_position.y": (lambda v: CONFIG.with_position(2, 1.0, v), "agents[2].y", 0.3, 2),
    "adjacency_weight.distance": (lambda v: adjacency_weight(v, 1.1, 2.0), "distance", 0.3, 1),
    "adjacency_weight.sigma": (lambda v: adjacency_weight(0.5, v, 2.0), "sigma", 1.1, 2),
    "adjacency_weight.comm_range": (lambda v: adjacency_weight(0.5, 1.1, v), "comm_range", 1.3, 2),
    "GridSpec.xmin": (lambda v: GridSpec(v, 4.0, 1.0, 3.0, 2, 1), "xmin", 0.3, 1),
    "GridSpec.xmax": (lambda v: GridSpec(0.0, v, 1.0, 3.0, 2, 1), "xmax", 3.3, 4),
    "GridSpec.ymin": (lambda v: GridSpec(0.0, 4.0, v, 3.0, 2, 1), "ymin", 0.3, 1),
    "GridSpec.ymax": (lambda v: GridSpec(0.0, 4.0, 1.0, v, 2, 1), "ymax", 3.3, 3),
    "iso_connectivity_zone.target": (lambda v: iso_connectivity_zone(CONFIG, 2, ZONE_GRID, target=v, tol=0.5), "target", 3.3, 3),
    "iso_connectivity_zone.tol": (lambda v: iso_connectivity_zone(CONFIG, 2, ZONE_GRID, tol=v), "tol", 0.3, 1),
    "dense_family_laplacian.alpha": (lambda v: dense_family_laplacian(v, 2), "alpha", 0.3, 3),
    "dense_family_laplacian.beta": (lambda v: dense_family_laplacian(2, v), "beta", 0.3, 3),
    "dense_family_spectrum.alpha": (lambda v: dense_family_spectrum(v, 2), "alpha", 0.3, 3),
    "dense_family_validity.alpha": (lambda v: dense_family_validity(v, 2), "alpha", 0.3, 3),
    "dense_family_validity.beta": (lambda v: dense_family_validity(2, v), "beta", 0.3, 3),
    "dense_family_validity.tol": (lambda v: dense_family_validity(2, 3, v), "tol", 0.3, 1),
    "validate_laplacian.tol": (lambda v: validate_laplacian(L, v), "tol", 0.3, 1),
    "algebraic_connectivity.tol": (lambda v: algebraic_connectivity(L, v), "tol", 0.3, 1),
    "validate_iso_transform.tol": (lambda v: validate_iso_transform(Q, v), "tol", 0.3, 1),
    "similarity_transform.tol": (lambda v: similarity_transform(L, Q, v), "tol", 0.3, 1),
    "is_isospectral.tol": (lambda v: is_isospectral(L, L, v), "tol", 0.3, 1),
    "fiedler_null_space_check.tol": (lambda v: fiedler_null_space_check(L, L, v), "tol", 0.3, 1),
    "connectivity_differential.tol": (lambda v: connectivity_differential(L, V, v), "tol", 0.3, 1),
    "SquareMatrix.isclose.tol": (lambda v: L.isclose(Q, v), "tol", 0.3, 1),
    "SquareMatrix.entry": (lambda v: SquareMatrix([[1.0, v], [v, 2.0]]), "matrix entry", 0.3, 2),
    "SquareMatrix.from_json_dict.entry": (
        lambda v: SquareMatrix.from_json_dict({"rows": [[1.0, v], [v, 2.0]]}), "matrix entry", 0.3, 2
    ),
    "symmetric_eigendecomposition.symmetry_tol": (lambda v: symmetric_eigendecomposition(L, v), "symmetry_tol", 0.3, 1),
    "integrate_connectivity_change.gap_tol": (
        lambda v: integrate_connectivity_change(AgentConfiguration(TWO, 1.0, 10.0), 1, [(1.0, 0.0), (1.5, 0.0)], 3, v),
        "gap_tol",
        0.3,
        1,
    ),
    "integrate_connectivity_change.waypoint": (
        lambda v: integrate_connectivity_change(CONFIG, 2, [(v, 2.0), (1.5, 2.0)], 3), "waypoint 0 x", 0.3, 1
    ),
    "ones_axis_rotation.theta": (lambda v: ones_axis_rotation(4, v), "theta", 0.3, 1),
    "laplacian_motion_derivative.direction": (lambda v: laplacian_motion_derivative(CONFIG, 2, (v, 1.0)), "direction", 0.3, 2),
}


def outcome(call, value):
    """What a call of ``value`` gives, comparable bit for bit: its JSON text, a repr or the error."""
    try:
        result = call(value)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    if isinstance(result, SpectralDecomposition):
        return result.eigenvalues.tobytes(), result.eigenvectors.tobytes(), result.residual.hex()
    if hasattr(result, "to_json_dict"):
        # A numpy scalar in a result would make this raise TypeError.
        return json.dumps(result.to_json_dict(), sort_keys=True)
    return repr(result)


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
@pytest.mark.parametrize("kind", [np.float16, np.float32, np.float64, np.int64, np.uint8, int])
def test_numbers_keep_the_bits_of_the_equal_python_float(name, kind):
    # A float32 sigma, range, tol or grid bound used to compute in float32 and
    # to make json.dumps of the result raise TypeError.
    call, _, fraction, whole = FLOAT_CALLS[name]
    value = kind(fraction) if issubclass(kind, np.floating) else kind(whole)
    want = outcome(call, float(value))
    assert isinstance(want, (str, tuple)) and not isinstance(want[0], type), want
    assert outcome(call, value) == want


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
@pytest.mark.parametrize("value", [True, False, "2", 1j, [1.0]])
def test_non_numbers_are_refused_by_name(name, value):
    # True used to run as 1, as a tolerance and as a dense-family parameter.
    call, label, _, _ = FLOAT_CALLS[name]
    with pytest.raises(ValueError, match=re.escape(label)):
        call(value)


@pytest.mark.parametrize("name", sorted(FLOAT_CALLS))
@pytest.mark.parametrize("sign", [1, -1])
def test_an_integer_past_float64_meets_the_check_of_inf(name, sign):
    # It used to raise a bare OverflowError from every parameter outside the
    # dense family.
    call, _, _, _ = FLOAT_CALLS[name]
    got = outcome(call, sign * 10**400)
    assert got == outcome(call, sign * math.inf)
    assert not (isinstance(got, tuple) and got[0] is OverflowError)


# The integer rule: every public integer parameter takes an int, a numpy
# integer or an integral float as the equal int, and refuses a bool, a
# fraction or a string with a ValueError naming it.  Each row is (call of
# the value, name in the message, a valid integer).
INT_CALLS = {
    "permutation_family.limit": (lambda v: permutation_family(L, limit=v), "limit", 2),
    "permutation_family.seed": (lambda v: permutation_family(L, limit=2, sample=True, seed=v), "seed", 3),
    "integrate_connectivity_change.steps": (
        lambda v: integrate_connectivity_change(CONFIG, 2, [(1.0, 2.0), (1.5, 2.0)], v), "steps", 3
    ),
    "integrate_connectivity_change.mobile": (
        lambda v: integrate_connectivity_change(CONFIG, v, [(1.0, 2.0), (1.5, 2.0)], 3), "agent index", 2
    ),
    "block_decompose.agent": (lambda v: block_decompose(build_laplacian(CONFIG), v), "agent index", 1),
    "laplacian_motion_derivative.mobile": (
        lambda v: laplacian_motion_derivative(CONFIG, v, (1.0, 0.0)), "agent index", 2
    ),
    "mirror_moves.mobile": (lambda v: mirror_moves(CONFIG, v), "agent index", 2),
    "iso_connectivity_zone.mobile": (lambda v: iso_connectivity_zone(CONFIG, v, ZONE_GRID, tol=0.5), "agent index", 2),
    "with_position.index": (lambda v: CONFIG.with_position(v, 1.0, 2.5), "agent index", 2),
    "GridSpec.nx": (lambda v: GridSpec(0.0, 1.0, 0.0, 1.0, v, 1), "nx", 2),
    "GridSpec.ny": (lambda v: GridSpec(0.0, 1.0, 0.0, 1.0, 1, v), "ny", 2),
    "SquareMatrix.identity.n": (lambda v: SquareMatrix.identity(v), "n", 3),
    "ones_axis_rotation.n": (lambda v: ones_axis_rotation(v, 0.3), "n", 4),
    "permutation_matrix.entry": (lambda v: permutation_matrix([v, 0, 1]), "permutation entry", 2),
    "relabel_configuration.entry": (lambda v: relabel_configuration(CONFIG, [v, 0, 1]), "permutation entry", 2),
    "SquareMatrix.from_json_dict.order": (
        lambda v: SquareMatrix.from_json_dict({"order": v, "rows": L.entries.tolist()}), "order", 4
    ),
}


@pytest.mark.parametrize("name", sorted(INT_CALLS))
@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8, float])
def test_integers_keep_the_outcome_of_the_equal_int(name, kind):
    call, _, whole = INT_CALLS[name]
    want = outcome(call, whole)
    assert isinstance(want, str), want
    assert outcome(call, kind(whole)) == want


@pytest.mark.parametrize("name", sorted(INT_CALLS))
@pytest.mark.parametrize("value", [True, False, 2.5, "2", np.float64(0.5)])
def test_non_integers_are_refused_by_name(name, value):
    # seed=True used to draw as seed 1 and seed="x" leaked numpy's TypeError.
    call, label, _ = INT_CALLS[name]
    with pytest.raises(ValueError, match=f"^{re.escape(label)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("name", sorted(INT_CALLS))
@pytest.mark.parametrize("sign", [1, -1])
def test_a_huge_integer_is_no_leak(name, sign):
    # A 5000-digit int is answered, or refused with a short message: never
    # Python's digit limit, an OverflowError or a TypeError.
    got = outcome(INT_CALLS[name][0], sign * 10**5000)
    if isinstance(got, tuple):
        assert issubclass(got[0], (ValueError, IndexError, AnalysisError)) and len(got[1]) < 200, got


def test_a_negative_seed_is_refused_by_name():
    # It leaked numpy's "expected non-negative integer" from the generator.
    for sample in (True, False):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            permutation_family(L, limit=2, sample=sample, seed=-1)
