"""Eigensolves per public call: each Laplacian is solved once per call.

A solve of one matrix runs a scalar kernel once: a stack of one in
``matrices._eigh_stack`` the list loops ``_jacobi_lists``, the dense-family
check's nested lists in ``_list_eigenvalues`` the generated
``_unrolled_kernel``.  A larger stack runs the vectorised ``_jacobi_stack``.
These tests count the scalar solves, the stacked solves and their slices.
"""

import json

import numpy as np
import pytest

from isoconn import (
    GridSpec,
    SquareMatrix,
    algebraic_connectivity,
    build_laplacian,
    connectivity_differential,
    dense_family_validity,
    fiedler_null_space_check,
    is_isospectral,
    iso_connectivity_zone,
    laplacian_motion_derivative,
    symmetric_eigendecomposition,
    validate_laplacian,
)
from isoconn import matrices
from isoconn.cli import main
from conftest import L1_ROWS, L2_ROWS, geometric_config


@pytest.fixture
def solves(monkeypatch):
    """Counts of scalar solves, stacked solves and the slices in those stacks."""
    counts = {"scalar": 0, "stacks": 0, "slices": 0}
    lists, unrolled, stacked = matrices._jacobi_lists, matrices._unrolled_kernel, matrices._jacobi_stack

    def count_lists(rows, vectors):
        counts["scalar"] += 1
        return lists(rows, vectors)

    def count_unrolled(n):
        counts["scalar"] += 1
        return unrolled(n)

    def count_stacked(stack, vectors):
        counts["stacks"] += 1
        counts["slices"] += stack.shape[0]
        return stacked(stack, vectors)

    monkeypatch.setattr(matrices, "_jacobi_lists", count_lists)
    monkeypatch.setattr(matrices, "_unrolled_kernel", count_unrolled)
    monkeypatch.setattr(matrices, "_jacobi_stack", count_stacked)
    return counts


@pytest.fixture
def config():
    return geometric_config(np.random.default_rng(31), 6)


def test_algebraic_connectivity_solves_once(solves, config):
    algebraic_connectivity(build_laplacian(config))
    assert solves == {"scalar": 1, "stacks": 0, "slices": 0}


def test_connectivity_differential_solves_once(solves, config):
    variation = laplacian_motion_derivative(config, 2, (1.0, 0.5))
    connectivity_differential(build_laplacian(config), variation)
    assert solves == {"scalar": 1, "stacks": 0, "slices": 0}


def test_fiedler_null_space_check_solves_each_matrix_once(solves, config):
    moved = config.with_position(0, config.agents[0].x + 0.25, config.agents[0].y)
    fiedler_null_space_check(build_laplacian(config), build_laplacian(moved))
    assert solves == {"scalar": 2, "stacks": 0, "slices": 0}


@pytest.mark.parametrize(
    "call,expected",
    [
        (lambda m: symmetric_eigendecomposition(m), 1),
        (lambda m: validate_laplacian(m, 1e-9), 1),
        (lambda m: is_isospectral(m, m), 2),
        (lambda m: dense_family_validity(2.0, 0.5), 1),
    ],
)
def test_single_matrix_calls(solves, call, expected):
    call(SquareMatrix.from_rows(L1_ROWS))
    assert solves == {"scalar": expected, "stacks": 0, "slices": 0}


def test_zone_solves_its_target_alone_and_the_cells_it_may_accept(solves, config):
    # The filter's eigenvalue counts leave 6 of the 12 cells, and the scan
    # accepts all 6.
    grid = GridSpec(0.0, 8.0, 0.0, 8.0, 4, 3)
    sample = iso_connectivity_zone(config, 1, grid, tol=0.5)
    assert solves == {"scalar": 1, "stacks": 1, "slices": 6}
    assert len(sample.accepted) == 6
    assert sample.target == algebraic_connectivity(build_laplacian(config)).lambda2


@pytest.mark.parametrize(
    "argv,expected",
    [
        (["connectivity", "--input", "config"], 1),
        (["isospectral", "--matrix", "a", "--matrix", "b"], 2),
        (["parametric", "--alpha", "2", "--beta", "3"], 1),
    ],
)
def test_cli_solves_each_matrix_once(solves, config, tmp_path, capsys, argv, expected):
    files = {
        "config": config.to_json_dict(),
        "a": SquareMatrix.from_rows(L1_ROWS).to_json_dict(),
        "b": SquareMatrix.from_rows(L2_ROWS).to_json_dict(),
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    argv = [str(tmp_path / a) if a in files else a for a in argv]
    assert main(argv) == 0
    capsys.readouterr()
    assert solves == {"scalar": expected, "stacks": 0, "slices": 0}
