"""Eigensolves per public call: each Laplacian is solved once per call.

Every solve goes through ``matrices._eigh_stack``, which runs one of two
kernels: the scalar ``_jacobi_python`` for a stack of one matrix and the
vectorised ``_jacobi_stack`` for more.  These tests count the kernel calls.
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
    scalar, stacked = matrices._jacobi_python, matrices._jacobi_stack

    def count_scalar(sym, vectors):
        counts["scalar"] += 1
        return scalar(sym, vectors)

    def count_stacked(stack, vectors):
        counts["stacks"] += 1
        counts["slices"] += stack.shape[0]
        return stacked(stack, vectors)

    monkeypatch.setattr(matrices, "_jacobi_python", count_scalar)
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


def test_zone_solves_its_target_in_its_first_stack(solves, config):
    grid = GridSpec(0.0, 8.0, 0.0, 8.0, 4, 3)
    sample = iso_connectivity_zone(config, 1, grid, tol=0.5)
    assert solves == {"scalar": 0, "stacks": 1, "slices": 12 + 1}
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
