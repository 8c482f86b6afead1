"""The public renderers draw only what they can draw: everything else is a ValueError."""

import math

import numpy as np
import pytest

from isoconn import SquareMatrix, render_graph_svg, render_matrix_svg
from conftest import K4_ROWS

POSITIONS = [[0.0, 0.0], [3.0, 0.0], [1.0, 2.0]]
LABELS = ["a", "b", "c"]
WEIGHTS = [[0.0, 0.5, 0.25], [0.5, 0.0, 0.0], [0.25, 0.0, 0.0]]


def test_lists_arrays_and_numpy_numbers_draw_the_same():
    want = render_graph_svg(np.array(POSITIONS), LABELS, np.array(WEIGHTS))
    assert render_graph_svg(POSITIONS, LABELS, WEIGHTS) == want
    assert 'stroke-opacity="0.5000"' in want and want.count("<circle") == 3
    whole = render_graph_svg([[0, 0], [3, 0], [1, 2]], LABELS, WEIGHTS)
    assert render_graph_svg(np.array([[0, 0], [3, 0], [1, 2]], dtype=np.int32), LABELS, WEIGHTS) == whole


@pytest.mark.parametrize(
    "positions",
    [
        [[math.nan, 0.0], [3.0, 0.0], [1.0, 2.0]],  # drew cx="nan"
        [[math.inf, 0.0], [3.0, 0.0], [1.0, 2.0]],
        [[0.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 2.0, 0.0]],
        [[0.0, 0.0], [3.0], [1.0, 2.0]],
        [["0", 0.0], [3.0, 0.0], [1.0, 2.0]],
        [[True, 0.0], [3.0, 0.0], [1.0, 2.0]],
        [0.0, 3.0, 1.0],
        None,
    ],
)
def test_positions_must_be_rows_of_two_finite_numbers(positions):
    with pytest.raises(ValueError, match="^positions must be one or more rows of 2 finite numbers$"):
        render_graph_svg(positions, LABELS, WEIGHTS)


def test_zero_agents_are_refused():
    # They leaked numpy's "zero-size array to reduction operation".
    with pytest.raises(ValueError, match="^positions must be one or more rows"):
        render_graph_svg(np.empty((0, 2)), [], np.empty((0, 0)))


@pytest.mark.parametrize(
    "weights",
    [
        [[0.0, math.inf, 0.0], [math.inf, 0.0, 0.0], [0.0, 0.0, 0.0]],  # wrote stroke-opacity="nan"
        [[0.0, math.nan, 0.0], [math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0, 1.0], [1.0, 0.0]],  # leaked an IndexError
        [[0.0, 1.0, 0.0, 0.0]] * 3,
        [[0.0, "1", 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]],
    ],
)
def test_weights_must_be_n_rows_of_n_finite_numbers(weights):
    with pytest.raises(ValueError, match="^weights must be 3 rows of 3 finite numbers$"):
        render_graph_svg(POSITIONS, LABELS, weights)


@pytest.mark.parametrize("labels", [["a", "b"], ["a", "b", "c", "d"]])
def test_one_label_per_position(labels):
    # Too few leaked an IndexError, too many were dropped.
    with pytest.raises(ValueError, match=f"^labels must be 3, one per position, got {len(labels)}$"):
        render_graph_svg(POSITIONS, labels, WEIGHTS)


@pytest.mark.parametrize("labels,got", [(None, "NoneType"), (3, "int")])
def test_labels_must_be_a_sequence(labels, got):
    # None leaked a TypeError from len().
    with pytest.raises(ValueError, match=f"^labels must be 3, one per position, got {got}$"):
        render_graph_svg(POSITIONS, labels, WEIGHTS)


@pytest.mark.parametrize("labels,got", [(["a", 5, "c"], "int"), (["a", "b", None], "NoneType"), ([b"a", "b", "c"], "bytes")])
def test_labels_must_be_strings(labels, got):
    # A number leaked an AttributeError from the escaping.
    with pytest.raises(ValueError, match=f"^labels must be strings, got {got}$"):
        render_graph_svg(POSITIONS, labels, WEIGHTS)


def test_matrix_labels_are_counted():
    matrix = SquareMatrix.from_rows(K4_ROWS)
    assert render_matrix_svg(matrix) == render_matrix_svg(matrix, ["1", "2", "3", "4"])
    with pytest.raises(ValueError, match="^labels must be 4, one per position, got 3$"):
        render_matrix_svg(matrix, ["1", "2", "3"])
    with pytest.raises(ValueError, match="^labels must be strings, got int$"):
        render_matrix_svg(matrix, [1, 2, 3, 4])
