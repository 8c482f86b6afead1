"""Deterministic SVG rendering of agent graphs: no timestamps, no random ids."""

from __future__ import annotations

import math

import numpy as np

from .matrices import SquareMatrix
from .topology import AgentConfiguration, build_adjacency

_CANVAS = 480.0
_MARGIN = 40.0
_NODE_RADIUS = 12.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _escape(text: str) -> str:
    # xml.sax.saxutils.escape's default set, without importing xml.sax (which
    # pulls in urllib.request, http, email and ssl).
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _scale_positions(pos: np.ndarray) -> np.ndarray:
    lo = pos.min(axis=0)
    hi = pos.max(axis=0)
    span = float(max(hi[0] - lo[0], hi[1] - lo[1], 1e-9))
    inner = _CANVAS - 2.0 * _MARGIN
    out = np.empty_like(pos)
    offset = (np.array([inner, inner]) - (hi - lo) * inner / span) / 2.0
    out[:, 0] = _MARGIN + offset[0] + (pos[:, 0] - lo[0]) * inner / span
    # SVG y grows downward; flip so the plane reads normally.
    out[:, 1] = _CANVAS - (_MARGIN + offset[1] + (pos[:, 1] - lo[1]) * inner / span)
    return out


def render_graph_svg(positions: np.ndarray, labels: list[str], weights: np.ndarray) -> str:
    """SVG of a node-edge graph; edge stroke opacity is proportional to weight."""
    pts = _scale_positions(np.asarray(positions, dtype=float))
    n = pts.shape[0]
    max_w = float(weights.max()) if weights.size and weights.max() > 0 else 1.0
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS:.0f}" '
        f'height="{_CANVAS:.0f}" viewBox="0 0 {_CANVAS:.0f} {_CANVAS:.0f}">',
        f'<rect width="{_CANVAS:.0f}" height="{_CANVAS:.0f}" fill="#ffffff"/>',
    ]
    for i in range(n):
        for j in range(i + 1, n):
            w = float(weights[i, j])
            if w <= 0.0:
                continue
            lines.append(
                f'<line x1="{_fmt(pts[i, 0])}" y1="{_fmt(pts[i, 1])}" '
                f'x2="{_fmt(pts[j, 0])}" y2="{_fmt(pts[j, 1])}" '
                f'stroke="#334455" stroke-width="2.5" stroke-opacity="{w / max_w:.4f}"/>'
            )
    for i in range(n):
        lines.append(
            f'<circle cx="{_fmt(pts[i, 0])}" cy="{_fmt(pts[i, 1])}" '
            f'r="{_NODE_RADIUS:.0f}" fill="#4477aa" stroke="#223344" stroke-width="1.5"/>'
        )
        lines.append(
            f'<text x="{_fmt(pts[i, 0])}" y="{_fmt(pts[i, 1] + 4.0)}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="12" '
            f'fill="#ffffff">{_escape(labels[i])}</text>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_configuration_svg(config: AgentConfiguration) -> str:
    """Render agents at their true positions with weighted links."""
    return render_graph_svg(
        config.positions(), list(config.ids()), build_adjacency(config).entries
    )


def render_matrix_svg(matrix: SquareMatrix, labels: list[str] | None = None) -> str:
    """Render a Laplacian's graph on a circular layout (matrices carry no geometry)."""
    n = matrix.order
    if labels is None:
        labels = [str(i + 1) for i in range(n)]
    angles = [math.pi / 2.0 - 2.0 * math.pi * i / n for i in range(n)]
    positions = np.array([[math.cos(a), math.sin(a)] for a in angles])
    weights = -matrix.entries.copy()
    np.fill_diagonal(weights, 0.0)
    weights = np.clip(weights, 0.0, None)
    return render_graph_svg(positions, labels, weights)
