"""Position units must not matter: positions and range scaled by 2^k scale every answer by 2^k, bit for bit.

Weights depend on distance / range only, so the Laplacian, its spectrum, the
connectivity report, the path integral, the zone scan's connectivity levels
and the SVG drawing keep their bits, mirror moves and zone points scale with
the positions and motion derivatives by 2^-k, wherever the coordinates and
their differences stay normal floats.
"""

import contextlib
import io
import json
import math
import sys
import tempfile
from functools import cache
from pathlib import Path

import numpy as np
import pytest

from isoconn import (
    AgentConfiguration,
    GridSpec,
    algebraic_connectivity,
    build_laplacian,
    integrate_connectivity_change,
    iso_connectivity_zone,
    laplacian_motion_derivative,
    mirror_moves,
)
from isoconn.cli import main
from isoconn.render import render_configuration_svg
from isoconn.errors import AnalysisError
from isoconn.topology import _distances
from conftest import geometric_config, make_config

DATA = Path(__file__).parent / "data"
EXPONENTS = (10, -10, 20, -20, 40, -40, 100, -100, 500, -500, 1000, -1000, -30, -34, -60, -200)


def lattice_config(rng, n):
    """``n`` agents on distinct points of a 5x5 lattice, linked to their lattice neighbors: collinear neighbors occur."""
    cells = rng.choice(25, size=n, replace=False)
    return make_config([(0.3 + 1.25 * (c % 5), 0.5 + 1.25 * (c // 5)) for c in cells], sigma=0.9, comm_range=2.0)


def corpus():
    """config7, then 30 seeded configurations of order 3 to 8, every other one on the lattice."""
    rng = np.random.default_rng(2022)
    configs = [AgentConfiguration.from_json_dict(json.loads((DATA / "cli_config7.json").read_text()))]
    for i in range(30):
        n = 3 + i % 6
        configs.append(lattice_config(rng, n) if i % 2 else geometric_config(rng, n))
    return configs


CONFIGS = corpus()


def scaled(config, k):
    data = config.to_json_dict()
    data["range"] = math.ldexp(data["range"], k)
    for agent in data["agents"]:
        agent["x"], agent["y"] = math.ldexp(agent["x"], k), math.ldexp(agent["y"], k)
    return AgentConfiguration.from_json_dict(data)


def normal(config):
    """Whether every nonzero coordinate and coordinate difference is a normal float."""
    pos = config.positions()
    values = np.abs(np.concatenate([pos.ravel(), (pos[:, None] - pos).ravel()]))
    values = values[values != 0.0]
    return bool(((values >= sys.float_info.min) & (values <= sys.float_info.max)).all())


def moves_at(config, k=0):
    """Every agent's mirror moves, with positions scaled back by 2^-k, as hex strings."""
    out = []
    for mobile in range(len(config.agents)):
        solution = mirror_moves(config, mobile)
        points = list(solution.alternatives)
        if solution.circle is not None:
            points += [solution.circle.center, (solution.circle.radius,)]
        out.append((solution.preserved_neighbors, [[math.ldexp(v, -k).hex() for v in p] for p in points]))
    return out


def derivatives_at(config, k=0):
    """Every agent's motion derivative along (1, -3), scaled back by 2^k, as bytes."""
    return [
        np.ldexp(laplacian_motion_derivative(config, mobile, (1.0, -3.0)).entries, k).tobytes()
        for mobile in range(len(config.agents))
    ]


def path_at(config, k=0):
    """The last agent's 40-step path integral along two segments of a 2^k-sized walk, or its error, as hex."""
    x, y = config.positions()[-1].tolist()
    waypoints = [(x, y), (x + math.ldexp(0.75, k), y + math.ldexp(0.5, k)), (x + math.ldexp(0.25, k), y - math.ldexp(0.5, k))]
    try:
        result = integrate_connectivity_change(config, len(config.agents) - 1, waypoints, 40)
    except AnalysisError as exc:
        return type(exc).__name__, str(exc)
    return result.integral.hex(), result.direct.hex(), result.warnings


def zone_at(config, k=0):
    """A 6x6 zone scan of the first agent over the configuration's box, points scaled back by 2^-k, as hex."""
    pos = config.positions()
    (xmin, ymin), (xmax, ymax) = pos.min(axis=0), pos.max(axis=0)
    grid = GridSpec(xmin - math.ldexp(1.0, k), xmax + math.ldexp(1.0, k), ymin - math.ldexp(1.0, k), ymax + math.ldexp(1.0, k), 6, 6)
    sample = iso_connectivity_zone(config, 0, grid, tol=0.05)
    return sample.target.hex(), [(math.ldexp(p.x, -k).hex(), math.ldexp(p.y, -k).hex(), p.lambda2.hex()) for p in sample.accepted]


def cli_stdout(argv, config):
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()) as out:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config.to_json_dict()))
        assert main([argv[0], "--input", str(path), *argv[1:], "--precision", "full"]) == 0
    return out.getvalue()


def moves_stdout(config, k=0):
    """Every agent's ``moves`` stdout; at k != 0 its positions are scaled back by 2^-k and printed as the CLI prints them."""
    out = []
    for agent in config.ids():
        text = cli_stdout(["moves", "--mobile", agent], config)
        if k:
            data = json.loads(text)
            data["alternatives"] = [[math.ldexp(v, -k) for v in p] for p in data["alternatives"]]
            data["original"] = [math.ldexp(v, -k) for v in data["original"]]
            if data["circle"] is not None:
                circle = data["circle"]
                circle["center"] = [math.ldexp(v, -k) for v in circle["center"]]
                circle["radius"] = math.ldexp(circle["radius"], -k)
            text = json.dumps(data, indent=2, sort_keys=True) + "\n"
        out.append(text)
    return out


@cache
def unscaled(index):
    config = CONFIGS[index]
    laplacian = build_laplacian(config)
    return (
        laplacian.entries.tobytes(),
        algebraic_connectivity(laplacian).lambda2.hex(),
        moves_at(config),
        derivatives_at(config),
        path_at(config),
        render_configuration_svg(config),
    )


@cache
def unscaled_cli(index):
    config = CONFIGS[index]
    return cli_stdout(["connectivity"], config), moves_stdout(config), zone_at(config)


# The CLI's argument parsing costs more than its answer, and a zone scan
# solves 36 Laplacians: CLI stdout and zone scans are checked for config7 and
# the first five seeded configurations.
CLI_CONFIGS = 6


@pytest.mark.parametrize("k", EXPONENTS)
def test_scaling_by_a_power_of_two_keeps_every_answer(k):
    # The hypot fallback of the distance rule rounded differently from its
    # sqrt path at k = +-1000, absolute floors in mirror_moves lost or
    # invented moves at every k <= -30 and at k = 1000, and the drawing's
    # span floor shrank it at k <= -34.
    for index, config in enumerate(CONFIGS):
        big = scaled(config, k)
        assert normal(big), index
        laplacian = build_laplacian(big)
        got = (
            laplacian.entries.tobytes(),
            algebraic_connectivity(laplacian).lambda2.hex(),
            moves_at(big, k),
            derivatives_at(big, k),
            path_at(big, k),
            render_configuration_svg(big),
        )
        assert got == unscaled(index), index
        if index < CLI_CONFIGS:
            assert (cli_stdout(["connectivity"], big), moves_stdout(big, k), zone_at(big, k)) == unscaled_cli(index), index


def test_the_corpus_has_reflections_and_circles():
    kinds = [(len(neighbors), bool(points)) for i in range(len(CONFIGS)) for neighbors, points in unscaled(i)[2]]
    assert sum(n > 1 and moved for n, moved in kinds) >= 10
    assert sum(n == 1 for n, _ in kinds) >= 10


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_every_alternative_reproduces_the_laplacian(index):
    config = CONFIGS[index]
    base = build_laplacian(config).entries
    for mobile in range(len(config.agents)):
        for x, y in mirror_moves(config, mobile).alternatives:
            moved = build_laplacian(config.with_position(mobile, x, y)).entries
            assert np.abs(moved - base).max() <= 1e-12 * np.abs(base).max()


@pytest.mark.parametrize("k", EXPONENTS)
def test_distances_scale_with_their_differences(k):
    rng = np.random.default_rng(7)
    # Components of either sign, 2^-21 to 2^20 in size, and a shared scale,
    # so their sums of squares span the sqrt path and, at large |k|, the other.
    diff = rng.choice([-1.0, 1.0], size=(200, 2)) * rng.uniform(0.5, 1.0, size=(200, 2))
    diff = np.ldexp(diff, rng.integers(-20, 21, size=(200, 1)))
    want = np.ldexp(_distances(diff, np.zeros(2)), k)
    assert _distances(np.ldexp(diff, k), np.zeros(2)).tobytes() == want.tobytes()
