"""The four closed-loop workloads: seeded inputs, one operation, and its oracle.

Every workload builds a pool of finished inputs from its seed before the first
timed operation and cycles through it.  Orders follow a fixed ladder through
the pool, so two seeds run the same mix of sizes and differ only in geometry.
Oracles run after the timed loop and use ``np.linalg.eigh``/``eigvalsh`` on
Laplacians built here, independently of isoconn.

Importing this module imports isoconn from the repository's ``src`` and
nothing else: without those sources the import fails.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import isoconn as ic  # noqa: E402

if not Path(ic.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"isoconn imported from {ic.__file__}, not from {SRC}")

# An operation's status.  ERROR is the known order > 16 ConvergenceError of
# network_report: it counts as failed but leaves the run correct.  WRONG is any
# other error or an answer outside the oracle's tolerance: the run is incorrect.
OK, ERROR, WRONG = "ok", "error", "wrong"

SIGMA = 1.0
DEGENERACY_GAP = 1e-9  # isoconn's Fiedler-simplicity threshold
PATH_GAP_TOL = 1e-6  # integrate_connectivity_change's default gap_tol


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent generator per (seed, purpose)."""
    return np.random.default_rng([seed, zlib.crc32(name.encode())])


def geometric_config(rng, n: int, side: float, comm_range: float, connected: bool = True):
    """Uniform agents in a side x side box, resampled until connected if asked."""
    while True:
        pos = rng.uniform(0.0, side, size=(n, 2))
        config = ic.AgentConfiguration(
            tuple(ic.Agent(f"a{i}", float(x), float(y)) for i, (x, y) in enumerate(pos)),
            SIGMA,
            comm_range,
        )
        if not connected or ic.is_connected(config):
            return config


def network_side(n: int) -> float:
    """Box side that keeps agent density fixed as the order grows."""
    return 10.0 * math.sqrt(n / 16.0)


# ---------------------------------------------------------------- oracle helpers


def np_laplacian(pos: np.ndarray, sigma: float, comm_range: float) -> np.ndarray:
    """Weighted Laplacian(s) of positions shaped (..., n, 2), built without isoconn."""
    diff = pos[..., :, None, :] - pos[..., None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=-1))
    w = np.where(dist <= comm_range, np.exp(-(sigma / comm_range) * dist), 0.0)
    idx = np.arange(pos.shape[-2])
    w[..., idx, idx] = 0.0
    lap = -w
    lap[..., idx, idx] = w.sum(axis=-1)
    return lap


def config_positions(config) -> np.ndarray:
    return np.array([[a.x, a.y] for a in config.agents])


def fiedler_gap(values: np.ndarray) -> np.ndarray:
    """Distance from the second eigenvalue to its nearest neighbour."""
    lower = values[..., 1] - values[..., 0]
    if values.shape[-1] < 3:
        return lower
    return np.minimum(lower, values[..., 2] - values[..., 1])


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class Context:
    """What an operation calls through: the library (maybe traced) and a span maker."""

    lib: object
    span: object


# ---------------------------------------------------------------- path_walk


@dataclass(frozen=True)
class Walk:
    config: ic.AgentConfiguration
    mobile: int
    waypoints: tuple[tuple[float, float], ...]


class PathWalk:
    """One 500-step path integral per operation, orders 4..8 in turn."""

    name = "path_walk"
    kinds = 1
    STEPS = 500
    ORDERS = (4, 5, 6, 7, 8)
    POOL = 500
    # Quadrature error |integral - direct| at 500 steps over 4000 seeded walks:
    # median 4e-8, 99.9th percentile 5e-5, largest 1.4e-4 (near-crossings of
    # the second and third eigenvalues).  The tight check is QUAD_TOL against
    # the same midpoint rule evaluated here with np.linalg.eigh.
    TOL = 1e-3
    QUAD_TOL = 1e-8

    def __init__(self, seed: int, _workdir: Path):
        rng = stream(seed, self.name)
        self.items = []
        for i in range(self.POOL):
            n = self.ORDERS[i % len(self.ORDERS)]
            config = geometric_config(rng, n, 10.0, 100.0, connected=False)
            mobile = int(rng.integers(n))
            waypoints = tuple((float(x), float(y)) for x, y in rng.uniform(0.0, 10.0, size=(3, 2)))
            self.items.append(Walk(config, mobile, waypoints))

    def describe(self):
        return [[w.config.to_json_dict(), w.mobile, w.waypoints] for w in self.items]

    def run(self, ctx: Context, i: int):
        w = self.items[i % self.POOL]
        return ctx.lib.integrate_connectivity_change(w.config, w.mobile, w.waypoints, self.STEPS)

    def _stack(self, w: Walk, points: np.ndarray) -> np.ndarray:
        pos = np.repeat(config_positions(w.config)[None], len(points), axis=0)
        pos[:, w.mobile] = points
        return np_laplacian(pos, w.config.sigma, w.config.comm_range)

    def _midpoints(self, w: Walk):
        """Midpoints, unit directions and step lengths of the documented schedule."""
        pts = np.array(w.waypoints)
        segs = [(a, b, float(np.hypot(*(b - a)))) for a, b in zip(pts, pts[1:])]
        segs = [s for s in segs if s[2] > 0.0]
        total = sum(s[2] for s in segs)
        mids, units, steps = [], [], []
        for a, b, length in segs:
            count = max(1, round(self.STEPS * length / total))
            h = length / count
            for k in range(count):
                mids.append(a + (k + 0.5) * h * (b - a) / length)
                units.append((b - a) / length)
                steps.append(h)
        return np.array(mids), np.array(units), np.array(steps)

    def _quadrature(self, w: Walk, mids, units, steps) -> float:
        # fiedler^T dL fiedler = sum_j da_j (v_j - v_mobile)^2 over in-range j,
        # with da_j the derivative of link weight j along the unit direction.
        pos = config_positions(w.config)
        rate = w.config.sigma / w.config.comm_range
        v = np.linalg.eigh(self._stack(w, mids))[1][:, :, 1]
        rel = mids[:, None, :] - pos[None]
        dist = np.hypot(rel[..., 0], rel[..., 1])
        linked = dist <= w.config.comm_range
        linked[:, w.mobile] = False
        safe = np.where(linked, dist, 1.0)
        da = np.where(linked, -rate * np.exp(-rate * dist) * (rel * units[:, None, :]).sum(-1) / safe, 0.0)
        f = (da * (v - v[:, w.mobile, None]) ** 2).sum(axis=-1)
        return float((f * steps).sum())

    def check(self, i: int, result, error) -> str:
        w = self.items[i % self.POOL]
        mids, units, steps = self._midpoints(w)
        if error is not None:
            if isinstance(error, ic.DegenerateFiedlerError):
                points = np.vstack([mids, w.waypoints[0], w.waypoints[-1]])
                gaps = fiedler_gap(np.linalg.eigvalsh(self._stack(w, points)))
                return OK if gaps.min() < PATH_GAP_TOL else WRONG
            return WRONG
        ends = self._stack(w, np.array([w.waypoints[0], w.waypoints[-1]]))
        lam = np.linalg.eigvalsh(ends)[:, 1]
        direct = float(lam[1] - lam[0])
        scale = max(1.0, float(np.abs(ends).max()))
        if result.warnings or abs(result.direct - direct) > 1e-9 * scale:
            return WRONG
        if abs(result.integral - self._quadrature(w, mids, units, steps)) > self.QUAD_TOL:
            return WRONG
        return OK if abs(result.integral - direct) <= self.TOL else WRONG


# ---------------------------------------------------------------- grid_scan


@dataclass(frozen=True)
class Zone:
    config: ic.AgentConfiguration
    mobile: int


class GridScan:
    """Alternates a 20x20 zone scan (orders 4, 6, 8 in turn) and a 20x20 dense-family block."""

    name = "grid_scan"
    kinds = 2
    # Three zone sizes put p90 inside the order-8 stratum; with five, p90 fell
    # on the edge between orders 7 and 8 and moved with every seed.
    ORDERS = (4, 6, 8)
    CELLS = 20
    POOL = 252  # per kind, whole ladder cycles
    DENSE_STEP = 0.05  # (alpha, beta) lattice on (0, 5]
    ZONE_TOL = 1e-6  # iso_connectivity_zone's default tolerance

    def __init__(self, seed: int, _workdir: Path):
        rng = stream(seed, self.name)
        self.grid = ic.GridSpec(0.0, 10.0, 0.0, 10.0, self.CELLS, self.CELLS)
        self.zones = []
        self.blocks = []
        last = round(5.0 / self.DENSE_STEP) - self.CELLS
        for i in range(self.POOL):
            n = self.ORDERS[i % len(self.ORDERS)]
            self.zones.append(Zone(geometric_config(rng, n, 10.0, 6.0), int(rng.integers(n))))
            ia, ib = (int(v) for v in rng.integers(0, last + 1, size=2))
            alphas = tuple((ia + k + 1) * self.DENSE_STEP for k in range(self.CELLS))
            betas = tuple((ib + k + 1) * self.DENSE_STEP for k in range(self.CELLS))
            self.blocks.append((alphas, betas))

    def describe(self):
        return {
            "zones": [[z.config.to_json_dict(), z.mobile] for z in self.zones],
            "blocks": self.blocks,
        }

    def run(self, ctx: Context, i: int):
        if i % 2 == 0:
            z = self.zones[(i // 2) % self.POOL]
            return ctx.lib.iso_connectivity_zone(z.config, z.mobile, self.grid)
        alphas, betas = self.blocks[(i // 2) % self.POOL]
        return [ctx.lib.dense_family_validity(a, b) for a in alphas for b in betas]

    def check(self, i: int, result, error) -> str:
        if error is not None:
            return WRONG
        if i % 2 == 0:
            return self._check_zone(self.zones[(i // 2) % self.POOL], result)
        alphas, betas = self.blocks[(i // 2) % self.POOL]
        points = [(a, b) for a in alphas for b in betas]
        if len(result) != len(points):
            return WRONG
        ok = all(abs(c.lambda2 - ic.dense_family_spectrum(a, b)[1]) <= 1e-9 for c, (a, b) in zip(result, points))
        return OK if ok else WRONG

    def _check_zone(self, z: Zone, sample) -> str:
        pos = config_positions(z.config)
        sigma, comm_range = z.config.sigma, z.config.comm_range
        base = np_laplacian(pos, sigma, comm_range)
        target = float(np.linalg.eigvalsh(base)[1])
        g = self.grid
        dx, dy = (g.xmax - g.xmin) / g.nx, (g.ymax - g.ymin) / g.ny
        cells = np.array(
            [(g.xmin + (ix + 0.5) * dx, g.ymin + (iy + 0.5) * dy) for iy in range(g.ny) for ix in range(g.nx)]
        )
        stack = np.repeat(pos[None], len(cells), axis=0)
        stack[:, z.mobile] = cells
        lam2 = np.linalg.eigvalsh(np_laplacian(stack, sigma, comm_range))[:, 1]
        others = np.delete(pos, z.mobile, axis=0)
        stacked = (cells[:, None, :] == others[None, :, :]).all(axis=-1).any(axis=-1)
        scale = max(1.0, float(np.abs(base).max()))
        slack = 1e-9 * scale
        if abs(sample.target - target) > slack:
            return WRONG
        if len(sample.accepted) + sample.rejected_count != len(cells):
            return WRONG
        off = np.abs(lam2 - target)
        expected = {k for k in range(len(cells)) if not stacked[k] and off[k] <= self.ZONE_TOL - slack}
        borderline = {k for k in range(len(cells)) if abs(off[k] - self.ZONE_TOL) <= slack}
        got = set()
        for p in sample.accepted:
            hits = np.nonzero((cells[:, 0] == p.x) & (cells[:, 1] == p.y))[0]
            if len(hits) != 1 or abs(p.lambda2 - lam2[hits[0]]) > slack:
                return WRONG
            got.add(int(hits[0]))
        return OK if got - borderline == expected - borderline else WRONG


# ---------------------------------------------------------------- network_report


@dataclass(frozen=True)
class Network:
    config: ic.AgentConfiguration
    perm: tuple[int, ...]
    mobile: int
    direction: tuple[float, float]


class NetworkReport:
    """One full connectivity report per operation, orders 8..32 in turn."""

    name = "network_report"
    kinds = 1
    ORDERS = tuple(range(8, 33))
    POOL = 500
    COMM_RANGE = 6.0

    def __init__(self, seed: int, _workdir: Path):
        rng = stream(seed, self.name)
        self.items = []
        for i in range(self.POOL):
            n = self.ORDERS[i % len(self.ORDERS)]
            config = geometric_config(rng, n, network_side(n), self.COMM_RANGE)
            perm = tuple(int(p) for p in rng.permutation(n))
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            self.items.append(
                Network(config, perm, int(rng.integers(n)), (math.cos(angle), math.sin(angle)))
            )

    def describe(self):
        return [[w.config.to_json_dict(), w.perm, w.mobile, w.direction] for w in self.items]

    def run(self, ctx: Context, i: int):
        w = self.items[i % self.POOL]
        lib = ctx.lib
        lap = lib.build_laplacian(w.config)
        report = lib.algebraic_connectivity(lap)
        relabeled = lib.build_laplacian(lib.relabel_configuration(w.config, w.perm))
        iso = lib.is_isospectral(lap, relabeled)
        variation = lib.laplacian_motion_derivative(w.config, w.mobile, w.direction)
        differential = lib.connectivity_differential(lap, variation)
        moves = lib.mirror_moves(w.config, w.mobile)
        return report, iso, differential, moves

    def check(self, i: int, result, error) -> str:
        w = self.items[i % self.POOL]
        lap = np_laplacian(config_positions(w.config), w.config.sigma, w.config.comm_range)
        values = np.linalg.eigvalsh(lap)
        scale = max(1.0, float(np.abs(lap).max()))
        if error is not None:
            if isinstance(error, ic.ConvergenceError):
                return ERROR
            if isinstance(error, ic.DegenerateFiedlerError):
                return OK if fiedler_gap(values) < DEGENERACY_GAP + 1e-12 * scale else WRONG
            return WRONG
        report, iso, _, _ = result
        if abs(report.lambda2 - values[1]) > 1e-9 * scale or iso is not True:
            return WRONG
        return OK


# ---------------------------------------------------------------- cli_session


class CliSession:
    """One `python -m isoconn <subcommand>` process per operation, 9 subcommands in turn."""

    name = "cli_session"
    kinds = 9

    def __init__(self, seed: int, workdir: Path):
        rng = stream(seed, self.name)
        self.workdir = workdir
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        net = geometric_config(rng, 6, 10.0, 6.0)
        walk = geometric_config(rng, 6, 10.0, 100.0, connected=False)
        m5 = ic.build_laplacian(geometric_config(rng, 5, 10.0, 6.0))
        mobile = net.agents[int(rng.integers(6))].id
        path = {
            "mobile": walk.agents[int(rng.integers(6))].id,
            "waypoints": [[float(x), float(y)] for x, y in rng.uniform(0.0, 10.0, size=(3, 2))],
            "steps": 200,
        }
        perm = ",".join(str(int(p)) for p in rng.permutation(6))
        alpha, beta = (float(v) for v in rng.uniform(0.05, 5.0, size=2))
        self.files = {
            "net.json": json.dumps(net.to_json_dict()),
            "walk.json": json.dumps(walk.to_json_dict()),
            "m5.json": json.dumps(m5.to_json_dict()),
            "path.json": json.dumps(path),
        }
        for fname, text in self.files.items():
            (workdir / fname).write_text(text, encoding="utf-8")
        self.argvs = [
            ["spectrum", "--input", "net.json"],
            ["connectivity", "--input", "net.json"],
            ["isospectral", "--enumerate", "--matrix", "m5.json"],
            ["transform", "--input", "net.json", "--permutation", perm],
            ["moves", "--input", "net.json", "--mobile", mobile],
            ["integrate", "--input", "walk.json", "--path", "path.json"],
            ["zone", "--input", "net.json", "--mobile", mobile, "--bounds", "0,10,0,10", "--resolution", "9,9"],
            ["parametric", "--alpha", repr(alpha), "--beta", repr(beta)],
            ["render", "--input", "net.json"],
        ]
        self.reference: dict[int, bytes] = {}

    def describe(self):
        return {"files": self.files, "argvs": self.argvs}

    def invoke(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "isoconn", *argv],
            cwd=self.workdir,
            env=self.env,
            capture_output=True,
            timeout=120,
            check=False,
        )

    def run(self, ctx: Context, i: int):
        argv = self.argvs[i % self.kinds]
        with ctx.span(f"cli.{argv[0]}"):
            proc = self.invoke(argv)
        return proc.returncode, proc.stdout

    def check(self, i: int, result, error) -> str:
        if error is not None or result[0] != 0:
            return WRONG
        k = i % self.kinds
        stdout = result[1]
        try:
            if self.argvs[k][0] == "render":
                ET.fromstring(stdout)
            else:
                json.loads(stdout)
        except (ET.ParseError, ValueError):
            return WRONG
        return OK if self.reference.setdefault(k, stdout) == stdout else WRONG


# name -> class; each is built as cls(seed, workdir).
WORKLOADS = {cls.name: cls for cls in (PathWalk, GridScan, NetworkReport, CliSession)}
