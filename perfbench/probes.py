"""Per-layer probes: time one public isoconn call on seeded inputs of a stated order.

Each probe is the median of several calls.  A ``*.solves`` value is a call's
time over one ``symmetric_eigendecomposition`` of the same matrix, an
outside-in count of how many solves the call repeats.  A ``*_share`` value is
a solve's cost times the number of solves an operation implies, over the
operation's time.  Domain errors (above all ``ConvergenceError`` at orders
above 16) are timed like any other call and counted where a metric asks.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time

import numpy as np

import isoconn as ic
from isoconn import cli
from workloads import CliSession, geometric_config, network_side, stream

# Geometric Laplacians drawn per order for the eigensolver probes.
SOLVE_SAMPLES = {4: 64, 8: 32, 16: 12, 32: 8, 64: 3}
STEP_PROBE = 200
ZONE_PROBE = ic.GridSpec(0.0, 10.0, 0.0, 10.0, 10, 10)


def timed(fn, *args) -> tuple[float, bool]:
    """Seconds one call took, and whether it ended in a domain error."""
    start = time.perf_counter()
    try:
        fn(*args)
        failed = False
    except ic.AnalysisError:
        failed = True
    return time.perf_counter() - start, failed


def median_time(reps: int, fn, *args) -> float:
    return statistics.median(timed(fn, *args)[0] for _ in range(reps))


def wall_time(cmd, env) -> float:
    start = time.perf_counter()
    subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
    return time.perf_counter() - start


def run_probes(seed: int, workdir, tiny: bool) -> dict[str, tuple[float, str]]:
    rng = stream(seed, "probes")

    def reps(k: int) -> int:
        return 1 if tiny else k

    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str) -> None:
        out[name] = (float(value), unit)

    geo = {
        n: [geometric_config(rng, n, network_side(n), 6.0) for _ in range(reps(count))]
        for n, count in SOLVE_SAMPLES.items()
    }
    lap = {n: ic.build_laplacian(configs[0]) for n, configs in geo.items()}

    # matrices: one solve per sampled Laplacian.
    for n, configs in geo.items():
        laps = [ic.build_laplacian(c) for c in configs]
        runs = [timed(ic.symmetric_eigendecomposition, m) for m in laps]
        pick = [k for k, (_, failed) in enumerate(runs) if not failed] or list(range(len(runs)))
        jacobi = statistics.median(runs[k][0] for k in pick)
        put(f"matrices.eigh_ms.n{n}", 1e3 * jacobi, "ms")
        if n >= 16:
            put(f"matrices.eigh_fail_frac.n{n}", sum(f for _, f in runs) / len(runs), "fraction")
        if n >= 32:
            numpy_s = statistics.median(median_time(reps(5), np.linalg.eigh, laps[k].entries) for k in pick)
            put(f"matrices.eigh_vs_numpy.n{n}", jacobi / numpy_s, "ratio")

    # topology
    for n in (4, 32):
        put(f"topology.build_laplacian_us.n{n}", 1e6 * median_time(reps(200), ic.build_laplacian, geo[n][0]), "us")
        put(
            f"topology.validate_laplacian_ms.n{n}",
            1e3 * median_time(reps(50 if n == 4 else 3), ic.validate_laplacian, lap[n], 1e-9),
            "ms",
        )

    # spectral
    for n in (4, 32):
        put(
            f"spectral.algebraic_connectivity_ms.n{n}",
            1e3 * median_time(reps(50 if n == 4 else 3), ic.algebraic_connectivity, lap[n]),
            "ms",
        )
    solve16 = median_time(reps(10), ic.symmetric_eigendecomposition, lap[16])
    put(
        "spectral.algebraic_connectivity.solves",
        median_time(reps(10), ic.algebraic_connectivity, lap[16]) / solve16,
        "solves",
    )
    relabeled32 = ic.build_laplacian(ic.relabel_configuration(geo[32][0], rng.permutation(32)))
    put("spectral.is_isospectral_ms.n32", 1e3 * median_time(reps(3), ic.is_isospectral, lap[32], relabeled32), "ms")
    put(
        "spectral.fiedler_null_space_check.solves",
        median_time(reps(10), ic.fiedler_null_space_check, lap[16], lap[16]) / solve16,
        "solves",
    )

    # mobility
    walks = {}
    for n in (4, 6, 8):
        config = geometric_config(rng, n, 10.0, 100.0, connected=False)
        waypoints = [tuple(p) for p in rng.uniform(0.0, 10.0, size=(3, 2))]
        walks[n] = (config, int(rng.integers(n)), waypoints)
    for n in (4, 8):
        t = median_time(reps(3), ic.integrate_connectivity_change, *walks[n], STEP_PROBE)
        put(f"mobility.integrate_step_us.n{n}", 1e6 * t / STEP_PROBE, "us")
    config, mobile, waypoints = walks[6]
    start_lap = ic.build_laplacian(config.with_position(mobile, *waypoints[0]))
    path_s = median_time(reps(3), ic.integrate_connectivity_change, config, mobile, waypoints, 500)
    solve6 = median_time(reps(20), ic.symmetric_eigendecomposition, start_lap)
    put("mobility.solve_share", solve6 * (500 + 2) / path_s, "fraction")
    variation = ic.laplacian_motion_derivative(geo[16][0], 0, (1.0, 0.0))
    put(
        "mobility.connectivity_differential.solves",
        median_time(reps(10), ic.connectivity_differential, lap[16], variation) / solve16,
        "solves",
    )
    put("mobility.mirror_moves_us", 1e6 * median_time(reps(200), ic.mirror_moves, geo[16][0], 0), "us")

    # zones
    cells = ZONE_PROBE.nx * ZONE_PROBE.ny
    zone_cfg = {n: geometric_config(rng, n, 10.0, 6.0) for n in (4, 6, 8)}
    for n in (4, 8):
        t = median_time(reps(3), ic.iso_connectivity_zone, zone_cfg[n], 0, ZONE_PROBE)
        put(f"zones.zone_cell_us.n{n}", 1e6 * t / cells, "us")
    zone6 = median_time(reps(3), ic.iso_connectivity_zone, zone_cfg[6], 0, ZONE_PROBE)
    solve6 = median_time(reps(20), ic.symmetric_eigendecomposition, ic.build_laplacian(zone_cfg[6]))
    put("zones.solve_share", solve6 * (cells + 1) / zone6, "fraction")
    lattice = [(0.05 * (i + 1), 0.05 * (j + 1)) for i in range(0, 100, 10) for j in range(0, 100, 10)]

    def dense_block():
        for a, b in lattice:
            ic.dense_family_validity(a, b)

    put("zones.dense_point_us", 1e6 * median_time(reps(3), dense_block) / len(lattice), "us")

    # families
    lap8 = lap[8]
    put("families.permutation_family_ms.n8", 1e3 * median_time(1, ic.permutation_family, lap8), "ms")
    rotation = ic.ones_axis_rotation(8, float(rng.uniform(0.1, 3.0)))
    put(
        "families.similarity_transform_ms.n8",
        1e3 * median_time(reps(20), ic.similarity_transform, lap8, rotation),
        "ms",
    )

    # render
    put(
        "render.configuration_svg_ms.n32",
        1e3 * median_time(reps(10), ic.render_configuration_svg, geo[32][0]),
        "ms",
    )

    # cli: interpreter, imports, then every subcommand out of process and in process.
    probe_dir = workdir / "probe"
    probe_dir.mkdir()
    session = CliSession(seed, probe_dir)
    py = sys.executable
    put("cli.python_startup_ms", 1e3 * statistics.median(wall_time([py, "-c", "pass"], session.env) for _ in range(reps(5))), "ms")
    for name, module in (("cli.numpy_import_ms", "numpy"), ("cli.import_ms", "isoconn")):
        code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
        samples = [
            float(subprocess.run([py, "-c", code], env=session.env, check=True, capture_output=True, text=True, timeout=120).stdout)
            for _ in range(reps(5))
        ]
        put(name, 1e3 * statistics.median(samples), "ms")
    for argv in session.argvs:
        samples = []
        for _ in range(reps(3)):
            start = time.perf_counter()
            proc = session.invoke(argv)
            samples.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"isoconn {argv} exited {proc.returncode}: {proc.stderr!r}")
        put(f"cli.{argv[0]}_ms", 1e3 * statistics.median(samples), "ms")
    with contextlib.chdir(probe_dir):
        for argv in session.argvs:
            samples = []
            for _ in range(reps(5)):
                start = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                samples.append(time.perf_counter() - start)
                if code != 0:
                    raise RuntimeError(f"isoconn.cli.main({argv}) returned {code}")
            put(f"cli.inprocess_{argv[0]}_ms", 1e3 * statistics.median(samples), "ms")
    return out
