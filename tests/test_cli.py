import json
import math
import os
import platform
import subprocess
import sys
import time
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from isoconn import SquareMatrix, build_laplacian
from isoconn.cli import main
from conftest import K4_ROWS, L1_ROWS, L2_ROWS, L4P_ROWS, PATH3_WEIGHTED_ROWS, make_config

DATA = Path(__file__).parent / "data"

SUBCOMMANDS = [
    "spectrum",
    "connectivity",
    "isospectral",
    "transform",
    "moves",
    "integrate",
    "zone",
    "parametric",
    "render",
]


@pytest.fixture
def workdir(tmp_path):
    def matrix_file(name, rows):
        path = tmp_path / name
        path.write_text(json.dumps(SquareMatrix.from_rows(rows).to_json_dict()))
        return str(path)

    config = {
        "sigma": 1.0,
        "range": 10.0,
        "agents": [
            {"id": "a1", "x": 0.0, "y": 0.0},
            {"id": "a2", "x": 4.0, "y": 0.0},
            {"id": "a3", "x": 1.0, "y": 2.0},
            {"id": "a4", "x": 40.0, "y": 40.0},
        ],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    return tmp_path, matrix_file, str(config_path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum:
    def test_reference_values_at_display_precision(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(capsys, ["spectrum", "--matrix", matrix_file("l4p.json", L4P_ROWS)])
        assert code == 0
        assert json.loads(out)["spectrum"] == [0.0, 4.0, 5.2679, 8.7321]

    def test_full_precision(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            ["spectrum", "--matrix", matrix_file("l4p.json", L4P_ROWS), "--precision", "full"],
        )
        spectrum = json.loads(out)["spectrum"]
        assert abs(spectrum[2] - (7.0 - math.sqrt(3.0))) < 1e-12

    def test_from_configuration(self, workdir, capsys):
        _, _, config_path = workdir
        code, out, _ = run(capsys, ["spectrum", "--input", config_path])
        assert code == 0
        assert json.loads(out)["order"] == 4

    def test_csv_format(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            ["spectrum", "--matrix", matrix_file("l4p.json", L4P_ROWS), "--format", "csv"],
        )
        lines = out.strip().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5

    def test_malformed_json_exits_2_without_output(self, workdir, capsys, tmp_path):
        base, _, _ = workdir
        bad = base / "bad.json"
        bad.write_text("definitely { not json")
        target = base / "out.json"
        code, out, err = run(
            capsys, ["spectrum", "--matrix", str(bad), "--output", str(target)]
        )
        assert code == 2
        assert not target.exists()
        assert json.loads(err)["error"] == "InvalidInput"

    @pytest.mark.parametrize("rows", [[["1", "-1"], ["-1", "1"]], [[True, False], [False, True]], [[None, 1], [1, 1]]])
    def test_non_number_entries_exit_2(self, tmp_path, capsys, rows):
        # String and bool entries used to print a spectrum, and None read as NaN.
        path = tmp_path / "entries.json"
        path.write_text(json.dumps({"rows": rows}))
        code, out, err = run(capsys, ["spectrum", "--matrix", str(path)])
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        message = f"invalid matrix file {path}: matrix entry must be a number, got {rows[0][0]!r}"
        assert json.loads(err) == {"error": "InvalidInput", "message": message}


class TestOutOfBandMatrices:
    """Entries near the float64 limit: solved scaled, or a NonFinite domain error."""

    @staticmethod
    def spectrum(tmp_path, rows):
        import subprocess
        import sys

        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rows": rows}))
        cmd = [sys.executable, "-m", "isoconn", "spectrum", "--matrix", str(path)]
        return subprocess.run(cmd, capture_output=True, text=True)

    def test_huge_laplacian_spectrum(self, tmp_path):
        proc = self.spectrum(tmp_path, [[1e200, -1e200], [-1e200, 1e200]])
        assert proc.returncode == 0 and proc.stderr == ""
        # The solve keeps its in-band rounding: [[1, -1], [-1, 1]] gives 1.9999999999999996.
        zero, top = json.loads(proc.stdout)["spectrum"]
        assert zero == 0.0 and top == pytest.approx(2e200, rel=1e-15)

    def test_overflowing_matrix_is_a_json_domain_error(self, tmp_path):
        proc = self.spectrum(tmp_path, [[1e308, -1e308], [-1e308, 1e308]])
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines and json.loads(lines[0])["error"] == "NonFinite"
        for line in lines:
            json.loads(line)  # no warning text, only JSON

    def test_huge_laplacian_connectivity(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"rows": [[1e200, -1e200], [-1e200, 1e200]]}))
        code, out, _ = run(capsys, ["connectivity", "--matrix", str(path)])
        assert code == 0
        assert json.loads(out)["lambda2"] == pytest.approx(2e200, rel=1e-15)


class TestCapturedStdout:
    """Full-precision stdout captured from the one-solve-per-call-site code."""

    @pytest.mark.parametrize(
        "argv,golden",
        [
            (["connectivity", "--input", "cli_config7.json"], "connectivity_config7_full.json"),
            (["spectrum", "--input", "cli_config7.json"], "spectrum_config7_full.json"),
            (["isospectral", "--matrix", "cli_l1.json", "--matrix", "cli_l2.json"], "isospectral_l1_l2_full.json"),
            (["parametric", "--alpha", "2", "--beta", "3"], "parametric_a2_b3_full.json"),
            # A discrepancy point: lambda2 is the minus root, below 4.
            (["parametric", "--alpha", "0.5", "--beta", "3"], "parametric_a0.5_b3_full.json"),
            # The pair times 1e6: its spectra agree to about 1e-9 of the entries.
            (["isospectral", "--matrix", "cli_l1_x1e6.json", "--matrix", "cli_l2_x1e6.json"],
             "isospectral_l1_l2_x1e6_full.json"),
            # Three collinear neighbors and a bystander: one reflection.
            (["moves", "--input", "cli_moves_line.json", "--mobile", "m"], "moves_line_full.json"),
            # One neighbor: the circle, and the witnesses the bystander leaves.
            (["moves", "--input", "cli_moves_circle.json", "--mobile", "m"], "moves_circle_full.json"),
            (["render", "--input", "cli_config7.json"], "render_config7.svg"),
            # Exact 0/1 products and reindexing only, so no BLAS kernel moves a bit.
            (["transform", "--matrix", "cli_l1.json", "--permutation", "3,2,1,0"], "transform_l1_perm_full.json"),
            (["isospectral", "--enumerate", "--matrix", "cli_l1.json"], "isospectral_enumerate_l1_full.json"),
        ],
    )
    def test_stdout_bytes_unchanged(self, capsys, argv, golden):
        argv = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        code, out, _ = run(capsys, argv + ["--precision", "full"])
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()

    def test_scaled_pair_is_isospectral(self):
        assert json.loads((DATA / "isospectral_l1_l2_x1e6_full.json").read_text())["isospectral"] is True


class TestConnectivity:
    def test_report_round_trips(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            ["connectivity", "--matrix", matrix_file("l1.json", L1_ROWS), "--precision", "full"],
        )
        data = json.loads(out)
        assert data["lambda2"] == pytest.approx(2.0, abs=1e-9)
        assert json.loads(json.dumps(data)) == data

    def test_scaled_laplacian_exits_0(self, workdir, capsys):
        # Its row sums round to about 1e-8: NotLaplacian under an absolute
        # tol of 1e-9, valid under tol times the largest entry.
        _, matrix_file, _ = workdir
        lap = build_laplacian(make_config([(0.0, 0.0), (4.0, 0.0), (1.0, 2.0), (3.0, 3.0)]))
        path = matrix_file("scaled.json", lap.entries * 1e8)
        code, out, err = run(capsys, ["connectivity", "--matrix", path])
        assert code == 0 and err == ""
        assert json.loads(out)["lambda2"] > 0.0

    def test_domain_error_exits_1(self, workdir, capsys):
        _, matrix_file, _ = workdir
        not_lap = matrix_file("diag.json", [[1.0, 0.0], [0.0, 2.0]])
        code, out, err = run(capsys, ["connectivity", "--matrix", not_lap])
        assert code == 1
        assert json.loads(err)["error"] == "NotLaplacian"
        assert out == ""


class TestIsospectral:
    def test_pairwise_comparison(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            [
                "isospectral",
                "--matrix", matrix_file("l1.json", L1_ROWS),
                "--matrix", matrix_file("l2.json", L2_ROWS),
            ],
        )
        assert code == 0
        assert json.loads(out)["isospectral"] is True

    def test_enumerate_deduped_family(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            [
                "isospectral", "--enumerate", "--dedupe",
                "--matrix", matrix_file("l1.json", L1_ROWS),
                "--precision", "full",
            ],
        )
        entries = json.loads(out)
        assert len(entries) == 6
        mats = [np.array(e["matrix"]["rows"]) for e in entries]
        assert any(np.array_equal(m, np.array(L2_ROWS, dtype=float)) for m in mats)
        assert all(e["laplacian_structured"] for e in entries)

    def test_enumerate_csv(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            [
                "isospectral", "--enumerate", "--limit", "2", "--no-dedupe",
                "--matrix", matrix_file("l1.json", L1_ROWS),
                "--format", "csv",
            ],
        )
        lines = out.strip().splitlines()
        assert lines[0] == "index,perm,laplacian_structured,distinct_from_base"
        assert lines[1].startswith("0,0 1 3 2,")

    def test_sampled_huge_limit_stops_at_the_relabelings(self, workdir):
        # Order 4 has 23 non-identity relabelings, so with dedupe a limit of
        # 1e9 wants no more than a limit of 23: the same draws, the same
        # entries.  Uncapped, the sampler would draw 2e11 relabelings.
        import subprocess
        import sys

        _, matrix_file, _ = workdir
        argv = [sys.executable, "-m", "isoconn", "isospectral", "--enumerate", "--sample"]
        argv += ["--matrix", matrix_file("l1.json", L1_ROWS), "--precision", "full", "--limit"]
        small, huge = (
            subprocess.run(argv + [limit], capture_output=True, text=True, timeout=10)
            for limit in ("23", "1000000000")
        )
        assert small.returncode == 0 and small.stderr == ""
        assert (huge.returncode, huge.stdout, huge.stderr) == (0, small.stdout, "")
        assert len(json.loads(small.stdout)) == 6

    def test_needs_two_matrices(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, _, err = run(
            capsys, ["isospectral", "--matrix", matrix_file("l1.json", L1_ROWS)]
        )
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInput"

    @pytest.mark.parametrize(
        "extra,message",
        [(["--limit", "0"], "limit must be >= 1"), (["--sample"], "sampling needs an explicit limit")],
    )
    def test_bad_enumeration_arguments_exit_2(self, workdir, capsys, extra, message):
        _, matrix_file, _ = workdir
        code, out, err = run(
            capsys,
            ["isospectral", "--enumerate", "--matrix", matrix_file("l1.json", L1_ROWS)] + extra,
        )
        assert code == 2 and out == ""
        assert json.loads(err) == {"error": "InvalidInput", "message": message}


class TestTransform:
    def test_permutation_reproduces_reference(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            [
                "transform",
                "--matrix", matrix_file("l1.json", L1_ROWS),
                "--permutation", "3,2,1,0",
                "--precision", "full",
            ],
        )
        data = json.loads(out)
        assert np.array_equal(np.array(data["matrix"]["rows"]), np.array(L2_ROWS, dtype=float))
        assert data["validation"]["is_permutation"] is True

    def test_rotation_can_leave_laplacian_structure(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(
            capsys,
            [
                "transform",
                "--matrix", matrix_file("p3.json", PATH3_WEIGHTED_ROWS),
                "--rotation", str(math.pi / 6.0),
            ],
        )
        data = json.loads(out)
        assert data["laplacian_structured"] is False

    def test_exactly_one_transform_source(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, _, err = run(
            capsys,
            [
                "transform",
                "--matrix", matrix_file("l1.json", L1_ROWS),
                "--permutation", "3,2,1,0",
                "--rotation", "0.5",
            ],
        )
        assert code == 2


class TestMoves:
    def test_reflection_reported(self, workdir, capsys):
        _, _, config_path = workdir
        code, out, _ = run(capsys, ["moves", "--input", config_path, "--mobile", "a3"])
        data = json.loads(out)
        assert data["alternatives"] == [[1.0, -2.0]]
        assert data["preserved_neighbors"] == ["a1", "a2"]

    def test_unknown_agent_exits_2(self, workdir, capsys):
        _, _, config_path = workdir
        code, _, err = run(capsys, ["moves", "--input", config_path, "--mobile", "zz"])
        assert code == 2


class TestIntegrate:
    def test_path_file(self, workdir, capsys):
        base, _, _ = workdir
        connected = {
            "sigma": 1.0,
            "range": 10.0,
            "agents": [
                {"id": "a1", "x": 0.0, "y": 0.0},
                {"id": "a2", "x": 4.0, "y": 0.0},
                {"id": "a3", "x": 1.0, "y": 2.0},
            ],
        }
        config_path = base / "connected.json"
        config_path.write_text(json.dumps(connected))
        path_file = base / "path.json"
        path_file.write_text(
            json.dumps({"mobile": "a3", "waypoints": [[1.0, 2.0], [1.2, 2.2]], "steps": 400})
        )
        code, out, _ = run(
            capsys,
            ["integrate", "--input", str(config_path), "--path", str(path_file), "--precision", "full"],
        )
        data = json.loads(out)
        assert code == 0
        assert abs(data["integral"] - data["direct"]) <= 1e-6
        assert data["warnings"] == []

    def test_disconnected_graph_is_a_domain_error(self, workdir, capsys):
        base, _, config_path = workdir  # the fixture's a4 is out of everyone's range
        path_file = base / "path.json"
        path_file.write_text(
            json.dumps({"mobile": "a3", "waypoints": [[1.0, 2.0], [1.2, 2.2]], "steps": 50})
        )
        code, _, err = run(
            capsys, ["integrate", "--input", config_path, "--path", str(path_file)]
        )
        assert code == 1
        assert json.loads(err)["error"] == "DegenerateFiedler"

    def test_multi_stack_path_stdout_unchanged(self, capsys):
        # Order 8 and 600 steps: three stacks of solves and two range crossings.
        # The golden file holds the stdout of the one-solve-per-point walk.
        config_path, path_file = DATA / "cli_integrate_config.json", DATA / "cli_integrate_path.json"
        argv = ["integrate", "--input", str(config_path), "--path", str(path_file), "--precision", "full"]
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert len(json.loads(out)["warnings"]) == 2
        assert out.encode() == (DATA / "integrate_two_crossings.json").read_bytes()

    @pytest.mark.parametrize("steps", ["2.7", "0.5", '"12"', "true", "1e-320"])
    def test_steps_must_be_an_integer(self, workdir, capsys, steps):
        # int() used to run 2.7 as 2 steps and accept "12" and true.
        base, _, config_path = workdir
        path_file = base / "path.json"
        path_file.write_text('{"mobile": "a3", "waypoints": [[1.0, 2.0], [1.2, 2.2]], "steps": %s}' % steps)
        code, out, err = run(capsys, ["integrate", "--input", config_path, "--path", str(path_file)])
        assert code == 2 and out == ""
        assert "steps must be an integer" in json.loads(err)["message"]

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"mobile": "zz", "waypoints": [[1.0, 2.0]], "steps": 5}', "unknown agent id 'zz'"),
            ('{"mobile": "a3", "steps": 5}', "'waypoints'"),
            ('[1, 2]', "list indices must be integers"),
        ],
    )
    def test_invalid_path_file_exits_2_naming_it(self, workdir, capsys, text, message):
        base, _, config_path = workdir
        path_file = base / "path.json"
        path_file.write_text(text)
        code, out, err = run(capsys, ["integrate", "--input", config_path, "--path", str(path_file)])
        assert code == 2 and out == ""
        got = json.loads(err)["message"]
        assert got.startswith(f"invalid path file {path_file}: ") and message in got

    @pytest.mark.parametrize("steps", ["16777217", "1e18", "1000000000000000000"])
    def test_huge_steps_exit_2_at_once(self, workdir, capsys, steps):
        # A path of 1e18 steps used to run until killed.
        base, _, config_path = workdir
        path_file = base / "path.json"
        path_file.write_text('{"mobile": "a3", "waypoints": [[1.0, 2.0], [1.2, 2.2]], "steps": %s}' % steps)
        start = time.perf_counter()
        code, out, err = run(capsys, ["integrate", "--input", config_path, "--path", str(path_file)])
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert json.loads(err)["message"].startswith("steps must be at most 2**24")

    @pytest.mark.parametrize("steps", ["50", "50.0", "5e1"])
    def test_integral_steps_accepted(self, workdir, capsys, steps):
        base, _, _ = workdir
        config_path = base / "connected.json"
        config_path.write_text(json.dumps({"sigma": 1.0, "range": 10.0, "agents": [
            {"id": "a1", "x": 0.0, "y": 0.0},
            {"id": "a2", "x": 4.0, "y": 0.0},
            {"id": "a3", "x": 1.0, "y": 2.0},
        ]}))
        path_file = base / "path.json"
        path_file.write_text('{"mobile": "a3", "waypoints": [[1.0, 2.0], [1.2, 2.2]], "steps": %s}' % steps)
        code, out, _ = run(capsys, ["integrate", "--input", str(config_path), "--path", str(path_file)])
        assert code == 0 and json.loads(out)["warnings"] == []

    @pytest.mark.parametrize(
        "waypoint,error",
        [
            ("[NaN, 2.2]", "NonFinite"),
            ("[Infinity, 2.2]", "NonFinite"),
            # Far out of range, so the walk ends disconnected.
            ("[1e300, -1e300]", "DegenerateFiedler"),
            # 50 steps times the path length overflows float64.
            ("[1e308, -1e308]", "NonFinite"),
        ],
        ids=["nan", "inf", "huge", "overflow"],
    )
    def test_extreme_waypoint_is_a_json_domain_error(self, workdir, waypoint, error):
        import subprocess
        import sys

        base, _, _ = workdir
        config_path = base / "connected.json"
        config_path.write_text(
            json.dumps(
                {"sigma": 1.0, "range": 10.0, "agents": [
                    {"id": "a1", "x": 0.0, "y": 0.0},
                    {"id": "a2", "x": 4.0, "y": 0.0},
                    {"id": "a3", "x": 1.0, "y": 2.0},
                ]}
            )
        )
        path_file = base / "path.json"
        # Written by hand: NaN and Infinity are the tokens Python's json reads.
        path_file.write_text(
            '{"mobile": "a3", "waypoints": [[1.0, 2.0], %s], "steps": 50}' % waypoint
        )
        cmd = [sys.executable, "-m", "isoconn", "integrate", "--input", str(config_path), "--path", str(path_file)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 1 and proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert lines and json.loads(lines[0])["error"] == error
        for line in lines:
            json.loads(line)  # no warning text, only JSON


class TestZone:
    def test_grid_scan(self, workdir, capsys):
        _, _, config_path = workdir
        code, out, _ = run(
            capsys,
            [
                "zone", "--input", config_path, "--mobile", "a3",
                "--bounds", "0,4,1,3", "--resolution", "2,1",
            ],
        )
        data = json.loads(out)
        assert code == 0
        assert data["grid"]["nx"] == 2
        assert any(p["x"] == 1.0 and p["y"] == 2.0 for p in data["accepted"])

    def test_bad_bounds_exit_2(self, workdir, capsys):
        _, _, config_path = workdir
        code, _, _ = run(
            capsys,
            ["zone", "--input", config_path, "--mobile", "a3", "--bounds", "0,4", "--resolution", "2,1"],
        )
        assert code == 2

    @pytest.mark.parametrize(
        "extra,golden",
        [([], "zone_readme.json"), (["--tol", "0.05", "--precision", "full"], "zone_readme_tol.json")],
    )
    def test_readme_example_stdout_unchanged(self, capsys, extra, golden):
        # The golden files hold the stdout of the one-solve-per-cell scan.
        argv = [
            "zone", "--input", str(DATA / "cli_zone_readme.json"), "--mobile", "a3",
            "--bounds", "0,4,-3,3", "--resolution", "9,9",
        ]
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--bounds=-1e308,1e308,0,1"],
            ["--bounds=0,nan,0,1"],
            ["--bounds=0,inf,0,1"],
            ["--tol", "nan"],
            ["--tol", "-1"],
            ["--tol", "0"],
            ["--target", "inf"],
            ["--resolution", "nan,1"],
            ["--resolution", "inf,1"],
        ],
    )
    def test_bad_numbers_exit_2(self, workdir, capsys, extra):
        _, _, config_path = workdir
        argv = ["zone", "--input", config_path, "--mobile", "a3", "--bounds", "0,4,1,3", "--resolution", "2,1"]
        code, out, err = run(capsys, argv + extra)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "InvalidInput"

    def test_more_than_2_24_cells_exit_2_at_once(self, workdir, capsys):
        _, _, config_path = workdir
        argv = ["zone", "--input", config_path, "--mobile", "a3", "--bounds", "0,4,1,3", "--resolution", "4097,4096"]
        start = time.perf_counter()
        code, out, err = run(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["error"] == "InvalidInput"
        assert error["message"] == "grid must have at most 2**24 cells, got 4097 x 4096"


class TestParametric:
    def test_family_report(self, capsys):
        code, out, _ = run(capsys, ["parametric", "--alpha", "2", "--beta", "3"])
        data = json.loads(out)
        assert data["closed_form_spectrum"] == [0.0, 4.0, 5.2679, 8.7321]
        assert data["validity"]["inequality_holds"] is True
        assert data["matrix"]["rows"][0] == [4.0, -1.0, -1.0, -2.0]

    def test_nonpositive_parameter_exits_1(self, capsys):
        code, _, err = run(capsys, ["parametric", "--alpha", "0", "--beta", "3"])
        assert code == 1
        assert json.loads(err)["error"] == "NonPositiveParameter"

    def test_tol_reaches_the_validity_verdict(self, capsys):
        # lambda2 is 4.0000000000000036 here: within the 1e-9 default of the
        # target level, but not within 1e-20.
        argv = ["parametric", "--alpha", "2", "--beta", "3", "--precision", "full"]
        _, out, _ = run(capsys, argv)
        _, tight, _ = run(capsys, argv + ["--tol", "1e-20"])
        assert json.loads(out)["validity"]["lambda2_at_target"] is True
        validity = json.loads(tight)["validity"]
        assert validity["lambda2"] == 4.0000000000000036
        assert validity["lambda2_at_target"] is False and validity["discrepancy"] is True


class TestRender:
    def test_valid_xml_and_stable_bytes(self, workdir, capsys):
        _, _, config_path = workdir
        code1, out1, _ = run(capsys, ["render", "--input", config_path])
        code2, out2, _ = run(capsys, ["render", "--input", config_path])
        assert code1 == code2 == 0
        assert out1 == out2
        xml.dom.minidom.parseString(out1)
        assert "<svg" in out1 and "stroke-opacity" in out1

    def test_matrix_layout(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, out, _ = run(capsys, ["render", "--matrix", matrix_file("k4.json", K4_ROWS)])
        assert code == 0
        xml.dom.minidom.parseString(out)

    def test_json_format_rejected(self, workdir, capsys):
        # An argparse choice: the usage error exits 2 from inside parse_args.
        _, _, config_path = workdir
        with pytest.raises(SystemExit) as exc:
            main(["render", "--input", config_path, "--format", "json"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert json.loads(captured.err)["error"] == "InvalidInput"


class TestCliContract:
    @pytest.mark.parametrize("sub", SUBCOMMANDS)
    def test_help_exits_zero(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["spectrum", "--frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sub", [s for s in SUBCOMMANDS if s != "render"])
    def test_svg_format_on_a_json_subcommand_exits_2(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--format", "svg"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        [line] = captured.err.splitlines()
        assert json.loads(line) == {
            "error": "InvalidInput",
            "message": f"isoconn {sub}: argument --format: invalid choice: 'svg' (choose from 'json', 'csv')",
        }

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["definitely-not-a-subcommand"])
        assert exc.value.code == 2

    def test_output_file_written_atomically(self, workdir, capsys, tmp_path):
        base, matrix_file, _ = workdir
        target = base / "spectrum_out.json"
        code, out, _ = run(
            capsys,
            ["spectrum", "--matrix", matrix_file("l1.json", L1_ROWS), "--output", str(target)],
        )
        assert code == 0
        assert out == ""
        data = json.loads(target.read_text())
        assert data["spectrum"] == [0.0, 2.0, 4.0, 4.0]
        leftovers = [p for p in base.iterdir() if p.name.startswith(".isoconn-tmp-")]
        assert leftovers == []

    def test_output_onto_a_directory_exits_2_naming_it(self, workdir, capsys):
        base, matrix_file, _ = workdir
        target = base / "taken"
        target.mkdir()
        argv = ["spectrum", "--matrix", matrix_file("l1.json", L1_ROWS), "--output", str(target)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        message = json.loads(err)["message"]
        assert str(target) in message and ".isoconn-tmp-" not in message
        assert [p.name for p in base.iterdir() if p.name.startswith(".isoconn-tmp-")] == []

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["connectivity", "--input", "{base}/missing.json"], "cannot read {base}/missing.json: "),
            (["spectrum"], "expected exactly one --matrix file (or an --input configuration)"),
            (["spectrum", "--matrix", "{l1}", "--matrix", "{l1}"], "expected exactly one --matrix file"),
            (["isospectral", "--enumerate", "--matrix", "{l1}", "--matrix", "{l1}"], "--enumerate needs exactly one --matrix file"),
            (["transform", "--matrix", "{l1}", "--permutation", "0,0,1,2"], "bad --permutation: not a bijection"),
            (["transform", "--matrix", "{l1}", "--permutation", "a,b"], "bad --permutation: invalid literal"),
        ],
    )
    def test_input_errors_exit_2_with_their_message(self, workdir, capsys, argv, message):
        base, matrix_file, _ = workdir
        names = {"base": str(base), "l1": matrix_file("l1.json", L1_ROWS)}
        code, out, err = run(capsys, [a.format(**names) for a in argv])
        assert code == 2 and out == ""
        got = json.loads(err)
        assert got["error"] == "InvalidInput" and got["message"].startswith(message.format(**names)), got

    def test_transform_file_matches_the_permutation(self, workdir, capsys):
        base, _, _ = workdir
        reversal = base / "reversal.json"
        reversal.write_text(json.dumps(SquareMatrix.from_rows(np.eye(4)[::-1]).to_json_dict()))
        argv = ["transform", "--matrix", str(DATA / "cli_l1.json"), "--precision", "full"]
        code, out, _ = run(capsys, argv + ["--transform", str(reversal)])
        assert code == 0 and out.encode() == (DATA / "transform_l1_perm_full.json").read_bytes()

    def test_zone_csv_lists_the_accepted_points(self, capsys):
        argv = ["zone", "--input", str(DATA / "cli_zone_readme.json"), "--mobile", "a3", "--bounds", "0,4,-3,3"]
        argv += ["--resolution", "9,9", "--tol", "0.05", "--precision", "full"]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        accepted = json.loads((DATA / "zone_readme_tol.json").read_text())["accepted"]
        assert code == 0 and len(accepted) == 48
        assert out.splitlines() == ["x,y,lambda2"] + [f"{p['x']!r},{p['y']!r},{p['lambda2']!r}" for p in accepted]

    def test_csv_none_cell_is_empty(self, capsys):
        # A rotation has no relabeling: "perm" is null in JSON, empty in CSV.
        argv = ["transform", "--matrix", str(DATA / "cli_l1.json"), "--rotation", "0.3"]
        code, out, _ = run(capsys, argv + ["--format", "csv"])
        assert code == 0 and out.splitlines()[:2] == ["key,value", "perm,"]

    def test_byte_identical_output(self, workdir, capsys):
        _, matrix_file, _ = workdir
        path = matrix_file("l1.json", L1_ROWS)
        _, out1, _ = run(capsys, ["spectrum", "--matrix", path])
        _, out2, _ = run(capsys, ["spectrum", "--matrix", path])
        assert out1 == out2

    def test_byte_identical_across_processes(self, workdir):
        import subprocess
        import sys

        _, matrix_file, _ = workdir
        path = matrix_file("l1.json", L1_ROWS)
        cmd = [sys.executable, "-m", "isoconn", "spectrum", "--matrix", path]
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["spectrum"] == [0.0, 2.0, 4.0, 4.0]

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="OpenBLAS core types are x86-64")
    def test_byte_identical_across_blas_kernels(self):
        # The path integral and mirror moves take no dot product through
        # OpenBLAS, so its CPU-specific kernels cannot move their bits.
        commands = [
            ["integrate", "--input", DATA / "cli_integrate_config.json", "--path", DATA / "cli_integrate_path.json"],
            ["moves", "--input", DATA / "cli_moves_line.json", "--mobile", "m"],
        ]

        def stdout(argv, coretype):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
            if coretype:
                env["OPENBLAS_CORETYPE"] = coretype
            cmd = [sys.executable, "-m", "isoconn", *argv, "--precision", "full"]
            return subprocess.run(cmd, capture_output=True, check=True, env=env).stdout

        for argv in commands:
            want = stdout(argv, None)
            assert [stdout(argv, coretype) for coretype in ("Prescott", "Nehalem")] == [want, want], argv[0]
