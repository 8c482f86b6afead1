import json
import math
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from isoconn import SquareMatrix
from isoconn.cli import main
from conftest import K4_ROWS, L1_ROWS, L2_ROWS, L4P_ROWS, PATH3_WEIGHTED_ROWS

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

    def test_needs_two_matrices(self, workdir, capsys):
        _, matrix_file, _ = workdir
        code, _, err = run(
            capsys, ["isospectral", "--matrix", matrix_file("l1.json", L1_ROWS)]
        )
        assert code == 2
        assert json.loads(err)["error"] == "InvalidInput"


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
    def test_readme_example_stdout_unchanged(self, tmp_path, capsys, extra, golden):
        # The golden files hold the stdout of the one-solve-per-cell scan.
        config = {
            "sigma": 1.0,
            "range": 10.0,
            "agents": [
                {"id": "a1", "x": 0.0, "y": 0.0},
                {"id": "a2", "x": 4.0, "y": 0.0},
                {"id": "a3", "x": 1.0, "y": 2.0},
            ],
        }
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        argv = [
            "zone", "--input", str(config_path), "--mobile", "a3",
            "--bounds", "0,4,-3,3", "--resolution", "9,9",
        ]
        code, out, _ = run(capsys, argv + extra)
        assert code == 0
        assert out.encode() == (DATA / golden).read_bytes()


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
        _, _, config_path = workdir
        code, _, _ = run(capsys, ["render", "--input", config_path, "--format", "json"])
        assert code == 2


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
