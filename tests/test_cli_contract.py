"""The CLI contract for every argv: exit 0, 1 or 2, JSON-only stderr, strict JSON stdout.

``main`` is the one place that decides exit 2.  These tests drive it with
valid files and hostile numbers and check the contract, not the answers.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
import warnings
import xml.sax.saxutils
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import isoconn
from isoconn import SquareMatrix
from isoconn.cli import main
from isoconn.render import _escape
from conftest import L1_ROWS, L2_ROWS

NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e308", "-1e308", "1e-320", "0.5", "1", "2", "4"]
CONFIG = {
    "sigma": 1.0,
    "range": 10.0,
    "agents": [
        {"id": "a1", "x": 0.0, "y": 0.0},
        {"id": "a2", "x": 4.0, "y": 0.0},
        {"id": "a3", "x": 1.0, "y": 2.0},
        {"id": "a4", "x": 3.0, "y": 3.0},
    ],
}


def scaled(config, factor):
    agents = [{**a, "x": a["x"] * factor, "y": a["y"] * factor} for a in config["agents"]]
    return {**config, "range": config["range"] * factor, "agents": agents}


# The configuration, copies scaled to where squared distances underflow and
# overflow, copies with a non-finite decay parameter, and a copy whose a1-a2
# weight underflows to 0 in range.
CONFIGS = {
    "config.json": json.dumps(CONFIG),
    "config_tiny.json": json.dumps(scaled(CONFIG, 1e-199)),
    "config_huge.json": json.dumps(scaled(CONFIG, 1e155)),
    "config_sigma_inf.json": json.dumps(CONFIG).replace('"sigma": 1.0', '"sigma": 1e999'),
    "config_range_inf.json": json.dumps(CONFIG).replace('"range": 10.0', '"range": 1e999'),
    "config_underflow.json": json.dumps({**CONFIG, "sigma": 2000.0}),
}
# Every step count is bounded: a huge finite one would ask for unbounded work.
STEPS = ["0", "-1", "1", "3", "2.5", "1e-320", "Infinity", "-Infinity", "NaN", '"x"']
ENDS = ["[1.2, 2.2]", "[1e308, 0]", "[NaN, 1]", "[1e-320, 1e-320]"]


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """A directory of input files; ``missing/out.json`` names a missing directory."""
    base = tmp_path_factory.mktemp("contract")
    texts = dict(CONFIGS)
    texts.update({
        "l1.json": json.dumps(SquareMatrix.from_rows(L1_ROWS).to_json_dict()),
        "l2.json": json.dumps(SquareMatrix.from_rows(L2_ROWS).to_json_dict()),
        "diag.json": json.dumps({"rows": [[1.0, 0.0], [0.0, 2.0]]}),
        "huge.json": json.dumps({"rows": [[1e308, -1e308], [-1e308, 1e308]]}),
        "bad.json": "{ not json",
    })
    for i, steps in enumerate(STEPS):
        for j, end in enumerate(ENDS):
            texts[f"path{i}_{j}.json"] = '{"mobile": "a3", "waypoints": [[1.0, 2.0], %s], "steps": %s}' % (end, steps)
    for name, text in texts.items():
        (base / name).write_text(text)
    return base


def in_dir(base, argv):
    """Input names in ``argv`` as paths under ``base``."""
    return [str(base / a) if a.endswith(".json") else a for a in argv]


def invoke(argv):
    """(exit code, stdout, stderr) of one in-process run; warnings must not occur."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert not caught, [str(w.message) for w in caught]  # a process would print them
    return code, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"non-JSON constant {name} on stdout")


def check_contract(argv):
    """Run ``argv`` twice; an exception escaping ``main`` is a process's traceback."""
    first = invoke(argv)
    assert invoke(argv) == first, argv
    code, out, err = first
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err
    lines = err.splitlines()
    for line in lines:
        json.loads(line)
    if code == 0:
        assert err == ""
        if "--output" not in argv and argv[0] != "render" and "csv" not in argv:
            json.loads(out, parse_constant=reject_constant)
    else:
        assert out == "" and len(lines) == 1, (argv, out, err)
    return code, out, err


@st.composite
def argvs(draw):
    """Argvs over every subcommand, with input names relative to the file directory."""
    num = st.sampled_from(NUMBERS)
    matrix = st.sampled_from(["l1.json", "l2.json", "diag.json", "huge.json", "bad.json"])
    mobile = st.sampled_from(["a1", "a3", "a4", "zz"])
    config = st.sampled_from(sorted(CONFIGS))
    sub = draw(st.sampled_from(
        ["spectrum", "connectivity", "isospectral", "transform", "moves", "integrate", "zone", "parametric", "render"]
    ))

    def source():
        return draw(st.sampled_from([
            ["--input", draw(config)],
            ["--matrix", draw(matrix)],
            ["--input", draw(config), "--matrix", draw(matrix)],
        ]))

    argv = [sub]
    if sub in ("spectrum", "connectivity", "render"):
        argv += source()
    elif sub == "isospectral":
        if draw(st.booleans()):
            argv += ["--matrix", draw(matrix), "--matrix", draw(matrix)]
        else:
            argv += ["--enumerate", "--matrix", draw(matrix)]
            # Sampling without dedupe keeps up to limit relabelings: only small limits.
            sample = draw(st.sampled_from([[], ["--sample"], ["--no-sample"]]))
            dedupe = draw(st.sampled_from([[], ["--no-dedupe"]]))
            huge = [] if sample == ["--sample"] and dedupe else ["1000000000"]
            limits = ["0", "-1", "1", "2", "nan"] + huge
            argv += sample + dedupe
            argv += draw(st.sampled_from([[], ["--limit", draw(st.sampled_from(limits))]]))
            argv += draw(st.sampled_from([[], ["--seed", "-1"], ["--seed", "7"]]))
    elif sub == "transform":
        argv += source()
        choices = [
            ["--permutation", draw(st.sampled_from(["3,2,1,0", "0,1,2,3", "1,1,2,3", "0,1", "a,b"]))],
            ["--rotation", draw(num)],
            ["--transform", draw(matrix)],
        ]
        argv += sum(draw(st.lists(st.sampled_from(choices), min_size=0, max_size=2, unique_by=str)), [])
    elif sub == "moves":
        argv += ["--input", draw(config), "--mobile", draw(mobile)]
    elif sub == "integrate":
        path = f"path{draw(st.integers(0, len(STEPS) - 1))}_{draw(st.integers(0, len(ENDS) - 1))}.json"
        argv += ["--input", draw(config), "--path", path]
    elif sub == "zone":
        bounds = ",".join(draw(num) for _ in range(draw(st.sampled_from([4, 4, 3]))))
        resolution = draw(st.sampled_from(["2,1", "3,2", "0,1", "-1,1", "nan,1", "inf,1", "2.5,1", "1e308,1", "2"]))
        argv += ["--input", draw(config), "--mobile", draw(mobile)]
        argv += [f"--bounds={bounds}", "--resolution", resolution]
        argv += draw(st.sampled_from([[], ["--target", draw(num)]]))
    else:  # parametric
        argv += ["--alpha", draw(num), "--beta", draw(num)]
    argv += draw(st.sampled_from([[], ["--tol", draw(num)]]))
    argv += draw(st.sampled_from([[], ["--precision", "full"], ["--format", "csv"], ["--format", "json"]]))
    argv += draw(st.sampled_from([[], [], ["--output", "missing/out.json"]]))
    return argv


class TestContract:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_argv_keeps_the_contract(self, base, data):
        check_contract(in_dir(base, data.draw(argvs())))

    @pytest.mark.parametrize(
        "argv",
        [
            ["connectivity", "--input", "config.json", "--tol", "0"],
            ["transform", "--matrix", "l1.json", "--permutation", "3,2,1,0", "--tol", "0"],
            ["integrate", "--input", "config.json", "--path", "path0_0.json"],  # "steps": 0
            ["integrate", "--input", "config.json", "--path", "path6_0.json"],  # "steps": Infinity
            ["isospectral", "--matrix", "l1.json", "--matrix", "l2.json", "--tol", "nan"],
            ["isospectral", "--matrix", "l1.json", "--matrix", "l2.json", "--tol", "inf"],
            ["spectrum", "--frobnicate"],
            ["isospectral", "--enumerate", "--matrix", "l1.json", "--limit", "nan"],
            ["spectrum", "--matrix", "l1.json", "--output", "missing/out.json"],
            ["zone", "--input", "config.json", "--mobile", "a3", "--bounds", "0,4,1,3", "--resolution", "2.5,1"],
            ["parametric", "--alpha", "nan", "--beta", "1"],
            ["parametric", "--alpha", "inf", "--beta", "1"],
            ["transform", "--matrix", "l1.json", "--rotation", "nan"],
            ["connectivity", "--matrix", "l1.json", "--tol", "-inf"],
            ["zone", "--input", "config.json", "--mobile", "a3", "--bounds", "0,4,1,3", "--resolution", "2,1", "--target", "nan"],
            ["connectivity", "--input", "config_sigma_inf.json"],
            ["moves", "--input", "config_range_inf.json", "--mobile", "a3"],
        ],
    )
    def test_input_errors_exit_2(self, base, argv):
        code, _, err = check_contract(in_dir(base, argv))
        assert code == 2 and json.loads(err)["error"] == "InvalidInput"

    def test_output_error_names_the_target(self, base):
        _, _, err = check_contract(in_dir(base, ["spectrum", "--matrix", "l1.json", "--output", "missing/out.json"]))
        message = json.loads(err)["message"]
        assert str(base / "missing/out.json") in message and ".isoconn-tmp-" not in message

    def test_usage_error_in_a_process(self):
        proc = subprocess.run([sys.executable, "-m", "isoconn", "spectrum", "--frobnicate"], capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert json.loads(proc.stderr) == {
            "error": "InvalidInput",
            "message": "isoconn: unrecognized arguments: --frobnicate",
        }

    def test_overflowing_parameters_exit_1(self):
        code, _, err = check_contract(["parametric", "--alpha", "1e200", "--beta", "1"])
        assert code == 1 and json.loads(err)["error"] == "NonFinite"


def test_import_leaves_out_the_network_stack():
    src = Path(isoconn.__file__).resolve().parents[1]
    probe = "import sys, isoconn.cli; print(sorted({'email', 'ssl', 'http', 'urllib.request'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "[]"


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_escape_matches_xml_sax(text):
    assert _escape(text) == xml.sax.saxutils.escape(text)
