"""Smoke tests for the example scripts: each runs clean with warnings as errors."""

import os
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args]
    return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)


def test_reproduce_examples_runs_clean():
    proc = run_script("reproduce_examples.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert "zone scan:" in proc.stdout


def test_render_figures_writes_every_figure(tmp_path):
    proc = run_script("render_figures.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    figures = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert len(figures) == 7 and proc.stdout.startswith("wrote 7 SVG files")
    for name in figures:
        xml.dom.minidom.parse(str(tmp_path / name))
