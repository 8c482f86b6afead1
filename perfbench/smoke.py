"""Smoke test for the benchmark: every workload at tiny size, both modes.

    python3 perfbench/smoke.py

Checks that each run prints, as its last line, exactly the metrics that
BENCHMARK.json names with their units, and that one seed always generates
byte-identical inputs and another seed different ones.  Exits 0 when every
check passes.
"""

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run(args):
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, capture_output=True, text=True, timeout=300, check=False
    )


def check_result(spec, workload: str, trace: int) -> None:
    proc = run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                "--seconds", "0.5", "--trace", str(trace), "--tiny"])
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == wanted, f"{workload} trace={trace}: metric names or units differ: {set(got) ^ set(wanted)}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and set(m) == {"value", "unit"}, (name, m)


def input_digest(workload: str, seed: int) -> str:
    proc = run(["perfbench/child.py", "--mode", "digest", "--workload", workload, "--seed", str(seed)])
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])["digest"]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS), spec["workloads"]
    for workload in WORKLOADS:
        first = input_digest(workload, 7)
        assert first == input_digest(workload, 7), f"{workload}: inputs differ for one seed"
        assert first != input_digest(workload, 8), f"{workload}: two seeds gave the same inputs"
        for trace in (0, 1):
            check_result(spec, workload, trace)
        print(f"ok {workload}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
