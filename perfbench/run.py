"""Run one isoconn benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload path_walk --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` reports the end-to-end metrics:
one fresh process runs the closed loop for ``--seconds`` and checks every
answer against its oracle, and fresh processes before and after it time the
set-up, so that ``setup_s`` spans the host's slow and fast phases.
``--trace 1`` reports the per-layer metrics: an untraced and a traced loop of
half the time each, in two fresh processes (their throughput ratio gives the
tracing overhead), then the probes.  The last line of stdout is the result;
the line before it gives the sample count, the failure fraction and the
environment.  Counts cover every loop the run made.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402  (fails without the isoconn sources)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 8  # set-up-only processes on each side of the loop; setup_s is the median
BUDGET_S = 170.0  # the whole run, all child processes included


class ChildError(RuntimeError):
    pass


def run_child(mode: str, args, deadline: float, seconds: float = 0.0) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
    ]
    if args.tiny:
        cmd.append("--tiny")
    # A session of its own lets a timeout stop the CLI processes a child started.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise ChildError(f"{mode} process overran the {BUDGET_S:.0f} s budget") from None
    if proc.returncode != 0:
        raise ChildError(f"{mode} process exited {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float) -> tuple[list, dict]:
    def set_up() -> list[float]:
        return [run_child("setup", args, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]

    setups = set_up()
    run = run_child("measure", args, deadline, args.seconds)
    setups += [run["setup_s"], *set_up()]
    metrics = {
        "ops_per_s": (run["ops_per_s"], "ops/s"),
        "op_p50_ms": (run["op_p50_ms"], "ms"),
        "op_p90_ms": (run["op_p90_ms"], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    return [run], metrics


def per_layer(args, deadline: float) -> tuple[list, dict]:
    untraced = run_child("measure", args, deadline, args.seconds / 2)
    run = run_child("trace", args, deadline, args.seconds / 2)
    metrics = {name: tuple(v) for name, v in run["per_layer"].items()}
    metrics["trace.overhead_frac"] = (1.0 - run["ops_per_s"] / untraced["ops_per_s"], "fraction")
    return [untraced, run], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one isoconn benchmark workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one repetition per probe (smoke test)")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    try:
        runs, metrics = (per_layer if args.trace else end_to_end)(args, deadline)
    except ChildError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    ops = sum(run["ops"] for run in runs)
    failed = sum(run["failed"] for run in runs)
    errors = {}
    for run in runs:
        for name, count in run["errors"].items():
            errors[name] = errors.get(name, 0) + count
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "ops": ops,
        "failed_frac": {"value": failed / ops, "unit": "fraction"},
        "errors": errors,
        "env": runs[-1]["env"],
    }
    print(json.dumps(info))
    result = {
        "correct": all(run["wrong"] == 0 for run in runs),
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
