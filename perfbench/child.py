"""One fresh benchmark process: build a workload's inputs, run it, print one JSON line.

``run.py`` starts this file once per set-up sample and once per measured or
traced loop, so each sample pays for its own import, with the BLAS thread
pins ``run.py`` set in its environment.  Modes:

- ``setup``: import and build the inputs, then report the set-up time;
- ``measure``: also run the closed loop untraced and check every answer;
- ``trace``: run the loop with spans and warning counts, then the probes;
- ``digest``: print a hash of the inputs one seed generates.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
MIN_OPS = 100  # so that p90 has at least ten samples beyond it
# Layers the kept workloads call directly; the spans file has every layer.
SHARE_LAYERS = ("mobility", "zones", "cli")


def closed_loop(workload, ctx, seconds: float, min_ops: int, tracer=None) -> dict:
    """Run operations one after another for ``seconds`` of operation time.

    Each answer is checked against its oracle as soon as its operation ends,
    outside the timed region, and then dropped, so memory holds one result at a
    time.  Every failure is counted; none is retried.
    """
    from workloads import OK, WRONG

    latencies, statuses, errors = [], Counter(), Counter()
    busy = 0.0
    i = 0
    while busy < seconds or i < min_ops:
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = workload.run(ctx, i)
            else:
                with tracer.op(i, f"op.{workload.name}"):
                    result = workload.run(ctx, i)
            error = None
        except Exception as exc:  # counted below, never retried
            result, error = None, exc
        latency = time.perf_counter() - t0
        latencies.append(latency)
        busy += latency
        status = workload.check(i, result, error)
        statuses[status] += 1
        if error is not None:
            errors[type(error).__name__] += 1
            if status == WRONG:
                traceback.print_exception(error, file=sys.stderr)
        i += 1
    ms = sorted(1e3 * t for t in latencies)
    p90 = statistics.quantiles(ms, n=10, method="inclusive")[8] if len(ms) > 1 else ms[0]
    return {
        "ops": i,
        "failed": i - statuses[OK],
        "wrong": statuses[WRONG],
        "errors": dict(errors),
        "busy_s": busy,
        "ops_per_s": i / busy,
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": p90,
    }


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=["setup", "measure", "trace", "digest"], required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        start = time.perf_counter()
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start

        if args.mode == "setup":
            report = {"setup_s": setup_s}
        elif args.mode == "digest":
            report = {"digest": workloads.digest(workload.describe())}
        else:
            report = run_loop(args, workload, workdir)
            report["setup_s"] = setup_s
            report["peak_rss_mb"] = peak_rss_mb()
            report["env"] = environment()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


def run_loop(args, workload, workdir: Path) -> dict:
    import isoconn
    from workloads import Context

    min_ops = workload.kinds if args.tiny else max(MIN_OPS, workload.kinds)
    if args.mode == "measure":
        ctx = Context(isoconn, lambda name: contextlib.nullcontext())
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return closed_loop(workload, ctx, args.seconds, min_ops)

    from probes import run_probes
    from tracing import TracedLibrary, Tracer

    tracer = Tracer()
    ctx = Context(TracedLibrary(isoconn, tracer), tracer.span)
    caught = 0

    def count_warning(*_args, **_kwargs):
        nonlocal caught
        caught += 1

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = count_warning
        report = closed_loop(workload, ctx, args.seconds, min_ops, tracer)
    tracer.write(OUT / f"spans-{args.workload}-{args.seed}.json")

    per_layer = {"matrices.numpy_warnings": (caught, "count")}
    shares = tracer.layer_shares()
    per_layer.update({f"{layer}.span_share": (shares[layer], "fraction") for layer in SHARE_LAYERS})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        per_layer.update(run_probes(args.seed, workdir, args.tiny))
    report["per_layer"] = per_layer
    return report


if __name__ == "__main__":
    sys.exit(main())
