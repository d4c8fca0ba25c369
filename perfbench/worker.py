"""One benchmark process: imports the library, builds one workload's inputs,
runs the timed loop and checks every output.

Run by ``run.py`` with ``src`` on PYTHONPATH.  Prints one JSON object as its
last line of standard output.  ``--setup-only`` stops at the first timed call
and reports only when it got there, so the launcher can sample set-up time in
fresh interpreters.
"""

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def environment(args):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "threads": {var: value for var, value in os.environ.items()
                    if var.endswith("_NUM_THREADS")},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]()
    tracer = tracing.Tracer()
    with tracing.installed(tracer) if args.trace else contextlib.nullcontext():
        tracer.op = tracing.SETUP_OP
        pool = workload.inputs(args.seed)
        tracer.op = None
        t_first = time.time()
        if args.setup_only:
            print(json.dumps({"t_first": t_first}))
            return
        count = operation_count(args.seconds, workload.op_s, args.trace)
        result = timed_loop(workload, pool, count, args.trace, tracer)
    result["t_first"] = t_first
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args)
    if args.trace:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, "spans-%s-seed%d.json" % (args.workload, args.seed))
        with open(path, "w") as fh:
            json.dump(tracer.spans, fh)
        result["spans_file"] = path
    print(json.dumps(result))


def operation_count(seconds, op_s, trace):
    """Operations one run makes: as many as fit in ``seconds`` at the
    workload's nominal ``op_s`` seconds each, and at least one (one
    untraced-traced pair when traced).  The count depends on the arguments
    only, never on how fast this run goes, so a seed always gives the same
    operations on the same inputs, and the same failures."""
    step = 2 if trace else 1
    return step * max(1, int(seconds // (step * op_s)))


def timed_loop(workload, pool, count, trace, tracer):
    """Run ``count`` operations, each one timed and then checked.  With
    tracing, operations alternate untraced and traced on the same input, so
    the two medians give the tracing overhead."""
    step = 2 if trace else 1
    plain, traced, errs = [], [], []
    attempted = failed = 0
    check_s = 0.0
    loop_start = time.perf_counter()
    for i in range(count):
        data = pool[(i // step) % len(pool)]
        trace_this = i % step == 1
        tracer.op = i // step if trace_this else None
        attempted += 1
        start = time.perf_counter()
        try:
            out = workload.run(data)
        except Exception:  # a raising operation is counted, not fatal
            traceback.print_exc()
            out = None
        elapsed = time.perf_counter() - start
        (traced if trace_this else plain).append(elapsed)
        start = time.perf_counter()
        tracer.op = tracing.REFERENCE_OP
        if out is None:
            failed += 1
        else:
            err, ok = workload.check(data, out)
            errs.append(float(err))
            failed += not ok
        tracer.op = None
        check_s += time.perf_counter() - start
    loop_s = time.perf_counter() - loop_start - check_s
    return {"plain_s": plain, "traced_s": traced, "errs": errs,
            "err_name": workload.err_name, "tol": workload.tol,
            "attempted": attempted, "failed": failed,
            "raised": attempted - len(errs), "ops_per_s": attempted / loop_s}


if __name__ == "__main__":
    sys.exit(main())
