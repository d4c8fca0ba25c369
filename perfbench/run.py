"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: plane_wave, picard, batch (see NOTES.md for why each is there).
The run starts fresh worker processes, one after another, with ``src`` on
PYTHONPATH and one BLAS thread: the one that measures, with two that only
set up before it and two after it, so the set-up time is a median of five
taken over the whole run.  All load comes from one process at a time.

It prints every metric by name with its unit and sample count, the accuracy
figures and the environment, and as its last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
same figures, plus the worker's raw samples, go to ``perfbench/out``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import stats

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
WORKLOADS = ("plane_wave", "picard", "batch")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ACCURACY = ("rel_err", "oracle_gap", "trace_err")
SETUP_PROBES = 2
# the whole run, workers included, must end well within 180 s
DEADLINE_S = 170.0


def child_env():
    """Environment for the workers: the library on the path and one BLAS
    thread.  (With two threads on a two-core machine, single operations
    spread about three times as widely between repeats.)"""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def launch(argv, env, deadline):
    """Run one worker to completion.  Returns the seconds from its launch to
    its first timed call, and its result object."""
    launched = time.time()
    proc = subprocess.run([sys.executable, WORKER] + argv, env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.exit("worker %s exited with code %d" % (argv, proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["t_first"] - launched, result


def end_to_end(res, setups):
    solve = stats.summarize(res["plain_s"])
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "solve_s": {"value": solve["median"], "unit": "s"},
        "solves_per_s": {"value": res["ops_per_s"], "unit": "1/s"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
    }
    tail = ("p%g %.4f s" % (solve["tail_pct"], solve["tail"]) if "tail" in solve
            else "no tail percentile: fewer than 10 samples beyond p90")
    notes = {
        "setup_s": "median of %d set-ups, interpreter start to first timed call"
                   % len(setups),
        "solve_s": "median of n=%d operations; %s" % (solve["n"], tail),
        "solves_per_s": "%d operations over the timed loop" % len(res["plain_s"]),
        "peak_rss_mb": "peak resident memory of the measuring process",
    }
    return metrics, notes


def per_layer(res):
    metrics = dict(res["layers"])
    traced = statistics.median(res["traced_s"])
    plain = statistics.median(res["plain_s"])
    metrics["trace.solve_s"] = {"value": traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced - plain, "unit": "s"}
    notes = {"trace.solve_s": "median of n=%d traced operations" % len(res["traced_s"]),
             "trace.overhead_s": "traced minus untraced median (n=%d each)"
                                 % len(res["plain_s"])}
    return metrics, notes


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "hnls_utm")):
        # never fall back to an installed copy: measure this checkout's code
        sys.exit("no library source under %s" % os.path.join(ROOT, "src"))
    env = child_env()
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [launch(base + ["--setup-only"], env, deadline)[0]
              for _ in range(SETUP_PROBES)]
    setup, res = launch(base + ["--seconds", str(args.seconds),
                                "--trace", str(args.trace)], env, deadline)
    setups.append(setup)
    setups += [launch(base + ["--setup-only"], env, deadline)[0]
               for _ in range(SETUP_PROBES)]

    attempted, failed = res["attempted"], res["failed"]
    errs = res["errs"]
    # a tolerance miss is counted in `failed`, not here (see NOTES.md)
    correct = res["raised"] == 0 and all(math.isfinite(e) for e in errs)
    metrics, notes = per_layer(res) if args.trace else end_to_end(res, setups)
    ratio = stats.failed_ratio(attempted, failed)
    accuracy = {name: None for name in ACCURACY}
    accuracy[res["err_name"]] = max(errs) if errs else None

    print("workload %s  seed %d  run %g s  trace %d" % (
        args.workload, args.seed, args.seconds, args.trace))
    print("env %s" % json.dumps(res["env"], sort_keys=True))
    for name, metric in metrics.items():
        print("%-26s %-14.6g %-6s %s" % (name, metric["value"], metric["unit"],
                                         notes.get(name, "")))
    print("%-26s %-14.6g %-6s %d of %d operations raised or missed tolerance"
          % ("failed_ratio", ratio, "1", failed, attempted))
    for name, value in accuracy.items():
        if value is None:
            print("%-26s n/a on %s" % (name, args.workload))
        else:
            print("%-26s %-14.6g %-6s worst of %d checked outputs (tol %g)"
                  % (name, value, "1", len(errs), res["tol"]))

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"metrics": metrics, "notes": notes, "failed_ratio": ratio,
                   "accuracy": accuracy, "setups_s": setups, "worker": res},
                  fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
