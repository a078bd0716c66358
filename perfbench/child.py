"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py --workload NAME --seed S --trace 0|1 \
        --workdir DIR [--paths N]

Writes ``DIR/result.json``: the ``time.monotonic`` stamp at which the
inputs were ready (the parent subtracts its launch stamp to get the set-up
time), the run time from inputs ready to a checked answer, the answer and
its error against the oracle, and the process's resource usage at that
point.  With ``--trace 1`` the spans recorded around each layer's calls go
to ``DIR/spans.json``.  No warm-up solve runs first: a command-line or
one-shot library user pays the cold-start costs on every run.
"""

import argparse
import json
import os
import resource
import sys
import time

import numpy as np
import scipy

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--paths", type=int, default=None,
                        help="override the workload's path count (self-test only)")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    if args.paths:
        workload.paths = args.paths
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracing.install(tracer)
        hook = lambda fn, name: tracer.wrap(fn, name, "model")  # noqa: E731
    else:
        hook = lambda fn, name: fn  # noqa: E731
    workload.setup(hook, args.workdir)

    t_ready = time.monotonic()
    start = time.perf_counter()
    out = workload.run(args.seed)
    out.setdefault("problems", [])
    if not out["err_rel"] <= workload.tol_rel:
        out["problems"].append(f"err_rel {out['err_rel']:.5g} above tol_rel {workload.tol_rel}")
    run_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.write(os.path.join(args.workdir, "spans.json"))

    if hasattr(workload, "stderr_rel"):
        out["stderr_rel"] = workload.stderr_rel(args.seed, out["u0"])
    out.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "paths": workload.paths, "steps": workload.steps, "tol_rel": workload.tol_rel,
        "t_ready": t_ready, "run_s": run_s,
        "user_s": usage.ru_utime, "sys_s": usage.ru_stime,
        "minor_faults": usage.ru_minflt, "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "numpy": np.__version__, "scipy": scipy.__version__,
    })
    with open(os.path.join(args.workdir, "result.json"), "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
