"""pidesolve benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs repetitions of one workload, each in a fresh child process
(``child.py``), one child at a time, until ``--seconds`` have passed (at
least one repetition, or one traced/untraced pair).  Child ``i`` gets the
seed ``1000 * N + i``, so the same ``--seed`` gives the same inputs.  Every
answer is checked against its oracle at the workload's tolerance; a child
that raises, exits non-zero or misses its tolerance counts as failed.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, as medians over the repetitions; with
``--trace 1`` each repetition is an untraced child and a traced child on
the same seed, the two answers must be bit-identical, and the metrics are
the per-layer ones (medians over the traced children) plus the tracing
overhead.  Metric names, units and the layer each belongs to are listed in
``BENCHMARK.json`` and ``perfbench/metrics.json``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CHILD_TIMEOUT_S = 120.0
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")


def environment():
    """The child environment: the checkout's sources and a fixed BLAS width.

    The BLAS thread count is what the environment already asks for, capped
    at the number of processors; only one child runs at a time.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    nproc = os.cpu_count() or 1
    asked = env.get("OPENBLAS_NUM_THREADS") or env.get("OMP_NUM_THREADS")
    threads = min(nproc, int(asked)) if asked and asked.isdigit() else nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env, {"nproc": nproc, "blas_threads": threads}


def run_child(workload, seed, trace, env, run_dir, paths=None):
    """Run one repetition; returns (result dict or None, spans, error text)."""
    workdir = tempfile.mkdtemp(dir=run_dir)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace), "--workdir", workdir]
    if paths:
        cmd += ["--paths", str(paths)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            return None, None, f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"
        with open(os.path.join(workdir, "result.json")) as fh:
            result = json.load(fh)
        spans = None
        if trace:
            with open(os.path.join(workdir, "spans.json")) as fh:
                spans = json.load(fh)
        result["setup_s"] = result["t_ready"] - launched
        return result, spans, None
    except subprocess.TimeoutExpired:
        return None, None, f"timed out after {CHILD_TIMEOUT_S:.0f} s"
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(results):
    med = lambda key: statistics.median(r[key] for r in results)  # noqa: E731
    return {
        "run_s": (med("run_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "path_steps_per_s": (statistics.median(r["paths"] * r["steps"] / r["run_s"]
                                               for r in results), "1/s"),
        "stderr_rel": (med("stderr_rel"), "ratio"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
    }


def per_layer(traced, plain):
    """Per-layer metrics of one traced child; ``plain`` is its untraced twin."""
    result, spans = traced
    s = tracing.summarize(spans)
    by, self_s = s["by_name"], s["self_s"]

    def t(*names):
        return sum(by.get(n, {}).get("s", 0.0) for n in names)

    def n(name, key="calls"):
        return by.get(name, {}).get(key, 0)

    levels = n("solve_penalized")
    return {
        "bsde.fit_s": (t("fit"), "s"), "bsde.fit_calls": (n("fit"), "count"),
        "bsde.fit_rows": (n("fit", "rows"), "count"),
        "bsde.predict_s": (t("predict"), "s"), "bsde.predict_calls": (n("predict"), "count"),
        "bsde.design_s": (t("design"), "s"), "bsde.design_calls": (n("design"), "count"),
        "bsde.solve_s": (t("solve_bsde"), "s"), "bsde.solve_calls": (n("solve_bsde"), "count"),
        "bsde.evaluate_u_s": (t("evaluate_u"), "s"),
        "bsde.driver_calls": (n("driver"), "count"),
        "bsde.self_s": (self_s.get("bsde", 0.0), "s"),
        "model.compensator_drift_s": (t("compensator_drift"), "s"),
        "model.compensator_drift_calls": (n("compensator_drift"), "count"),
        "forward.simulate_s": (t("simulate_paths"), "s"),
        "forward.path_steps": (n("simulate_paths", "path_steps"), "count"),
        "forward.jumps": (n("simulate_paths", "jumps"), "count"),
        "obstacle.reflected_s": (t("solve_reflected"), "s"),
        "obstacle.levels": (levels, "count"),
        "obstacle.level_s": (t("solve_penalized") / levels if levels else 0.0, "s"),
        "obstacle.direct_s": (s["direct_s"], "s"),
        "obstacle.h_calls": (n("h"), "count"), "obstacle.h_s": (t("h"), "s"),
        "obstacle.along_paths_s": (t("obstacle_along_paths"), "s"),
        "obstacle.skorokhod_s": (t("skorokhod_gap"), "s"),
        "obstacle.measure_s": (t("estimate_reflection_measure", "support_check"), "s"),
        "obstacle.self_s": (self_s.get("obstacle", 0.0), "s"),
        "oracle.fd_s": (t("fd_solve_pide"), "s"),
        "oracle.fd_cells": (n("fd_solve_pide", "cells"), "count"),
        "oracle.binomial_s": (t("binomial_american"), "s"),
        "oracle.series_s": (t("merton_price"), "s"),
        "config.validate_s": (t("validate_config"), "s"),
        "runner.run_experiment_s": (t("run_experiment"), "s"),
        "runner.self_s": (self_s.get("runner", 0.0), "s"),
        "runner.artifacts": (result.get("artifacts", 0), "count"),
        "runner.artifact_bytes": (result.get("artifact_bytes", 0), "bytes"),
        "proc.user_s": (plain["user_s"], "s"), "proc.sys_s": (plain["sys_s"], "s"),
        "proc.minor_faults": (plain["minor_faults"], "count"),
        "proc.tracing_overhead_s": (result["run_s"] - plain["run_s"], "s"),
        "coverage.untraced_share": (max(0.0, 1.0 - s["top_s"] / result["run_s"]), "ratio"),
        "check.err_rel": (result["err_rel"], "ratio"),
        "check.l2_weighted_rel": (result["l2_weighted_rel"], "ratio"),
    }


def median_metrics(samples):
    names = samples[0].keys()
    return {k: (statistics.median(s[k][0] for s in samples), samples[0][k][1]) for k in names}


def identical(a, b):
    keys = ("u0", "err_rel", "l2_weighted_rel", "report_hash")
    return all(a.get(k) == b.get(k) for k in keys)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be a non-negative integer")

    if not os.path.isfile(os.path.join(SRC, "pidesolve", "__init__.py")):
        print(f"error: no pidesolve sources under {SRC}", file=sys.stderr)
        return 2
    env, env_info = environment()
    os.makedirs(WORK_ROOT, exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=WORK_ROOT)
    deadline = time.monotonic() + args.seconds
    attempted = failed = 0
    results, layer_samples = [], []
    try:
        i = 0
        while not failed and (i == 0 or time.monotonic() < deadline):
            seed = 1000 * args.seed + i
            i += 1
            outs = []
            for trace in ((0, 1) if args.trace else (0,)):
                attempted += 1
                res, spans, err = run_child(args.workload, seed, trace, env, run_dir)
                if err is None and res["problems"]:
                    err = "; ".join(res["problems"])
                if err is None and trace and not identical(outs[0][0], res):
                    err = "traced and untraced answers differ"
                if err is not None:
                    failed += 1
                    print(f"[FAIL] {args.workload} seed {seed} trace {trace}: {err}",
                          file=sys.stderr)
                    break
                print(f"[ok] {args.workload} seed {seed} trace {trace}: "
                      f"u0={res['u0']:.6g} oracle={res['oracle']:.6g} "
                      f"err_rel={res['err_rel']:.5g} (tol {res['tol_rel']:.5g}) "
                      f"run_s={res['run_s']:.3f} setup_s={res['setup_s']:.3f}")
                outs.append((res, spans))
            else:
                results.append(outs[0][0])
                if args.trace:
                    layer_samples.append(per_layer(outs[1], outs[0][0]))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    if results:
        env_info.update(numpy=results[0]["numpy"], scipy=results[0]["scipy"])
    print("env " + json.dumps(dict(env_info, python=sys.version.split()[0])))
    metrics = {}
    if failed == 0:
        chosen = median_metrics(layer_samples) if args.trace else end_to_end(results)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in chosen.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
