"""Experiment runner: dispatch a validated config to the solvers and write
reproducible reports.

The validated config is a run's whole input.  The report body (task,
config hash, seed, headline numbers, per-criterion pass/fail, artifact list)
is hashed; timestamps and environment live outside the hashed body so
identical config and seed reproduce identical hashes.  Exit codes: 0
success, 2 criterion failure, 1 error.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import forward, normcheck, obstacle as obstacle_mod, oracle as oracle_mod
from .bsde import evaluate_fields, evaluate_u, make_basis, solve_bsde
from .config import ExperimentConfig, validate_config
from .errors import ConfigError, SolverError
from .forward import TimeGrid, simulate_paths

__all__ = ["Report", "run_experiment"]

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CRITERION = 2


@dataclass
class Report:
    """Machine-readable experiment summary."""

    body: dict
    meta: dict

    @property
    def hash(self):
        return hashlib.sha256(
            json.dumps(self.body, sort_keys=True, separators=(",", ":")).encode()
        ).hexdigest()

    def to_json(self):
        return json.dumps({"body": self.body, "hash": self.hash, "meta": self.meta},
                          indent=2, sort_keys=True)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write(self.to_json())
            fh.write("\n")


def _py(x):
    """Convert numpy scalars/arrays to plain JSON-serializable Python."""
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_py(v) for v in x]
    if isinstance(x, dict):
        return {k: _py(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_py(v) for v in x]
    return x


def _compare_table(x, us, uo, weight):
    """The comparison of solver values ``us`` with oracle values ``uo`` on
    the shared grid ``x``: the pointwise relative errors, their largest and
    the weighted relative L2 distance."""
    scale = np.maximum(np.abs(uo), 1e-12 * max(1.0, float(np.abs(uo).max())))
    rel = np.abs(us - uo) / scale
    w = weight(x[:, None])
    l2 = float(math.sqrt(np.sum(w * (us - uo) ** 2) / max(np.sum(w * uo**2), 1e-300)))
    return rel, float(rel.max()), l2


class _Artifacts:
    """The files of one run in its output directory: each is written once,
    through ``path``, and the report lists exactly the names recorded.
    ``meta`` holds the timings a task adds to the report's unhashed meta."""

    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.names = []
        self.meta = {}

    def path(self, name):
        """Record ``name`` and return its path; a name already written in
        this run raises ValueError."""
        if name in self.names:
            raise ValueError(f"artifact {name!r} written twice")
        self.names.append(name)
        return os.path.join(self.out_dir, name)

    def csv(self, name, header, rows):
        """A header line, then one line per row: a string as it is, any
        other value as ``format(v, ".17g")``.  Rows of Python floats, from
        ``tolist``, and of values formatted once where they repeat, write
        fastest."""
        with open(self.path(name), "w") as fh:
            fh.write(header + "\n")
            fh.writelines(",".join([v if isinstance(v, str) else format(v, ".17g")
                                    for v in row]) + "\n" for row in rows)

    def json(self, name, payload):
        with open(self.path(name), "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# pipeline pieces
# ---------------------------------------------------------------------------

def _starts(cfg, rng):
    num = cfg.numerics
    x0 = num["x0"]
    spread = num["x0_spread"]
    if spread > 0:
        return rng.uniform(x0 - spread, x0 + spread, size=(num["paths"], 1))
    return np.array([x0])


def _basis_from(cfg, paths):
    bb = cfg.numerics["basis"]
    if bb["box"] is not None:
        lo, hi = bb["box"]
    else:
        lo = float(paths.states.min()) - 1e-6
        hi = float(paths.states.max()) + 1e-6
    return make_basis(bb["kind"], (lo, hi), bb["degree"], bb["cells"])


def _simulate(cfg, model):
    grid = TimeGrid(0.0, 1.0, cfg.numerics["grid_n"])
    rng = np.random.default_rng(cfg.seed)
    x0 = _starts(cfg, rng)
    return simulate_paths(model, grid, x0, cfg.numerics["paths"], cfg.seed)


def _backward_problem(cfg):
    """Model, driver, terminal, simulated paths and basis of a solving task."""
    model = cfg.build_model()
    driver = cfg.build_driver()
    paths = _simulate(cfg, model)
    return model, driver, cfg.build_terminal(), paths, _basis_from(cfg, paths)


def _solution_rows(sol, eval_x):
    """(step, time, x, u, z, vbar...) on ``eval_x`` at every time step."""
    pts = eval_x[:, None]
    for k in range(sol.n_steps + 1):
        u, z, vbar = evaluate_fields(sol, k, pts)
        t = sol.grid.nodes[k]
        for j, xj in enumerate(eval_x):
            yield (k, t, xj, u[j], z[j, 0], *vbar[j])


def _eval_grid(cfg, paths):
    # both quantiles from one partitioned copy of the states
    lo, hi = (float(v) for v in np.quantile(paths.states, [0.005, 0.995]))
    return np.linspace(lo, hi, cfg.numerics["eval_points"])


# ---------------------------------------------------------------------------
# tasks
# ---------------------------------------------------------------------------

def _task_simulate(cfg, art):
    model = cfg.build_model()
    paths = _simulate(cfg, model)
    term = paths.states[-1][:, 0]
    headline = {
        "terminal_mean": float(term.mean()),
        "terminal_var": float(term.var()),
        "mean_jumps_per_path": float(paths.total_jumps_per_path().mean()),
    }
    dump = cfg.numerics["dump_paths"]
    if dump == "csv":
        forward.dump_paths_csv(paths, art.path("paths.csv"))
    elif dump == "binary":
        forward.dump_paths_binary(paths, art.path("paths.bin"))
    return headline, []


def _task_solve(cfg, art):
    model, driver, terminal, paths, basis = _backward_problem(cfg)
    sol = solve_bsde(model, driver, terminal, paths, basis,
                     picard_iters=cfg.numerics["picard"])
    eval_x = _eval_grid(cfg, paths)
    vbar_cols = "".join(f",vbar_{i+1}" for i in range(driver.n_functionals))
    art.csv("solution.csv", "step,time,x,u,z" + vbar_cols, _solution_rows(sol, eval_x))
    art.json("diagnostics.json", {
        "residual_norms": _py(sol.diagnostics["resid"]),
        "condition_numbers": _py(sol.diagnostics["cond"]),
        "clamp_counts": _py(sol.diagnostics["clamped"]),
        "degenerate_steps": _py(sol.diagnostics["degenerate"].astype(int)),
        "ridges": _py(sol.diagnostics["ridge"]),
    })
    headline = {"u0": sol.u0(), "u0_stderr": sol.u0_stderr(),
                "clamped_total": int(sol.diagnostics["clamped"].sum())}
    return headline, []


def _task_solve_obstacle(cfg, art):
    model, driver, terminal, paths, basis = _backward_problem(cfg)
    obst = cfg.build_obstacle()
    weight = cfg.build_weight()
    eval_x = _eval_grid(cfg, paths)
    refl = obstacle_mod.solve_reflected(
        model, driver, terminal, obst, paths, basis,
        schedule=cfg.numerics["schedule"], tol=cfg.numerics["tol"],
        weight=weight, picard_iters=cfg.numerics["picard"])
    for lvl, lsol in zip(refl.levels, refl.level_solutions):
        art.csv(f"u_level_{lvl:.17g}.csv", "x,u",
                zip(eval_x, evaluate_u(lsol, 0, eval_x[:, None])))
    meas = obstacle_mod.estimate_reflection_measure(refl)
    tc = 0.5 * (meas.t_edges[:-1] + meas.t_edges[1:])
    xc = 0.5 * (meas.x_edges[:-1] + meas.x_edges[1:])
    art.csv("nu_histogram.csv", "t_bin,x_bin,t_center,x_center,density",
            ((i, j, tc[i], xc[j], meas.density[i, j])
             for i in range(tc.size) for j in range(xc.size)))
    art.json("trace.json", {"levels": _py(refl.trace), "converged": refl.converged,
                            "direct_gap_rel": refl.direct_gap_rel})
    headline = {"u0": refl.u0(), "converged": refl.converged,
                "final_level": float(refl.final_level),
                "penalty_norm": refl.trace[-1]["penalty_norm"],
                "skorokhod": refl.trace[-1]["skorokhod"],
                "direct_gap_rel": refl.direct_gap_rel}
    criteria = [{"name": "penalization_converged", "passed": bool(refl.converged),
                 "value": refl.trace[-1]["penalty_norm"],
                 "threshold": cfg.numerics["tol"]}]
    return headline, criteria


def _oracle_solve(spec, cfg):
    """The oracle's answer: a closed form's ``{"price", "error_estimate"}``
    or the FD oracle's ``FdSolution``.  ``spec`` is ``cfg.oracle()``, a
    closed form's block with its market.  It builds its own model, driver,
    terminal and obstacle from the config and writes nothing, so ``compare``
    runs it on a helper thread."""
    kind = spec["kind"]
    if kind in ("merton", "binomial"):
        market = tuple(spec[key] for key in ("s0", "strike", "rate", "sigma", "horizon"))
        if kind == "merton":
            price = oracle_mod.merton_price(
                *market, spec["intensity"], spec["jump_mean"], spec["jump_sd"],
                n_terms=spec["n_terms"], kind=spec["option"])
            error = 1e-10
        else:
            steps, option = spec["steps"], spec["option"]
            price = oracle_mod.binomial_american(*market, steps, option)
            error = abs(price - oracle_mod.binomial_american(*market, steps // 2, option))
        return {"price": price, "error_estimate": error}
    # finite difference
    model = cfg.build_model()
    driver = cfg.build_driver()
    terminal = cfg.build_terminal()
    obst = cfg.build_obstacle()
    grid = oracle_mod.FdGrid(spec["x_lo"], spec["x_hi"], spec["n_space"], spec["n_time"],
                             bc=spec["bc"])
    return oracle_mod.fd_solve_pide(model, driver, terminal, grid,
                                    obstacle=obst, horizon=spec["horizon"])


def _oracle_write(result, art, prefix):
    """Write the file of an ``_oracle_solve`` result; returns (payload,
    u0_at), where u0_at(x) is the oracle's value at time 0 on the points x."""
    if isinstance(result, dict):
        art.json(f"{prefix}_price.json", result)
        return result, lambda x: np.full(x.size, result["price"])
    fd = result
    stride = max(1, fd.times.size // 11)
    # each slice's time and the x column formatted once, the values as floats
    ts = [format(t, ".17g") for t in fd.times[::stride].tolist()]
    xs = [format(x, ".17g") for x in fd.x.tolist()]
    art.csv(f"{prefix}_fd.csv", "time,x,u",
            ((t, xj, uj) for t, u in zip(ts, fd.values[::stride].tolist())
             for xj, uj in zip(xs, u)))
    # the base grid's ends are the configured x_lo and x_hi, bit for bit
    payload = {"u0_mid": float(fd.interp(0.0, 0.5 * (fd.x[0] + fd.x[-1]))),
               "cfl": fd.diagnostics["cfl"]}
    return payload, lambda x: fd.interp(0.0, x)


def _task_oracle(cfg, art):
    payload, _ = _oracle_write(_oracle_solve(cfg.oracle(), cfg), art, "oracle")
    return dict(payload), []


def _task_normcheck(cfg, art):
    model = cfg.build_model()
    weight = cfg.build_weight()
    nc = cfg.raw["normcheck"]
    quad = normcheck.gauss_legendre_panels(nc["radius"], nc["n_panels"],
                                           nc["nodes_per_panel"])
    fam = normcheck.shipped_phi_family()
    report = normcheck.norm_ratio(model, weight, fam, 0.0, nc["s_list"], quad,
                                  cfg.numerics["paths"], cfg.seed)
    art.csv("norm_ratios.csv", "phi_id,s,ratio,stderr", report.rows)
    lo, hi = report.bracket()
    summary = {"min_ratio": lo, "max_ratio": hi}
    art.json("norm_summary.json", summary)
    ok = bool(np.isfinite(report.ratios).all() and lo > 0)
    criteria = [{"name": "ratios_positive_finite", "passed": ok,
                 "value": lo, "threshold": 0.0}]
    return summary, criteria


def _timed_oracle_solve(spec, cfg):
    """``_oracle_solve``'s result and its wall time in seconds."""
    start = time.perf_counter()
    result = _oracle_solve(spec, cfg)
    return result, time.perf_counter() - start


def _task_compare(cfg, art):
    cmp_block = cfg.raw["compare"]
    spec = cfg.oracle()
    # the oracle shares no data with the solve and does not depend on the
    # seed, so the worker solves it while this thread simulates and solves;
    # its result, or its error, is read where the serial order ran it, after
    # the solver's file, and a solver error leaves it unread
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="pidesolve-oracle",
                            initializer=functools.partial(np.seterr, **np.geterr())) as pool:
        oracle_run = pool.submit(_timed_oracle_solve, spec, cfg)
        model, driver, terminal, paths, basis = _backward_problem(cfg)
        obst = cfg.build_obstacle()
        weight = cfg.build_weight()

        # validation pairs an x-grid with a region, and a region with x0 at one point
        n_grid = cmp_block["x_grid_n"]
        xq = (np.linspace(*cmp_block["region"], n_grid) if n_grid > 1
              else np.array([cfg.numerics["x0"]]))

        if obst is None:
            sol = solve_bsde(model, driver, terminal, paths, basis,
                             picard_iters=cfg.numerics["picard"])
        else:
            # the comparison reads the schedule's last level only, which alone
            # gives the solution of solve_reflected bit for bit
            x_T = paths.states[-1]
            obstacle_mod.check_horizon(terminal(x_T), obst(paths.grid.nodes[-1], x_T))
            sol = obstacle_mod.solve_penalized(
                model, driver, terminal, obst, paths, basis, cfg.numerics["schedule"][-1],
                picard_iters=cfg.numerics["picard"])
        u_solver = evaluate_u(sol, 0, xq[:, None])
        art.csv("solver_u0.csv", "x,u", zip(xq, u_solver))

        wait_start = time.perf_counter()
        result, oracle_s = oracle_run.result()
        art.meta.update(oracle_s=round(oracle_s, 3),
                        oracle_wait_s=round(time.perf_counter() - wait_start, 3))
    _, u0_at = _oracle_write(result, art, "oracle_cmp")
    u_oracle = u0_at(xq)
    art.csv("oracle_u0.csv", "x,u", zip(xq, u_oracle))

    rel, sup_rel, l2 = _compare_table(xq, u_solver, u_oracle, weight)
    art.csv("compare.csv", "x,solver,oracle,rel_err", zip(xq, u_solver, u_oracle, rel))
    tol = cmp_block["tol_rel"]
    headline = {"sup_rel_err": sup_rel, "l2_weighted_rel": l2, "tol_rel": tol}
    criteria = [{"name": "solver_matches_oracle", "passed": sup_rel <= tol,
                 "value": sup_rel, "threshold": tol}]
    return headline, criteria


_TASK_FNS = {
    "simulate": _task_simulate,
    "solve": _task_solve,
    "solve-obstacle": _task_solve_obstacle,
    "oracle": _task_oracle,
    "normcheck": _task_normcheck,
    "compare": _task_compare,
}


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_experiment(cfg, out_dir=None):
    """Run one experiment; returns (Report, exit_code) and writes report.json.

    An exclusive ``flock`` on ``out_dir/.lock``, held for the whole run,
    serializes experiments per output directory (see ``_take_lock``).  The
    seed goes into the hashed body beside the config's hash; timestamps and
    paths stay in the unhashed meta block.
    """
    if not isinstance(cfg, ExperimentConfig):
        cfg = validate_config(cfg)
    out_dir = out_dir or cfg.raw["output"]
    os.makedirs(out_dir, exist_ok=True)
    lock_path = os.path.join(out_dir, ".lock")
    lock_fd = _take_lock(lock_path, out_dir)
    start = time.time()
    try:
        config_hash = hashlib.sha256(cfg.canonical_json().encode()).hexdigest()
        body = {"task": cfg.task, "config_hash": config_hash, "seed": cfg.seed}
        art = _Artifacts(out_dir)
        try:
            headline, criteria = _TASK_FNS[cfg.task](cfg, art)
            body["headline"] = _py(headline)
            body["criteria"] = _py(criteria)
            body["artifacts"] = sorted(art.names + ["report.json"])
            code = EXIT_OK if all(c["passed"] for c in criteria) else EXIT_CRITERION
            body["status"] = "ok" if code == EXIT_OK else "criterion-failure"
        except Exception as exc:  # noqa: BLE001 - report, then fail with code 1
            body["status"] = "error"
            body["error"] = ({"code": exc.code, "message": str(exc)}
                             if isinstance(exc, SolverError) else
                             {"code": "E_ERROR", "message": f"{type(exc).__name__}: {exc}"})
            body["criteria"] = []
            body["artifacts"] = ["report.json"]
            code = EXIT_ERROR
        meta = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
                "elapsed_s": round(time.time() - start, 3),
                "out_dir": os.path.abspath(out_dir), **art.meta}
        report = Report(body=body, meta=meta)
        report.write(os.path.join(out_dir, "report.json"))
        return report, code
    finally:
        _release_lock(lock_fd, lock_path)


def _take_lock(lock_path, out_dir):
    """Hold an exclusive ``flock`` on the lock file; returns its descriptor,
    which child processes do not inherit.

    The kernel drops the flock when the process ends, however it ends, so
    no lock outlives its run.  A flock held through another open file, by
    another process or thread, is refused with ``ConfigError``; a file
    removed or replaced before the flock took hold is opened again.
    """
    while True:
        fd = os.open(lock_path, os.O_CREAT | os.O_WRONLY)
        held = False
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            held = _is_lock_file(fd, lock_path)
        except BlockingIOError:
            raise ConfigError(f"output directory {out_dir!r} is locked by "
                              f"another experiment") from None
        finally:
            if not held:
                os.close(fd)
        if held:
            return fd


def _release_lock(fd, lock_path):
    """Remove the lock file if it is still the one this run locked, then
    close it and with it the flock."""
    try:
        if _is_lock_file(fd, lock_path):
            os.unlink(lock_path)
    finally:
        os.close(fd)


def _is_lock_file(fd, lock_path):
    """True when ``lock_path`` names the file open on ``fd``."""
    try:
        return os.path.samestat(os.fstat(fd), os.stat(lock_path))
    except FileNotFoundError:
        return False
