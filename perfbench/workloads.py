"""The three benchmark workloads: inputs, the timed call, and the oracle check.

Each workload has a ``setup`` (problem data that does not depend on the
seed) and a ``run`` (everything from the seeded inputs to a checked
answer).  ``paths`` is a class default that the self-test lowers.
``setup`` receives ``hook(fn, name)``, which the traced run uses to put a
span around the payoff, driver and obstacle callables the benchmark
builds; untraced runs pass the identity.

Package functions are looked up on their modules at call time
(``forward.simulate_paths``), so the wrappers ``tracing.install`` puts on
the module attributes are the ones called.

Tolerances (``tol_rel``) were calibrated over many seeds, as recorded in
``metrics.json``; every calibration seed passes with margin.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import os
import runpy
import sys

import numpy as np

K = 100.0
LOG_K = math.log(K)
MERTON = {"r": 0.05, "sigma": 0.2, "intensity": 1.0, "jump_mean": -0.1, "jump_sd": 0.15}


def _rel(value, ref):
    return abs(value - ref) / abs(ref)


class EuroMertonPoly:
    """Merton European call, degree-4 polynomial basis, series oracle."""

    name = "euro-merton-poly"
    paths, steps = 100_000, 50
    tol_rel = 0.025

    def setup(self, hook, workdir):
        from pidesolve import bsde, forward, model
        self.model = model.named_model("merton", **MERTON)
        drv = model.discount_driver(0.05)
        self.driver = dataclasses.replace(drv, f=hook(drv.f, "driver"))
        self.payoff = hook(lambda X: np.maximum(np.exp(X[:, 0]) - K, 0.0), "payoff")
        self.basis = bsde.PolynomialBasis(4, (LOG_K - 2.0, LOG_K + 2.0))
        self.grid = forward.TimeGrid(0.0, 1.0, self.steps)

    def run(self, seed):
        from pidesolve import bsde, forward, oracle
        bundle = forward.simulate_paths(self.model, self.grid, LOG_K, self.paths, seed=seed)
        sol = bsde.solve_bsde(self.model, self.driver, self.payoff, bundle, self.basis)
        ref = oracle.merton_price(100.0, K, MERTON["r"], MERTON["sigma"], 1.0,
                                  MERTON["intensity"], MERTON["jump_mean"],
                                  MERTON["jump_sd"])
        u0 = sol.u0()
        err = _rel(u0, ref)
        return {"u0": u0, "oracle": ref, "err_rel": err, "l2_weighted_rel": err,
                "stderr_rel": sol.u0_stderr() / u0}


class AmputBsLocal:
    """American put without jumps, local affine basis, full penalty schedule."""

    name = "amput-bs-local"
    paths, steps, cells = 25_000, 50, 100
    tol_rel = 0.045

    def setup(self, hook, workdir):
        from pidesolve import forward, model
        self.model = model.named_model("bs", r=0.05, sigma=0.2)
        drv = model.discount_driver(0.05)
        self.driver = dataclasses.replace(drv, f=hook(drv.f, "driver"))
        self.payoff = hook(lambda X: np.maximum(K - X[:, 0], 0.0), "payoff")
        self.obstacle = model.ObstacleSpec(
            h=hook(lambda t, X: np.maximum(K - X[:, 0], 0.0), "h"), iota=K + 1, kappa=1.0)
        self.weight = model.WeightFunction(4)
        self.grid = forward.TimeGrid(0.0, 1.0, self.steps)

    def run(self, seed):
        from pidesolve import bsde, forward, obstacle, oracle
        bundle = forward.simulate_paths(self.model, self.grid, 100.0, self.paths, seed=seed)
        basis = bsde.LocalAffineBasis(self.cells, (float(bundle.states.min()) - 1.0,
                                                   float(bundle.states.max()) + 1.0))
        refl = obstacle.solve_reflected(self.model, self.driver, self.payoff, self.obstacle,
                                        bundle, basis, tol=1e-9, weight=self.weight)
        measure = obstacle.estimate_reflection_measure(refl, t_bins=10, x_bins=25)
        support = obstacle.support_check(refl, measure, delta=0.005 * K)
        ref = oracle.binomial_american(100.0, K, 0.05, 0.2, 1.0, 2000, "put")
        u0 = refl.u0()
        err = _rel(u0, ref)
        problems = ([] if math.isfinite(support.fraction) and not support.trivial_mass
                    else ["reflection measure has no finite mass"])
        return {"u0": u0, "oracle": ref, "err_rel": err, "l2_weighted_rel": err,
                "stderr_rel": refl.solution.u0_stderr() / u0, "problems": problems}


class AmputMertonCli:
    """Merton American put through ``python -m pidesolve.cli compare``."""

    name = "amput-merton-cli"
    paths, steps, cells = 50_000, 50, 80
    tol_rel = 0.25
    tol_l2 = 0.02
    x_spread, half_width, n_points = 0.8, 0.5, 41

    def config(self):
        fd_half = 3.0
        return {
            "task": "compare",
            "seed": 0,
            "model": {"name": "merton", "params": dict(MERTON)},
            "driver": {"name": "discount", "params": {"rate": 0.05}},
            "terminal": {"name": "exp-put", "params": {"strike": K}},
            "obstacle": {"name": "exp-put",
                         "params": {"strike": K, "iota": K + 1, "kappa": 1.0}},
            "weight": {"p": 4.0},
            "numerics": {"grid_n": self.steps, "paths": self.paths, "x0": LOG_K,
                         "x0_spread": self.x_spread, "tol": 1e-9,
                         "basis": {"kind": "local", "cells": self.cells}},
            "compare": {"oracle": {"kind": "fd", "x_lo": LOG_K - fd_half,
                                   "x_hi": LOG_K + fd_half, "n_space": 1200,
                                   "n_time": 800, "horizon": 1.0},
                        "tol_rel": self.tol_rel,
                        "region": [LOG_K - self.half_width, LOG_K + self.half_width],
                        "x_grid_n": self.n_points},
        }

    def setup(self, hook, workdir):
        import pidesolve  # noqa: F401  - what `python -m pidesolve.cli` imports first
        self.config_path = os.path.join(workdir, "experiment.json")
        self.out_dir = os.path.join(workdir, "out")
        with open(self.config_path, "w") as fh:
            json.dump(self.config(), fh)

    def run(self, seed):
        argv = ["pidesolve.cli", "compare", "--config", self.config_path,
                "--seed", str(seed), "--out", self.out_dir]
        saved, sys.argv = sys.argv, argv
        try:
            runpy.run_module("pidesolve.cli", run_name="__main__", alter_sys=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        finally:
            sys.argv = saved
        if code not in (0, 2):  # 2: the solver's own tolerance check failed
            raise RuntimeError(f"solver compare exited with code {code}")
        x, u_solver = _read_xu(os.path.join(self.out_dir, "solver_u0.csv"))
        x_o, u_oracle = _read_xu(os.path.join(self.out_dir, "oracle_u0.csv"))
        if x.size != self.n_points or not np.array_equal(x, x_o):
            raise RuntimeError("solver and oracle grids differ")
        sup_rel = float(np.max(np.abs(u_solver - u_oracle) / np.abs(u_oracle)))
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            report = json.load(fh)
        body = report["body"]
        headline = body["headline"]
        body_hash = hashlib.sha256(json.dumps(body, sort_keys=True, separators=(",", ":"))
                                   .encode()).hexdigest()
        l2 = float(headline["l2_weighted_rel"])
        problems = []
        if body["status"] != "ok":
            problems.append(f"report status {body['status']!r}")
        if body_hash != report["hash"]:
            problems.append("report hash does not match its body")
        if not math.isclose(headline["sup_rel_err"], sup_rel, rel_tol=1e-12):
            problems.append("report sup_rel_err differs from the CSV tables")
        if not l2 <= self.tol_l2:
            problems.append(f"l2_weighted_rel {l2:.5g} above {self.tol_l2}")
        centre = int(np.argmin(np.abs(x - LOG_K)))
        artifacts = [os.path.join(self.out_dir, name) for name in body["artifacts"]]
        return {"u0": float(u_solver[centre]), "oracle": float(u_oracle[centre]),
                "err_rel": sup_rel, "l2_weighted_rel": l2,
                "report_hash": body_hash, "problems": problems,
                "artifacts": len(artifacts),
                "artifact_bytes": sum(os.path.getsize(p) for p in artifacts)}

    def stderr_rel(self, seed, u0):
        """Monte-Carlo scale of the answer, from a re-simulation of the inputs.

        The compare report carries no standard error, so the same bundle is
        simulated again (deterministic for the seed) after the timed region
        and the terminal payoff's standard error is taken, as
        ``BsdeSolution.u0_stderr`` does.
        """
        from pidesolve import config, forward
        raw = dict(self.config(), seed=seed)
        cfg = config.validate_config(raw)
        rng = np.random.default_rng(seed)
        x0 = rng.uniform(LOG_K - self.x_spread, LOG_K + self.x_spread, size=(self.paths, 1))
        bundle = forward.simulate_paths(cfg.build_model(), forward.TimeGrid(0.0, 1.0, self.steps),
                                        x0, self.paths, seed)
        g = cfg.build_terminal()(bundle.states[-1])
        return float(g.std(ddof=1) / math.sqrt(g.size)) / u0


def _read_xu(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    data = np.array([[float(a), float(b)] for a, b in rows[1:]])
    return data[:, 0], data[:, 1]


WORKLOADS = {w.name: w for w in (EuroMertonPoly, AmputBsLocal, AmputMertonCli)}
