"""Acceptance suite: each criterion at its stated tolerance.

One pass/fail line per criterion goes to stdout (visible with -s, or in the
captured output on failure).  Expensive instances are shared across
criteria through module-scoped fixtures; all seeds are fixed.
"""

import math
import time

import numpy as np
import pytest

from pidesolve.bsde import (LocalAffineBasis, PolynomialBasis,
                            check_apriori_estimate, check_z_representation,
                            evaluate_u, solve_bsde)
from pidesolve.forward import TimeGrid, check_flow_property, simulate_paths
from pidesolve.model import (ObstacleSpec, WeightFunction, discount_driver,
                             named_model, scalar_model, zero_driver)
from pidesolve.normcheck import (gauss_legendre_panels, norm_ratio,
                                 shipped_phi_family)
from pidesolve.obstacle import (estimate_reflection_measure, penalty_norm,
                                solve_reflected, support_check)
from pidesolve.oracle import (FdGrid, binomial_american, fd_solve_pide,
                              merton_price)
from pidesolve.runner import run_experiment

K = 100.0
LOG_K = math.log(K)
W4 = WeightFunction(4)


def report(num, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


# ---------------------------------------------------------------------------
# shared instances
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heat_run(heat_model):
    start = time.time()
    paths = simulate_paths(heat_model, TimeGrid(0, 1, 50), 0.0, 100_000, seed=601)
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0] ** 2, paths,
                     PolynomialBasis(4, (-6.0, 6.0)))
    return {"sol": sol, "elapsed": time.time() - start}


@pytest.fixture(scope="module")
def toy_run(toy_model):
    paths = simulate_paths(toy_model, TimeGrid(0, 1, 50), 0.0, 100_000, seed=602)
    sol = solve_bsde(toy_model, zero_driver(), lambda X: X[:, 0] ** 2, paths,
                     PolynomialBasis(4, (-6.0, 6.0)))
    fd = fd_solve_pide(toy_model, zero_driver(), lambda X: X[:, 0] ** 2,
                       FdGrid(-8.0, 8.0, 800, 400))
    return {"sol": sol, "fd_value": float(fd.interp(0.0, 0.0))}


@pytest.fixture(scope="module")
def merton_run(merton_model):
    g = lambda X: np.maximum(np.exp(X[:, 0]) - K, 0.0)
    drv = discount_driver(0.05)
    start = time.time()
    paths = simulate_paths(merton_model, TimeGrid(0, 1, 50), LOG_K, 100_000,
                           seed=603)
    sol = solve_bsde(merton_model, drv, g, paths,
                     PolynomialBasis(4, (LOG_K - 2.0, LOG_K + 2.0)))
    elapsed = time.time() - start
    series = merton_price(100.0, K, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15)
    fd = fd_solve_pide(merton_model, drv, g,
                       FdGrid(LOG_K - 3.0, LOG_K + 3.0, 1200, 800))
    return {"sol": sol, "series": series, "fd_value": float(fd.interp(0.0, LOG_K)),
            "elapsed": elapsed}


@pytest.fixture(scope="module")
def american_put_run():
    model = named_model("bs")
    h = ObstacleSpec(h=lambda t, X: np.maximum(K - X[:, 0], 0.0), iota=K + 1,
                     kappa=1.0)
    g = lambda X: np.maximum(K - X[:, 0], 0.0)
    drv = discount_driver(0.05)
    paths = simulate_paths(model, TimeGrid(0, 1, 100), 100.0, 200_000, seed=401)
    basis = LocalAffineBasis(100, (float(paths.states.min()) - 1.0,
                                   float(paths.states.max()) + 1.0))
    refl = solve_reflected(model, drv, g, h, paths, basis, tol=1e-9, weight=W4)
    bench = binomial_american(100.0, K, 0.05, 0.2, 1.0, 2000, "put")
    # the scale |h|: the penalty norm of Y = 0 along the same paths
    lvals = refl.obstacle_values
    hnorm = penalty_norm(np.zeros_like(lvals), lvals, paths.states, W4,
                         paths.grid.dt)
    measure = estimate_reflection_measure(refl, t_bins=10, x_bins=25)
    return {"refl": refl, "bench": bench, "hnorm": hnorm, "measure": measure}


@pytest.fixture(scope="module")
def merton_put_run(merton_model):
    g = lambda X: np.maximum(K - np.exp(X[:, 0]), 0.0)
    h = ObstacleSpec(h=lambda t, X: np.maximum(K - np.exp(X[:, 0]), 0.0),
                     iota=K + 1, kappa=1.0)
    drv = discount_driver(0.05)
    fd = fd_solve_pide(merton_model, drv, g,
                       FdGrid(LOG_K - 3.0, LOG_K + 3.0, 1200, 800),
                       obstacle=h, horizon=1.0)
    rng = np.random.default_rng(500)
    x0 = rng.uniform(LOG_K - 0.8, LOG_K + 0.8, size=(200_000, 1))
    paths = simulate_paths(merton_model, TimeGrid(0, 1, 50), x0, 200_000, seed=501)
    basis = LocalAffineBasis(80, (float(paths.states.min()) - 0.01,
                                  float(paths.states.max()) + 0.01))
    refl = solve_reflected(merton_model, drv, g, h, paths, basis, tol=1e-9,
                           weight=W4)
    return {"refl": refl, "fd": fd}


@pytest.fixture(scope="module")
def apriori_runs():
    model = named_model("bs")
    call = lambda X: np.maximum(X[:, 0] - K, 0.0)
    drv = discount_driver(0.05)
    grid = TimeGrid(0, 1, 50)
    points = (80.0, 90.0, 100.0, 110.0, 120.0)
    ratios = []
    for m in (40_000, 80_000):
        sols = {}
        for x0 in points:
            b = simulate_paths(model, grid, x0, m, seed=510)
            sols[x0] = solve_bsde(model, drv, call, b,
                                  PolynomialBasis(4, (20.0, 350.0)))
        ratios.append(check_apriori_estimate(
            {x: sols[x] for x in (80.0, 100.0, 120.0)}, call, drv, W4))
        ratios.append(check_apriori_estimate(sols, call, drv, W4))
    return ratios


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_1_heat_value(heat_run):
    sol = heat_run["sol"]
    err = abs(sol.u0() - 1.0)
    ok = err <= 3 * sol.u0_stderr() and err <= 0.02 and heat_run["elapsed"] <= 30.0
    report(1, ok, f"heat u(0,0)={sol.u0():.5f} err={err:.5f} "
                  f"(3SE={3 * sol.u0_stderr():.5f}, abs bar 0.02), "
                  f"runtime {heat_run['elapsed']:.1f}s <= 30s")


def test_criterion_2_linear_pide_with_jumps(toy_run):
    sol = toy_run["sol"]
    err = abs(sol.u0() - 4.0 / 3.0)
    fd_gap = abs(sol.u0() - toy_run["fd_value"]) / toy_run["fd_value"]
    ok = err <= 3 * sol.u0_stderr() and err <= 0.02 * 4.0 / 3.0 and fd_gap <= 0.01
    report(2, ok, f"toy-uniform u(0,0)={sol.u0():.5f} err={err:.5f} "
                  f"(3SE={3 * sol.u0_stderr():.5f}), fd cross-check "
                  f"{fd_gap:.4%} <= 1%")


def test_criterion_3_merton_european_call(merton_run):
    price = merton_run["sol"].u0()
    series = merton_run["series"]
    solver_gap = abs(price - series) / series
    fd_gap = abs(merton_run["fd_value"] - series) / series
    ok = solver_gap <= 0.01 and fd_gap <= 0.002 and merton_run["elapsed"] <= 120.0
    report(3, ok, f"merton call solver={price:.4f} series={series:.4f} "
                  f"gap={solver_gap:.4%} <= 1%; series-vs-fd {fd_gap:.4%} <= 0.2%; "
                  f"runtime {merton_run['elapsed']:.1f}s <= 120s")


def test_criterion_4_american_put_no_jumps(american_put_run):
    refl = american_put_run["refl"]
    bench = american_put_run["bench"]
    gap = abs(refl.u0() - bench) / bench
    ok = gap <= 0.005
    report(4, ok, f"american put u0={refl.u0():.4f} binomial={bench:.4f} "
                  f"gap={gap:.4%} <= 0.5%")


def test_criterion_5_american_put_with_jumps(merton_put_run):
    refl = merton_put_run["refl"]
    fd = merton_put_run["fd"]
    xq = np.linspace(LOG_K - 0.5, LOG_K + 0.5, 41)
    u_solver = evaluate_u(refl.solution, 0, xq[:, None])
    u_fd = fd.interp(0.0, xq)
    sup_rel = float(np.max(np.abs(u_solver - u_fd) / np.abs(u_fd)))
    ok = sup_rel <= 0.02
    report(5, ok, f"merton american put sup-rel error on |log(S/K)|<=0.5: "
                  f"{sup_rel:.4f} <= 0.02")


def test_criterion_6_penalization_convergence(american_put_run):
    refl = american_put_run["refl"]
    hnorm = american_put_run["hnorm"]
    pnorms = [tr["penalty_norm"] for tr in refl.trace]
    se = 3 * refl.solution.u0_stderr()
    non_increasing = all(b <= a * 1.0001 + 1e-12 for a, b in zip(pnorms, pnorms[1:]))
    below_scale = pnorms[-1] <= 1e-3 * hnorm
    monotone = all(tr["min_step_up"] >= -se for tr in refl.trace[1:])
    ok = non_increasing and below_scale and monotone
    report(6, ok, f"penalty norms non-increasing={non_increasing}, final "
                  f"{pnorms[-1]:.3g} <= 1e-3*|h|={1e-3 * hnorm:.3g}, "
                  f"u_n monotone within 3SE={monotone}")


def test_criterion_7_skorokhod_defect(american_put_run):
    refl = american_put_run["refl"]
    defects = [tr["skorokhod"] for tr in refl.trace]
    decreasing = all(b < a for a, b in zip(defects, defects[1:]))
    ok = decreasing and defects[-1] <= 0.02
    report(7, ok, f"flat-off defect final={defects[-1]:.5f} <= 0.02, "
                  f"strictly decreasing over {len(defects)} levels={decreasing}")


def test_criterion_8_reflection_measure_support(american_put_run):
    refl = american_put_run["refl"]
    measure = american_put_run["measure"]
    sup = support_check(refl, measure, delta=0.005 * K)
    pis = [tr["pi"] for tr in refl.trace]
    pi_change = abs(pis[-1] - pis[-2]) / abs(pis[-2])
    ok = sup.fraction <= 0.05 and pi_change <= 0.10 and not sup.trivial_mass
    report(8, ok, f"measure mass off contact {sup.fraction:.4f} <= 0.05 "
                  f"(so >=95% on contact), mass change over last levels "
                  f"{pi_change:.3%} <= 10%")


def test_criterion_9_z_representation(merton_run, merton_model):
    err = check_z_representation(merton_run["sol"], merton_model, weight=W4)
    ok = err <= 0.15
    report(9, ok, f"weighted relative gap between regressed z and "
                  f"sigma^T grad u: {err:.4f} <= 0.15")


def test_criterion_10_apriori_estimate(apriori_runs):
    ratios = apriori_runs
    finite = all(np.isfinite(r) and r > 0 for r in ratios)
    spread = max(ratios) / min(ratios)
    ok = finite and spread <= 2.0
    report(10, ok, f"energy ratios across {{80,100,120}} grids and doubled "
                   f"paths: {[f'{r:.2f}' for r in ratios]}, max/min="
                   f"{spread:.3f} <= 2")


def test_criterion_11_norm_equivalence(merton_model, zero_model):
    quad = gauss_legendre_panels(9.0, n_panels=18, nodes_per_panel=8)
    fam = shipped_phi_family()
    r0 = norm_ratio(zero_model, W4, fam, 0.0, [0.1, 0.5, 1.0], quad, 20_000,
                    seed=600)
    zero_exact = r0.min_ratio == 1.0 and r0.max_ratio == 1.0
    r1 = norm_ratio(merton_model, W4, fam, 0.0, [0.1, 0.5, 1.0], quad,
                    100_000, seed=604)
    r2 = norm_ratio(merton_model, W4, fam, 0.0, [0.1, 0.5, 1.0], quad,
                    200_000, seed=605)
    w1 = r1.max_ratio - r1.min_ratio
    w2 = r2.max_ratio - r2.min_ratio
    slack = 6 * max(row[3] for row in r1.rows + r2.rows)
    positive = np.all(r1.ratios > 0) and np.all(r2.ratios > 0)
    ok = zero_exact and positive and w2 <= w1 + slack
    report(11, ok, f"zero-model ratios exactly 1: {zero_exact}; merton bracket "
                   f"[{r1.min_ratio:.3f},{r1.max_ratio:.3f}] width {w1:.4f} -> "
                   f"{w2:.4f} at doubled paths (slack {slack:.4f})")


def test_criterion_12_flow_and_determinism(merton_model, tmp_path):
    gap = check_flow_property(merton_model, 0.0, 0.5, 1.0, LOG_K, 20_000,
                              seed=606, n_steps=50)
    cfg = {"task": "solve", "seed": 3,
           "model": {"name": "custom",
                     "params": {"diffusion": {"slope": 0.0, "intercept": 1.0}}},
           "driver": {"name": "zero"},
           "terminal": {"name": "square"},
           "numerics": {"grid_n": 20, "paths": 5000, "x0": 0.0,
                        "basis": {"kind": "poly", "degree": 3}}}
    r1, _ = run_experiment(dict(cfg), out_dir=tmp_path / "a")
    r2, _ = run_experiment(dict(cfg), out_dir=tmp_path / "b")
    same = r1.hash == r2.hash and r1.body == r2.body
    ok = gap < 1e-12 and same
    report(12, ok, f"shared-noise flow composition gap={gap} < 1e-12; "
                   f"identical config+seed reproduce byte-identical hashed "
                   f"report bodies: {same}")
