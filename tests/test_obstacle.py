import dataclasses
import math
import sys
import threading
import time
import warnings
from collections import Counter

import numpy as np
import pytest

from pidesolve.bsde import (LocalAffineBasis, PolynomialBasis, check_apriori_estimate,
                            check_z_representation, default_clamp_bound, evaluate_z,
                            solve_bsde)
from pidesolve.errors import NoConvergenceError, NumericError
from pidesolve.forward import TimeGrid, simulate_paths
from pidesolve.model import (DriverSpec, ModelSpec, ObstacleSpec, WeightFunction,
                             discount_driver, named_model, time_weights, zero_driver)
from pidesolve.obstacle import (default_schedule, estimate_reflection_measure,
                                obstacle_along_paths, penalty_increments, penalty_norm,
                                skorokhod_gap, solve_penalized, solve_reflected,
                                support_check)
from pidesolve.oracle import binomial_american

K = 100.0
RHO4 = WeightFunction(4)
# a finite penalty level whose penalty level * dt * h overflows at the first step
HUGE_LEVEL = sys.float_info.max


def put_obstacle():
    return ObstacleSpec(h=lambda t, X: np.maximum(K - X[:, 0], 0.0),
                        iota=K + 1, kappa=1.0)


def put_payoff(X):
    return np.maximum(K - X[:, 0], 0.0)


@pytest.fixture(scope="module")
def bs_put_setup():
    model = named_model("bs")
    grid = TimeGrid(0, 1, 25)
    paths = simulate_paths(model, grid, 100.0, 40_000, seed=200)
    lo = float(paths.states.min()) - 1.0
    hi = float(paths.states.max()) + 1.0
    basis = LocalAffineBasis(40, (lo, hi))
    return model, paths, basis


def test_schedule_default():
    sched = default_schedule(12)
    assert sched[0] == 1 and sched[-1] == 4096 and len(sched) == 13


def test_zero_penalty_matches_unpenalized(bs_put_setup):
    model, paths, basis = bs_put_setup
    drv = discount_driver(0.05)
    plain = solve_bsde(model, drv, put_payoff, paths, basis)
    pen0 = solve_penalized(model, drv, put_payoff, put_obstacle(), paths, basis, 0)
    assert np.array_equal(plain.y, pen0.y)
    assert np.array_equal(plain.z, pen0.z)


def test_inactive_obstacle_no_compensation(bs_put_setup):
    model, paths, basis = bs_put_setup
    drv = discount_driver(0.05)
    low = ObstacleSpec(h=lambda t, X: np.full(X.shape[0], -1e9), iota=1e9 + 1,
                       kappa=1.0)
    plain = solve_bsde(model, drv, put_payoff, paths, basis)
    pen = solve_penalized(model, drv, put_payoff, low, paths, basis, 64)
    assert np.array_equal(plain.y, pen.y)
    lvals = obstacle_along_paths(low, pen)
    dk = penalty_increments(pen, lvals)
    assert np.all(dk == 0.0)


def test_penalty_increment_arithmetic(bs_put_setup):
    # n (y - h)^- with y = h - 0.1 and n = 10 contributes exactly 1.0
    model, paths, basis = bs_put_setup
    drv = discount_driver(0.05)
    pen = solve_penalized(model, drv, put_payoff, put_obstacle(), paths, basis, 10)
    lvals = obstacle_along_paths(put_obstacle(), pen)
    dk = penalty_increments(pen, lvals)
    expect = 10 * np.maximum(lvals[:-1] - pen.y[:-1], 0.0) * pen.grid.dt
    assert np.array_equal(dk, expect)
    gap01 = np.maximum(lvals[:-1] - pen.y[:-1], 0.0)
    # the pointwise driver contribution at a 0.1 shortfall is 1.0
    mask = np.isclose(gap01, 0.1, atol=0.05)
    if mask.any():
        contrib = 10 * gap01[mask]
        assert np.all(np.abs(contrib - 1.0) <= 0.5 + 1e-12)
    assert np.all(dk >= 0.0)


def test_k_additivity_exact(bs_put_setup):
    model, paths, basis = bs_put_setup
    refl = solve_reflected(model, discount_driver(0.05), put_payoff,
                           put_obstacle(), paths, basis,
                           schedule=(1, 4, 16, 64), tol=1e-12, weight=RHO4)
    assert np.all(refl.k_increments >= 0.0)


@pytest.fixture(scope="module")
def reflected_put(bs_put_setup):
    model, paths, basis = bs_put_setup
    return solve_reflected(model, discount_driver(0.05), put_payoff,
                           put_obstacle(), paths, basis,
                           schedule=(1, 4, 16, 64, 256, 1024), tol=1e-12,
                           weight=RHO4)


def test_reflected_above_obstacle(reflected_put):
    # shortfalls of the limit solution stay below 1% of the payoff scale
    sol = reflected_put.solution
    lvals = reflected_put.obstacle_values
    frac = np.mean(sol.y >= lvals - 0.01)
    assert frac >= 0.99


def test_penalization_monotone_in_level(reflected_put):
    u0s = [tr["u0"] for tr in reflected_put.trace]
    se = 3 * reflected_put.solution.u0_stderr()
    assert all(b >= a - se for a, b in zip(u0s, u0s[1:]))
    # monotone non-decreasing along the paths as well
    assert all(tr["min_step_up"] >= -3 * se for tr in reflected_put.trace[1:])


def test_penalty_norm_non_increasing(reflected_put):
    norms = [tr["penalty_norm"] for tr in reflected_put.trace]
    assert all(b <= a * 1.001 for a, b in zip(norms, norms[1:]))


def test_dominance_over_unreflected(bs_put_setup, reflected_put):
    model, paths, basis = bs_put_setup
    plain = solve_bsde(model, discount_driver(0.05), put_payoff, paths, basis)
    eps = 3 * (plain.u0_stderr() + reflected_put.solution.u0_stderr())
    # along the paths at interior steps where the point-start cloud has
    # fanned out, inside its central 99%: the fit is poor in the thin tails
    for k in (5, 12, 20):
        x = paths.states[k, :, 0]
        lo, hi = np.quantile(x, (0.005, 0.995))
        inside = (x >= lo) & (x <= hi)
        u_refl = reflected_put.solution.y[k][inside]
        assert np.all(u_refl >= plain.y[k][inside] - eps)
        # and sits above the obstacle there up to the penalization dip
        assert np.all(u_refl >= reflected_put.obstacle_values[k][inside] - 0.1)
    # american value dominates the european one
    assert reflected_put.u0() >= plain.u0() - eps


def test_two_constructions_agree(reflected_put):
    assert reflected_put.direct_gap_rel < 0.05
    assert abs(reflected_put.u0() - reflected_put.direct.u0()) < 0.05


def test_skorokhod_trivia(bs_put_setup):
    model, paths, basis = bs_put_setup
    drv = discount_driver(0.05)
    low = ObstacleSpec(h=lambda t, X: np.full(X.shape[0], -1e9), iota=1e9 + 1,
                       kappa=1.0)
    pen = solve_penalized(model, drv, put_payoff, low, paths, basis, 16)
    lvals = obstacle_along_paths(low, pen)
    rep = skorokhod_gap(pen, lvals)
    assert rep.raw == 0.0 and rep.normalized == 0.0


def test_flat_off_defect_equals_its_formula(reflected_put):
    # the in-place increments and defect against their formulas:
    # dK = n (L - Y)^- dt, and sums of |Y - L| dK, of dK and the sup of |Y - L|,
    # each step's sums over the samples below the obstacle, where dK lives
    sol, lvals = reflected_put.solution, reflected_put.obstacle_values
    dt, m = sol.grid.dt, sol.y.shape[1]
    dk = sol.penalty_level * np.maximum(lvals[:-1] - sol.y[:-1], 0.0) * dt
    assert np.array_equal(penalty_increments(sol, lvals), dk)
    raw = k_total = 0.0
    sup_gap = float(np.abs(sol.y[-1] - lvals[-1]).max())
    for k in range(sol.n_steps - 1, -1, -1):
        gap = lvals[k] - sol.y[k]
        below = gap > 0
        raw += float(np.sum(gap[below] * dk[k][below]))
        k_total += float(np.sum(dk[k][below]))
        sup_gap = max(sup_gap, float(np.abs(gap).max()))
    rep = skorokhod_gap(sol, lvals)
    assert rep.raw == raw / m > 0.0
    assert rep.normalized == rep.raw / (k_total / m * sup_gap)


def test_skorokhod_decreases_along_schedule(reflected_put):
    defects = [tr["skorokhod"] for tr in reflected_put.trace]
    assert all(b < a for a, b in zip(defects, defects[1:]))
    assert defects[-1] <= 0.02


def test_american_put_against_tree(bs_put_setup, reflected_put):
    bench = binomial_american(100.0, K, 0.05, 0.2, 1.0, 2000, "put")
    # coarse instance: modest tolerance; the acceptance suite runs the tight one
    assert reflected_put.u0() == pytest.approx(bench, rel=0.02)


def test_reflected_put_in_two_dimensions():
    # a second, independent asset that neither the payoff nor the obstacle
    # reads: the reflected solve, its measure and its support check run in
    # two dimensions, and u0 is the one-dimensional put's
    model = ModelSpec(dim=2, drift=lambda x: 0.05 * x,
                      diffusion=lambda x: 0.2 * x[..., :, None] * np.eye(2))
    paths = simulate_paths(model, TimeGrid(0, 1, 25), np.array([100.0, 100.0]), 40_000,
                           seed=1)
    box = (paths.states.min(axis=(0, 1)) - 1.0, paths.states.max(axis=(0, 1)) + 1.0)
    refl = solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
                           LocalAffineBasis((40, 1), box), schedule=(1, 16, 256, 4096),
                           tol=1e-12)
    rep = support_check(refl, estimate_reflection_measure(refl), delta=0.5)
    assert not rep.trivial_mass and rep.fraction <= 0.05
    bench = binomial_american(100.0, K, 0.05, 0.2, 1.0, 2000, "put")
    assert abs(refl.u0() - bench) <= 3 * refl.solution.u0_stderr()


def test_reflection_measure_masses(bs_put_setup, reflected_put):
    meas = estimate_reflection_measure(reflected_put, t_bins=8, x_bins=16)
    assert np.all(meas.density >= 0.0)
    assert np.isfinite(meas.pi_total) and meas.pi_total > 0
    assert meas.pi_sequence == tuple(tr["pi"] for tr in reflected_put.trace)
    # heavier weight decay shrinks the weighted mass of the same levels
    model, paths, basis = bs_put_setup
    refl6 = solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(),
                            paths, basis, schedule=(1, 4), tol=1e-12, weight=WeightFunction(6))
    assert all(0 < tr["pi"] < pi for tr, pi in zip(refl6.trace, meas.pi_sequence))


def test_reflection_measure_reads_the_solve_obstacle_field(bs_put_setup):
    # the histogram bins the obstacle values the reflected solve took along
    # the paths; it calls the obstacle no more
    model, paths, basis = bs_put_setup
    calls = []

    def h(t, X):
        calls.append(t)
        return np.maximum(K - X[:, 0], 0.0)

    obst = ObstacleSpec(h=h, iota=K + 1, kappa=1.0)
    refl = solve_reflected(model, discount_driver(0.05), put_payoff, obst, paths,
                           basis, schedule=(1, 16), tol=1e-12, weight=RHO4)
    # once per time node along the paths and for the clamp bound, however
    # many levels
    assert max(Counter(calls).values()) <= 2
    n_calls = len(calls)
    meas = estimate_reflection_measure(refl, t_bins=5, x_bins=10)
    assert len(calls) == n_calls
    # each (t, x_1) cell over the basis box averages 16 (h - Y)^+ over the
    # final level's path samples in it
    sol = refl.solution
    t = np.broadcast_to(sol.grid.nodes[:, None], sol.y.shape).ravel()
    x1 = sol.states[..., 0].ravel()
    bins = (meas.t_edges, meas.x_edges)
    short = 16 * np.maximum(refl.obstacle_values - sol.y, 0.0)
    total = np.histogram2d(t, x1, bins=bins, weights=short.ravel())[0]
    count = np.histogram2d(t, x1, bins=bins)[0]
    assert (meas.x_edges[0], meas.x_edges[-1]) == (basis.lo[0], basis.hi[0])
    assert count.sum() == sol.y.size
    assert np.allclose(meas.density, np.divide(total, count, out=np.zeros_like(total),
                                               where=count > 0), rtol=1e-12, atol=0.0)


def test_support_concentrates_on_contact(reflected_put):
    meas = estimate_reflection_measure(reflected_put, t_bins=8, x_bins=16)
    rep = support_check(reflected_put, meas, delta=0.5)
    assert not rep.trivial_mass
    assert rep.fraction <= 0.05
    # delta -> infinity empties the superlevel set
    rep_inf = support_check(reflected_put, meas, delta=1e9)
    assert rep_inf.fraction == 0.0


def test_support_trivial_mass_flag(bs_put_setup):
    model, paths, basis = bs_put_setup
    low = ObstacleSpec(h=lambda t, X: np.full(X.shape[0], -1e9), iota=1e9 + 1,
                       kappa=1.0)
    refl = solve_reflected(model, discount_driver(0.05), put_payoff, low,
                           paths, basis, schedule=(1, 2), tol=1e12, weight=RHO4)
    meas = estimate_reflection_measure(refl, t_bins=4, x_bins=8)
    assert meas.pi_total == 0.0
    rep = support_check(refl, meas, delta=0.5)
    assert rep.trivial_mass and rep.fraction == 0.0


def test_inactive_obstacle_converges_immediately(bs_put_setup):
    model, paths, basis = bs_put_setup
    low = ObstacleSpec(h=lambda t, X: np.full(X.shape[0], -1e9), iota=1e9 + 1,
                       kappa=1.0)
    refl = solve_reflected(model, discount_driver(0.05), put_payoff, low,
                           paths, basis, schedule=(1, 2, 4), tol=1e-6, weight=RHO4)
    # every level's penalty vanishes: the last level is the plain solve
    assert refl.converged and refl.levels == (1, 2, 4)
    assert all(entry["penalty_norm"] == 0.0 for entry in refl.trace)
    plain = solve_bsde(model, discount_driver(0.05), put_payoff, paths, basis)
    assert np.array_equal(refl.solution.y, plain.y)


def test_strict_raises_on_exhausted_schedule(bs_put_setup):
    model, paths, basis = bs_put_setup
    with pytest.raises(NoConvergenceError) as err:
        solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(),
                        paths, basis, schedule=(1, 2), tol=1e-12, weight=RHO4,
                        strict=True)
    assert err.value.trace is not None


def test_incompatible_terminal_rejected(bs_put_setup):
    model, paths, basis = bs_put_setup
    above = ObstacleSpec(h=lambda t, X: np.maximum(K - X[:, 0], 0.0) + 5.0,
                         iota=K + 10, kappa=1.0)
    with pytest.raises(ValueError, match="h\\(T"):
        solve_reflected(model, discount_driver(0.05), put_payoff, above,
                        paths, basis, schedule=(1, 2), weight=RHO4)


def test_schedule_validation(bs_put_setup):
    model, paths, basis = bs_put_setup
    with pytest.raises(ValueError):
        solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(),
                        paths, basis, schedule=(4, 2), weight=RHO4)
    for tol in (-1, math.nan):
        with pytest.raises(ValueError, match="tol"):
            solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(),
                            paths, basis, schedule=(1, 2), tol=tol, weight=RHO4)


def _reflect(model, paths, basis, **kw):
    return solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
                           basis, weight=RHO4, **kw)


def _solve(model, paths, basis, **kw):
    return solve_bsde(model, discount_driver(0.05), put_payoff, paths, basis,
                      obstacle=put_obstacle(), **kw)


@pytest.mark.parametrize("call, match", [
    (lambda m, p, b, r: _reflect(m, p, b, schedule=(1, math.nan)), "schedule"),
    (lambda m, p, b, r: _reflect(m, p, b, schedule=(1, math.inf)), "schedule"),
    (lambda m, p, b, r: _reflect(m, p, b, schedule=(-1, 1)), "schedule"),
    (lambda m, p, b, r: _solve(m, p, b, penalty_level=math.nan), "penalty level"),
    (lambda m, p, b, r: _solve(m, p, b, penalty_level=math.inf), "penalty level"),
    (lambda m, p, b, r: _solve(m, p, b, clamp=-1.0), "clamp"),
    (lambda m, p, b, r: _solve(m, p, b, clamp=0.0), "clamp"),
    (lambda m, p, b, r: _solve(m, p, b, clamp=math.nan), "clamp"),
    (lambda m, p, b, r: DriverSpec(f=None, lipschitz=math.nan), "lipschitz"),
    (lambda m, p, b, r: WeightFunction(math.nan), "exponent p"),
    (lambda m, p, b, r: ObstacleSpec(h=None, iota=math.nan), "iota"),
    (lambda m, p, b, r: ObstacleSpec(h=None, kappa=math.nan), "kappa"),
    (lambda m, p, b, r: estimate_reflection_measure(r, t_bins=0), "t_bins"),
    (lambda m, p, b, r: estimate_reflection_measure(r, x_bins=0), "x_bins"),
    (lambda m, p, b, r: estimate_reflection_measure(r, t_bins=2.5), "t_bins"),
], ids=["schedule-nan", "schedule-inf", "schedule-negative", "level-nan", "level-inf",
        "clamp-negative", "clamp-zero", "clamp-nan", "lipschitz-nan", "weight-p-nan",
        "iota-nan", "kappa-nan", "t-bins-zero", "x-bins-zero", "t-bins-fraction"])
def test_argument_checks_reject_nan_and_wrong_signs(small_put, reflected_put, call, match):
    # a guard written as x < 0 or x <= 0 lets NaN through: each of these
    # ran (a NaN level as level 0, a NaN clamp as none), or failed late with
    # another error, before the check that names its argument
    model, paths, box = small_put
    with pytest.raises(ValueError, match=match):
        call(model, paths, LocalAffineBasis(20, box), reflected_put)


def test_clamp_bound_once_per_schedule(bs_put_setup, monkeypatch):
    # the a-priori bound does not depend on the level: computed once, it
    # clamps every level and the direct solve alike, whatever tol
    import pidesolve.bsde as bsde_mod
    model, paths, basis = bs_put_setup
    bound, step, bounds, clamps = bsde_mod.default_clamp_bound, bsde_mod._step_value, [], []

    def counted_bound(*args, **kwargs):
        bounds.append(bound(*args, **kwargs))
        return bounds[-1]

    def recorded_step(*args):
        clamps.append(args[-1])
        return step(*args)

    monkeypatch.setattr(bsde_mod, "default_clamp_bound", counted_bound)
    monkeypatch.setattr(bsde_mod, "_step_value", recorded_step)
    for tol in (1e-12, 1e12):
        bounds.clear()
        clamps.clear()
        refl = solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(),
                               paths, basis, schedule=(0, 1, 2), tol=tol, weight=RHO4)
        assert refl.levels == (0, 1, 2) and refl.converged == (tol == 1e12)
        assert len(bounds) == 1
        assert clamps and all(c == bounds[0] for c in clamps)
        assert refl.solution.clamp_bound == refl.direct.clamp_bound == bounds[0]


def test_trace_records_the_step_up_between_levels(bs_put_setup, reflected_put):
    # the least Y^n - Y^{n-1} over the paths before the horizon, against the
    # levels' own solves.  The six levels and the direct solve run in one
    # pass, whose caller steps levels 1 to 64 and, with two CPUs, whose
    # helper 256, 1024 and the direct solve
    model, paths, basis = bs_put_setup
    trace = reflected_put.trace
    assert "min_step_up" not in trace[0]
    ys = [solve_penalized(model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
                          basis, level, clamp=reflected_put.solution.clamp_bound).y
          for level in (64, 256)] + [reflected_put.solution.y]
    for tr, below, y in zip(trace[-2:], ys, ys[1:]):
        assert tr["min_step_up"] == float(np.min(y[:-1] - below[:-1]))


@pytest.fixture(scope="module")
def small_put():
    model = named_model("bs")
    paths = simulate_paths(model, TimeGrid(0, 1, 20), 100.0, 5000, seed=7)
    box = (float(paths.states.min()) - 1.0, float(paths.states.max()) + 1.0)
    return model, paths, box


def _mass(sol, lvals, states):
    # pi = mean over paths of sum_{k<N} rho(X_k) dK_k, summed backward in time
    # over each step's samples below the obstacle, as the trace sums it
    dk = penalty_increments(sol, lvals)
    pi = 0.0
    for k in range(sol.n_steps - 1, -1, -1):
        below = sol.y[k] < lvals[k]
        pi += float(np.sum(RHO4(states[k])[below] * dk[k][below])) / sol.y.shape[1]
    return pi


def _norm(sol, lvals, states):
    # sqrt(sum_k w_k mean(rho(X_k) ((L_k - Y_k)^+)^2)), summed backward in time
    # over each step's samples below the obstacle
    n, m = sol.n_steps, sol.y.shape[1]
    wt = time_weights(n, sol.grid.dt)
    total = 0.0
    for k in range(n, -1, -1):
        below = sol.y[k] < lvals[k]
        short = lvals[k][below] - sol.y[k][below]
        total += wt[k] * (float(np.sum(RHO4(states[k])[below] * short * short)) / m)
    return math.sqrt(total)


@pytest.mark.parametrize("kind", ["local", "poly"])
def test_one_pass_equals_per_level_solves(small_put, kind, monkeypatch):
    # the schedule run as separate solves, one penalized solve per level and
    # then the direct reflection, gives the same bits, the trace's path sums
    # included, whatever tol.  The levels and the direct solve run in one
    # pass on two groups, the caller's and the helper's
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    basis = LocalAffineBasis(20, box) if kind == "local" else PolynomialBasis(3, box)
    drv, obst, dt = discount_driver(0.05), put_obstacle(), paths.grid.dt
    clamp = default_clamp_bound(drv, put_payoff, paths, obst)
    lvals = obstacle_along_paths(obst, paths)
    direct = solve_bsde(model, drv, put_payoff, paths, basis, clamp=clamp, obstacle=obst,
                        reflect=True)
    for schedule, tol in (((1, 4, 16, 64), 1e-12), ((0, 1, 4), 1e-12),
                          ((1, 4, 16, 64), 3e-5), ((1, 4, 16, 64), 1e12)):
        refl = solve_reflected(model, drv, put_payoff, obst, paths, basis,
                               schedule=schedule, tol=tol, weight=RHO4)
        below = None
        for i, level in enumerate(schedule):
            sol = solve_penalized(model, drv, put_payoff, obst, paths, basis, level,
                                  clamp=clamp)
            for name in ("coef_y", "coef_zv"):
                assert np.array_equal(getattr(refl.level_solutions[i], name), getattr(sol, name))
            pnorm = _norm(sol, lvals, paths.states)
            assert refl.trace[i]["penalty_norm"] == pnorm
            assert penalty_norm(sol.y, lvals, paths.states, RHO4, dt) == pnorm
            assert refl.trace[i]["u0"] == sol.u0()
            assert refl.trace[i]["pi"] == _mass(sol, lvals, paths.states)
            if below is None:
                assert "min_step_up" not in refl.trace[i]
            else:
                assert refl.trace[i]["min_step_up"] == float(np.min(sol.y[:-1] - below.y[:-1]))
            below = sol
        assert refl.levels == schedule and refl.converged == (pnorm < tol)
        for got, want in ((refl.solution, sol), (refl.direct, direct)):
            for name in ("y", "coef_y", "coef_zv"):
                assert np.array_equal(getattr(got, name), getattr(want, name))
            assert got.clamp_bound == want.clamp_bound
        for name in ("z", "vbar"):
            assert np.array_equal(getattr(refl.solution, name), getattr(sol, name))
        # the direct solve keeps y alone; its coefficients give its z bit for bit
        assert refl.direct.z is None and refl.direct.vbar is None
        for k in range(paths.grid.n_steps):
            assert np.array_equal(evaluate_z(refl.direct, k, paths.states[k]), direct.z[k]), k
        assert np.array_equal(refl.obstacle_values, lvals)
        assert np.array_equal(refl.k_increments, penalty_increments(sol, lvals))
        assert refl.trace[-1]["skorokhod"] == skorokhod_gap(sol, lvals).normalized


def test_setups_and_backward_steps_per_schedule(small_put, monkeypatch):
    # one pass, whatever tol, builds one regression setup per step for the
    # whole schedule and the direct solve, and steps each of them at every
    # step.  The obstacle is read once per time node along the paths
    import pidesolve.bsde as bsde_mod
    import pidesolve.obstacle as obstacle_mod
    model, paths, box = small_put
    n = paths.grid.n_steps
    prepared, steps, along, passes = [], [], [], []
    prepare, step = LocalAffineBasis.prepare, bsde_mod._Variant.step
    backward_pass = obstacle_mod._backward_pass

    def counted_prepare(self, x):
        prepared.append(x.shape[0])
        return prepare(self, x)

    def counted_step(self, *args):
        steps.append(self.penalty_level)
        return step(self, *args)

    def counted_pass(*args, **kwargs):
        passes.append(len(args[5]))
        return backward_pass(*args, **kwargs)

    def h(t, X):
        if X.shape[0] == paths.n_paths:
            along.append(t)
        return np.maximum(K - X[:, 0], 0.0)

    monkeypatch.setattr(LocalAffineBasis, "prepare", counted_prepare)
    monkeypatch.setattr(bsde_mod._Variant, "step", counted_step)
    monkeypatch.setattr(obstacle_mod, "_backward_pass", counted_pass)
    obst = ObstacleSpec(h=h, iota=K + 1, kappa=1.0)
    n_schedule = len(default_schedule())
    for tol in (1e12, 6e-6, 1e-12):
        prepared.clear()
        steps.clear()
        along.clear()
        passes.clear()
        # an explicit clamp: the default bound reads the obstacle on its own
        refl = solve_reflected(model, discount_driver(0.05), put_payoff, obst, paths,
                               LocalAffineBasis(20, box), tol=tol, weight=RHO4, clamp=1e6)
        assert refl.levels == default_schedule()
        assert passes == [n_schedule + 1]
        assert len(prepared) == n
        assert len(steps) == (n_schedule + 1) * n
        assert Counter(steps)[refl.final_level] == n
        # each time node once along the paths, the horizon check included
        assert np.array_equal(np.sort(along), paths.grid.nodes)


@pytest.mark.parametrize("errors, raised", [("ignore", NumericError),
                                             ("raise", FloatingPointError)],
                         ids=["ignore", "raise"])
def test_later_levels_cannot_change_or_break_the_result(small_put, errors, raised):
    # a level whose penalty overflows goes non-finite at its first step, with
    # NumericError or, under NumPy's "raise", FloatingPointError, as its own
    # solve does.  The schedule's last level is the result whatever tol, so
    # a schedule that reaches the level raises for every tol
    model, paths, box = small_put
    args = (model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
            LocalAffineBasis(20, box))
    with np.errstate(all=errors):
        with pytest.raises(raised):
            solve_penalized(*args, HUGE_LEVEL)
        for tol in (1e12, 1e-3, 1e-12):
            with pytest.raises(raised):
                solve_reflected(*args, schedule=(1, 2, HUGE_LEVEL), tol=tol, weight=RHO4)


def test_result_is_the_last_level_whatever_tol(small_put):
    # the schedule's last level is the most accurate: a loose tol returns it
    # too, bit for bit, and converged reads its penalty norm alone
    model, paths, box = small_put
    args = (model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
            LocalAffineBasis(20, box))
    tight = solve_reflected(*args, tol=1e-9, weight=RHO4)
    loose = solve_reflected(*args, tol=1e-3, weight=RHO4)
    final = tight.trace[-1]["penalty_norm"]
    # an earlier level meets the loose tol, which the result ignores
    assert any(entry["penalty_norm"] < 1e-3 for entry in tight.trace[:-1])
    assert loose.levels == tight.levels == default_schedule()
    assert loose.u0() == tight.u0()
    assert np.array_equal(loose.solution.y, tight.solution.y)
    assert loose.trace == tight.trace
    assert loose.converged == (final < 1e-3) and tight.converged == (final < 1e-9)
    at = solve_reflected(*args, tol=final, weight=RHO4)
    above = solve_reflected(*args, tol=np.nextafter(final, math.inf), weight=RHO4)
    assert not at.converged and above.converged
    with pytest.raises(NoConvergenceError):
        solve_reflected(*args, tol=final, weight=RHO4, strict=True)


# ---------------------------------------------------------------------------
# the backward pass's helper thread
# ---------------------------------------------------------------------------

def _two_cpus(monkeypatch):
    # the helper starts only with more than one CPU; make that so on any host
    import pidesolve.bsde as bsde_mod
    monkeypatch.setattr(bsde_mod, "_cpu_count", lambda: 2)


def _thread_recording_driver(names):
    drv = discount_driver(0.05)

    def f(t, x, y, z, v):
        names.add(threading.current_thread().name)
        return drv.f(t, x, y, z, v)

    return dataclasses.replace(drv, f=f)


@pytest.mark.parametrize("levels", [(1, 4), default_schedule()], ids=["V3", "V14"])
@pytest.mark.parametrize("kind", ["local", "poly"])
def test_threaded_pass_equals_separate_solves(small_put, kind, levels, monkeypatch):
    # the levels and the direct solve in one pass on two threads: each gives
    # the bits of its own solve, and observe sees each step once, on the
    # calling thread, with every variant's values in variant order
    from pidesolve.bsde import _backward_pass
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    basis = LocalAffineBasis(20, box) if kind == "local" else PolynomialBasis(3, box)
    names, seen = set(), Counter()
    drv, obst = _thread_recording_driver(names), put_obstacle()
    clamp = default_clamp_bound(drv, put_payoff, paths, obst)
    every = ("y", "z", "vbar")
    variants = [(level, False, every) for level in levels] + [(0.0, True, every)]
    ys = {}

    def observe(k, values):
        seen[k, threading.current_thread().name] += 1
        ys[k] = [y.copy() for y in values]

    runs = _backward_pass(model, drv, put_payoff, paths, basis, variants, 3, clamp, obst,
                          observe)
    assert names == {"MainThread", "pidesolve-backward_0"}
    n = paths.grid.n_steps
    assert seen == Counter({(k, "MainThread"): 1 for k in range(n)})
    assert all(len(ys[k]) == len(variants) for k in range(n))
    for i, (got, (level, reflect, _)) in enumerate(zip(runs, variants)):
        want = solve_bsde(model, drv, put_payoff, paths, basis, clamp=clamp, obstacle=obst,
                          penalty_level=level, reflect=reflect)
        for name in ("y", "z", "vbar", "coef_y", "coef_zv"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name, diag in want.diagnostics.items():
            assert np.array_equal(got.diagnostics[name], diag)
        for k in range(n):
            assert np.array_equal(ys[k][i], want.y[k])


def test_two_cpu_reflected_solve_measures_on_the_calling_thread(small_put, monkeypatch):
    # the weight and the obstacle run on the calling thread only, and the
    # direct gap is the weighted L2 distance along the paths, summed backward
    # in time over the two solves' path values
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    names, weighed = set(), set()

    def weight(x):
        weighed.add(threading.current_thread().name)
        return RHO4(x)

    def h(t, x):
        weighed.add(threading.current_thread().name)
        return np.maximum(K - x[:, 0], 0.0)

    obst = ObstacleSpec(h=h, iota=K + 1, kappa=1.0)
    refl = solve_reflected(model, _thread_recording_driver(names), put_payoff, obst, paths,
                           LocalAffineBasis(20, box), schedule=(1, 2, 4, 8, 16, 32), tol=1e-12,
                           weight=weight)
    assert names == {"MainThread", "pidesolve-backward_0"}
    assert weighed == {"MainThread"}
    wt = time_weights(paths.grid.n_steps, paths.grid.dt)
    diff2 = base2 = 0.0
    for k in range(paths.grid.n_steps, -1, -1):
        rho = RHO4(paths.states[k])
        diff2 += wt[k] * float(np.mean(rho * (refl.solution.y[k] - refl.direct.y[k]) ** 2))
        base2 += wt[k] * float(np.mean(rho * refl.direct.y[k] ** 2))
    assert refl.direct_gap == math.sqrt(diff2)
    assert refl.direct_gap_rel == math.sqrt(diff2 / base2)


def test_threaded_solve_under_frequent_thread_switches(small_put, monkeypatch):
    # the two threads made to switch every microsecond: the reflected solve,
    # its per-level trace included, still gives the bits of one thread
    import pidesolve.bsde as bsde_mod
    model, paths, box = small_put
    args = (model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
            LocalAffineBasis(20, box))
    monkeypatch.setattr(bsde_mod, "_cpu_count", lambda: 1)
    want = solve_reflected(*args, tol=1e-12, weight=RHO4)
    _two_cpus(monkeypatch)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = solve_reflected(*args, tol=1e-12, weight=RHO4)
    finally:
        sys.setswitchinterval(interval)
    assert got.trace == want.trace
    for a, b in zip(got.level_solutions, want.level_solutions):
        for name in ("coef_y", "coef_zv"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
    for name in ("k_increments", "obstacle_values"):
        assert np.array_equal(getattr(got, name), getattr(want, name))
    assert (got.direct_gap, got.direct_gap_rel) == (want.direct_gap, want.direct_gap_rel)


def test_single_variant_and_one_cpu_stay_on_the_calling_thread(small_put, monkeypatch):
    import pidesolve.bsde as bsde_mod
    model, paths, box = small_put
    names = set()
    args = (model, _thread_recording_driver(names), put_payoff, put_obstacle(), paths,
            LocalAffineBasis(20, box))
    _two_cpus(monkeypatch)
    solve_penalized(*args, 4.0)
    assert names == {"MainThread"}
    monkeypatch.setattr(bsde_mod, "_cpu_count", lambda: 1)
    solve_reflected(*args, schedule=(1, 2, 4), tol=1e-12, weight=RHO4)
    assert names == {"MainThread"}


def test_helper_error_surfaces_from_solve_reflected(small_put, monkeypatch):
    # a driver that fails on the helper only (the direct solve; the caller
    # runs levels 1 and 2): the error reaches the caller once both groups
    # are done with the step, and the helper is joined
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    drv = discount_driver(0.05)
    steps = Counter()

    def f(t, x, y, z, v):
        name = threading.current_thread().name
        steps[name] += 1
        if name == "pidesolve-backward_0":
            raise LookupError("driver failed on the helper")
        return drv.f(t, x, y, z, v)

    with pytest.raises(LookupError, match="on the helper"):
        solve_reflected(model, dataclasses.replace(drv, f=f), put_payoff, put_obstacle(),
                        paths, LocalAffineBasis(20, box), schedule=(1, 2), weight=RHO4,
                        clamp=1e6)
    # the caller's group finished the three sweeps of each of its levels too
    assert steps["MainThread"] == 6
    assert steps["pidesolve-backward_0"] == 1
    assert not [t for t in threading.enumerate() if t.name == "pidesolve-backward_0"]


def test_callers_error_wins_when_both_groups_raise(small_put, monkeypatch):
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    names = []

    def f(t, x, y, z, v):
        names.append(threading.current_thread().name)
        raise LookupError(f"driver failed on {names[-1]}")

    with pytest.raises(LookupError, match="on MainThread"):
        solve_reflected(model, dataclasses.replace(discount_driver(0.05), f=f), put_payoff,
                        put_obstacle(), paths, LocalAffineBasis(20, box), schedule=(1, 2),
                        weight=RHO4, clamp=1e6)
    assert sorted(names) == ["MainThread", "pidesolve-backward_0"]


@pytest.mark.parametrize("ahead_fails", [False, True], ids=["built", "fails"])
def test_variants_stopping_while_a_setup_is_built_ahead(small_put, ahead_fails, monkeypatch):
    # every variant goes non-finite at step 12 while the helper still builds
    # step 11's setup: the pass raises NumericError at step 12, whether that
    # setup is built or fails, and joins the helper
    from pidesolve.bsde import _backward_pass
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    t_stop = paths.grid.nodes[12]
    building = []

    class SlowAhead(LocalAffineBasis):
        def prepare(self, x):
            if np.shares_memory(x, paths.states[11]):
                building.append(threading.current_thread().name)
                time.sleep(0.2)
                if ahead_fails:
                    raise LookupError("setup ahead failed")
            return super().prepare(x)

    drv = discount_driver(0.05)
    bad = dataclasses.replace(
        drv, f=lambda t, x, y, z, v: drv.f(t, x, y, z, v) * (np.nan if t == t_stop else 1.0))
    variants = [(1.0, False, ("y", "z", "vbar")), (2.0, False, ()), (0.0, True, ("y",))]
    with np.errstate(invalid="ignore"), pytest.raises(NumericError, match="step 12"):
        _backward_pass(model, bad, put_payoff, paths, SlowAhead(20, box), variants, 3,
                       None, put_obstacle())
    assert building == ["pidesolve-backward_0"]
    assert not [t for t in threading.enumerate() if t.name == "pidesolve-backward_0"]


def test_setup_ahead_error_raises_at_the_step_that_needs_it(small_put, monkeypatch):
    from pidesolve.bsde import _backward_pass
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    observed = Counter()

    class FailsAhead(LocalAffineBasis):
        def prepare(self, x):
            if np.shares_memory(x, paths.states[11]):
                raise LookupError("setup failed")
            return super().prepare(x)

    def observe(k, ys):
        assert len(ys) == 2 and threading.current_thread().name == "MainThread"
        observed[k] += 1

    with pytest.raises(LookupError, match="setup failed"):
        _backward_pass(model, discount_driver(0.05), put_payoff, paths, FailsAhead(20, box),
                       [(1.0, False, ("y",)), (0.0, True, ("y",))], 3, None, put_obstacle(),
                       observe)
    # steps 19..12 ran, each observed once; step 11 never started
    assert observed == Counter(range(12, paths.grid.n_steps))


def test_helper_carries_the_callers_error_state(small_put, monkeypatch):
    # the overflowing level runs on the helper (the caller's group is levels
    # 1, 2 and 4): it raises FloatingPointError as its own solve does under
    # "raise", and stops quietly under "ignore", also with warnings as errors
    _two_cpus(monkeypatch)
    model, paths, box = small_put
    args = (model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
            LocalAffineBasis(20, box))
    with np.errstate(all="raise"):
        with pytest.raises(FloatingPointError):
            solve_penalized(*args, HUGE_LEVEL)
        with pytest.raises(FloatingPointError):
            solve_reflected(*args, schedule=(1, 2, 4, HUGE_LEVEL), tol=1e-12, weight=RHO4)
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite"):
            solve_reflected(*args, schedule=(1, 2, 4, HUGE_LEVEL), tol=1e-12, weight=RHO4)


def test_reflected_solve_stores_only_the_path_arrays_it_reads(monkeypatch):
    # in units of one (N+1, M) float array: after return the solve holds the
    # obstacle values, the final level's y and z and the direct solve's y,
    # and the support check forms no (N, M) array of increments
    import tracemalloc
    _two_cpus(monkeypatch)
    model = named_model("bs")
    paths = simulate_paths(model, TimeGrid(0, 1, 25), 100.0, 20_000, seed=11)
    box = (float(paths.states.min()) - 1.0, float(paths.states.max()) + 1.0)
    unit = paths.states[..., 0].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        refl = solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
                               LocalAffineBasis(20, box), schedule=(1, 4, 16, 64), tol=1e-9,
                               weight=RHO4)
        held, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        support_check(refl, estimate_reflection_measure(refl), delta=0.5)
        checked = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert refl.levels == (1, 4, 16, 64)
    assert (held - base) / unit < 4.5
    assert (peak - base) / unit < 5.5
    assert (checked - held) / unit < 0.5


@pytest.fixture(scope="module")
def coefficient_only(small_put):
    # every level solution keeps coefficients only, the direct solve y alone
    model, paths, box = small_put
    return solve_reflected(model, discount_driver(0.05), put_payoff, put_obstacle(), paths,
                           LocalAffineBasis(20, box), schedule=(1, 4), tol=1e-12, weight=RHO4)


def test_u0_of_a_coefficient_only_solution_names_the_missing_array(coefficient_only):
    with pytest.raises(ValueError, match="no y path array"):
        coefficient_only.level_solutions[0].u0()
    assert coefficient_only.direct.u0() == float(coefficient_only.direct.y[0].mean())


def test_z_representation_names_the_missing_arrays(small_put, coefficient_only):
    model = small_put[0]
    with pytest.raises(ValueError, match="no y or z path array"):
        check_z_representation(coefficient_only.level_solutions[0], model)
    with pytest.raises(ValueError, match="no z path array"):
        check_z_representation(coefficient_only.direct, model)


def test_apriori_estimate_names_the_missing_arrays(coefficient_only):
    drv = discount_driver(0.05)
    with pytest.raises(ValueError, match="no y or z or vbar path array"):
        check_apriori_estimate({90.0: coefficient_only.level_solutions[1]}, put_payoff, drv,
                               RHO4)
    with pytest.raises(ValueError, match="no z or vbar path array"):
        check_apriori_estimate({90.0: coefficient_only.direct}, put_payoff, drv, RHO4)
