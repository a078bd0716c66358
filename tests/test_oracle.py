import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pidesolve
from pidesolve.config import _build_custom_model
from pidesolve.errors import BoundaryError, NumericError, StabilityError, TailError
from pidesolve.model import (JumpMeasure, ObstacleSpec, discount_driver,
                             named_model, scalar_model, zero_driver)
from pidesolve.oracle import (FdGrid, _nonlocal_term, _norm_cdf, binomial_american,
                              binomial_european, black_scholes, fd_solve_pide,
                              merton_price)


# ---------------------------------------------------------------------------
# finite differences
# ---------------------------------------------------------------------------

def test_fd_heat_exact(heat_model):
    g = lambda X: X[:, 0] ** 2
    sol = fd_solve_pide(heat_model, zero_driver(), g, FdGrid(-8, 8, 400, 400))
    mask = np.abs(sol.x) <= 2
    err = np.abs(sol.values[0] - (sol.x**2 + 1.0))[mask].max()
    assert err < 1e-3


def test_fd_toy_uniform(toy_model):
    g = lambda X: X[:, 0] ** 2
    sol = fd_solve_pide(toy_model, zero_driver(), g, FdGrid(-8, 8, 800, 400))
    assert abs(sol.interp(0.0, 0.0) - 4.0 / 3.0) < 1e-3


def test_fd_obstacle_projection_postcondition(heat_model):
    g = lambda X: X[:, 0] ** 2
    h = ObstacleSpec(h=lambda t, X: 1.5 - X[:, 0] ** 2, iota=2.0, kappa=2.0)
    sol = fd_solve_pide(heat_model, zero_driver(), g, FdGrid(-6, 6, 200, 100),
                        obstacle=h)
    for i in range(0, sol.times.size, 10):
        hv = 1.5 - sol.x**2
        assert np.all(sol.values[i] >= hv - 1e-12)


def test_fd_convergence_order(heat_model):
    # u(t, x) = exp(-(T-t)/2) sin x; halving dx and dt cuts the error >= 3x
    g = lambda X: np.sin(X[:, 0])
    lim = 3 * math.pi
    errs = []
    for j, nt in ((60, 400), (120, 800)):
        sol = fd_solve_pide(heat_model, zero_driver(), g, FdGrid(-lim, lim, j, nt))
        exact = math.exp(-0.5) * np.sin(sol.x)
        mask = np.abs(sol.x) <= 4.0
        errs.append(np.abs(sol.values[0] - exact)[mask].max())
    assert errs[0] / errs[1] >= 3.0


def test_fd_complementarity(heat_model):
    # min(u - h, -residual) small at every interior node of an obstacle run
    g = lambda X: X[:, 0] ** 2
    h = ObstacleSpec(h=lambda t, X: 2.0 - X[:, 0] ** 2, iota=3.0, kappa=2.0)
    grid = FdGrid(-6, 6, 300, 300)
    sol = fd_solve_pide(heat_model, zero_driver(), g, grid, obstacle=h)
    dx = sol.x[1] - sol.x[0]
    dt = sol.times[1] - sol.times[0]
    worst = -np.inf
    for i in (50, 150, 250):
        u_now = sol.values[i]
        u_next = sol.values[i + 1]
        lap = np.zeros_like(u_now)
        lap[1:-1] = (u_now[2:] - 2 * u_now[1:-1] + u_now[:-2]) / dx**2
        resid = (u_next - u_now) / dt + 0.5 * lap  # backward-time residual
        gap = u_now - (2.0 - sol.x**2)
        inner = slice(5, -5)
        worst = max(worst, np.max(np.minimum(gap, -resid)[inner]))
    assert worst <= 5e-2


def test_fd_stability_guard():
    model = named_model("toy-uniform", intensity=3.0)
    g = lambda X: X[:, 0] ** 2
    with pytest.raises(StabilityError):
        fd_solve_pide(model, zero_driver(), g, FdGrid(-6, 6, 100, 2))


def test_fd_boundary_guard():
    wide = JumpMeasure.two_point(-50.0, 50.0, 0.5, 1.0)
    model = scalar_model(drift=lambda x: 0 * x, diffusion=lambda x: np.ones_like(x),
                         jump=lambda x, e: np.broadcast_to(e, x.shape).astype(float),
                         jump_measure=wide)
    with pytest.raises(BoundaryError):
        fd_solve_pide(model, zero_driver(), lambda X: X[:, 0] ** 2,
                      FdGrid(-2, 2, 50, 50))


@pytest.mark.parametrize("bc", ["dirichlet", "linear"])
def test_fd_nonfinite_inputs_rejected(heat_model, bc):
    # the implicit matrix is factored once, yet every right-hand side is
    # still checked: a NaN in the terminal values stops the first step back
    grid = FdGrid(-2, 2, 40, 20, bc=bc)
    nan_inside = lambda X: np.where(np.abs(X[:, 0]) < 0.1, np.nan, X[:, 0] ** 2)
    with pytest.raises(NumericError, match="time step 19"):
        fd_solve_pide(heat_model, zero_driver(), nan_inside, grid)
    model = scalar_model(drift=lambda x: 0 * x,
                         diffusion=lambda x: np.where(x > 1.0, np.nan, 1.0))
    with pytest.raises(NumericError, match="implicit matrix"):
        fd_solve_pide(model, zero_driver(), lambda X: X[:, 0] ** 2, grid)


def test_fd_linear_bc_variant(heat_model):
    g = lambda X: X[:, 0] ** 2
    sol = fd_solve_pide(heat_model, zero_driver(), g,
                        FdGrid(-8, 8, 200, 100, bc="linear"))
    # linear extrapolation forces zero curvature at the ends, so only the
    # interior matches the exact parabola-plus-time solution
    mask = np.abs(sol.x) <= 2
    assert np.abs(sol.values[0] - (sol.x**2 + 1.0))[mask].max() < 0.05


def test_fd_linear_bc_banded_matches_dense():
    # the implicit step of bc="linear" against a dense solve of the same
    # system: central differences inside, zero-curvature rows [1, -2, 1] at
    # the ends, right-hand side zero there
    model = scalar_model(drift=lambda x: 0.3 - 0.2 * x, diffusion=lambda x: 0.5 + 0.1 * x**2)
    g = lambda X: np.exp(-X[:, 0] ** 2) + 0.2 * X[:, 0]
    grid = FdGrid(-3.0, 3.0, 61, 3, bc="linear")
    sol = fd_solve_pide(model, zero_driver(), g, grid, picard_sweeps=1)
    x, dt, dx = sol.x_padded, 1.0 / grid.n_time, grid.dx
    a = 0.5 + 0.1 * x**2
    a, b = a**2, 0.3 - 0.2 * x
    lower = -dt * (0.5 * a / dx**2 - 0.5 * b / dx)
    upper = -dt * (0.5 * a / dx**2 + 0.5 * b / dx)
    dense = (np.diag(1.0 + dt * a / dx**2) + np.diag(upper[:-1], 1)
             + np.diag(lower[1:], -1))
    dense[0, :] = 0.0
    dense[-1, :] = 0.0
    dense[0, :3] = [1.0, -2.0, 1.0]
    dense[-1, -3:] = [1.0, -2.0, 1.0]
    u = g(x[:, None])
    for step in range(grid.n_time - 1, -1, -1):
        rhs = u.copy()
        rhs[0] = rhs[-1] = 0.0
        u = np.linalg.solve(dense, rhs)
        assert np.abs(sol.values_padded[step] - u).max() <= 1e-10 * np.abs(u).max()


def _looped_nonlocal_term(model, functionals, xp, u, du):
    # the nonlocal part as one interpolation per quadrature node
    nodes, weights = model.jump_measure.nodes, model.jump_measure.weights
    k2 = np.zeros(xp.size)
    vbar = np.zeros((xp.size, max(1, len(functionals))))
    for e_j, w_j in zip(nodes, weights):
        beta = np.asarray(model.jump_coeff(xp[:, None], np.full(xp.size, e_j)), float)[:, 0]
        u_shift = np.interp(xp + beta, xp, u)
        k2 += w_j * (u_shift - u - beta * du)
        for i, gamma in enumerate(functionals):
            vbar[:, i] += w_j * float(gamma(np.array([e_j]))[0]) * (u_shift - u)
    return k2, vbar


@pytest.mark.parametrize("model, lo, hi", [
    (named_model("merton"), math.log(100.0) - 1.0, math.log(100.0) + 1.0),
    (_build_custom_model({"jump": "proportional-exp", "drift": {"slope": 0.05},
                          "diffusion": {"slope": 0.2},
                          "measure": {"kind": "uniform", "lo": -0.3, "hi": 0.3}}),
     60.0, 140.0),
], ids=["merton", "proportional-exp"])
def test_fd_jump_operators_match_interpolation_loop(model, lo, hi):
    # the sparse operators against one np.interp per node, shifts that leave
    # the grid (clamped to its end values) included
    functionals = (lambda e: np.ones_like(e), lambda e: e, lambda e: np.exp(e) - 1.0)
    xp = np.linspace(lo, hi, 241)
    dx = xp[1] - xp[0]
    s = (xp - lo) / (hi - lo)
    u = np.sin(3.0 * s) + np.exp(-4.0 * (s - 0.4) ** 2)
    du = np.gradient(u, dx)
    k2, vbar = _nonlocal_term(model, functionals, xp)(u, du)
    k2_ref, vbar_ref = _looped_nonlocal_term(model, functionals, xp, u, du)
    assert np.abs(k2 - k2_ref).max() <= 1e-12
    assert np.abs(vbar - vbar_ref).max() <= 1e-12
    assert np.abs(vbar_ref).max() > 0.1


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_black_scholes_reference():
    # frozen oracle value: 100 (2 Phi(0.1) - 1)
    assert black_scholes(100, 100, 0.0, 0.2, 1.0) == pytest.approx(7.9656, abs=5e-4)


def test_merton_reduces_to_black_scholes():
    bs = black_scholes(100, 100, 0.05, 0.2, 1.0)
    assert merton_price(100, 100, 0.05, 0.2, 1.0, 0.0, -0.1, 0.15) == bs


def test_merton_increasing_in_intensity():
    prices = [merton_price(100, 100, 0.05, 0.2, 1.0, lam, -0.1, 0.15)
              for lam in (0.0, 0.25, 0.5, 1.0, 2.0)]
    assert all(b > a for a, b in zip(prices, prices[1:]))


def test_merton_tail_guard():
    with pytest.raises(TailError):
        merton_price(100, 100, 0.05, 0.2, 1.0, 5.0, 0.3, 0.4, n_terms=3)


def test_merton_put_call_sanity():
    call = merton_price(100, 90, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15, kind="call")
    put = merton_price(100, 90, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15, kind="put")
    # put-call parity for the jump-diffusion model
    assert call - put == pytest.approx(100 - 90 * math.exp(-0.05), abs=1e-8)


def test_norm_cdf_matches_scipy():
    from scipy.stats import norm
    x = np.linspace(-38.0, 38.0, 20_001)
    ours = np.array([_norm_cdf(v) for v in x])
    ref = norm.cdf(x)
    assert np.abs(ours - ref).max() <= 1e-15
    # relative accuracy where scipy's value is a normal float: below about
    # -37.5 it is subnormal, then 0
    normal = ref >= np.finfo(float).tiny
    assert x[normal][0] < -37.0
    assert (np.abs(ours - ref)[normal] / ref[normal]).max() <= 1e-12


@pytest.mark.parametrize("s0, strike, rate, sigma, horizon", [
    (100, 100, 0.05, 0.2, 1.0), (100, 60, 0.0, 0.5, 2.0), (80, 120, 0.1, 0.05, 0.25),
    (100, 100, 0.05, 0.0, 1.0), (90, 100, 0.05, 0.0, 1.0),
])
def test_black_scholes_put_call_parity(s0, strike, rate, sigma, horizon):
    call = black_scholes(s0, strike, rate, sigma, horizon, "call")
    put = black_scholes(s0, strike, rate, sigma, horizon, "put")
    assert abs(call - put - (s0 - strike * math.exp(-rate * horizon))) <= 1e-12


def test_black_scholes_zero_volatility_discounts_the_strike():
    # with sigma = 0 the stock grows at the rate: the call is worth
    # max(s0 - K e^{-rT}, 0), not the undiscounted intrinsic value 0
    call = black_scholes(100, 100, 0.05, 0.0, 1.0, "call")
    assert call == pytest.approx(100 - 100 * math.exp(-0.05), rel=1e-15)
    assert call == pytest.approx(4.877, abs=5e-4)
    assert black_scholes(100, 100, 0.05, 0.0, 1.0, "put") == 0.0
    # the zero-intensity Merton price is the Black-Scholes one
    assert merton_price(100, 100, 0.05, 0.0, 1.0, 0.0, -0.1, 0.15) == call


def test_merton_price_benchmark_value():
    # the euro-merton-poly oracle, as scipy.stats.norm.cdf gave it
    price = merton_price(100, 100, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15)
    assert price == pytest.approx(12.761288593628754, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("price", [
    lambda: black_scholes(100, 100, 0.05, 0.2, 1.0, kind="Call"),
    lambda: black_scholes(100, 100, 0.05, 0.2, 0.0, kind="Call"),
    lambda: black_scholes(100, 100, 0.05, -0.2, 1.0),
    lambda: merton_price(100, 100, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15, kind="calll"),
    lambda: binomial_european(100, 100, 0.05, 0.2, 1.0, 50, kind="Put"),
    lambda: binomial_european(100, 100, 0.05, 0.2, 1.0, 0),
    lambda: binomial_american(100, 100, 0.05, 0.2, 1.0, 50, kind="Put"),
    lambda: merton_price(100, 100, 0.05, -0.2, 1.0, 1.0, -0.1, 0.15),
    lambda: merton_price(100, 100, 0.05, 0.2, 1.0, -1.0, -0.1, 0.15),
    lambda: merton_price(100, 100, 0.05, 0.2, 1.0, 1.0, -0.1, -0.15),
    lambda: binomial_american(100, 100, 0.05, -0.2, 1.0, 50),
], ids=["bs", "bs-expired", "bs-negative-sigma", "merton", "binomial-european",
        "binomial-european-steps", "binomial-american", "merton-negative-sigma",
        "merton-negative-intensity", "merton-negative-jump-sd",
        "binomial-american-negative-sigma"])
def test_closed_forms_reject_bad_input(price):
    with pytest.raises(ValueError):
        price()


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats costs most of a cold import; the package must not load it
    src = str(Path(pidesolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, pidesolve, pidesolve.cli; "
            "assert 'scipy.stats' not in sys.modules, 'scipy.stats was imported'")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_merton_matches_fd(merton_model):
    mp = merton_price(100, 100, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15)
    g = lambda X: np.maximum(np.exp(X[:, 0]) - 100.0, 0.0)
    x0 = math.log(100.0)
    sol = fd_solve_pide(merton_model, discount_driver(0.05), g,
                        FdGrid(x0 - 3.0, x0 + 3.0, 800, 400))
    assert abs(sol.interp(0.0, x0) - mp) / mp < 0.002


# ---------------------------------------------------------------------------
# binomial tree
# ---------------------------------------------------------------------------

def test_binomial_one_step_hand_value():
    # S0 = K = 1, r = 0, sigma -> 0: the tree collapses and the put is worthless
    assert binomial_american(1.0, 1.0, 0.0, 1e-9, 1.0, 1, "put") \
        == pytest.approx(0.0, abs=1e-9)


def _binomial_american_by_powers(s0, strike, rate, sigma, horizon, steps, kind):
    # the tree with each step's prices taken by their own powers
    dt = horizon / steps
    sigma = sigma if sigma > 0 else 1e-12
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    disc = math.exp(-rate * dt)
    p = min(max((math.exp(rate * dt) - d) / (u - d), 0.0), 1.0)
    if kind == "call":
        payoff = lambda s: np.maximum(s - strike, 0.0)
    else:
        payoff = lambda s: np.maximum(strike - s, 0.0)
    j = np.arange(steps + 1)
    values = payoff(s0 * u**j * d ** (steps - j))
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1:i + 2] + (1 - p) * values[:i + 1])
        j = np.arange(i + 1)
        values = np.maximum(values, payoff(s0 * u**j * d ** (i - j)))
    return float(values[0])


@pytest.mark.parametrize("steps", [1, 2, 777, 2000])
@pytest.mark.parametrize("kind", ["put", "call"])
def test_binomial_american_equals_per_step_powers(kind, steps):
    # the tree takes u^j and d^j once and slices them per step; the prices
    # must be the per-step powers bit for bit, also where sigma = 0 stands in
    # for a tiny volatility (a negative sigma is rejected)
    for s0, strike, rate, sigma in ((100.0, 100.0, 0.05, 0.2), (90.0, 110.0, 0.03, 0.45),
                                    (100.0, 95.0, 0.05, 0.0)):
        got = binomial_american(s0, strike, rate, sigma, 1.0, steps, kind)
        assert got == _binomial_american_by_powers(s0, strike, rate, sigma, 1.0, steps, kind)


def test_binomial_american_dominates_european():
    for steps in (11, 100, 501):
        amer = binomial_american(100, 110, 0.05, 0.25, 1.0, steps, "put")
        euro = binomial_european(100, 110, 0.05, 0.25, 1.0, steps, "put")
        assert amer >= euro - 1e-12


def test_binomial_zero_rate_put_no_early_exercise():
    for steps in (51, 400):
        amer = binomial_american(100, 100, 0.0, 0.2, 1.0, steps, "put")
        euro = binomial_european(100, 100, 0.0, 0.2, 1.0, steps, "put")
        assert amer == pytest.approx(euro, abs=1e-12)


def test_binomial_convergence_oscillation():
    # oscillation amplitude halves as steps double; Richardson pair stabilizes
    vals = {n: binomial_american(100, 100, 0.05, 0.2, 1.0, n, "put")
            for n in (250, 500, 1000, 2000)}
    osc1 = abs(vals[500] - vals[250])
    osc2 = abs(vals[2000] - vals[1000])
    assert osc2 < osc1
    rich1 = 2 * vals[1000] - vals[500]
    rich2 = 2 * vals[2000] - vals[1000]
    assert abs(rich2 - rich1) < 5e-3


def test_binomial_reference_value():
    # frozen from a 2000-step run, cross-checked against the literature value
    assert binomial_american(100, 100, 0.05, 0.2, 1.0, 2000, "put") \
        == pytest.approx(6.0900, abs=2e-3)
