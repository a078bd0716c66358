import math

import numpy as np
import pytest

from pidesolve import bsde
from pidesolve.bsde import (LocalAffineBasis, PolynomialBasis,
                            check_apriori_estimate, check_z_representation,
                            default_clamp_bound, evaluate_fields, evaluate_u, evaluate_z,
                            make_basis, solve_bsde)
from pidesolve.errors import (ContractionError, DomainError,
                              SingularRegressionError, ZeroDenominatorError)
from pidesolve.forward import TimeGrid, simulate_paths
from pidesolve.model import (DriverSpec, ModelSpec, WeightFunction, discount_driver,
                             named_model, scalar_model, zero_driver)
from pidesolve.oracle import merton_price

RHO4 = WeightFunction(4)


# ---------------------------------------------------------------------------
# bases
# ---------------------------------------------------------------------------

def test_poly_basis_fit_recovers_polynomial():
    rng = np.random.default_rng(0)
    basis = PolynomialBasis(3, (-2.0, 2.0))
    x = rng.uniform(-2, 2, size=(500, 1))
    target = 1.0 + 2 * x[:, 0] - 0.5 * x[:, 0] ** 3
    coef, info = basis.fit(x, target)
    pred = basis.predict(coef[:, 0], x)
    # exact up to the default ridge regularization
    assert np.allclose(pred, target, atol=1e-5)
    assert not info["degenerate"]


def test_poly_basis_degenerate_design_mean_fit():
    basis = PolynomialBasis(4, (-1.0, 1.0))
    x = np.zeros((200, 1))
    target = np.full(200, 3.3)
    coef, info = basis.fit(x, target)
    assert info["degenerate"]
    assert basis.predict(coef[:, 0], np.zeros((1, 1)))[0] == pytest.approx(3.3)


@pytest.mark.parametrize("dim,degree", [(1, 4), (2, 4), (3, 3)])
def test_poly_design_matches_powers(dim, degree):
    # the design builds each monomial as a product of an earlier one and one
    # coordinate; it must agree with the monomials taken by powers, column
    # for column in the order of _powers
    basis = PolynomialBasis(degree, (-np.ones(dim), np.ones(dim)))
    rng = np.random.default_rng(dim)
    x = np.vstack([rng.uniform(-1.0, 1.0, (2000, dim)), -np.ones(dim), np.ones(dim)])
    z = 2.0 * (x - basis.lo) / (basis.hi - basis.lo) - 1.0
    powers = basis._powers
    assert powers.shape[0] == math.comb(dim + degree, dim)
    assert np.all(np.diff(powers.sum(axis=1)) >= 0) and not powers[0].any()
    ref = np.stack([np.prod(z ** pw, axis=1) for pw in powers], axis=1)
    phi = basis.design(x)
    assert phi.shape == (x.shape[0], basis.n_features)
    assert np.allclose(phi, ref, rtol=0.0, atol=1e-15)


def test_poly_predict_is_prepare_predict_bitwise():
    basis = PolynomialBasis(4, ([-1.0, 0.0], [2.0, 3.0]))
    rng = np.random.default_rng(3)
    x = rng.uniform(basis.lo, basis.hi, (500, 2))
    targets = np.column_stack([np.sin(x[:, 0]) * x[:, 1], np.exp(-x[:, 1])])
    reg = basis.prepare(x)
    coeffs, _ = reg.fit(targets)
    assert coeffs.shape == (basis.n_features, 2)
    assert np.array_equal(reg.predict(coeffs), basis.predict(coeffs, x))
    assert np.array_equal(reg.predict(coeffs[:, 0]), basis.predict(coeffs[:, 0], x))


def test_basis_floor_enforced():
    basis = PolynomialBasis(9, (-1.0, 1.0))  # 10 features
    x = np.random.default_rng(1).uniform(-1, 1, (50, 1))
    with pytest.raises(ValueError):
        basis.fit(x, np.zeros(50))


def test_local_basis_piecewise_fit():
    rng = np.random.default_rng(2)
    basis = LocalAffineBasis(8, (-2.0, 2.0))
    x = rng.uniform(-2, 2, size=(4000, 1))
    target = np.abs(x[:, 0])
    coef, _ = basis.fit(x, target)
    xq = np.linspace(-1.9, 1.9, 41)[:, None]
    pred = basis.predict(coef[..., 0], xq)
    assert np.max(np.abs(pred - np.abs(xq[:, 0]))) < 0.15


def test_local_basis_empty_cells_borrow():
    basis = LocalAffineBasis(10, (-5.0, 5.0))
    rng = np.random.default_rng(3)
    x = rng.uniform(-1, 1, size=(2000, 1))  # only central cells populated
    coef, _ = basis.fit(x, x[:, 0] ** 2)
    pred = basis.predict(coef[..., 0], np.array([[-4.9], [4.9]]))
    assert np.all(np.isfinite(pred))


def test_local_basis_empty_cells_borrow_nearest_centre_2d():
    # in a 4x4 grid cell (1,0) sits next to (2,0) but right after (0,3) in
    # flat order; it must take the mean of the cell whose centre is nearest
    basis = LocalAffineBasis((4, 4), ([0.0, 0.0], [4.0, 4.0]))
    rng = np.random.default_rng(4)
    far = rng.uniform([0.0, 3.0], [1.0, 4.0], size=(300, 2))   # cell (0,3)
    near = rng.uniform([2.0, 0.0], [3.0, 1.0], size=(300, 2))  # cell (2,0)
    x = np.vstack([far, near])
    target = np.r_[np.full(300, 1.0), np.full(300, 5.0)]
    coef, _ = basis.fit(x, target)
    pred = basis.predict(coef[..., 0], np.array([[1.5, 0.5]]))
    assert pred[0] == pytest.approx(5.0, abs=1e-6)


def test_local_basis_reports_applied_ridge(heat_model, small_heat_bundle):
    basis = LocalAffineBasis(4, (0.0, 4.0))
    x = np.random.default_rng(5).uniform(0.0, 4.0, size=(1000, 1))
    _, info = basis.fit(x, x[:, 0])
    # per cell: ridge_scale * trace([1, z]^T [1, z]) / 2 with z = 2 (x - c)
    z = 2.0 * (x[:, 0] - (np.floor(x[:, 0]) + 0.5))
    traces = [np.sum(1.0 + z[np.floor(x[:, 0]) == c] ** 2) for c in range(4)]
    assert info["ridge"] > 0.0
    assert info["ridge"] == pytest.approx(1e-8 * max(traces) / 2, rel=1e-12)
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0], small_heat_bundle,
                     LocalAffineBasis(10, (-6.0, 6.0)))
    assert np.all(sol.diagnostics["ridge"][1:] > 0.0)


@pytest.fixture(scope="module")
def local_2d():
    # 2-d local basis with thin and empty cells, beyond what the workloads reach
    basis = LocalAffineBasis((6, 5), ([-2.0, -1.0], [2.0, 3.0]))
    rng = np.random.default_rng(6)
    x = rng.normal([0.0, 1.0], [0.5, 0.5], size=(3000, 2))
    x = np.clip(x, basis.lo, basis.hi)
    targets = np.column_stack([np.sin(x[:, 0]) * x[:, 1], x[:, 0] ** 2, np.exp(-x[:, 1])])
    reg = basis.prepare(x)
    coeffs, _ = reg.fit(targets)
    return basis, x, reg, coeffs, targets


def test_local_design_matches_per_cell_sums(local_2d):
    # reference: each cell's sums over its points by bincount, in point
    # order; the sparse design's products must give them bit for bit
    basis, x, reg, coeffs, targets = local_2d
    m, p, n_cells = x.shape[0], basis.dim + 1, basis.n_cells
    widths = (basis.hi - basis.lo) / basis.cells
    idx = np.clip(((x - basis.lo) / widths).astype(int), 0, basis.cells - 1)
    cell = np.ravel_multi_index(tuple(idx.T), basis.cells)
    feats = np.column_stack([np.ones(m), 2.0 * (x - (basis.lo + (idx + 0.5) * widths)) / widths])
    expect = np.zeros((m, n_cells, p))
    expect[np.arange(m), cell] = feats
    assert np.array_equal(basis.design(x).toarray(), expect.reshape(m, n_cells * p))

    def cell_sums(w):
        return np.bincount(cell, weights=w, minlength=n_cells)

    gram = np.empty((n_cells, p, p))
    gram[:, 0, 0] = np.bincount(cell, minlength=n_cells)
    for a in range(1, p):
        gram[:, 0, a] = gram[:, a, 0] = cell_sums(feats[:, a])
        for b in range(a, p):
            gram[:, a, b] = gram[:, b, a] = cell_sums(feats[:, a] * feats[:, b])
    rhs = np.stack([np.stack([cell_sums(feats[:, a] * t) if a else cell_sums(t)
                              for a in range(p)], axis=1) for t in targets.T], axis=2)
    assert reg.thin.any() and reg.empty.size and reg.full.any()
    assert np.array_equal(reg.counts, gram[:, 0, 0])
    g = gram[reg.full]
    ridge = bsde._RIDGE_SCALE * np.trace(g, axis1=1, axis2=2) / p
    assert np.array_equal(reg.blocks, g + ridge[:, None, None] * np.eye(p))
    assert np.array_equal((reg.phi_t @ targets).reshape(rhs.shape), rhs)
    # the fit on these sums: thin cells their mean, empty cells their donor's
    expect = np.zeros_like(rhs)
    expect[reg.thin, 0] = rhs[reg.thin, 0] / reg.counts[reg.thin, None]
    expect[reg.full] = np.linalg.solve(reg.blocks, rhs[reg.full])
    expect[reg.empty, 0] = expect[reg.donor, 0]
    assert np.array_equal(coeffs, expect)


def test_local_predict_multi_target_columns_bitwise(local_2d):
    # each column of a multi-target predict is the single-target predict of
    # that column, and prepare(x).predict is basis.predict on x
    basis, x, reg, coeffs, _ = local_2d
    multi = reg.predict(coeffs)
    assert multi.shape == (x.shape[0], 3)
    assert np.array_equal(multi, basis.predict(coeffs, x))
    for j in range(coeffs.shape[-1]):
        assert np.array_equal(multi[:, j], reg.predict(coeffs[..., j])), j
        assert np.array_equal(multi[:, j], basis.predict(coeffs[..., j], x)), j


def test_local_predict_matches_per_point_evaluation(local_2d):
    basis, x, _, coeffs, _ = local_2d
    xq = np.random.default_rng(7).uniform(basis.lo, basis.hi, size=(200, 2))
    widths = (basis.hi - basis.lo) / basis.cells
    expect = np.empty((xq.shape[0], coeffs.shape[-1]))
    for i, pt in enumerate(xq):
        idx = np.minimum(((pt - basis.lo) // widths).astype(int), basis.cells - 1)
        c = coeffs[idx[0] * basis.cells[1] + idx[1]]
        zk = 2.0 * (pt - (basis.lo + (idx + 0.5) * widths)) / widths
        expect[i] = c[0] + zk[0] * c[1] + zk[1] * c[2]
    assert np.allclose(basis.predict(coeffs, xq), expect, rtol=0.0, atol=1e-12)


def _fit_alone(reg, targets):
    # one target's fit with its own right-hand side and its own solve, as
    # before fits were batched: no leading batch axis anywhere
    t = targets[:, None] if targets.ndim == 1 else targets
    rhs = reg.phi_t @ t
    if not hasattr(reg, "blocks"):
        return np.linalg.solve(reg.ridged, rhs)
    rhs = rhs.reshape(reg.coef_shape + (-1,))
    coeffs = np.zeros(rhs.shape)
    coeffs[reg.thin, 0, :] = rhs[reg.thin, 0, :] / reg.counts[reg.thin, None]
    coeffs[reg.full] = np.linalg.solve(reg.blocks, rhs[reg.full])
    coeffs[reg.empty, 0, :] = coeffs[reg.donor, 0, :]
    return coeffs


def _batch_case(kind, dim):
    # points that leave the local basis thin and empty cells in 1-d and 2-d
    rng = np.random.default_rng(10 + dim)
    lo, hi = -3.0 * np.ones(dim), 3.0 * np.ones(dim)
    x = np.vstack([rng.normal(0.0, 0.6, size=(3000, dim)), np.full((3, dim), 2.3)])
    basis = (LocalAffineBasis(12 if dim == 1 else (6, 5), (lo, hi)) if kind == "local"
             else PolynomialBasis(4 if dim == 1 else 3, (lo, hi)))
    reg = basis.prepare(x)
    if kind == "local":
        assert reg.thin.any() and reg.empty.any() and reg.full.any()
    return x, reg


@pytest.mark.parametrize("cols", [1, 3])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("kind", ["local", "poly"])
def test_batched_fits_equal_each_targets_own_fit(kind, dim, cols):
    # one solve with a leading batch axis gives every target the bits of
    # its own fit, and of a solve with no batch axis at all
    x, reg = _batch_case(kind, dim)
    rng = np.random.default_rng(cols)
    batch = []
    for i in range(5):
        t = np.sin((i + 1) * x[:, :1] + rng.normal(size=(x.shape[0], cols))) * np.exp(x[:, -1:])
        batch.append(t[:, 0] if cols == 1 else t)
    fits = reg.fits(batch)
    assert len(fits) == len(batch)
    for t, coeffs in zip(batch, fits):
        own, _ = reg.fit(t)
        assert coeffs.shape == reg.coef_shape + (cols,)
        assert np.array_equal(coeffs, own)
        assert np.array_equal(coeffs, _fit_alone(reg, t))


@pytest.mark.parametrize("kind", ["local", "poly"])
def test_batched_fit_overflow_flags_only_its_target(kind):
    # a target whose cell sums overflow to inf makes the whole batch raise,
    # as its own fit does; each good target alone, and a batch of the good
    # ones, still fits bit for bit
    x, reg = _batch_case(kind, 1)
    good = [np.cos(x[:, 0]), x[:, 0] ** 2]
    huge = np.full(x.shape[0], 1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularRegressionError, match="non-finite"):
            reg.fits([good[0], huge, good[1]])
        with pytest.raises(SingularRegressionError, match="non-finite"):
            reg.fit(huge)
    for t, coeffs in zip(good, reg.fits(good)):
        assert np.array_equal(coeffs, reg.fit(t)[0])
        assert np.array_equal(coeffs, _fit_alone(reg, t))


@pytest.mark.parametrize("kind", ["local", "poly"])
def test_solve_whose_only_fit_overflows_raises_singular(heat_model, kind):
    # a y fit that overflows raises from the pass, before any residual
    # target is built
    paths = simulate_paths(heat_model, TimeGrid(0, 1, 5), 0.0, 2000, seed=1)
    basis = make_basis(kind, (-6.0, 6.0), degree=2, cells=4)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SingularRegressionError, match="non-finite"):
            solve_bsde(heat_model, zero_driver(), lambda X: np.full(X.shape[0], 1e308),
                       paths, basis, clamp=math.inf)


def test_make_basis():
    assert make_basis("poly", (-1, 1), degree=2).kind == "poly"
    assert make_basis("local", (-1, 1), cells=5).kind == "local"
    with pytest.raises(ValueError):
        make_basis("spline", (-1, 1))


# ---------------------------------------------------------------------------
# solver on reference problems
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def heat_bundle(heat_model):
    return simulate_paths(heat_model, TimeGrid(0, 1, 50), 0.0, 50_000, seed=100)


@pytest.fixture(scope="module")
def poly_basis():
    return PolynomialBasis(4, (-6.0, 6.0))


def test_constant_terminal_exact(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, zero_driver(),
                     lambda X: np.full(X.shape[0], 3.0), heat_bundle, poly_basis)
    assert np.allclose(sol.y, 3.0, atol=1e-9)
    for k in range(sol.n_steps):
        assert np.abs(evaluate_z(sol, k, heat_bundle.states[k])).max() < 1e-4, k
    u = evaluate_u(sol, 0, np.array([[0.5]]))
    assert u[0] == pytest.approx(3.0, abs=1e-6)


def test_constant_with_jumps_vbar_vanishes(toy_model):
    drv = DriverSpec(f=lambda t, x, y, z, v: np.zeros_like(y),
                     functionals=(lambda e: e,), lipschitz=0.0)
    b = simulate_paths(toy_model, TimeGrid(0, 1, 25), 0.0, 20_000, seed=101)
    sol = solve_bsde(toy_model, drv, lambda X: np.full(X.shape[0], 2.0), b,
                     PolynomialBasis(4, (-6, 6)))
    assert np.allclose(sol.y, 2.0, atol=1e-9)
    # vbar is the coef_zv field after the z columns
    for k in range(sol.n_steps):
        vbar = sol.basis.predict(sol.coef_zv[k], b.states[k])[:, 1:]
        assert vbar.shape == (b.n_paths, 1)
        assert np.abs(vbar).max() < 1e-4, k


def test_terminal_values_exact(heat_model, heat_bundle, poly_basis):
    g = lambda X: X[:, 0] ** 2
    sol = solve_bsde(heat_model, zero_driver(), g, heat_bundle, poly_basis)
    assert np.array_equal(sol.y[-1], g(heat_bundle.states[-1]))


def test_ode_discount(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, discount_driver(0.05),
                     lambda X: np.ones(X.shape[0]), heat_bundle, poly_basis)
    assert sol.u0() == pytest.approx(math.exp(-0.05), abs=2e-3)


def test_heat_value(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0] ** 2,
                     heat_bundle, poly_basis)
    se = sol.u0_stderr()
    assert abs(sol.u0() - 1.0) < 3 * se


def test_toy_uniform_value(toy_model):
    b = simulate_paths(toy_model, TimeGrid(0, 1, 50), 0.0, 50_000, seed=102)
    sol = solve_bsde(toy_model, zero_driver(), lambda X: X[:, 0] ** 2, b,
                     PolynomialBasis(4, (-6, 6)))
    # oracle: linear PIDE solution u = x^2 + (T-t)(1 + 1/3)
    assert abs(sol.u0() - 4.0 / 3.0) < 3 * sol.u0_stderr()


def test_jump_functional_driver_shifts_the_merton_price(merton_model):
    # f = -r y + kappa vbar with gamma = 1: the jump term counts (1 + kappa)
    # times while the drift compensates it once, so u(0, log K) is the Merton
    # price at intensity lam (1 + kappa) and spot K exp(kappa lam kbar T)
    # (Barles, Buckdahn & Pardoux 1997).  The shift u0(kappa) - u0(0) on one
    # bundle cancels the common Monte-Carlo error; a solver that ignored vbar
    # would miss it whole.  Over seeds 1-40 at this size the shift was off by
    # at most 3.1% (kappa 0.5) and 3.5% (kappa 1), mean 0.9% and 1.1%.
    r, sigma, lam, jump_mean, jump_sd, strike = 0.05, 0.2, 1.0, -0.1, 0.15, 100.0
    kbar = math.exp(jump_mean + 0.5 * jump_sd**2) - 1.0
    x0 = math.log(strike)
    b = simulate_paths(merton_model, TimeGrid(0, 1, 25), x0, 50_000, seed=1)
    basis = PolynomialBasis(4, (x0 - 2, x0 + 2))
    call = lambda X: np.maximum(np.exp(X[:, 0]) - strike, 0.0)

    def u0(kappa):
        drv = DriverSpec(f=lambda t, x, y, z, v: -r * y + kappa * v[:, 0],
                         functionals=(np.ones_like,), lipschitz=r + kappa)
        return solve_bsde(merton_model, drv, call, b, basis).u0()

    def exact(kappa):
        return merton_price(strike * math.exp(kappa * lam * kbar), strike, r, sigma, 1.0,
                            lam * (1 + kappa), jump_mean, jump_sd)

    base = u0(0.0)
    for kappa in (0.5, 1.0):
        shift = exact(kappa) - exact(0.0)
        assert shift < -1.0
        assert u0(kappa) - base == pytest.approx(shift, rel=0.08), kappa


def test_comparison_property(heat_model, heat_bundle, poly_basis):
    # g1 >= g2 and f1 >= f2 implies u1 >= u2 - eps on the grid
    g2 = lambda X: X[:, 0] ** 2
    g1 = lambda X: X[:, 0] ** 2 + 0.5
    f2 = DriverSpec(f=lambda t, x, y, z, v: -0.1 * y, lipschitz=0.1)
    f1 = DriverSpec(f=lambda t, x, y, z, v: -0.1 * y + 0.2, lipschitz=0.1)
    s1 = solve_bsde(heat_model, f1, g1, heat_bundle, poly_basis)
    s2 = solve_bsde(heat_model, f2, g2, heat_bundle, poly_basis)
    xq = np.linspace(-2, 2, 21)[:, None]
    eps = 3 * (s1.u0_stderr() + s2.u0_stderr())
    for k in (0, 10, 25, 40):
        assert np.all(evaluate_u(s1, k, xq) >= evaluate_u(s2, k, xq) - eps)


def test_linearity_in_terminal(heat_model, heat_bundle, poly_basis):
    # with f = 0 the whole backward pass is linear in the terminal data
    g1 = lambda X: X[:, 0] ** 2
    g2 = lambda X: np.sin(X[:, 0])
    a = 2.5
    big = 1e12  # clamp off: the outlier guard is deliberately nonlinear
    s1 = solve_bsde(heat_model, zero_driver(), g1, heat_bundle, poly_basis, clamp=big)
    s2 = solve_bsde(heat_model, zero_driver(), g2, heat_bundle, poly_basis, clamp=big)
    s12 = solve_bsde(heat_model, zero_driver(),
                     lambda X: a * g1(X) + g2(X), heat_bundle, poly_basis, clamp=big)
    assert np.allclose(s12.y, a * s1.y + s2.y, atol=1e-7)
    for k in range(s12.n_steps):
        x = heat_bundle.states[k]
        assert np.allclose(evaluate_z(s12, k, x), a * evaluate_z(s1, k, x) + evaluate_z(s2, k, x),
                           atol=1e-7), k


def test_grid_refinement_ode(heat_model):
    # first-order error in dt on the deterministic discounting example
    errs = []
    for n in (10, 20, 40):
        b = simulate_paths(heat_model, TimeGrid(0, 1, n), 0.0, 2000, seed=103)
        sol = solve_bsde(heat_model, discount_driver(0.05),
                         lambda X: np.ones(X.shape[0]), b, PolynomialBasis(2, (-6, 6)))
        errs.append(abs(sol.u0() - math.exp(-0.05)))
    assert errs[1] < errs[0] and errs[2] < errs[1]


def test_zero_jump_reduction_bit_for_bit(heat_model, heat_bundle, poly_basis):
    # solver output matches an independent no-jump regression loop exactly
    g = lambda X: X[:, 0] ** 2
    drv = discount_driver(0.04)
    sol = solve_bsde(heat_model, drv, g, heat_bundle, poly_basis, picard_iters=3,
                     clamp=1e12)
    grid = heat_bundle.grid
    dt = grid.dt
    y = g(heat_bundle.states[-1])
    for k in range(grid.n_steps - 1, -1, -1):
        xk = heat_bundle.states[k]
        cy, _ = poly_basis.fit(xk, y)
        cond = poly_basis.predict(cy[:, 0], xk)
        resid = y - cond
        czv, _ = poly_basis.fit(xk, resid[:, None] * heat_bundle.brownian[k][:, :1])
        z = poly_basis.predict(czv[:, 0] / dt, xk)[:, None]
        ynew = cond.copy()
        for _ in range(3):
            ynew = cond + dt * drv.f(grid.nodes[k], xk, ynew, z, np.zeros((len(y), 0)))
        y = ynew
        assert np.array_equal(sol.y[k], y)
        assert np.array_equal(evaluate_z(sol, k, xk), z)


def test_borrowing_driver_reduces_to_discount(heat_model, heat_bundle, poly_basis):
    from pidesolve.model import borrowing_rate_driver
    g = lambda X: X[:, 0] ** 2
    flat = borrowing_rate_driver(0.05, 0.05, 0.0, 1.0)  # no spread, no premium
    plain = discount_driver(0.05)
    s1 = solve_bsde(heat_model, flat, g, heat_bundle, poly_basis, clamp=1e12)
    s2 = solve_bsde(heat_model, plain, g, heat_bundle, poly_basis, clamp=1e12)
    assert np.allclose(s1.y, s2.y, atol=1e-12)


def test_borrowing_driver_spread_raises_value(heat_model, heat_bundle, poly_basis):
    from pidesolve.model import borrowing_rate_driver
    g = lambda X: X[:, 0] ** 2
    spread = borrowing_rate_driver(0.05, 0.08, 0.0, 1.0)
    plain = discount_driver(0.05)
    s1 = solve_bsde(heat_model, spread, g, heat_bundle, poly_basis)
    s2 = solve_bsde(heat_model, plain, g, heat_bundle, poly_basis)
    # -(R - r) min(y - sum z / sigma, 0) >= 0 adds to the driver
    assert s1.u0() >= s2.u0() - 1e-9


def test_borrowing_call_prices_at_the_borrowing_rate():
    # z is sigma times the amount held in the stock.  A call's hedge holds
    # more stock than the call is worth, so it borrows all along, and its
    # price is Black-Scholes at the borrowing rate R = 0.08 (El Karoui, Peng
    # & Quenez 1997, section 1.1): 12.106, where the lending rate gives
    # 10.451.  At this size u0 - 12.106 has mean 0.005 and sd 0.117 over 30
    # seeds (100-129), and u0_stderr is 0.11
    from pidesolve.model import borrowing_rate_driver
    from pidesolve.oracle import black_scholes
    model = named_model("bs", r=0.05, sigma=0.2)
    driver = borrowing_rate_driver(0.05, 0.08, 0.0, 0.2)
    call = lambda X: np.maximum(X[:, 0] - 100.0, 0.0)
    paths = simulate_paths(model, TimeGrid(0, 1, 25), 100.0, 20_000, seed=7)
    box = (float(paths.states.min()) - 1.0, float(paths.states.max()) + 1.0)
    sol = solve_bsde(model, driver, call, paths, LocalAffineBasis(40, box))
    ref = black_scholes(100.0, 100.0, 0.08, 0.2, 1.0)
    assert ref == pytest.approx(12.106, abs=1e-3)
    assert abs(sol.u0() - ref) <= 4 * sol.u0_stderr()


def test_contraction_guard(heat_model, heat_bundle, poly_basis):
    stiff = DriverSpec(f=lambda t, x, y, z, v: -60.0 * y, lipschitz=60.0)
    with pytest.raises(ContractionError):
        solve_bsde(heat_model, stiff, lambda X: np.ones(X.shape[0]),
                   heat_bundle, poly_basis)


def test_clamp_engages(heat_model, poly_basis):
    b = simulate_paths(heat_model, TimeGrid(0, 1, 10), 0.0, 5000, seed=104)
    g = lambda X: X[:, 0] ** 2
    sol = solve_bsde(heat_model, zero_driver(), g, b, poly_basis, clamp=0.5)
    assert sol.diagnostics["clamped"].sum() > 0
    assert np.abs(sol.y[:-1]).max() <= 0.5 + 1e-12


def test_default_clamp_bound(heat_model, heat_bundle):
    b = default_clamp_bound(discount_driver(0.05), lambda X: X[:, 0] ** 2,
                            heat_bundle)
    gmax = (heat_bundle.states[-1][:, 0] ** 2).max()
    assert b >= gmax


def test_unused_obstacle_is_ignored(heat_model, heat_bundle, poly_basis):
    # at penalty level 0 the obstacle plays no part, not even in the default
    # clamp bound or the horizon check: a put terminal at strike 90 under a
    # put obstacle at strike 100 solves as the terminal alone
    from pidesolve.model import ObstacleSpec
    from pidesolve.obstacle import solve_penalized
    g = lambda X: np.maximum(90.0 - X[:, 0], 0.0)
    high = ObstacleSpec(h=lambda t, X: np.maximum(100.0 - X[:, 0], 0.0), iota=101.0,
                        kappa=1.0)
    plain = solve_bsde(heat_model, discount_driver(0.05), g, heat_bundle, poly_basis)
    unused = solve_penalized(heat_model, discount_driver(0.05), g, high, heat_bundle,
                             poly_basis, 0)
    assert unused.clamp_bound == plain.clamp_bound
    assert unused.obstacle is None
    for name in ("y", "coef_y", "coef_zv"):
        assert np.array_equal(getattr(unused, name), getattr(plain, name)), name
    with pytest.raises(ValueError, match="penalty level"):
        solve_penalized(heat_model, discount_driver(0.05), g, high, heat_bundle, poly_basis,
                        -1)


def test_solve_stores_the_y_path_and_coefficients_only(heat_model, small_heat_bundle):
    # in units of one (N+1, M) float array: after return the solution holds
    # its y path and the per-step coefficients, no z or vbar path array
    import tracemalloc
    paths = small_heat_bundle
    unit = paths.states[..., 0].nbytes
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        sol = solve_bsde(heat_model, discount_driver(0.05), lambda X: X[:, 0] ** 2, paths,
                         PolynomialBasis(4, (-8, 8)))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert sol.y.shape == paths.states.shape[:2]
    assert (held - base) / unit < 1.5


@pytest.mark.parametrize("reader", [evaluate_u, evaluate_z], ids=lambda f: f.__name__)
def test_evaluate_u_domain_guard(heat_model, heat_bundle, poly_basis, reader):
    # both readers refuse to extrapolate outside the basis box, and refuse a
    # step outside 0..n and a point of another dimension
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0] ** 2,
                     heat_bundle, poly_basis)
    with pytest.raises(DomainError):
        reader(sol, 5, np.array([[100.0]]))
    for k in (99, sol.n_steps + 1, -1):
        with pytest.raises(ValueError, match=f"step {k} outside"):
            reader(sol, k, np.array([[0.0]]))
    with pytest.raises(ValueError, match="dimension"):
        reader(sol, 5, np.array([[0.0, 0.0]]))


@pytest.mark.parametrize("kind", ["poly", "local"])
@pytest.mark.parametrize("mode", ["plain", "penalized", "reflected"])
def test_evaluate_u_reproduces_path_values(kind, mode):
    # evaluate_u on the bundle's own states repeats the backward step bit
    # for bit, so the fitted field and the path values are one quantity; the
    # borrowing driver depends on z, so z must be formed alike on both sides:
    # evaluate_z gives the z the step predicted through its prepared setup
    from pidesolve.bsde import _backward_pass
    from pidesolve.model import ObstacleSpec, borrowing_rate_driver
    from pidesolve.obstacle import solve_penalized
    model = named_model("merton")
    x0 = math.log(100.0)
    paths = simulate_paths(model, TimeGrid(0, 1, 10), x0, 4000, seed=17)
    box = (float(paths.states.min()) - 0.5, float(paths.states.max()) + 0.5)
    basis = make_basis(kind, box, degree=4, cells=20)
    put = lambda X: np.maximum(100.0 - np.exp(X[:, 0]), 0.0)
    obstacle = ObstacleSpec(h=lambda t, X: put(X), iota=101.0, kappa=1.0)
    solve = {
        "plain": lambda driver: solve_bsde(model, driver, put, paths, basis),
        "penalized": lambda driver: solve_penalized(model, driver, put, obstacle, paths,
                                                    basis, 64.0),
        "reflected": lambda driver: _backward_pass(model, driver, put, paths, basis,
                                                   [(0.0, True, True)], 3, None,
                                                   obstacle)[0],
    }[mode]
    for driver in (discount_driver(0.05), borrowing_rate_driver(0.05, 0.08, 0.1, 0.2)):
        sol = solve(driver)
        for k in range(sol.n_steps + 1):
            assert np.array_equal(evaluate_u(sol, k, paths.states[k]), sol.y[k]), k
        for k in range(sol.n_steps):
            stepped = basis.prepare(paths.states[k]).predict(sol.coef_zv[k])[:, :1]
            assert np.array_equal(evaluate_z(sol, k, paths.states[k]), stepped), k
        # and on no points at all it returns no values
        assert evaluate_u(sol, 0, np.empty((0, 1))).shape == (0,)


def test_evaluate_u_terminal_slice(heat_model, heat_bundle, poly_basis):
    g = lambda X: X[:, 0] ** 2
    sol = solve_bsde(heat_model, zero_driver(), g, heat_bundle, poly_basis)
    xq = np.array([[0.5], [1.0]])
    assert np.allclose(evaluate_u(sol, sol.n_steps, xq), [0.25, 1.0])
    # at the horizon z and vbar are zero, as solution.csv writes them
    _, z, vbar = evaluate_fields(sol, sol.n_steps, xq)
    assert np.array_equal(z, np.zeros((2, 1))) and vbar.shape == (2, 0)
    assert np.array_equal(evaluate_z(sol, sol.n_steps, xq), z)


# ---------------------------------------------------------------------------
# representation and a-priori checks
# ---------------------------------------------------------------------------

def test_z_representation_trivial(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, zero_driver(),
                     lambda X: np.full(X.shape[0], 2.0), heat_bundle, poly_basis)
    assert check_z_representation(sol, heat_model, weight=RHO4) == \
        pytest.approx(0.0, abs=0.05)


def test_z_representation_heat(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0] ** 2,
                     heat_bundle, poly_basis)
    err = check_z_representation(sol, heat_model, weight=RHO4)
    assert err <= 0.1
    # the regressed field is close to the analytic gradient 2x
    xq = np.linspace(-1, 1, 9)[:, None]
    z_mid = evaluate_z(sol, 25, xq)[:, 0]
    assert np.max(np.abs(z_mid - 2 * xq[:, 0])) < 0.2


def test_apriori_zero_data(heat_model, heat_bundle, poly_basis):
    sol = solve_bsde(heat_model, zero_driver(),
                     lambda X: np.zeros(X.shape[0]), heat_bundle, poly_basis)
    ratio = check_apriori_estimate({0.0: sol}, lambda X: np.zeros(X.shape[0]),
                                   zero_driver(), RHO4)
    assert ratio == 0.0


def test_apriori_divzero_flagged(heat_model, heat_bundle, poly_basis):
    # zero data norm but nonzero solution: impossible by construction, forced
    # here by mismatched terminal descriptions
    sol = solve_bsde(heat_model, zero_driver(), lambda X: X[:, 0] ** 2,
                     heat_bundle, poly_basis)
    with pytest.raises(ZeroDenominatorError):
        check_apriori_estimate({0.0: sol}, lambda X: np.zeros(X.shape[0]),
                               zero_driver(), RHO4)


def test_apriori_rejects_multidimensional_starts():
    # the start-point quadrature is one dimensional: 2-d starts are refused
    # up front instead of being keyed by their first coordinate
    model = ModelSpec(dim=2, drift=lambda x: 0.0 * x,
                      diffusion=lambda x: np.broadcast_to(np.eye(2), x.shape + (2,)))
    g = lambda X: X[:, 0] * X[:, 1]
    sols = {}
    for x0 in [(0.0, 0.0), (0.0, 3.0), (1.0, 0.0)]:
        b = simulate_paths(model, TimeGrid(0, 1, 4), np.array(x0), 200, seed=106)
        sols[x0] = solve_bsde(model, zero_driver(), g, b, PolynomialBasis(2, ([-9, -9], [9, 9])))
    with pytest.raises(ValueError, match="one-dimensional"):
        check_apriori_estimate(sols, g, zero_driver(), RHO4)


def test_apriori_rejects_solutions_on_different_grids(heat_model):
    # the energy sums run on one time grid: a second horizon or step count
    # is refused with both grids named, not summed on the first one's dt
    g = lambda X: X[:, 0] ** 2

    def solve(t1, n, x0):
        b = simulate_paths(heat_model, TimeGrid(0, t1, n), x0, 2000, seed=107)
        return solve_bsde(heat_model, zero_driver(), g, b, PolynomialBasis(2, (-9, 9)))

    base = solve(1.0, 20, -1.0)
    for t1, n in ((2.0, 20), (1.0, 10)):
        other = solve(t1, n, 1.0)
        with pytest.raises(ValueError, match="time grids differ") as err:
            check_apriori_estimate({-1.0: base, 1.0: other}, g, zero_driver(), RHO4)
        assert str(base.grid) in str(err.value) and str(other.grid) in str(err.value)
    # one grid for all passes
    assert check_apriori_estimate({-1.0: base, 1.0: solve(1.0, 20, 1.0)}, g, zero_driver(),
                                  RHO4) > 0


def test_apriori_stability_and_scaling(heat_model):
    g = lambda X: X[:, 0] ** 2
    grid = TimeGrid(0, 1, 25)
    sols = {}
    points = np.arange(-2.0, 2.01, 0.5)
    for x0 in points:
        b = simulate_paths(heat_model, grid, x0, 20_000, seed=105)
        sols[float(x0)] = solve_bsde(heat_model, zero_driver(), g, b,
                                     PolynomialBasis(4, (-8, 8)))
    # comparable quadratures of the same span built on {0, +-1, +-2}
    grids = [(-2.0, -1.0, 0.0, 1.0, 2.0), (-2.0, 0.0, 2.0), tuple(float(x) for x in points)]
    ratios = [check_apriori_estimate({x: sols[x] for x in gsel}, g,
                                     zero_driver(), RHO4) for gsel in grids]
    assert all(np.isfinite(r) and r > 0 for r in ratios)
    mean = float(np.mean(ratios))
    assert all(abs(r - mean) <= 0.2 * mean for r in ratios)

    # doubling the terminal amplitude quadruples the energy in this linear case
    sols2 = {x0: solve_bsde(heat_model, zero_driver(),
                            lambda X: 2 * g(X),
                            simulate_paths(heat_model, grid, x0, 20_000, seed=105),
                            PolynomialBasis(4, (-8, 8)))
             for x0 in (-1.0, 0.0, 1.0)}
    num1 = check_apriori_estimate({x: sols[x] for x in (-1.0, 0.0, 1.0)}, g,
                                  zero_driver(), RHO4)
    num2 = check_apriori_estimate(sols2, lambda X: 2 * g(X), zero_driver(), RHO4)
    # ratio is scale-invariant: numerator and denominator both quadruple
    assert num2 == pytest.approx(num1, rel=0.02)
