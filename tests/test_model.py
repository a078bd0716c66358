import math

import numpy as np
import pytest

from pidesolve.config import validate_config
from pidesolve.forward import TimeGrid, simulate_paths
from pidesolve.model import (DriverSpec, JumpMeasure, ObstacleSpec,
                             WeightFunction, borrowing_rate_driver,
                             discount_driver, named_model, translation_jump,
                             zero_driver)
from pidesolve.oracle import FdGrid, fd_solve_pide


def custom_model(params):
    # a custom config model, normalized and built as a run builds it
    return validate_config({"task": "simulate", "seed": 0,
                            "model": {"name": "custom", "params": params}}).build_model()


# ---------------------------------------------------------------------------
# jump measure
# ---------------------------------------------------------------------------

def mark_moment(jm, power):
    """The quadrature's moment of the mark distribution, E[e^power]."""
    return jm.integrate(lambda e: e**power) / jm.total_intensity


def test_uniform_measure_moments():
    jm = JumpMeasure.uniform(-1.0, 1.0, intensity=1.0)
    assert jm.weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert mark_moment(jm, 1) == pytest.approx(0.0, abs=1e-14)
    assert mark_moment(jm, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_gaussian_measure_moments():
    jm = JumpMeasure.gaussian(-0.1, 0.15, intensity=2.0)
    assert jm.weights.sum() == pytest.approx(2.0, rel=1e-12)
    assert mark_moment(jm, 1) == pytest.approx(-0.1, abs=1e-12)
    assert mark_moment(jm, 2) == pytest.approx(0.1**2 + 0.15**2, rel=1e-10)


def test_two_point_measure():
    jm = JumpMeasure.two_point(-0.2, 0.1, p_up=0.75, intensity=3.0)
    assert jm.weights.sum() == pytest.approx(3.0)
    assert mark_moment(jm, 1) == pytest.approx(0.25 * (-0.2) + 0.75 * 0.1)


def test_sampler_matches_quadrature_moments():
    # the simulator draws marks from the sampler and compensates with the
    # quadrature: for each constructor their first two moments must agree
    # within sampling error
    rng = np.random.default_rng(0)
    n = 200_000
    for jm in (JumpMeasure.uniform(-0.5, 1.5, intensity=2.0), JumpMeasure.gaussian(-0.1, 0.15),
               JumpMeasure.two_point(-0.3, 0.2, 0.4, intensity=0.5)):
        marks = jm.mark_sampler(rng, n)
        for power in (1, 2):
            sample = marks**power
            se = sample.std(ddof=1) / math.sqrt(n)
            assert abs(sample.mean() - mark_moment(jm, power)) < 4.0 * se


def test_measure_rejects_bad_weights():
    with pytest.raises(ValueError):
        JumpMeasure(1.0, lambda rng, n: rng.normal(size=n),
                    np.array([0.0]), np.array([-1.0]))
    with pytest.raises(ValueError):
        JumpMeasure(-1.0)
    with pytest.raises(ValueError):
        # weights must sum to the intensity
        JumpMeasure(2.0, lambda rng, n: rng.normal(size=n),
                    np.array([0.5]), np.array([1.0]))


# ---------------------------------------------------------------------------
# the simulator's law against the FD oracle's generator
# ---------------------------------------------------------------------------

def test_mc_generator_consistency(toy_model):
    # (E[phi(X_delta)] - phi(x0)) / delta and (u(0, x0) - phi(x0)) / delta,
    # u the FD oracle's solution from phi at the horizon delta, both
    # approximate the generator at x0; dx = 0.02 puts x0 on a grid node, so
    # no interpolation error is divided by delta
    phi = lambda x: np.exp(-x**2)
    x0 = 0.4
    grid = FdGrid(-6.0, 6.0, 601, 20, "linear")
    for delta, m in ((1e-2, 200_000), (1e-3, 400_000)):
        fd = fd_solve_pide(toy_model, zero_driver(), lambda x: phi(x[:, 0]), grid, horizon=delta)
        gen = (float(fd.interp(0.0, x0)) - phi(x0)) / delta
        b = simulate_paths(toy_model, TimeGrid(0.0, delta, 1), x0, m, seed=17)
        samples = (phi(b.states[-1][:, 0]) - phi(x0)) / delta
        se = samples.std(ddof=1) / math.sqrt(m)
        assert abs(samples.mean() - gen) < 3 * se + 0.6 * delta * abs(gen)


# ---------------------------------------------------------------------------
# driver / obstacle / weight
# ---------------------------------------------------------------------------

def secant_slope(driver, rng, n=4096, dim=1):
    """Largest |f(a) - f(b)| / (|y_a - y_b| + |z_a - z_b| + |v_a - v_b|) over
    n random pairs (a, b) of (y, z, vbar) at random states, in one call each."""
    q = max(1, driver.n_functionals)
    x = rng.uniform(-1.0, 1.0, (n, dim))
    ya, yb = rng.normal(size=(2, n))
    za, zb = rng.normal(size=(2, n, dim))
    va, vb = rng.normal(size=(2, n, q))
    num = np.abs(driver.f(0.5, x, ya, za, va) - driver.f(0.5, x, yb, zb, vb))
    den = np.abs(ya - yb) + np.linalg.norm(za - zb, axis=-1) + np.linalg.norm(va - vb, axis=-1)
    return float(np.max(num / den))


def assert_lipschitz_bounds_slope(driver, seed):
    # the declared constant sets the contraction check and the clamp bound:
    # it must bound the driver's slope in (y, z, vbar), and not by far
    slope = secant_slope(driver, np.random.default_rng(seed))
    assert slope <= driver.lipschitz + 1e-12
    assert slope >= 0.5 * driver.lipschitz


def test_discount_driver_lipschitz():
    for driver in (zero_driver(), discount_driver(0.05), discount_driver(-0.03)):
        assert_lipschitz_bounds_slope(driver, 5)


def test_borrowing_driver_lipschitz_spot_check():
    for args in ((0.04, 0.06, 0.1), (0.05, 0.08, 0.0)):
        for sigma in (0.2, 1.0):
            assert_lipschitz_bounds_slope(borrowing_rate_driver(*args, sigma), 6)
    with pytest.raises(ValueError, match="sigma"):
        borrowing_rate_driver(0.05, 0.08, 0.0, 0.0)


def test_driver_functional_cap():
    gammas = tuple((lambda e: e) for _ in range(9))
    with pytest.raises(ValueError, match="at most 8"):
        DriverSpec(f=lambda t, x, y, z, v: np.zeros_like(y), functionals=gammas)


def test_driver_f_zero():
    drv = DriverSpec(f=lambda t, x, y, z, v: -0.1 * y + x[:, 0], lipschitz=0.1)
    x = np.array([[2.0], [3.0]])
    assert np.allclose(drv.f_zero(0.0, x), [2.0, 3.0])


def test_obstacle_growth_check():
    h = ObstacleSpec(h=lambda t, X: np.maximum(100.0 - X[:, 0], 0.0),
                     iota=100.0, kappa=1.0)
    assert h.spot_check_growth((0.0, 400.0), [0.0, 0.5, 1.0]) <= 1.0


def test_weight_function():
    w = WeightFunction(4)
    assert w(np.zeros(1)) == pytest.approx(1.0)
    assert w(np.array([[1.0]])) == pytest.approx(2.0**-4)
    assert w.admits_obstacle(dim=1, kappa=1.0)
    assert not WeightFunction(2).admits_obstacle(dim=1, kappa=1.0)


def quadrature_compensator(model, x):
    # sum_j w_j beta(x, e_j), one node at a time from zero
    out = np.zeros_like(x)
    for e_j, w_j in zip(model.jump_measure.nodes, model.jump_measure.weights):
        out = out + w_j * np.asarray(model.jump_coeff(x, np.full(x.shape[:-1], e_j)))
    return out


@pytest.mark.parametrize("model", [
    named_model("merton"), named_model("kou"), named_model("toy-uniform"),
    custom_model({"jump": "translation",
                  "measure": {"kind": "gaussian", "mean": -0.1, "sd": 0.2,
                              "intensity": 2.0}}),
], ids=["merton", "kou", "toy-uniform", "custom"])
def test_translation_compensator_is_one_constant(model):
    assert model.jump_coeff is translation_jump
    x = np.linspace(-3.0, 6.0, 13)[:, None]
    comp = model.compensator_drift(x)
    assert comp.shape == x.shape and np.all(comp == comp[0, 0])
    assert np.array_equal(comp, quadrature_compensator(model, x))


def test_compensator_state_dependent_jumps_is_the_quadrature():
    model = custom_model({"jump": "proportional-exp", "drift": {"slope": 0.05},
                          "diffusion": {"slope": 0.2},
                          "measure": {"kind": "uniform", "lo": -0.2, "hi": 0.2}})
    x = np.linspace(50.0, 150.0, 9)[:, None]
    comp = model.compensator_drift(x)
    assert np.array_equal(comp, quadrature_compensator(model, x))
    # a state-dependent jump has a state-dependent compensator
    assert comp[0, 0] != comp[-1, 0]


def test_named_model_unknown():
    with pytest.raises(ValueError):
        named_model("does-not-exist")
    with pytest.raises(ValueError):
        named_model("bs", bogus=1)


# ---------------------------------------------------------------------------
# finite-difference Jacobian
# ---------------------------------------------------------------------------

def _field(x):
    # a 2-d field of rank 1 per point: (sin x0 * x1, x0^2 + exp(x1))
    return np.stack([np.sin(x[..., 0]) * x[..., 1], x[..., 0] ** 2 + np.exp(x[..., 1])], -1)


def _field_jac(x):
    x0, x1 = x[..., 0], x[..., 1]
    return np.stack([np.stack([np.cos(x0) * x1, np.sin(x0)], -1),
                     np.stack([2 * x0, np.exp(x1)], -1)], -2)


@pytest.mark.parametrize("h", [None, 1e-5])
def test_fd_jacobian_matches_analytic(h):
    from pidesolve.model import _fd_jacobian
    x = np.random.default_rng(0).uniform(-1.0, 1.0, (50, 2))
    jac = _field_jac(x)
    # rank-1 output per point: (m, 2) -> (m, 2, 2)
    assert np.allclose(_fd_jacobian(_field, x, h), jac, rtol=0, atol=1e-7)
    # rank-2 output per point, as a diffusion matrix: (m, 2, 2) -> (m, 2, 2, 2)
    outer = lambda xx: _field(xx)[..., :, None] * _field(xx)[..., None, :]
    f = _field(x)
    want = jac[..., :, None, :] * f[..., None, :, None] + f[..., :, None, None] * jac[..., None, :, :]
    assert np.allclose(_fd_jacobian(outer, x, h), want, rtol=0, atol=1e-7)


def test_fd_jacobian_scalar_field_of_one_point():
    # phi of one point returns a Python float
    from pidesolve.model import _fd_jacobian
    phi = lambda x: float(np.sin(x[0]) * x[1])
    x = np.array([0.3, -1.2])
    grad = np.array([np.cos(0.3) * -1.2, np.sin(0.3)])
    for h in (None, 1e-5):
        assert _fd_jacobian(phi, x, h).shape == (2,)
        assert np.allclose(_fd_jacobian(phi, x, h), grad, rtol=0, atol=1e-7)
