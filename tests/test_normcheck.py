import math

import numpy as np
import pytest

from pidesolve.errors import QuadratureError
from pidesolve.model import WeightFunction
from pidesolve.normcheck import (gauss_legendre_panels, norm_ratio,
                                 shipped_phi_family, spacetime_norm_ratio)

RHO4 = WeightFunction(4)


@pytest.fixture(scope="module")
def quad():
    return gauss_legendre_panels(9.0, n_panels=18, nodes_per_panel=8)


def test_quadrature_integrates_gaussian(quad):
    # sanity: integral of exp(-x^2) over the panel rule
    val = float(np.sum(quad.weights * np.exp(-quad.nodes**2)))
    assert val == pytest.approx(math.sqrt(math.pi), rel=1e-10)


def test_zero_model_exact_unit_ratios(zero_model, quad):
    rep = norm_ratio(zero_model, RHO4, shipped_phi_family(), 0.0,
                     [0.1, 0.5, 1.0], quad, 10_000, seed=1)
    assert rep.min_ratio == 1.0 and rep.max_ratio == 1.0


def test_constant_phi_unit_ratio(merton_model, quad):
    rep = norm_ratio(merton_model, RHO4, [("one", lambda x: np.ones_like(x))],
                     0.0, [0.5], quad, 20_000, seed=2)
    assert rep.rows[0][2] == 1.0


def test_brownian_indicator_bracket(heat_model, quad):
    # own Monte-Carlo oracle: smeared indicator mass over the weight
    rng = np.random.default_rng(3)
    m = 200_000
    num = 0.0
    rho = RHO4(quad.nodes[:, None])
    for xq, wq, rq in zip(quad.nodes, quad.weights, rho):
        hits = np.abs(xq + rng.standard_normal(m // 1000)) <= 1.0
        num += wq * rq * hits.mean()
    den = float(np.sum(quad.weights * rho * (np.abs(quad.nodes) <= 1.0)))
    oracle = num / den

    rep = norm_ratio(heat_model, RHO4, [("box", lambda x: (np.abs(x) <= 1).astype(float))],
                     0.0, [1.0], quad, 150_000, seed=4)
    ratio, se = rep.rows[0][2], rep.rows[0][3]
    assert 0.3 <= ratio <= 3.0
    assert abs(ratio - oracle) < 5 * (se + 0.02)


def test_bracket_width_stable_doubling(merton_model, quad):
    fam = shipped_phi_family()
    r1 = norm_ratio(merton_model, RHO4, fam, 0.0, [0.1, 0.5, 1.0], quad,
                    100_000, seed=5)
    r2 = norm_ratio(merton_model, RHO4, fam, 0.0, [0.1, 0.5, 1.0], quad,
                    200_000, seed=6)
    w1 = r1.max_ratio - r1.min_ratio
    w2 = r2.max_ratio - r2.min_ratio
    ses = np.array([row[3] for row in r1.rows + r2.rows])
    assert w2 <= w1 + 3 * 2 * ses.max()
    assert np.all(r1.ratios > 0) and np.all(np.isfinite(r2.ratios))


def test_ratio_continuity_in_s(merton_model, quad):
    fam = [("gauss", lambda x: np.exp(-x**2))]
    rep = norm_ratio(merton_model, RHO4, fam, 0.0, [0.5, 0.55, 0.7, 0.9], quad,
                     100_000, seed=7)
    by_s = {row[1]: (row[2], row[3]) for row in rep.rows}
    d_near = abs(by_s[0.55][0] - by_s[0.5][0])
    d_far = abs(by_s[0.9][0] - by_s[0.5][0])
    se = 3 * max(v[1] for v in by_s.values())
    assert d_near <= d_far + se
    assert d_near <= 0.3 * d_far + se


def test_spacetime_trivial_unit(zero_model, quad):
    rep = spacetime_norm_ratio(zero_model, RHO4,
                               [("one", lambda s, x: np.ones_like(x))],
                               0.0, 1.0, quad, 10_000, seed=8)
    assert rep.rows[0][2] == 1.0


def test_spacetime_matches_time_average(merton_model, quad):
    # time-independent integrand: the space-time ratio is the weighted
    # average of the per-horizon ratios on the same grid and paths
    n_steps = 10
    st = spacetime_norm_ratio(merton_model, RHO4,
                              [("gauss", lambda s, x: np.exp(-x**2))],
                              0.0, 1.0, quad, 40_000, seed=9, n_steps=n_steps)
    s_list = [k / n_steps for k in range(n_steps + 1)]
    per = norm_ratio(merton_model, RHO4, [("gauss", lambda x: np.exp(-x**2))],
                     0.0, s_list[1:], quad, 40_000, seed=9)
    ratios = [1.0] + [row[2] for row in per.rows]  # ratio at s=0 is exactly 1
    wt = np.full(n_steps + 1, 1.0 / n_steps)
    wt[0] *= 0.5
    wt[-1] *= 0.5
    assert st.rows[0][2] == pytest.approx(float(np.sum(wt * ratios) / wt.sum()),
                                          rel=1e-12)


def test_spacetime_merton_within_per_s_bracket(merton_model, quad):
    fam_t = [("gauss", lambda s, x: np.exp(-x**2))]
    st = spacetime_norm_ratio(merton_model, RHO4, fam_t, 0.0, 1.0, quad,
                              60_000, seed=10, n_steps=10)
    per = norm_ratio(merton_model, RHO4, [("gauss", lambda x: np.exp(-x**2))],
                     0.0, [0.1, 0.5, 1.0], quad, 60_000, seed=10)
    lo, hi = per.bracket()
    se = 3 * max(row[3] for row in per.rows)
    assert lo - se - 0.05 <= st.rows[0][2] <= hi + se + 0.05


def test_quadrature_tail_guard(merton_model):
    tight = gauss_legendre_panels(1.0, n_panels=4, nodes_per_panel=6)
    wide_phi = [("flat", lambda x: 1.0 / (1.0 + 0.01 * x**2))]
    with pytest.raises(QuadratureError):
        norm_ratio(merton_model, WeightFunction(1.2), wide_phi, 0.0, [0.5],
                   tight, 5_000, seed=11)


def test_paths_per_node_guard(merton_model, quad):
    with pytest.raises(ValueError):
        norm_ratio(merton_model, RHO4, shipped_phi_family(), 0.0, [0.5], quad,
                   100, seed=12)


def test_dropped_horizon_fails_before_simulating(merton_model, quad, monkeypatch):
    # 0.0001 and 1.0 need 10 000 steps; halving to 2 500 steps loses 0.0001,
    # which must be reported before any path is simulated.  1/4001 needs an
    # odd 4 001 steps, which no halving brings under the cap
    import pidesolve.normcheck as normcheck_mod
    from pidesolve.errors import GridError

    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before checking the horizons")

    monkeypatch.setattr(normcheck_mod, "simulate_paths", no_simulation)
    with pytest.raises(GridError, match=r"horizon 0\.0001 .*4000 steps"):
        norm_ratio(merton_model, RHO4, shipped_phi_family(), 0.0, [0.0001, 1.0],
                   quad, 2_000, seed=13)
    with pytest.raises(GridError, match="4001 steps .*cap of 4000"):
        norm_ratio(merton_model, RHO4, shipped_phi_family(), 0.0, [1 / 4001, 1.0],
                   quad, 2_000, seed=13)
