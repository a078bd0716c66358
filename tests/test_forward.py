import dataclasses
import math
import threading
import warnings

import numpy as np
import pytest

from pidesolve.config import validate_config
from pidesolve.errors import GridError, NumericError
from pidesolve.forward import (TimeGrid, check_flow_property, dump_paths_binary,
                               dump_paths_csv, load_paths_binary, moment_report,
                               simulate_paths, tangent_flow)
from pidesolve.model import (JumpMeasure, ModelSpec, named_model, scalar_model,
                             translation_jump)


def custom_model(params):
    # a custom config model, normalized and built as a run builds it
    return validate_config({"task": "simulate", "seed": 0,
                            "model": {"name": "custom", "params": params}}).build_model()


def test_grid_basics():
    grid = TimeGrid(0.0, 1.0, 4)
    assert grid.dt == 0.25
    assert np.allclose(grid.nodes, [0, 0.25, 0.5, 0.75, 1.0])
    assert grid.node_index(0.5) == 2
    with pytest.raises(GridError):
        grid.node_index(0.3)
    with pytest.raises(ValueError):
        TimeGrid(0.0, 0.0, 1)


def test_zero_dynamics_frozen(zero_model):
    b = simulate_paths(zero_model, TimeGrid(0, 1, 10), 1.5, 500, seed=1)
    assert np.all(b.states == 1.5)
    assert b.total_jumps_per_path().sum() == 0


def test_start_is_exact(toy_model):
    b = simulate_paths(toy_model, TimeGrid(0, 1, 5), 0.7, 200, seed=2)
    assert np.all(b.states[0] == 0.7)


def test_brownian_increment_moments(small_heat_bundle):
    dw = small_heat_bundle.brownian
    dt = small_heat_bundle.grid.dt
    m = dw.shape[1]
    # mean and variance consistent with N(0, dt) at 4 sigma per step
    se_mean = math.sqrt(dt / m)
    se_var = dt * math.sqrt(2.0 / m)
    assert np.abs(dw.mean(axis=(1, 2))).max() < 4 * se_mean
    assert np.abs(dw.var(axis=(1, 2)) - dt).max() < 4 * se_var


def test_terminal_variance_heat(heat_model):
    b = simulate_paths(heat_model, TimeGrid(0, 1, 50), 0.0, 100_000, seed=3)
    # variance of X_T - x0 is 1 within the chi-square band
    assert b.states[-1].var() == pytest.approx(1.0, abs=0.02)


def test_jump_counts_poisson():
    model = named_model("toy-uniform", intensity=2.0)
    b = simulate_paths(model, TimeGrid(0, 1, 20), 0.0, 100_000, seed=4)
    mean_jumps = b.total_jumps_per_path().mean()
    assert mean_jumps == pytest.approx(2.0, abs=0.02)
    # per-step counts Poisson(lam dt)-consistent at 4 sigma
    lam_dt = 2.0 * b.grid.dt
    per_step = b.jump_counts.mean(axis=1)
    se = math.sqrt(lam_dt / b.n_paths)
    assert np.abs(per_step - lam_dt).max() < 4.5 * se


def test_bundle_stores_no_step_by_path_array(merton_model):
    # the states and Brownian increments are the bundle's only path arrays;
    # the per-step jump counts are counted from the jump lists when read
    b = simulate_paths(merton_model, TimeGrid(0, 1, 25), 0.0, 20_000, seed=3)
    arrays = {name: v for name, v in vars(b).items() if isinstance(v, np.ndarray)}
    assert sorted(arrays) == ["brownian", "states"]
    assert sum(v.nbytes for v in arrays.values()) == b.states.nbytes + b.brownian.nbytes
    assert b.total_jumps_per_path().sum() == b.jump_counts.sum() > 0


def test_determinism_bit_identical(toy_model):
    before = set(threading.enumerate())
    a = simulate_paths(toy_model, TimeGrid(0, 1, 10), 0.0, 2000, seed=7)
    assert set(threading.enumerate()) == before
    b = simulate_paths(toy_model, TimeGrid(0, 1, 10), 0.0, 2000, seed=7)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.brownian, b.brownian)
    assert all(np.array_equal(x, y) for x, y in zip(a.jump_marks, b.jump_marks))
    c = simulate_paths(toy_model, TimeGrid(0, 1, 10), 0.0, 2000, seed=8)
    assert not np.array_equal(a.states, c.states)



@pytest.mark.parametrize("seed", [-1, 2**64, 7 + 2**64], ids=["negative", "2^64", "7+2^64"])
def test_seed_outside_the_stream_key_rejected(toy_model, seed):
    # the per-step streams key on 64 bits: a seed outside [0, 2^64) would run
    # as another seed (7 + 2^64 as 7, -1 as 2^64 - 1)
    with pytest.raises(ValueError, match="seed"):
        simulate_paths(toy_model, TimeGrid(0, 1, 2), 0.0, 10, seed=seed)
    last = simulate_paths(toy_model, TimeGrid(0, 1, 2), 0.0, 10, seed=2**64 - 1)
    assert np.isfinite(last.states).all()


@pytest.mark.parametrize("key_offset", [-1, 2**64, 2**64 - 2],
                         ids=["negative", "2^64", "last-key+1"])
def test_key_offset_outside_the_stream_key_rejected(toy_model, key_offset):
    # step k draws from the stream keyed key_offset + k, k < n_steps: an
    # offset whose keys leave [0, 2^64) would run as another offset (2^64 as
    # 0, -1 as 2^64 - 1)
    with pytest.raises(ValueError, match="key_offset"):
        simulate_paths(toy_model, TimeGrid(0, 1, 3), 0.0, 10, seed=7, key_offset=key_offset)
    last = simulate_paths(toy_model, TimeGrid(0, 1, 3), 0.0, 10, seed=7, key_offset=2**64 - 3)
    assert np.isfinite(last.states).all()


def test_many_jumps_per_step_group_by_count():
    # lambda * dt = 3: the paths of one step fall into many count groups,
    # with gaps among the counts, and every group is simulated in its turn
    m = scalar_model(drift=lambda x: 0.1 * x, diffusion=lambda x: 0.2 + 0 * x,
                     jump=translation_jump, jump_measure=JumpMeasure.uniform(-0.1, 0.1, 30.0))
    grid = TimeGrid(0.0, 1.0, 10)
    a = simulate_paths(m, grid, 1.0, 300, seed=21)
    b = simulate_paths(m, grid, 1.0, 300, seed=21)
    assert any(0 in np.bincount(c)[:c.max()] for c in a.jump_counts)
    assert np.array_equal(a.states, b.states)
    assert np.array_equal(a.brownian, b.brownian)
    for k, counts in enumerate(a.jump_counts):
        n_k = int(counts.sum())
        assert a.jump_paths[k].size == a.jump_marks[k].size == n_k
        assert np.array_equal(a.jump_paths[k], np.repeat(np.arange(300), counts))
        assert np.array_equal(a.jump_marks[k], b.jump_marks[k])


def test_compensated_increments_martingale(toy_model):
    gammas = (lambda e: np.ones_like(e), lambda e: e)
    b = simulate_paths(toy_model, TimeGrid(0, 1, 10), 0.0, 50_000, seed=9)
    dmu = b.compensated_increments(gammas, toy_model.jump_measure)
    assert dmu.shape == (2, 10, 50_000)
    for inc in dmu:
        se = inc.std(ddof=1) / math.sqrt(inc.size)
        assert abs(inc.mean()) < 4 * se


def test_path_count_scaling(heat_model):
    # standard error of the terminal mean shrinks like m^{-1/2}
    grid = TimeGrid(0, 1, 10)
    b1 = simulate_paths(heat_model, grid, 0.0, 20_000, seed=10)
    b2 = simulate_paths(heat_model, grid, 0.0, 40_000, seed=10)
    se1 = b1.states[-1].std(ddof=1) / math.sqrt(b1.n_paths)
    se2 = b2.states[-1].std(ddof=1) / math.sqrt(b2.n_paths)
    assert se2 / se1 == pytest.approx(1 / math.sqrt(2), rel=0.05)


def test_flow_composition_zero_model(zero_model):
    assert check_flow_property(zero_model, 0.0, 0.5, 1.0, 0.3, 100, seed=1,
                               n_steps=10) == 0.0


def test_flow_composition_deterministic_drift():
    m = scalar_model(drift=lambda x: np.ones_like(x), diffusion=lambda x: 0 * x)
    gap = check_flow_property(m, 0.0, 0.5, 1.0, 0.0, 50, seed=2, n_steps=10)
    assert gap == 0.0
    b = simulate_paths(m, TimeGrid(0, 1, 10), 0.0, 10, seed=3)
    assert np.allclose(b.states[-1], 1.0)


def test_flow_composition_merton(merton_model):
    gap = check_flow_property(merton_model, 0.0, 0.5, 1.0, math.log(100.0),
                              2000, seed=5, n_steps=20)
    assert gap < 1e-12


def test_flow_requires_common_node(toy_model):
    with pytest.raises(GridError):
        check_flow_property(toy_model, 0.0, 0.33, 1.0, 0.0, 10, seed=1, n_steps=10)


def test_moment_report_zero_model(zero_model):
    b = simulate_paths(zero_model, TimeGrid(0, 1, 10), 2.0, 100, seed=1)
    rep = moment_report(b, 2.0, 2)
    assert rep.ratio == 0.0


def test_moment_report_heat_oracle(heat_model):
    # independent oracle: brute-force cumulative-sum Brownian paths
    n_steps, m_oracle = 50, 400_000
    rng = np.random.default_rng(123)
    w = np.cumsum(rng.standard_normal((m_oracle, n_steps)) * math.sqrt(1.0 / n_steps), axis=1)
    sup2 = np.max(np.abs(w), axis=1) ** 2
    oracle = sup2.mean()
    oracle_se = sup2.std(ddof=1) / math.sqrt(m_oracle)

    b = simulate_paths(heat_model, TimeGrid(0, 1, n_steps), 0.0, 50_000, seed=11)
    rep = moment_report(b, 0.0, 2)
    assert abs(rep.ratio - oracle) < 4 * math.sqrt(rep.stderr**2 + oracle_se**2)
    # reflection-principle series for the continuous-time supremum; the grid
    # value sits below it but within the coarse bracket
    continuous = 1.8319
    assert rep.ratio < continuous
    assert continuous - rep.ratio < 0.25


def test_moment_report_chunked_bootstrap_matches_one_shot(toy_model):
    # the bootstrap draws its 200 resamples in chunks of 16, the last one
    # partial (200 = 12 * 16 + 8); at a size where one (200, m) draw is
    # cheap, both give the same ratio and stderr bit for bit
    b = simulate_paths(toy_model, TimeGrid(0, 1, 10), 0.3, 257, seed=14)
    n_boot, p, boot_seed = 200, 3, 0
    rep = moment_report(b, 0.3, p)

    sup_p = np.linalg.norm(b.states - 0.3, axis=2).max(axis=0) ** p
    denom = 1.0 * (1.0 + np.linalg.norm([0.3]) ** p)
    rng = np.random.Generator(np.random.Philox(
        key=np.array([boot_seed, 0xB0507], dtype=np.uint64)))
    boots = sup_p[rng.integers(0, sup_p.size, size=(n_boot, sup_p.size))].mean(axis=1) / denom
    assert rep.ratio == float(sup_p.mean() / denom)
    assert rep.stderr == float(boots.std(ddof=1))


def test_moment_report_monotone_denominator(heat_model):
    grid = TimeGrid(0, 1, 25)
    b0 = simulate_paths(heat_model, grid, 0.0, 30_000, seed=12)
    b10 = simulate_paths(heat_model, grid, 10.0, 30_000, seed=12)
    r0 = moment_report(b0, 0.0, 2).ratio
    r10 = moment_report(b10, 10.0, 2).ratio
    assert r10 <= r0


def test_tangent_flow_zero_model(zero_model):
    rep = tangent_flow(zero_model, TimeGrid(0, 1, 10), 0.0, 50, seed=1)
    assert rep.mean_det == pytest.approx(1.0, abs=1e-14)
    assert np.all(rep.determinants == 1.0)


def test_tangent_flow_linear_ode():
    m = scalar_model(drift=lambda x: -x, diffusion=lambda x: 0 * x)
    rep = tangent_flow(m, TimeGrid(0, 1, 1000), 0.0, 4, seed=2)
    assert abs(rep.mean_det - math.exp(-1.0)) <= 1e-3
    assert rep.stderr == pytest.approx(0.0, abs=1e-12)


def test_tangent_flow_small_time_scaling():
    # |E det - 1| = O(sqrt(horizon)) for a model with state-dependent coefficients
    m = scalar_model(
        drift=lambda x: -0.3 * x,
        diffusion=lambda x: 0.2 * (1.0 + 0.3 * np.sin(x)),
        jump=lambda x, e: 0.1 * np.tanh(x) * np.minimum(1.0, np.abs(e)),
        jump_measure=JumpMeasure.uniform(-1, 1, 1.0),
    )
    ratios = []
    for delta in (1e-3, 3e-3, 1e-2, 3e-2, 1e-1):
        rep = tangent_flow(m, TimeGrid(0.0, delta, 20), 0.5, 4000, seed=3)
        ratios.append(abs(rep.mean_det - 1.0) / math.sqrt(delta))
    ratios = np.array(ratios)
    assert np.all(np.isfinite(ratios))
    # fitted scale from the coarse horizons bounds the finest ones
    k_hat = ratios[2:].max()
    assert np.all(ratios <= 2 * k_hat + 1e-6)


def test_tangent_flow_linear_2d():
    # Euler on a linear drift with constant diffusion is the affine map
    # x -> (I + A dt) x + noise, so every path's flow Jacobian is (I + A dt)^n
    a = np.array([[-0.4, 0.3], [0.2, -0.1]])
    sig = np.array([[0.3, 0.0], [0.1, 0.2]])
    m = ModelSpec(dim=2, drift=lambda x: x @ a.T,
                  diffusion=lambda x: np.broadcast_to(sig, x.shape[:-1] + (2, 2)))
    grid = TimeGrid(0.0, 1.0, 50)
    rep = tangent_flow(m, grid, np.array([0.5, -1.0]), 200, seed=4)
    expected = np.linalg.det(np.linalg.matrix_power(np.eye(2) + a * grid.dt, 50))
    assert rep.determinants.shape == (200,)
    assert np.max(np.abs(rep.determinants - expected)) <= 1e-9
    assert rep.mean_det == pytest.approx(expected, abs=1e-9)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_state_reported():
    m = scalar_model(drift=lambda x: x**3 * 1e12, diffusion=lambda x: 0 * x)
    with pytest.raises(NumericError):
        simulate_paths(m, TimeGrid(0, 1, 60), 2.0, 4, seed=1)


def test_no_jump_reduction_bit_for_bit(heat_model):
    # the simulator with an inactive measure must match a plain independent
    # Euler loop drawing from the same per-step streams
    grid = TimeGrid(0, 1, 8)
    m = 300
    b = simulate_paths(heat_model, grid, 0.25, m, seed=21)

    x = np.full((m, 1), 0.25)
    states = [x.copy()]
    for k in range(grid.n_steps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([21, k], dtype=np.uint64)))
        xi = rng.standard_normal((m, 1))
        dw = np.sqrt(np.full((m, 1), grid.dt)) * xi
        bdrift = np.asarray(heat_model.drift(x)) - heat_model.compensator_drift(x)
        sig = np.asarray(heat_model.diffusion(x))
        x = x + bdrift * np.full((m, 1), grid.dt) + np.einsum("gij,gj->gi", sig, dw)
        states.append(x.copy())
    assert np.array_equal(b.states, np.stack(states))


def _per_path_reference(model, grid, x0, m, seed, key_offset=0):
    # redraw each step's stream in the documented order (counts, offsets,
    # marks, path-major normals) and walk every path alone through its
    # time-sorted jumps and the diffusion segments between them
    d, dt = model.dim, grid.dt
    lam = model.jump_measure.total_intensity
    x = np.broadcast_to(np.asarray(x0, dtype=float), (m, d)).copy()
    states, brownian, counts_all, paths, marks = [x.copy()], [], [], [], []
    for k in range(grid.n_steps):
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, k + key_offset], dtype=np.uint64)))
        counts = rng.poisson(lam * dt, m)
        total = int(counts.sum())
        offs, mk = np.empty(0), np.empty(0)
        if total:
            offs = rng.random(total) * dt
            mk = np.asarray(model.jump_measure.mark_sampler(rng, total), dtype=float)
        normals = rng.standard_normal((m + total, d))
        dw_k = np.zeros((m, d))
        e_k = []
        first = 0
        for p in range(m):
            c = int(counts[p])
            order = np.argsort(offs[first:first + c], kind="stable")
            t_p, e_p = offs[first:first + c][order], mk[first:first + c][order]
            bounds = np.concatenate(([0.0], t_p, [dt]))
            cur = x[p:p + 1]
            for s in range(c + 1):
                tau = np.full((1, 1), max(bounds[s + 1] - bounds[s], 0.0))
                dw = np.sqrt(tau) * normals[p + first + s][None, :]
                bdrift = np.asarray(model.drift(cur)) - model.compensator_drift(cur)
                sig = np.asarray(model.diffusion(cur))
                cur = cur + bdrift * tau + np.einsum("gij,gj->gi", sig, dw)
                dw_k[p] += dw[0]
                if s < c:
                    cur = cur + np.asarray(model.jump_coeff(cur, e_p[s:s + 1]))
            x[p] = cur[0]
            e_k.append(e_p)
            first += c
        states.append(x.copy())
        brownian.append(dw_k)
        counts_all.append(counts)
        paths.append(np.repeat(np.arange(m), counts))
        marks.append(np.concatenate(e_k))
    return np.stack(states), np.stack(brownian), np.stack(counts_all), paths, marks


def _diffusion_2d(x):
    sig = np.zeros(x.shape[:-1] + (2, 2))
    sig[..., 0, 0] = 0.2 + 0.05 * np.sin(x[..., 0])
    sig[..., 0, 1] = 0.05 * np.cos(x[..., 1])
    sig[..., 1, 0] = 0.03 * x[..., 0] / (1.0 + x[..., 0] ** 2)
    sig[..., 1, 1] = 0.15 + 0.02 * np.tanh(x[..., 1])
    return sig


@pytest.mark.parametrize("case", ["sparse", "dense", "2d", "one-step", "offset"])
def test_jumped_paths_match_per_path_reference(case):
    key_offset = 0
    if case == "2d":
        model = ModelSpec(
            dim=2, drift=lambda x: -0.3 * x + 0.1 * x[..., ::-1],
            diffusion=_diffusion_2d,
            jump_coeff=lambda x, e: 0.1 * x * e[..., None],
            jump_measure=JumpMeasure.gaussian(0.1, 0.5, 12.0))
        x0, m, n_steps, seed = np.array([0.4, -0.7]), 40, 6, 51
    else:
        # lambda * dt = 0.01 leaves whole steps without a jump; 4.0 makes
        # every path jump in a step, with counts of 4 and more; the helper
        # thread draws the streams keyed k + key_offset, for one step as for
        # many
        intensity = {"sparse": 0.06, "dense": 24.0, "one-step": 2.0, "offset": 6.0}[case]
        model = scalar_model(drift=lambda x: 0.2 - 0.5 * x,
                             diffusion=lambda x: 0.3 * (1.0 + 0.5 * np.sin(x)),
                             jump=lambda x, e: 0.1 * x * e,
                             jump_measure=JumpMeasure.uniform(-1.0, 1.0, intensity))
        x0, m, seed = 0.8, {"sparse": 60, "dense": 30}.get(case, 50), 52
        n_steps = {"one-step": 1, "offset": 4}.get(case, 6)
        key_offset = 9 if case == "offset" else 0
    grid = TimeGrid(0.0, 1.0, n_steps)
    b = simulate_paths(model, grid, x0, m, seed=seed, key_offset=key_offset)
    states, brownian, counts, paths, marks = _per_path_reference(
        model, grid, x0, m, seed, key_offset)

    totals = counts.sum(axis=1)
    if case == "sparse":
        assert (totals == 0).any() and (totals > 0).any()
    elif case == "dense":
        assert (counts > 0).all(axis=1).any() and counts.max() >= 4
    else:
        assert (counts == 0).any() and counts.max() >= 2
    assert b.jump_counts.dtype == np.int64
    assert np.array_equal(b.jump_counts, counts)
    assert np.array_equal(b.total_jumps_per_path(), counts.sum(axis=0))
    assert np.array_equal(b.states, states)
    assert np.array_equal(b.brownian, brownian)
    for k in range(n_steps):
        assert np.array_equal(b.jump_paths[k], paths[k])
        assert np.array_equal(b.jump_marks[k], marks[k])


def _recording_model(m, drift_value, sampler):
    # every step has jumps; the drift records the thread of each call and
    # counts its calls over all m paths, which each step makes exactly once
    # (its first segment), so the count is the number of steps advanced
    calls = {"full": 0, "threads": set()}

    def drift(x):
        calls["threads"].add(threading.get_ident())
        if x.shape[0] == m:
            calls["full"] += 1
        return np.full_like(x, drift_value(calls["full"] - 1))

    measure = JumpMeasure(50.0, sampler, np.array([0.0]), np.array([50.0]))
    model = scalar_model(drift=drift, diffusion=lambda x: np.full_like(x, 0.2),
                         jump=translation_jump, jump_measure=measure)
    return model, calls


def test_draw_error_surfaces_at_its_step():
    # a mark sampler that fails on the helper thread at step 7 of 10: the
    # caller gets that exception after advancing steps 0..6, the coefficients
    # ran on the calling thread only, and no thread is left behind
    before = set(threading.enumerate())
    sampled = []

    def sampler(rng, n):
        sampled.append(threading.get_ident())
        if len(sampled) == 8:
            raise LookupError("mark sampler failed")
        return rng.uniform(-0.05, 0.05, n)

    model, calls = _recording_model(40, lambda k: 0.1, sampler)
    with pytest.raises(LookupError, match="mark sampler failed"):
        simulate_paths(model, TimeGrid(0.0, 1.0, 10), 0.0, 40, seed=61)
    assert calls["full"] == 7
    assert calls["threads"] == {threading.get_ident()}
    assert threading.get_ident() not in sampled
    assert set(threading.enumerate()) == before


def test_nonfinite_state_stops_draws_in_flight():
    # the drift turns infinite at step 3 only once the helper has drawn the
    # two steps after it; NumericError names step 4's state, the helper draws
    # no further and is joined before the error reaches the caller
    before = set(threading.enumerate())
    sampled = []
    ahead = threading.Event()

    def sampler(rng, n):
        sampled.append(n)
        if len(sampled) == 6:
            ahead.set()
        return rng.uniform(-0.05, 0.05, n)

    def drift_value(k):
        if k == 3:
            assert ahead.wait(timeout=30)
            return np.inf
        return 0.1

    model, calls = _recording_model(40, drift_value, sampler)
    with pytest.raises(NumericError, match="step 4"):
        simulate_paths(model, TimeGrid(0.0, 1.0, 10), 0.0, 40, seed=62)
    assert calls["full"] == 4
    assert len(sampled) == 6
    assert set(threading.enumerate()) == before


def test_draws_run_under_the_callers_error_state():
    # the draw thread takes the caller's NumPy error state: an invalid
    # operation in a mark sampler raises under "raise", as it would on the
    # calling thread, and passes silently under "ignore"
    def sampler(rng, n):
        return np.sqrt(rng.uniform(-1.0, 1.0, n))

    model, _ = _recording_model(40, lambda k: 0.1, sampler)
    with np.errstate(invalid="raise"):
        with pytest.raises(FloatingPointError):
            simulate_paths(model, TimeGrid(0.0, 1.0, 10), 0.0, 40, seed=63)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="step 1"):
            simulate_paths(model, TimeGrid(0.0, 1.0, 10), 0.0, 40, seed=63)


def test_dumps_roundtrip(tmp_path, toy_model):
    b = simulate_paths(toy_model, TimeGrid(0, 1, 4), 0.0, 20, seed=30)
    csv_path = tmp_path / "paths.csv"
    dump_paths_csv(b, csv_path)
    header = csv_path.read_text().splitlines()[0]
    assert header == "path,step,time,x0,n_jumps"
    assert len(csv_path.read_text().splitlines()) == 1 + 20 * 5

    bin_path = tmp_path / "paths.bin"
    dump_paths_binary(b, bin_path)
    assert bin_path.read_bytes()[:5] == b"PIDE1"
    times, states = load_paths_binary(bin_path)
    assert np.array_equal(times, b.grid.nodes)
    assert np.array_equal(states, b.states)


def test_dispersed_starts(toy_model):
    rng = np.random.default_rng(0)
    x0 = rng.uniform(-1, 1, size=(500, 1))
    b = simulate_paths(toy_model, TimeGrid(0, 1, 5), x0, 500, seed=31)
    assert np.array_equal(b.states[0], x0)


def test_kou_preset_risk_neutral():
    # two-point jump preset in log space: discounted price is a martingale
    m = named_model("kou", r=0.05, sigma=0.2, intensity=1.5, down=-0.15,
                    up=0.1, p_up=0.4)
    b = simulate_paths(m, TimeGrid(0, 1, 40), math.log(100.0), 100_000, seed=33)
    s_t = np.exp(b.states[-1][:, 0])
    disc = s_t.mean() * math.exp(-0.05)
    se = s_t.std(ddof=1) / math.sqrt(s_t.size) * math.exp(-0.05)
    assert abs(disc - 100.0) < 4 * se


@pytest.mark.parametrize("model, x0", [
    (named_model("merton"), math.log(100.0)),
    (named_model("kou"), math.log(100.0)),
    (named_model("toy-uniform"), 0.0),
    (custom_model({"jump": "translation",
                   "measure": {"kind": "two-point", "down": -0.2, "up": 0.1,
                               "p_up": 0.25, "intensity": 2.0}}), 0.5),
], ids=["merton", "kou", "toy-uniform", "custom"])
def test_constant_compensator_keeps_paths_bitwise(model, x0):
    # the same jump map behind another callable falls back to the quadrature
    # loop; the constant compensator must give the same paths bit for bit
    looped = dataclasses.replace(model, jump_coeff=lambda x, e: model.jump_coeff(x, e))
    assert model._compensator is not None and looped._compensator is None
    grid = TimeGrid(0.0, 1.0, 10)
    fast = simulate_paths(model, grid, x0, 3000, seed=17)
    slow = simulate_paths(looped, grid, x0, 3000, seed=17)
    assert fast.total_jumps_per_path().sum() > 0
    assert np.array_equal(fast.states, slow.states)
