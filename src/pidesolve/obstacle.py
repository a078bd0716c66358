"""Reflected problem via penalization.

Runs the backward solver with the penalty driver f + n (y - h)^- along an
increasing schedule of levels, extracts the nondecreasing compensation
process from the penalty terms, estimates the reflection measure as a
space-time histogram of n (u_n - h)^-, and provides the flat-off
(Skorokhod) and support diagnostics.  A direct-reflection solve on the same
paths serves as a cross-check where no exact solution exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bsde import (BsdeSolution, _backward_pass, _eval_points, _evaluate_u, _solution,
                   default_clamp_bound, solve_bsde)
from .errors import NoConvergenceError
from .model import WeightFunction, time_weights, trapezoid_weights

__all__ = [
    "ReflectedSolution",
    "ReflectionMeasureEstimate",
    "SkorokhodReport",
    "SupportReport",
    "default_schedule",
    "solve_penalized",
    "solve_reflected",
    "skorokhod_gap",
    "estimate_reflection_measure",
    "support_check",
    "penalty_increments",
    "penalty_norm",
]


def default_schedule(max_exponent=12):
    """Geometric penalty schedule 1, 2, 4, ..., 2^max_exponent."""
    return tuple(2**k for k in range(max_exponent + 1))


def solve_penalized(model, driver, terminal, obstacle, paths, basis, level,
                    picard_iters=3, clamp=None):
    """One penalized solve: driver plus level * (y - h(t, x))^-.

    ``level`` = 0 reproduces the unpenalized solve exactly.  The penalty is
    resolved in closed form inside the backward step, so arbitrarily large
    levels stay stable.
    """
    return solve_bsde(model, driver, terminal, paths, basis, picard_iters=picard_iters,
                      clamp=clamp, penalty_level=level, obstacle=obstacle)


def penalty_increments(sol, obstacle_values):
    """Per path and step compensation increments n (Y_k - L_k)^- dt, (N, M)."""
    return _increments(sol.penalty_level, sol.grid.dt, obstacle_values[:-1], sol.y[:-1])


def _increments(level, dt, h, y):
    # n (y - h)^- dt elementwise, for whole paths or one step
    if level <= 0:
        return np.zeros(np.shape(y))
    dk = np.subtract(h, y)
    np.maximum(dk, 0.0, out=dk)
    dk *= level
    dk *= dt
    return dk


def obstacle_along_paths(obstacle, paths):
    """Obstacle values h(t_k, X_k) along a bundle's (or solution's) paths, (N+1, M)."""
    times = paths.grid.nodes
    return np.stack([np.asarray(obstacle(times[k], paths.states[k]), float)
                     for k in range(paths.grid.n_steps + 1)])


def _u_field(sol, points, hfield):
    """Fitted u on (times x eval grid), terminal slice included; ``points``
    holds the grid and its design (``_eval_points``), ``hfield`` h there."""
    return np.stack([_evaluate_u(sol, k, *points, hfield[k]) for k in range(sol.n_steps + 1)])


def penalty_norm(u_field, h_field, weight, eval_x, dt, cover=None):
    """Weighted space-time L2 norm of (u - h)^- on the evaluation grid.

    ``cover`` masks (time, x) samples to the region the paths actually
    visit; the fitted field is not an estimate outside it.
    """
    neg = np.maximum(h_field - u_field, 0.0)
    if cover is not None:
        neg = neg * cover
    rho = weight(np.asarray(eval_x, float)[:, None])
    wx = trapezoid_weights(np.asarray(eval_x, float))
    space = np.sum(neg**2 * rho * wx, axis=1)
    return float(math.sqrt(np.sum(space * time_weights(space.size - 1, dt))))


def coverage_mask(states, eval_x, quantiles=(0.005, 0.995), margin=None):
    """Boolean (n_steps+1, n_eval): which grid points the cloud covers per time.

    Uses per-time quantiles of the path cloud so that one stray path does
    not declare a region estimable.
    """
    eval_x = np.asarray(eval_x, float)
    if margin is None:
        margin = 2.0 * (eval_x[-1] - eval_x[0]) / max(eval_x.size - 1, 1)
    lo, hi = np.quantile(states[:, :, 0], quantiles, axis=1)
    lo -= margin
    hi += margin
    return (eval_x[None, :] >= lo[:, None]) & (eval_x[None, :] <= hi[:, None])


@dataclass
class ReflectedSolution:
    """Penalized-limit solution with convergence trace and cross-checks.

    ``solution`` is the final penalized level; ``k_increments`` its
    compensation increments (N, M); ``level_fields`` the fitted u of every
    level and ``obstacle_field`` the obstacle h, both on (times x eval_x).
    ``direct`` is the direct-reflection solve on the same paths and
    ``direct_gap`` the weighted L2 distance between the two u fields (the
    mutual-validation diagnostic).
    """

    solution: BsdeSolution
    obstacle_values: np.ndarray
    k_increments: np.ndarray
    eval_x: np.ndarray
    cover: np.ndarray
    levels: tuple
    level_fields: list
    obstacle_field: np.ndarray
    trace: list
    converged: bool
    direct: BsdeSolution
    direct_gap: float
    direct_gap_rel: float
    weight: object

    @property
    def final_level(self):
        return self.levels[-1]

    def u0(self):
        return self.solution.u0()

    def k_terminal(self):
        """Total compensation per path, K_T, exactly the sum of increments."""
        return self.k_increments.sum(axis=0)


@dataclass(frozen=True)
class SkorokhodReport:
    raw: float
    normalized: float


def skorokhod_gap(sol, obstacle_values, k_increments):
    """Discrete flat-off defect of a penalized solution.

    Averages sum_k |Y_k - L_k| dK_k over paths: the magnitude of the signed
    flat-off integral of the penalized pair, which the penalization drives
    to zero.  (Pairing dK with the positive part at the same step is zero by
    construction, since the penalty acts only below the obstacle.)  The
    headline diagnostic is the defect normalized by mean K_T times the
    largest |Y - L|.  ``obstacle_values`` are L along the paths (N+1, M) and
    ``k_increments`` the increments dK (N, M).  The sums run backward in
    time, as in the backward pass of ``solve_reflected``.
    """
    defect = _FlatOffDefect(sol.y[-1], obstacle_values[-1])
    for k in range(sol.n_steps - 1, -1, -1):
        defect.add(sol.y[k], obstacle_values[k], k_increments[k])
    return defect.report()


class _FlatOffDefect:
    """Running flat-off defect, fed one step at a time: per-path sums of
    |Y_k - L_k| dK_k and of dK_k, and the running max of |Y_k - L_k|."""

    def __init__(self, y_terminal, h_terminal):
        self.raw = np.zeros(np.shape(y_terminal))
        self.k_total = np.zeros(np.shape(y_terminal))
        self.sup_gap = float(np.abs(y_terminal - h_terminal).max())

    def add(self, y, h, dk):
        gap = np.subtract(h, y)  # |h - y| is |y - h| exactly
        np.abs(gap, out=gap)
        self.sup_gap = max(self.sup_gap, float(gap.max()))
        gap *= dk
        self.raw += gap
        self.k_total += dk

    def report(self):
        raw = float(np.mean(self.raw))
        denom = float(np.mean(self.k_total)) * self.sup_gap
        return SkorokhodReport(raw=raw, normalized=raw / denom if denom > 0 else 0.0)


def solve_reflected(model, driver, terminal, obstacle, paths, basis,
                    schedule=None, tol=1e-3, eval_x=None, weight=None,
                    picard_iters=3, clamp=None, strict=False):
    """Penalization scheme along an increasing schedule of levels.

    Stops when the weighted space-time norm of (u_n - h)^- falls below
    ``tol`` or the schedule is exhausted; the trace records per level the
    penalty norm, flat-off defect and the value at the initial time, and
    after the first level ``min_step_up``, the least u_n - u_{n-1} on the
    path-covered evaluation grid.  Also runs the direct-reflection
    cross-check (y <- max(y, h) inside the backward loop) on the same paths
    and reports the gap between the two u fields.  With ``strict`` the
    exhausted schedule raises; otherwise the result is returned flagged.

    The schedule runs in chunks of levels, each chunk one backward pass
    that builds each step's regression setup once for all its levels (see
    ``_chunk_end``); the first chunk, the first level, also runs the direct
    solve.  A level after the one that meets ``tol`` cannot change the
    result or raise; if a chunk runs past the level that meets it, that
    level is solved once more alone for its path arrays.

    Without ``clamp``, one a-priori bound (``default_clamp_bound`` with the
    obstacle) serves every level and the direct solve.  A schedule that
    starts at level 0 thus clamps that level with the obstacle-inclusive
    bound, which is never tighter than the bound of a plain solve.
    """
    schedule = tuple(schedule) if schedule is not None else default_schedule()
    if not schedule or any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError("schedule must be nonempty and increasing")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if weight is None:
        weight = WeightFunction(obstacle.kappa + model.dim + 1)
    if eval_x is None:
        lo, hi = float(basis.lo[0]), float(basis.hi[0])
        eval_x = np.linspace(lo, hi, 101)
    eval_x = np.asarray(eval_x, float)

    # compatibility of the data: the obstacle may not exceed the terminal
    # condition at the horizon, else the limit problem is ill-posed
    n, dt = paths.grid.n_steps, paths.grid.dt
    g_T = np.asarray(terminal(paths.states[-1]), float)
    lvals = obstacle_along_paths(obstacle, paths)
    bad = float(np.mean(lvals[n] > g_T + 1e-9 * (1 + np.abs(g_T))))
    if bad > 0.001:
        raise ValueError(
            f"obstacle exceeds the terminal condition at the horizon on "
            f"{bad:.1%} of the cloud; reflected problems require h(T, .) <= g")
    if clamp is None:
        clamp = default_clamp_bound(driver, terminal, paths, obstacle)

    # the evaluation grid is checked against the box and featurized once
    points = _eval_points(basis, paths.dim, eval_x[:, None])
    cover = coverage_mask(paths.states, eval_x)
    hfield = np.stack([np.asarray(obstacle(paths.grid.nodes[k], eval_x[:, None]), float)
                       for k in range(n + 1)])
    rho = weight(eval_x[:, None])
    wx = trapezoid_weights(eval_x)
    wt = time_weights(n, dt)

    def weighted_sum(field):
        # space-time trapezoid with the weight over the (times x eval_x) grid
        return float(np.sum(wt[:, None] * field * rho[None, :] * wx[None, :]))

    levels = []
    fields = []
    trace = []
    converged = False
    direct = sol = None
    start = 0
    while start < len(schedule) and not converged:
        # one backward pass per chunk; per level it keeps coefficients, u0
        # and a running flat-off defect, and path arrays only for the
        # chunk's last level and the direct solve.  The last level fills the
        # path arrays of the previous chunk's: fresh ones would add to the
        # peak memory what the freed ones leave fragmented
        chunk = schedule[start:_chunk_end(schedule, start, trace, tol)]
        defects = [_FlatOffDefect(g_T, lvals[n]) for _ in chunk]
        u0s = [None] * len(chunk)

        def observe(k, i, y):
            # called per level from the thread that stepped it (the direct
            # solve, variant len(chunk), keeps no trace)
            if i < len(chunk):
                defects[i].add(y, lvals[k], _increments(chunk[i], dt, lvals[k], y))
                if k == 0:
                    u0s[i] = float(y.mean())

        keep = True if sol is None else (sol.y, sol.z, sol.vbar)
        variants = [(level, False, i == len(chunk) - 1 and keep)
                    for i, level in enumerate(chunk)]
        if direct is None:
            variants.append((0.0, True, True))
        sol = None
        runs = _backward_pass(model, driver, terminal, paths, basis, variants,
                              picard_iters, clamp, obstacle, observe, lvals)
        if direct is None:
            direct = runs.pop()
        for i, level in enumerate(chunk):
            ufield = _u_field(_solution(runs[i]), points, hfield)
            pnorm = penalty_norm(ufield, hfield, weight, eval_x, dt, cover)
            entry = {"level": level, "penalty_norm": pnorm,
                     "skorokhod": defects[i].report().normalized, "u0": u0s[i]}
            if fields:
                # monotonicity in the level: u_n - u_{n-1} on path-covered samples
                entry["min_step_up"] = float(np.min((ufield - fields[-1])[cover],
                                                    initial=np.inf))
            levels.append(level)
            fields.append(ufield)
            trace.append(entry)
            if pnorm < tol:
                converged = True
                break
        sol = runs[i]
        del runs
        start += len(chunk)
    if not converged and strict:
        raise NoConvergenceError(
            f"penalty norm {trace[-1]['penalty_norm']:.3g} above tol {tol:.3g} "
            f"after level {levels[-1]}", trace=trace)

    direct = _solution(direct)
    if sol.y is None:
        # the chunk ran past the level that met tol: solve it alone for its
        # path arrays
        sol = solve_bsde(model, driver, terminal, paths, basis, picard_iters=picard_iters,
                         clamp=clamp, penalty_level=levels[-1], obstacle=obstacle)
    dk = penalty_increments(sol, lvals)
    dfield = _u_field(direct, points, hfield)
    diff2 = weighted_sum(cover * (fields[-1] - dfield) ** 2)
    base2 = weighted_sum(cover * dfield**2)
    gap = math.sqrt(diff2)
    gap_rel = math.sqrt(diff2 / base2) if base2 > 0 else 0.0

    return ReflectedSolution(
        solution=sol, obstacle_values=lvals,
        k_increments=dk, eval_x=eval_x, cover=cover, levels=tuple(levels),
        level_fields=fields, obstacle_field=hfield, trace=trace,
        converged=converged, direct=direct, direct_gap=gap,
        direct_gap_rel=gap_rel, weight=weight,
    )


def _chunk_end(schedule, start, trace, tol):
    """Where the chunk of levels from ``schedule[start]`` ends.

    The first chunk is the first level alone, and so is the level after 0.
    A later chunk ends at the first level n at which the last level m's
    penalty norm p_m, falling like m p_m / n (the 1/n rate of the
    penalization error), would meet ``tol``.  While the norm falls no
    faster than that, no chunk runs past the level that meets ``tol``.
    """
    if not trace or trace[-1]["level"] == 0:
        return start + 1
    reach = trace[-1]["level"] * trace[-1]["penalty_norm"] / tol
    return next((j + 1 for j in range(start, len(schedule)) if schedule[j] > reach),
                len(schedule))


@dataclass
class ReflectionMeasureEstimate:
    """Space-time histogram of the penalization measure n (u_n - h)^-.

    ``density`` has shape (t_bins, x_bins) and approximates the measure's
    Lebesgue density on each cell; ``pi_total`` is the weighted total mass
    with the weight evaluated at cell centers; ``pi_sequence`` tracks the
    mass over the whole penalty schedule.
    """

    t_edges: np.ndarray
    x_edges: np.ndarray
    density: np.ndarray
    gap_mean: np.ndarray
    pi_total: float
    pi_sequence: tuple
    level: float


def estimate_reflection_measure(reflected, weight=None, t_bins=10, x_bins=20):
    """Histogram the final-level penalty density on (t, x) cells.

    Cell values average n (u_n - h)^- over the evaluation-grid samples that
    fall in the cell; the weighted mass pi_n uses the weight at cell centers
    times cell areas.  The masses of every schedule level are reported so
    their stabilization can be asserted.
    """
    weight = weight if weight is not None else reflected.weight
    sol = reflected.solution
    times = sol.grid.nodes
    x = reflected.eval_x
    t_edges = np.linspace(times[0], times[-1], t_bins + 1)
    x_edges = np.linspace(x[0], x[-1], x_bins + 1)
    hfield = reflected.obstacle_field

    t_idx = np.clip(np.searchsorted(t_edges, times, side="right") - 1, 0, t_bins - 1)
    x_idx = np.clip(np.searchsorted(x_edges, x, side="right") - 1, 0, x_bins - 1)
    flat = (t_idx[:, None] * x_bins + x_idx[None, :]).ravel()
    cover = reflected.cover.astype(float).ravel()
    cnt = np.bincount(flat, weights=cover, minlength=t_bins * x_bins)

    def mass_and_density(ufield, level):
        # only path-covered samples enter the cell averages
        neg = level * np.maximum(hfield - ufield, 0.0) * reflected.cover
        gap = (ufield - hfield) * reflected.cover
        dens = np.bincount(flat, weights=neg.ravel(), minlength=t_bins * x_bins)
        gmean = np.bincount(flat, weights=gap.ravel(), minlength=t_bins * x_bins)
        nz = cnt > 0
        dens[nz] /= cnt[nz]
        gmean[nz] /= cnt[nz]
        dens = dens.reshape(t_bins, x_bins)
        gmean = gmean.reshape(t_bins, x_bins)
        return dens, gmean, float(np.sum(_cell_masses(dens, t_edges, x_edges, weight)))

    pis = []
    density = gap_mean = None
    for lvl, uf in zip(reflected.levels, reflected.level_fields):
        density, gap_mean, pi = mass_and_density(uf, lvl)
        pis.append(pi)
    return ReflectionMeasureEstimate(
        t_edges=t_edges, x_edges=x_edges, density=density, gap_mean=gap_mean,
        pi_total=pis[-1], pi_sequence=tuple(pis), level=reflected.final_level,
    )


def _cell_masses(density, t_edges, x_edges, weight):
    """Weighted mass of each (t, x) cell: density * rho(x centre) * area."""
    centers = 0.5 * (x_edges[:-1] + x_edges[1:])
    areas = np.outer(np.diff(t_edges), np.diff(x_edges))
    return density * weight(centers[:, None])[None, :] * areas


@dataclass(frozen=True)
class SupportReport:
    fraction: float
    trivial_mass: bool


def support_check(reflected, measure, delta):
    """Fraction of the measure's mass on cells where u - h exceeds delta.

    Small values certify that the measure charges only the contact region at
    resolution delta.  Zero total mass is flagged, not an error.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if measure.pi_total <= 0:
        return SupportReport(fraction=0.0, trivial_mass=True)
    contrib = _cell_masses(measure.density, measure.t_edges, measure.x_edges,
                           reflected.weight)
    off = measure.gap_mean > delta
    frac = float(contrib[off].sum() / measure.pi_total)
    return SupportReport(fraction=frac, trivial_mass=False)
