"""Reflected problem via penalization.

Runs the backward solver with the penalty driver f + n (y - h)^- along an
increasing schedule of levels, extracts the nondecreasing compensation
process from the penalty terms, and measures the penalization along the
simulated paths: the weighted norm of (Y_n - h)^-, the weighted mass of the
reflection measure, the flat-off (Skorokhod) defect, a space-time histogram
of n (Y_n - h)^- and the support check.  A direct-reflection solve on the
same paths serves as a cross-check where no exact solution exists.  No step
reads an evaluation grid, so the problem runs in any dimension.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .bsde import BsdeSolution, _backward_pass, solve_bsde
from .errors import NoConvergenceError
from .model import WeightFunction, time_weights

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
    return _increments(np.maximum(obstacle_values[:-1] - sol.y[:-1], 0.0),
                       sol.penalty_level, sol.grid.dt)


def _increments(short, level, dt):
    """The compensation increments n (L - Y)^+ dt from the shortfall (L - Y)^+."""
    dk = np.multiply(short, level)
    dk *= dt
    return dk


def obstacle_along_paths(obstacle, paths):
    """Obstacle values h(t_k, X_k) along a bundle's (or solution's) paths, (N+1, M)."""
    times = paths.grid.nodes
    return np.stack([np.asarray(obstacle(times[k], paths.states[k]), float)
                     for k in range(paths.grid.n_steps + 1)])


class _LevelSums:
    """One penalty level's sums along the paths, fed one step at a time
    backward from the horizon: the squared penalty norm
    sum_k w_k mean(rho(X_k) ((L_k - Y_k)^+)^2), the weighted mass
    pi = mean(sum_{k<N} rho(X_k) dK_k) of the reflection measure, and the
    flat-off sums over paths of |Y_k - L_k| dK_k and of dK_k with the largest
    |Y_k - L_k|.  The first step fed is the horizon, which has no increment:
    it adds its norm term and its |Y - L| only."""

    def __init__(self, level, dt):
        self.level, self.dt, self.at_horizon = level, dt, True
        self.norm2 = self.pi = self.raw = self.k_total = self.sup_gap = 0.0

    def add(self, y, h, w, rho):
        """Step k's values Y_k, obstacle values L_k, time weight w_k and
        weights rho(X_k).  Only the samples below the obstacle have a
        shortfall (L - Y)^+ or an increment dK, so the sums run over them."""
        gap = np.subtract(h, y)
        below = np.flatnonzero(gap > 0)
        short, rho = gap[below], rho[below]
        self.n_paths = gap.size
        t = np.multiply(rho, short)
        t *= short
        self.norm2 += w * (float(np.sum(t)) / self.n_paths)
        self.sup_gap = max(self.sup_gap, float(gap.max()), -float(gap.min()))
        if self.at_horizon:
            self.at_horizon = False
            return
        dk = _increments(short, self.level, self.dt)
        self.raw += float(np.sum(short * dk))
        self.k_total += float(np.sum(dk))
        self.pi += float(np.sum(np.multiply(rho, dk, out=t))) / self.n_paths

    def norm(self):
        return math.sqrt(self.norm2)

    def flat_off(self):
        raw = self.raw / self.n_paths
        denom = self.k_total / self.n_paths * self.sup_gap
        return SkorokhodReport(raw=raw, normalized=raw / denom if denom > 0 else 0.0)


def penalty_norm(y, obstacle_values, states, weight, dt):
    """Weighted space-time L2 norm of (Y - L)^- along the paths.

    sqrt(sum_k w_k mean(rho(X_k) ((L_k - Y_k)^+)^2)) over the path arrays
    ``y`` and ``obstacle_values`` (N+1, M) and ``states`` (N+1, M, d), with
    the trapezoid time weights w_k of step dt, summed by the accumulator
    that measures each level of ``solve_reflected`` for its trace.
    """
    n = y.shape[0] - 1
    wt = time_weights(n, dt)
    sums = _LevelSums(0.0, dt)  # the norm reads no increment
    for k in range(n, -1, -1):
        sums.add(y[k], obstacle_values[k], wt[k], weight(states[k]))
    return sums.norm()


@dataclass
class ReflectedSolution:
    """Penalized-limit solution with convergence trace and cross-checks.

    ``solution`` is the schedule's last level, with all its path arrays;
    ``obstacle_values`` the obstacle along the paths (N+1, M);
    ``level_solutions`` every level's solution, coefficients only
    (``evaluate_u`` needs no more).  ``direct`` is the direct-reflection
    solve on the same paths, which keeps its ``y`` path array only (its z
    comes from ``evaluate_z``), and ``direct_gap`` the weighted L2 distance
    between the two along the paths (the mutual-validation diagnostic),
    ``direct_gap_rel`` that distance relative to the direct solve's norm.
    ``k_increments``, the final level's compensation increments (N, M), is
    computed on each access, not stored.
    """

    solution: BsdeSolution
    obstacle_values: np.ndarray
    levels: tuple
    level_solutions: list
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

    @property
    def k_increments(self):
        """The final level's increments dK (N, M), formed anew on each access."""
        return penalty_increments(self.solution, self.obstacle_values)


@dataclass(frozen=True)
class SkorokhodReport:
    raw: float
    normalized: float


def skorokhod_gap(sol, obstacle_values):
    """Discrete flat-off defect of a penalized solution.

    Averages sum_k |Y_k - L_k| dK_k over paths: the magnitude of the signed
    flat-off integral of the penalized pair, which the penalization drives
    to zero.  (Pairing dK with the positive part at the same step is zero by
    construction, since the penalty acts only below the obstacle.)  The
    headline diagnostic is the defect normalized by mean K_T times the
    largest |Y - L|.  ``obstacle_values`` are L along the paths (N+1, M);
    the sums are the accumulator's that measures each level of
    ``solve_reflected`` for its trace.
    """
    sums = _LevelSums(sol.penalty_level, sol.grid.dt)
    ones = np.ones(sol.y.shape[1])  # the defect reads no weight
    for k in range(sol.n_steps, -1, -1):
        sums.add(sol.y[k], obstacle_values[k], 0.0, ones)
    return sums.flat_off()


def solve_reflected(model, driver, terminal, obstacle, paths, basis,
                    schedule=None, tol=1e-3, weight=None,
                    picard_iters=3, clamp=None, strict=False):
    """Penalization scheme along an increasing schedule of levels.

    The result is the schedule's last level.  The penalized solutions
    increase to the reflected one as the level grows, with a penalty error
    of order 1/level, so the last level is the most accurate.  ``converged``
    says whether its penalty norm (``penalty_norm`` of its path values) is
    below ``tol``; with ``strict`` a norm at or above ``tol`` raises
    ``NoConvergenceError``, otherwise the result is returned flagged.  The
    trace records per level the penalty norm, the flat-off defect
    (``skorokhod_gap``), the value at the initial time and ``pi``, the
    weighted mass mean(sum_{k<N} rho(X_k) dK_k) of the reflection measure,
    and after the first level ``min_step_up``, the least Y^n_k - Y^{n-1}_k
    over the paths and the steps before the horizon.  Also runs the
    direct-reflection cross-check (y <- max(y, h) inside the backward loop)
    on the same paths and reports the weighted distance between the two
    along the paths.  The whole schedule and the direct solve run as one
    backward pass, which builds each step's regression setup once for all
    of them; a level whose fit or value goes non-finite raises from it.
    The pass hands every variant's values to the trace and the distance
    once per step on the calling thread, where the weight is evaluated once.

    Without ``clamp``, the pass's one a-priori bound (``default_clamp_bound``
    with the obstacle) serves every level and the direct solve.  A schedule
    that starts at level 0 thus clamps that level with the obstacle-inclusive
    bound, which is never tighter than the bound of a plain solve.
    """
    schedule = tuple(schedule) if schedule is not None else default_schedule()
    if (not schedule or not all(0 <= level < math.inf for level in schedule)
            or any(b <= a for a, b in zip(schedule, schedule[1:]))):
        raise ValueError("schedule must be nonempty, increasing, finite and >= 0")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if weight is None:
        weight = WeightFunction(obstacle.kappa + model.dim + 1)

    # compatibility of the data: the obstacle may not exceed the terminal
    # condition at the horizon, else the limit problem is ill-posed
    n, m, dt = paths.grid.n_steps, paths.n_paths, paths.grid.dt
    g_T = np.asarray(terminal(paths.states[-1]), float).reshape(m)
    lvals = obstacle_along_paths(obstacle, paths)
    bad = float(np.mean(lvals[n] > g_T + 1e-9 * (1 + np.abs(g_T))))
    if bad > 0.001:
        raise ValueError(
            f"obstacle exceeds the terminal condition at the horizon on "
            f"{bad:.1%} of the cloud; reflected problems require h(T, .) <= g")
    wt = time_weights(n, dt)
    # one backward pass for every level and the direct solve; per level it
    # keeps coefficients, u0 and the running sums of the trace, and path
    # arrays only for the last level and the direct solve (its y alone, the
    # one path array anything reads).  The sums start at the horizon, where
    # every solve is g (the direct gap's distance term is 0)
    rho = weight(paths.states[n])
    sums = [_LevelSums(level, dt) for level in schedule]
    for level_sums in sums:
        level_sums.add(g_T, lvals[n], wt[n], rho)
    diff2, base2 = 0.0, wt[n] * float(np.mean(rho * g_T ** 2))
    u0s = [None] * len(schedule)
    step_up = [math.inf] * len(schedule)

    def observe(k, ys):
        # every variant's values at step k, the levels' then the direct solve's
        nonlocal diff2, base2
        rho = weight(paths.states[k])
        for i, level_sums in enumerate(sums):
            level_sums.add(ys[i], lvals[k], wt[k], rho)
            if k == 0:
                u0s[i] = float(ys[i].mean())
            if i:
                step_up[i] = min(step_up[i], float(np.min(ys[i] - ys[i - 1])))
        diff2 += wt[k] * float(np.mean(rho * (ys[-2] - ys[-1]) ** 2))
        base2 += wt[k] * float(np.mean(rho * ys[-1] ** 2))

    variants = [(level, False, ("y", "z", "vbar") if i == len(schedule) - 1 else ())
                for i, level in enumerate(schedule)] + [(0.0, True, ("y",))]
    runs = _backward_pass(model, driver, terminal, paths, basis, variants,
                          picard_iters, clamp, obstacle, observe, lvals)
    sol, direct = runs[-2:]
    level_sols = [dataclasses.replace(run, y=None, z=None, vbar=None) for run in runs[:-1]]
    trace = []
    for i, level in enumerate(schedule):
        entry = {"level": level, "penalty_norm": sums[i].norm(),
                 "skorokhod": sums[i].flat_off().normalized, "u0": u0s[i], "pi": sums[i].pi}
        if i:
            entry["min_step_up"] = step_up[i]
        trace.append(entry)
    converged = trace[-1]["penalty_norm"] < tol
    if not converged and strict:
        raise NoConvergenceError(
            f"penalty norm {trace[-1]['penalty_norm']:.3g} above tol {tol:.3g} "
            f"after level {schedule[-1]}", trace=trace)

    return ReflectedSolution(
        solution=sol, obstacle_values=lvals, levels=schedule,
        level_solutions=level_sols, trace=trace, converged=converged, direct=direct,
        direct_gap=math.sqrt(diff2),
        direct_gap_rel=math.sqrt(diff2 / base2) if base2 > 0 else 0.0, weight=weight,
    )


@dataclass
class ReflectionMeasureEstimate:
    """Space-time histogram of the penalization measure n (Y_n - h)^-.

    ``density`` has shape (t_bins, x_bins) over (t, x_1) and approximates
    the measure's Lebesgue density in time on each cell; ``pi_total`` is the
    final level's weighted mass pi_n and ``pi_sequence`` the masses of every
    level of the schedule, from the trace.
    """

    t_edges: np.ndarray
    x_edges: np.ndarray
    density: np.ndarray
    pi_total: float
    pi_sequence: tuple


def estimate_reflection_measure(reflected, t_bins=10, x_bins=20):
    """Histogram the final level's penalty density on (t, x_1) cells.

    The x_1 cells split the first coordinate of the basis box into equal
    widths.  Cell values average n (h - Y_n)^+ over the final level's path
    samples (t_k, X_k) that fall in the cell; the masses pi_n of every level
    come from the trace, so their stabilization can be asserted.
    """
    for name, bins in (("t_bins", t_bins), ("x_bins", x_bins)):
        if not (isinstance(bins, (int, np.integer)) and bins > 0):
            raise ValueError(f"{name} must be a positive integer")
    sol = reflected.solution
    times = sol.grid.nodes
    lo, hi = sol.basis.lo[0], sol.basis.hi[0]
    t_edges = np.linspace(times[0], times[-1], t_bins + 1)
    x_edges = np.linspace(lo, hi, x_bins + 1)
    t_idx = np.clip(np.searchsorted(t_edges, times, side="right") - 1, 0, t_bins - 1)
    counts = np.zeros((t_bins, x_bins))
    density = np.zeros((t_bins, x_bins))
    level = reflected.final_level
    for k, row in enumerate(t_idx):
        x_idx = ((sol.states[k, :, 0] - lo) * (x_bins / (hi - lo))).astype(np.intp)
        np.clip(x_idx, 0, x_bins - 1, out=x_idx)
        short = np.maximum(reflected.obstacle_values[k] - sol.y[k], 0.0)
        counts[row] += np.bincount(x_idx, minlength=x_bins)
        density[row] += np.bincount(x_idx, weights=level * short, minlength=x_bins)
    filled = counts > 0
    density[filled] /= counts[filled]
    pis = tuple(entry["pi"] for entry in reflected.trace)
    return ReflectionMeasureEstimate(
        t_edges=t_edges, x_edges=x_edges, density=density, pi_total=pis[-1],
        pi_sequence=pis,
    )


@dataclass(frozen=True)
class SupportReport:
    fraction: float
    trivial_mass: bool


def support_check(reflected, measure, delta):
    """Share of the measure's weighted mass where the reflected value exceeds
    the obstacle by more than delta.

    The mass is rho(X_k) dK_k of the final level per path sample (k < N),
    with dK_k formed one step at a time, and the contact test reads the
    direct-reflection solve on the same sample: Y^dir_k - h_k > delta.
    Small values certify that the measure charges only the contact region
    at resolution delta.  Zero total mass is flagged, not an error.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    if measure.pi_total <= 0:
        return SupportReport(fraction=0.0, trivial_mass=True)
    sol = reflected.solution
    total = off = 0.0
    for k in range(sol.n_steps):
        dk = _increments(np.maximum(reflected.obstacle_values[k] - sol.y[k], 0.0),
                         sol.penalty_level, sol.grid.dt)
        charged = np.flatnonzero(dk > 0)
        mass = reflected.weight(sol.states[k][charged]) * dk[charged]
        gap = reflected.direct.y[k][charged] - reflected.obstacle_values[k][charged]
        total += float(np.sum(mass))
        off += float(np.sum(mass[gap > delta]))
    return SupportReport(fraction=off / total, trivial_mass=False)
