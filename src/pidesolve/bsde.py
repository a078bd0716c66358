"""Backward solver: least-squares regression backward induction.

Works on a simulated path bundle.  At each step the conditional
expectations of the next value, of its product with the Brownian increment,
and of its product with the compensated jump-functional increments are all
estimated by one regression against the same basis; the new value solves the
implicit driver relation by Picard sweeps.  An optional obstacle penalty is
resolved in closed form inside each sweep, which keeps the update stable for
arbitrarily large penalty levels.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.sparse import csr_matrix

from .errors import (ContractionError, DomainError, NumericError,
                     SingularRegressionError, ZeroDenominatorError)
from .model import _fd_jacobian, trapezoid_weights

__all__ = [
    "PolynomialBasis",
    "LocalAffineBasis",
    "make_basis",
    "BsdeSolution",
    "solve_bsde",
    "evaluate_fields",
    "evaluate_u",
    "evaluate_z",
    "check_z_representation",
    "check_apriori_estimate",
    "default_clamp_bound",
]

_RIDGE_SCALE = 1e-8
_MIN_PATHS_PER_REGRESSOR = 10
# a local cell with fewer points is fitted by its mean
_MIN_POINTS = 8


def _check_floor(n_features, m):
    if n_features > max(1, m // _MIN_PATHS_PER_REGRESSOR):
        raise ValueError(
            f"{n_features} basis functions exceed the floor of "
            f"{_MIN_PATHS_PER_REGRESSOR} paths per regressor at {m} paths")


def _is_degenerate(x):
    span = x.max(axis=0) - x.min(axis=0)
    return bool(np.all(span <= 1e-12 * (1.0 + np.abs(x).max(axis=0))))


# ---------------------------------------------------------------------------
# regression bases
# ---------------------------------------------------------------------------

class _BoxBasis:
    """The box [lo, hi] a basis is defined on."""

    def __init__(self, box):
        lo = np.atleast_1d(np.asarray(box[0], float))
        hi = np.atleast_1d(np.asarray(box[1], float))
        if np.any(hi <= lo):
            raise ValueError("box must have positive extent")
        self.lo, self.hi = lo, hi
        self.dim = lo.size

    def fit(self, x, targets):
        """Least squares of each target column on the basis: (coeffs, info),
        the coefficients with one trailing target axis.  Degenerate designs
        (all points numerically equal) fall back to an intercept-only fit."""
        return self.prepare(x).fit(targets)

    def prepare(self, x):
        """Regression setup on the point set x (design, ridged Gram, fit
        info); its ``fit(targets)`` and ``predict(coeffs)`` reuse it."""
        return self._setup(self, x)

    def predictor(self, x):
        """Predict-only setup on the point set x: the design, for ``predict``."""
        return self._setup(self, x, gram=False)

    def predict(self, coeffs, x):
        return self.predictor(x).predict(coeffs)

    def contains(self, x):
        x = np.atleast_2d(np.asarray(x, float))
        pad = 1e-9 * (self.hi - self.lo)
        return np.all((x >= self.lo - pad) & (x <= self.hi + pad), axis=1)


class _Regression:
    """A basis's design phi at the points x, for ``predict``; with ``gram``
    also the floor check, the ridged Gram (``_gram``: its condition number
    and ridge) and ``fit``, which solves the normal equations on it
    (``_solve``) or fits degenerate data by their mean alone.  Both bases
    share this fit and predict; only their Gram and its solve differ."""

    def __init__(self, basis, x, gram=True):
        x = np.atleast_2d(np.asarray(x, float))
        if gram:
            _check_floor(basis.n_features, x.shape[0])
        self.coef_shape = basis.coef_shape
        self.phi = basis.design(x)
        self.info = {"cond": 1.0, "degenerate": True, "ridge": 0.0}
        if gram and not _is_degenerate(x):
            # a sparse design builds its transpose anew on every .T
            self.phi_t = self.phi.T
            cond, ridge = self._gram(basis)
            self.info = {"cond": float(cond), "degenerate": False, "ridge": float(ridge)}

    def fit(self, targets):
        (coeffs,) = self.fits([targets])
        return coeffs, self.info

    def fits(self, targets):
        """The coefficients of each target array of a batch, with one trailing
        target axis.  Each target takes its own right-hand-side product,
        freed before the next, and all take one solve, stacked on a leading
        axis: bit for bit the separate fits (more right-hand-side columns
        would not be).  A singular normal system, or coefficients of any
        target that are not finite, raise SingularRegressionError for the
        whole batch."""
        targets = (_as_columns(t) for t in targets)
        if self.info["degenerate"]:
            out = []
            for t in targets:
                coeffs = np.zeros(self.coef_shape + t.shape[1:])
                coeffs[..., 0, :] = t.mean(axis=0)
                out.append(coeffs)
            return out
        coeffs = self._solve(np.stack([self.phi_t @ t for t in targets]))
        if not np.isfinite(coeffs).all():
            raise SingularRegressionError("non-finite regression coefficients")
        return list(coeffs)

    def predict(self, coeffs):
        single = coeffs.ndim == len(self.coef_shape)
        out = self.phi @ coeffs.reshape(self.phi.shape[1], -1)
        return out[:, 0] if single else out


class _PolyRegression(_Regression):
    def _gram(self, basis):
        gram = self.phi_t @ self.phi
        ridge = _RIDGE_SCALE * np.trace(gram) / gram.shape[0]
        self.ridged = gram + ridge * np.eye(gram.shape[0])
        return np.linalg.cond(self.ridged), ridge

    def _solve(self, rhs):
        return _solve_ridged(self.ridged, rhs)


class PolynomialBasis(_BoxBasis):
    """Global polynomial basis of bounded total degree over a box.

    Coordinates are affinely mapped to [-1, 1] before forming monomials so
    the normal equations stay well conditioned on wide boxes.  Single-target
    coefficients have shape (n_features,).
    """

    kind = "poly"
    _setup = _PolyRegression

    def __init__(self, degree, box):
        super().__init__(box)
        self.degree = int(degree)
        self._powers = _total_degree_powers(self.dim, self.degree)
        # each monomial after the constant is an earlier one, its powers with
        # the first nonzero exponent lowered by one, times that coordinate
        row = {tuple(pw): j for j, pw in enumerate(self._powers)}
        unit = np.eye(self.dim, dtype=int)
        first = np.argmax(self._powers[1:] > 0, axis=1)
        self._parents = [(row[tuple(pw - unit[k])], k) for pw, k in zip(self._powers[1:], first)]

    @property
    def n_features(self):
        return self._powers.shape[0]

    @property
    def coef_shape(self):
        return (self.n_features,)

    def design(self, x):
        """The (m, n_features) design at x, an F-order view of feature rows:
        row 0 is ones and every other row its parent row times one
        coordinate, so no monomial takes a power."""
        x = np.atleast_2d(np.asarray(x, float))
        z = np.ascontiguousarray((2.0 * (x - self.lo) / (self.hi - self.lo) - 1.0).T)
        rows = np.empty((self.n_features, x.shape[0]))
        rows[0] = 1.0
        for j, (parent, k) in enumerate(self._parents, start=1):
            np.multiply(rows[parent], z[k], out=rows[j])
        return rows.T


class _LocalRegression(_Regression):
    # the sparse design's products sum each cell over its points in point
    # order, each product formed before it is added: reproducible bit for bit
    def _gram(self, basis):
        p = basis.dim + 1
        # row c*p + a of phi^T [1, z] is column a of cell c's block
        gram = (self.phi_t @ self.phi.data.reshape(-1, p)).reshape(-1, p, p)
        self.counts = gram[:, 0, 0]
        filled = self.counts >= 1
        self.thin = filled & (self.counts < _MIN_POINTS)
        self.full = filled & ~self.thin
        g = gram[self.full]
        ridge = _RIDGE_SCALE * np.trace(g, axis1=1, axis2=2) / p
        self.blocks = g + ridge[:, None, None] * np.eye(p)
        self.empty, self.donor = basis._donors(filled)
        eig = np.linalg.eigvalsh(self.blocks)
        return (np.max(eig[:, -1] / np.maximum(eig[:, 0], 1e-300), initial=1.0),
                ridge.max(initial=0.0))

    def _solve(self, rhs):
        # rhs (batch, n_features, r); the blocks broadcast over the batch
        rhs = rhs.reshape(rhs.shape[:1] + self.coef_shape + (-1,))
        coeffs = np.zeros(rhs.shape)
        coeffs[:, self.thin, 0, :] = rhs[:, self.thin, 0, :] / self.counts[self.thin, None]
        coeffs[:, self.full] = _solve_ridged(self.blocks, rhs[:, self.full])
        coeffs[:, self.empty, 0, :] = coeffs[:, self.donor, 0, :]
        return coeffs


class LocalAffineBasis(_BoxBasis):
    """Partition of the box into cells with one affine function per cell.

    The normal equations decompose into per-cell (dim+1) x (dim+1) blocks,
    so fitting is O(n_paths) regardless of the number of cells.  Cells with
    fewer than 8 points degrade to their mean; empty cells borrow the mean
    of the filled cell with the nearest centre so the field stays defined on
    the whole box.  Single-target coefficients have shape (n_cells, dim+1).
    """

    kind = "local"
    _setup = _LocalRegression

    def __init__(self, cells, box):
        super().__init__(box)
        self.cells = np.broadcast_to(np.asarray(cells, int), (self.dim,)).copy()
        if np.any(self.cells < 1):
            raise ValueError("need at least one cell per axis")
        self.n_cells = int(np.prod(self.cells))

    @property
    def n_features(self):
        return self.n_cells * (self.dim + 1)

    @property
    def coef_shape(self):
        return (self.n_cells, self.dim + 1)

    def design(self, x):
        """The (m, n_features) design at x, a CSR matrix: row i holds [1, z_i]
        in columns c*(dim+1) + a of its cell c, where z_i are its offsets from
        the cell centre in half-widths, so coefficients of shape
        (n_cells, dim+1[, r]) reshape onto the columns without a copy."""
        x = np.atleast_2d(np.asarray(x, float))
        m, p = x.shape[0], self.dim + 1
        widths = (self.hi - self.lo) / self.cells
        idx = np.clip(((x - self.lo) / widths).astype(int), 0, self.cells - 1)
        data = np.empty((m, p))
        data[:, 0] = 1.0
        data[:, 1:] = 2.0 * (x - (self.lo + (idx + 0.5) * widths)) / widths
        cols = np.empty((m, p), dtype=np.int32)
        np.multiply(np.ravel_multi_index(tuple(idx.T), self.cells), p, out=cols[:, 0])
        for a in range(1, p):
            np.add(cols[:, 0], a, out=cols[:, a])
        indptr = np.arange(0, m * p + 1, p, dtype=np.int32)
        return csr_matrix((data.ravel(), cols.ravel(), indptr), shape=(m, self.n_features))

    def _donors(self, filled):
        """Empty cells and, for each, the filled cell with the nearest centre.
        Offsets are whole cell steps times widths, so ties go to the lowest index."""
        empty, full = np.nonzero(~filled)[0], np.nonzero(filled)[0]
        widths = (self.hi - self.lo) / self.cells
        pos = np.stack(np.unravel_index(np.arange(self.n_cells), self.cells), axis=1)
        donor = np.empty_like(empty)
        for s in range(0, empty.size, 128):  # bounds the (empty x filled) block
            gap = (pos[empty[s:s + 128], None, :] - pos[None, full, :]) * widths
            donor[s:s + 128] = full[np.argmin(np.sum(gap**2, axis=2), axis=1)]
        return empty, donor


def make_basis(kind, box, degree=4, cells=40):
    if kind == "poly":
        return PolynomialBasis(degree, box)
    if kind == "local":
        return LocalAffineBasis(cells, box)
    raise ValueError(f"unknown basis kind {kind!r}")


def _as_columns(targets):
    t = np.asarray(targets, float)
    return t[:, None] if t.ndim == 1 else t


def _total_degree_powers(dim, degree):
    powers = [pw for pw in itertools.product(range(degree + 1), repeat=dim) if sum(pw) <= degree]
    return np.array(sorted(powers, key=lambda pw: (sum(pw), pw)), dtype=int)


def _solve_ridged(gram, rhs):
    """Solve ridged normal equations (one system or a stack of blocks) for a
    batch of right-hand sides.

    The ridge makes every system positive definite, so a failure can only
    come from non-finite data, which no larger ridge repairs.  Non-finite
    coefficients are the caller's to check.
    """
    try:
        return np.linalg.solve(gram, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularRegressionError("regression normal system singular") from exc


# ---------------------------------------------------------------------------
# solution container and solver
# ---------------------------------------------------------------------------

@dataclass
class BsdeSolution:
    """Backward solution: per-step regression coefficients and the y path.

    ``y`` has shape (n_steps+1, n_paths).  Coefficient arrays are scaled so
    that ``basis.predict`` returns the corresponding field directly;
    ``coef_zv`` (n_steps, *coef_shape, dim + q) holds each step's z and vbar
    coefficients as one array, which ``zv_fields`` predicts and splits.
    ``backward_step`` is the one backward step, which the pass runs on its
    prepared setups and ``evaluate_fields`` on the coefficients it left, so
    on the bundle's own states ``evaluate_u`` repeats ``y`` and
    ``evaluate_z`` the step's z bit for bit, whatever the driver.  For
    penalized solves ``penalty_level``/``obstacle`` record the penalty; for
    direct-reflection solves ``reflected`` is set.  ``obstacle`` is None
    when neither uses it.  ``clamp_bound`` is the bound |Y| <= B the step
    clamps to.

    ``y`` is None on the level solutions of ``solve_reflected`` except its
    last level, which nothing reads along the paths; the coefficients are
    always kept, and ``evaluate_fields`` needs no more.  ``u0``,
    ``check_z_representation``, ``check_apriori_estimate``, ``skorokhod_gap``
    and ``penalty_increments`` read ``y`` and raise ValueError on a solution
    without it.
    """

    grid: object
    basis: object
    driver: object
    terminal: Callable
    coef_y: np.ndarray
    coef_zv: np.ndarray
    y: np.ndarray
    states: np.ndarray
    diagnostics: dict
    picard_iters: int
    clamp_bound: float
    penalty_level: float = 0.0
    obstacle: Optional[object] = None
    reflected: bool = False

    @property
    def n_steps(self):
        return self.grid.n_steps

    def u0(self):
        """Value at the initial time, averaged over paths."""
        return float(_y_path(self)[0].mean())

    def u0_stderr(self):
        """The standard error of the undiscounted terminal payoff's mean,
        taken on the bundle's own paths.

        It sets the Monte-Carlo scale only and does not bound the error of
        ``u0``, which also carries the regression's bias: a Merton call at
        100,000 paths and 50 steps was 1.8 of these from its closed form.
        """
        g = np.asarray(self.terminal(self.states[-1]), float)
        return float(g.std(ddof=1) / math.sqrt(g.size))

    def zv_fields(self, k, at):
        """z and vbar at step k on the points of the regression setup ``at``:
        ``coef_zv[k]`` predicted once, its first dim columns z and the rest
        vbar; both zero at the horizon (k = n_steps)."""
        zv = (at.predict(self.coef_zv[k]) if k < self.n_steps
              else np.zeros((at.phi.shape[0], self.coef_zv.shape[-1])))
        d = self.states.shape[2]
        return zv[:, :d], zv[:, d:]

    def backward_step(self, k, x, at, cond_exp, h):
        """Step k at the points x of the regression setup ``at``: the values,
        z and vbar (``zv_fields``), how many values were clamped, and whether
        they are finite.  Solves y = cond_exp + dt * f(t_k, x, y, z, vbar)
        by ``picard_iters`` sweeps, resolving the penalty level * dt *
        (y - h)^- in closed form inside each sweep at a positive level; a
        reflected solution then applies y = max(y, h), and |y| is clamped to
        ``clamp_bound``.  The sweeps run in two alternating buffers, so the
        driver never reads the array being written, and the penalty in one
        scratch buffer: a sweep allocates nothing beyond what the driver
        returns, and does the operations of one that allocates, in the same
        order.  One min/max pair of the result serves as the clamp test and
        the finiteness check (a NaN shows in the pair); only a pair outside
        the clamp counts and clips.
        """
        z, vbar = self.zv_fields(k, at)
        dt, t = self.grid.dt, self.grid.nodes[k]
        level_dt, clamp = self.penalty_level * dt, self.clamp_bound
        if level_dt > 0:
            # y = a + level_dt (y - h)^- is y = max(a, (a + level_dt h) / (1 + level_dt))
            level_h, lift = level_dt * h, 1.0 + level_dt
            scratch = np.empty_like(cond_exp)
        bufs = (np.empty_like(cond_exp), np.empty_like(cond_exp))
        y = cond_exp
        for i in range(self.picard_iters):
            out = bufs[i % 2]
            np.multiply(dt, np.asarray(self.driver.f(t, x, y, z, vbar), dtype=float), out=out)
            y = np.add(cond_exp, out, out=out)
            if level_dt > 0:
                np.add(y, level_h, out=scratch)
                np.divide(scratch, lift, out=scratch)
                np.maximum(y, scratch, out=y)
        if self.reflected:
            np.maximum(y, h, out=y)
        lo, hi = (y.min(), y.max()) if y.size else (0.0, 0.0)
        n_clamped = 0
        if not -clamp <= lo <= hi <= clamp:
            n_clamped = int(np.count_nonzero(np.abs(y) > clamp))
            if n_clamped:
                np.clip(y, -clamp, clamp, out=y)
                lo, hi = y.min(), y.max()
        return y, z, vbar, n_clamped, bool(np.isfinite(lo) and np.isfinite(hi))


def _y_path(sol):
    """The y path array of a solution, or a ValueError if it keeps none."""
    if sol.y is None:
        raise ValueError("the solution keeps no y path array "
                         "(only its coefficients, which evaluate_fields reads)")
    return sol.y


def check_horizon(g_T, h_T):
    """Compatibility of the data: the obstacle h(T, X_N) may not exceed the
    terminal values g(X_N) at the horizon, else the limit problem is
    ill-posed.  Raises ``ValueError`` if it does on more than 0.1% of the
    cloud, beyond a relative slack of 1e-9."""
    bad = float(np.mean(h_T > g_T + 1e-9 * (1 + np.abs(g_T))))
    if bad > 0.001:
        raise ValueError(
            f"obstacle exceeds the terminal condition at the horizon on "
            f"{bad:.1%} of the cloud; reflected problems require h(T, .) <= g")


def default_clamp_bound(driver, terminal, paths, obstacle=None):
    """A-priori bound |Y| <= B from terminal and driver growth.

    B = (max |g| + horizon * max |f(.,.,0,0,0)| + max |h|) * exp(C_f * horizon)
    with maxima over the simulated cloud and 10% headroom.
    """
    g = np.abs(np.asarray(terminal(paths.states[-1]), float))
    horizon = paths.grid.t1 - paths.grid.t0
    f0max = 0.0
    hmax = 0.0
    stride = max(1, paths.grid.n_steps // 8)
    for k in range(0, paths.grid.n_steps + 1, stride):
        f0 = driver.f_zero(paths.grid.nodes[k], paths.states[k])
        f0max = max(f0max, float(np.abs(f0).max()))
        if obstacle is not None:
            hv = obstacle(paths.grid.nodes[k], paths.states[k])
            hmax = max(hmax, float(np.abs(hv).max()))
    base = float(g.max(initial=0.0)) + horizon * f0max + hmax
    return 1.1 * base * math.exp(driver.lipschitz * horizon) + 1e-12


def solve_bsde(model, driver, terminal, paths, basis, picard_iters=3, clamp=None):
    """Backward induction over a path bundle: the PIDE without an obstacle.

    Per step: regress the next value on the basis, then regress the products
    of the centered value with the Brownian and compensated jump increments
    (divided by dt these estimate the z-field and the jump functionals), and
    solve the implicit relation y = E[Y_next | X] + dt * f(t, X, y, z, vbar)
    by ``picard_iters`` fixed-point sweeps.  A penalized obstacle solve is
    ``obstacle.solve_penalized``'s, a reflected one ``solve_reflected``'s.

    Requires dt * lipschitz(f) < 1 for the sweeps to contract.
    """
    return _backward_pass(model, driver, terminal, paths, basis, [(0.0, False, True)],
                          picard_iters, clamp, None)[0]


def _cpu_count():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity outside Linux
        return os.cpu_count() or 1


def _step_group(k, group, ys, reg, paths, dmu, h_k):
    """Step k of a group of solutions on the step's setup ``reg``: all their
    y fits, then all fits of their z and jump-functional targets, then each
    ``backward_step``.  Fills each solution's step-k coefficients,
    diagnostics and, if it keeps one, y path, and replaces its value at step
    k + 1 in the list ``ys`` by its value at step k, freeing the old one."""
    if not group:  # the worker's share of a two-variant pass
        return
    d, dt = paths.dim, paths.grid.dt
    cond_exps = []

    def zv_targets(cys):
        # built one solution at a time, as the fit consumes them
        for sol, y, cy in zip(group, ys, cys):
            sol.coef_y[k] = cy[..., 0]
            cond_exps.append(reg.predict(sol.coef_y[k]))
            # center the martingale-increment regressions on the fitted
            # conditional expectation: same projection, exact on constants,
            # much lower variance
            resid = y - cond_exps[-1]
            out = np.empty((resid.size, d + dmu.shape[0]))
            np.multiply(resid[:, None], paths.brownian[k], out=out[:, :d])
            for i in range(dmu.shape[0]):
                np.multiply(resid, dmu[i, k], out=out[:, d + i])
            sol.diagnostics["resid"][k] = float(np.sqrt(np.mean(np.square(resid, out=resid))))
            yield out

    czvs = reg.fits(zv_targets(reg.fits(ys)))
    for i, (sol, czv) in enumerate(zip(group, czvs)):
        # scale before predicting: the path values come from exactly the
        # stored coefficients, as in evaluate_fields
        sol.coef_zv[k] = czv / dt
        y, _, _, n_clamped, finite = sol.backward_step(k, paths.states[k], reg,
                                                       cond_exps[i], h_k)
        cond_exps[i] = None  # freed before the next solution's step allocates
        if not finite:
            raise NumericError(f"non-finite backward value at step {k}")
        # the setup's fit info (cond, degenerate, ridge) and the clamp count
        for key, value in (*reg.info.items(), ("clamped", n_clamped)):
            sol.diagnostics[key][k] = value
        if sol.y is not None:
            sol.y[k] = y
        ys[i] = y


def _backward_pass(model, driver, terminal, paths, basis, variants, picard_iters,
                   clamp, obstacle, observe=None, obstacle_values=None):
    """Backward induction for several (penalty_level, reflect, keep_y)
    variants: one ``BsdeSolution`` each, built before the first step, which
    the pass fills and returns in variant order.

    Each step builds the regression setup ``basis.prepare(x_k)`` and the
    obstacle values h(t_k, x_k) once (or reads them from
    ``obstacle_values``, h along the paths), and runs the solutions in two
    stages on them.  First all y fits, then all fits of the z and
    jump-functional targets; each stage takes one right-hand-side product
    per solution and one solve for all (``fits``), and each solution's
    ``backward_step`` finishes it.  A solve with a leading variant axis
    repeats each variant's own solve, so every variant's coefficients and
    values are those of a pass of its own, bit for bit.
    A fit or value that goes non-finite raises from the pass, as from the
    variant's own: ``SingularRegressionError`` for the fit's whole batch,
    ``NumericError`` (or, under a NumPy error state of "raise",
    ``FloatingPointError``) for a value.

    With two or more variants and more than one CPU, each step splits the
    variants into two groups, each with its own two stages: the calling
    thread runs the first, and a one-worker executor (thread
    ``pidesolve-backward_0``, under the caller's NumPy error state) the
    rest, and then the next step's setup ahead.  The outputs are those of
    one thread, bit for bit; the driver may be called from both threads at
    once, the obstacle and ``observe`` only from the calling thread.  An
    exception that a group raises reaches the caller once both groups are
    done with the step, the caller's first; one that the setup ahead raises,
    at the step that needs it.  The worker is joined before the pass returns
    or raises.

    A solution stores its y path array only with ``keep_y``; without, its
    ``y`` is None.
    The pass evaluates g(X_N) once and, if any variant uses the obstacle,
    refuses h(T, .) > g there (``check_horizon``) before it steps.
    ``observe(k, ys)``, if given, sees every variant's values ``ys``, in
    variant order, for k = N, ..., 0, each once: g(X_N) before the first
    step, then each step's after all have stepped it.  Without ``clamp``
    one default bound, with the obstacle if any variant uses it, serves all.
    """
    grid = paths.grid
    dt = grid.dt
    if dt * driver.lipschitz >= 1.0:
        raise ContractionError(
            f"dt * C_f = {dt * driver.lipschitz:.3g} >= 1; refine the grid")
    if picard_iters < 1:
        raise ValueError("picard_iters must be >= 1")
    if not all(0 <= level < math.inf for level, _, _ in variants):
        raise ValueError("penalty level must be finite and >= 0")
    if clamp is not None and not clamp > 0:
        raise ValueError("clamp must be positive")
    if not any(level > 0 or reflect for level, reflect, _ in variants):
        obstacle = None
    elif obstacle is None:
        raise ValueError("penalty or reflection requires an obstacle")

    n, m, d, q = grid.n_steps, paths.n_paths, paths.dim, driver.n_functionals
    y = np.asarray(terminal(paths.states[n]), dtype=float).reshape(m)
    if not np.isfinite(y).all():
        raise NumericError("non-finite terminal values")
    if obstacle is not None:
        check_horizon(y, obstacle(grid.nodes[n], paths.states[n]) if obstacle_values is None
                      else obstacle_values[n])
    dmu = paths.compensated_increments(driver.functionals, model.jump_measure)

    if clamp is None:
        clamp = default_clamp_bound(driver, terminal, paths, obstacle)

    sols = [BsdeSolution(
        grid=grid, basis=basis, driver=driver, terminal=terminal,
        coef_y=np.zeros((n,) + basis.coef_shape),
        coef_zv=np.zeros((n,) + basis.coef_shape + (d + q,)),
        y=np.empty((n + 1, m)) if keep_y else None, states=paths.states,
        diagnostics={"cond": np.zeros(n), "resid": np.zeros(n),
                     "clamped": np.zeros(n, dtype=int),
                     "degenerate": np.zeros(n, dtype=bool), "ridge": np.zeros(n)},
        picard_iters=picard_iters, clamp_bound=clamp, penalty_level=level,
        obstacle=obstacle if level > 0 or reflect else None, reflected=reflect)
        for level, reflect, keep_y in variants]
    for sol in sols:
        if sol.y is not None:
            sol.y[n] = y
    ys = [y] * len(sols)
    if observe is not None:
        observe(n, ys)

    pool = None
    if len(sols) > 1 and _cpu_count() > 1:
        pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pidesolve-backward",
                                  initializer=functools.partial(np.seterr, **np.geterr()))
    ahead = None  # the future of this step's setup, if the worker built it
    try:
        for k in range(n - 1, -1, -1):
            xk = paths.states[k]
            reg = basis.prepare(xk) if ahead is None else ahead.result()
            h_k = None
            if obstacle is not None:
                h_k = (obstacle(grid.nodes[k], xk) if obstacle_values is None
                       else obstacle_values[k])
            args = (reg, paths, dmu, h_k)
            if pool is None:
                _step_group(k, sols, ys, *args)
            else:
                # the caller runs one more than half: the worker also builds
                # the next setup, which costs about two variants' steps (so
                # with two variants it builds only that)
                cut = len(sols) // 2 + 1
                ys, theirs_ys = ys[:cut], ys[cut:]  # each group's values in one list
                theirs = pool.submit(_step_group, k, sols[cut:], theirs_ys, *args)
                ahead = pool.submit(basis.prepare, paths.states[k - 1]) if k else None
                try:
                    _step_group(k, sols[:cut], ys, *args)
                finally:
                    theirs.exception()  # the caller's error waits for their group
                theirs.result()
                ys += theirs_ys
            if observe is not None:
                observe(k, ys)
            del reg, args  # one step's design at a time, and the one built ahead
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return sols


def _checked_setup(sol, k, x):
    """x as an (m, dim) batch and the predict-only setup on it, after the
    evaluators' checks."""
    x = np.atleast_2d(np.asarray(x, float))
    if x.shape[1] != sol.states.shape[2]:
        raise ValueError("point dimension does not match the solution")
    outside = ~sol.basis.contains(x)
    if outside.any():
        raise DomainError(f"evaluation point {x[outside][0]!r} outside the basis domain box")
    if not 0 <= k <= sol.n_steps:
        raise ValueError(f"step {k} outside 0..{sol.n_steps}")
    return x, sol.basis.predictor(x)


def evaluate_fields(sol, k, x):
    """Fitted fields (u, z, vbar) at (t_k, x) from one design; x is a point
    or (m, dim) batch.  u runs the pass's own ``backward_step`` on the frozen
    coefficients, which reads z (m, dim) and vbar (m, q); at the horizon u is
    the terminal value and z and vbar are zero.  Refuses points outside the
    basis box (``DomainError``), of another dimension or at a step outside
    0..n_steps (``ValueError``)."""
    x, at = _checked_setup(sol, k, x)
    if k == sol.n_steps:
        return (np.asarray(sol.terminal(x), dtype=float).reshape(x.shape[0]),
                *sol.zv_fields(k, at))
    h = sol.obstacle(sol.grid.nodes[k], x) if sol.obstacle is not None else None
    u, z, vbar, _, _ = sol.backward_step(k, x, at, at.predict(sol.coef_y[k]), h)
    return u, z, vbar


def evaluate_u(sol, k, x):
    """Fitted value function at (t_k, x): the u of ``evaluate_fields``."""
    return evaluate_fields(sol, k, x)[0]


def evaluate_z(sol, k, x):
    """The z of ``evaluate_fields``, under its checks, without the sweeps."""
    x, at = _checked_setup(sol, k, x)
    return sol.zv_fields(k, at)[0]


def check_z_representation(sol, model, weight):
    """Weighted relative gap between regressed z and sigma^T grad of the field.

    The gradient of the fitted value function is taken by central differences
    of ``evaluate_u`` with step 1e-3 * (1 + |x|); the comparison is a
    rho-weighted relative L2 norm along the paths.  Steps with degenerate
    designs are skipped; returns 0 when both sides vanish.
    """
    ys = _y_path(sol)
    n = sol.n_steps
    steps = [k for k in range(n) if not sol.diagnostics["degenerate"][k]]
    num = 0.0
    den = 0.0
    yscale = 0.0
    for k in steps:
        xk = sol.states[k]
        h = 1e-3 * (1.0 + np.abs(xk))
        mask = sol.basis.contains(xk) & sol.basis.contains(xk - h) & sol.basis.contains(xk + h)
        if not mask.any():
            continue
        x = xk[mask]
        # predicted on all of x_k, as the backward step did: the same bits
        zk = sol.zv_fields(k, sol.basis.predictor(xk))[0][mask]
        grad = _fd_jacobian(lambda xx: evaluate_u(sol, k, xx), x, h[mask])
        sig = np.asarray(model.diffusion(x), dtype=float)
        zg = np.einsum("mji,mj->mi", sig, grad)
        w = weight(x)
        diff = zk - zg
        num += float(np.sum(w * np.sum(diff**2, axis=1)))
        den += float(np.sum(w * np.sum(zk ** 2, axis=1)))
        yscale += float(np.sum(w * ys[k][mask] ** 2))
    # a z-field that is pure regression noise relative to the value scale
    # counts as zero on both sides (the constant-data convention)
    if den == 0.0 or den <= 1e-8 * yscale:
        return 0.0
    return math.sqrt(num / den)


def check_apriori_estimate(solutions, terminal, driver, weight):
    """Energy-to-data ratio of the backward solution over a grid of starts.

    ``solutions`` maps starting points x0 to solutions computed from bundles
    started there.  Numerator: sup_k ||Y_k||^2 + sum_k dt (||Z_k||^2 +
    ||vbar_k||^2), with ||.||^2 the weighted quadrature over the x0 grid of
    path-mean squares.  Denominator: the same quadrature of g(x0)^2 +
    sum_k dt f(t_k, x0, 0,0,0)^2.  The useful assertion is boundedness and
    stability of the ratio across configurations, not a particular value.
    The x0 quadrature is one-dimensional, so the states must be too, and
    the sums run on one time grid, so all solutions must share it.  z and
    vbar come from each step's ``coef_zv`` on the bundle's states.
    """
    if any(sol.states.shape[2] > 1 for sol in solutions.values()):
        raise ValueError("the start-point quadrature is one-dimensional; "
                         "got solutions of a multi-dimensional state")
    items = sorted(solutions.items(), key=lambda kv: float(np.atleast_1d(kv[0])[0]))
    x0s = np.array([float(np.atleast_1d(key)[0]) for key, _ in items])
    sols = [v for _, v in items]
    grid = sols[0].grid
    other = next((sol.grid for sol in sols if sol.grid != grid), None)
    if other is not None:
        raise ValueError(f"the solutions' time grids differ: {grid} and {other}")
    ys = [_y_path(sol) for sol in sols]
    dt = grid.dt
    n = grid.n_steps

    rho = np.array([float(np.asarray(weight(np.atleast_2d(x))).ravel()[0]) for x in x0s])
    qw = trapezoid_weights(np.diff(x0s)) * rho

    y_norms = np.zeros(n + 1)
    zv_sum = 0.0
    for w, sol, y in zip(qw, sols, ys):
        y_norms += w * np.mean(y**2, axis=1)
        zsq, vsq = np.empty(n), np.empty(n)
        for k in range(n):
            z, vbar = sol.zv_fields(k, sol.basis.predictor(sol.states[k]))
            zsq[k] = np.mean(np.sum(z ** 2, axis=1))
            vsq[k] = np.mean(np.sum(vbar ** 2, axis=1))
        zv_sum += w * dt * float(np.sum(zsq + vsq))
    numerator = float(y_norms.max()) + zv_sum

    denom = 0.0
    for w, x0 in zip(qw, x0s):
        point = np.array([[x0]])
        gx = float(np.asarray(terminal(point)).ravel()[0])
        f0s = np.array([float(np.asarray(driver.f_zero(grid.nodes[k], point)).ravel()[0])
                        for k in range(n)])
        denom += w * (gx**2 + dt * float(np.sum(f0s**2)))
    if denom == 0.0:
        if numerator == 0.0:
            return 0.0
        raise ZeroDenominatorError(
            "zero data norm with nonzero solution energy; inconsistent inputs")
    return numerator / denom
