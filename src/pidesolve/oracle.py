"""Independent reference solvers for acceptance testing.

A 1-d finite-difference PIDE solver with optional obstacle projection
(implicit local part, explicit quadrature of the nonlocal part), the
closed-form jump-diffusion call series, and a CRR binomial tree.  None of
these share code with the Monte-Carlo pipeline.  The closed forms need only
``math``; SciPy serves the finite-difference solver alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import get_lapack_funcs
from scipy.sparse import csr_matrix

from .errors import BoundaryError, NumericError, StabilityError, TailError

__all__ = [
    "FdGrid",
    "FdSolution",
    "fd_solve_pide",
    "merton_price",
    "black_scholes",
    "binomial_american",
]

# the padding jump shifts may request, at most, as a multiple of the base width
_PAD_MARGIN = 3.0


@dataclass(frozen=True)
class FdGrid:
    """Space-time grid for the finite-difference solver.

    ``bc`` selects the boundary rule: "dirichlet" holds the terminal
    condition's values at the padded ends, "linear" enforces zero curvature
    there.  The jump shifts may request padding of at most 3 base widths.
    """

    x_lo: float
    x_hi: float
    n_space: int
    n_time: int
    bc: str = "dirichlet"

    def __post_init__(self):
        if self.n_space < 3:
            raise ValueError("need at least 3 space nodes")
        if self.n_time < 1:
            raise ValueError("need at least 1 time step")
        if not self.x_hi > self.x_lo:
            raise ValueError("empty space interval")
        if self.bc not in ("dirichlet", "linear"):
            raise ValueError(f"unknown boundary kind {self.bc!r}")

    @property
    def dx(self):
        return (self.x_hi - self.x_lo) / (self.n_space - 1)

    @property
    def x(self):
        return np.linspace(self.x_lo, self.x_hi, self.n_space)


@dataclass
class FdSolution:
    """Backward-in-time field on the padded grid plus the base-grid view."""

    x: np.ndarray            # base grid nodes
    times: np.ndarray        # ascending, times[0] = 0
    values: np.ndarray       # (n_time+1, n_base): values[i] at times[i]
    x_padded: np.ndarray
    values_padded: np.ndarray
    diagnostics: dict

    def at_time(self, t):
        i = int(round((t - self.times[0]) / (self.times[1] - self.times[0])))
        if not (0 <= i < len(self.times)) or abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"{t} is not a time slice of the solution")
        return self.values[i]

    def interp(self, t, xq):
        return np.interp(np.asarray(xq, float), self.x, self.at_time(t))


def fd_solve_pide(model, driver, terminal, grid, obstacle=None, horizon=1.0,
                  picard_sweeps=2):
    """Solve the 1-d PIDE backward from ``horizon`` to 0 on the grid.

    Implicit drift/diffusion step (a banded matrix factored once, before the
    time loop), explicit quadrature of the nonlocal part with linear
    interpolation at the shifted nodes (sparse operators built once too),
    driver handled by frozen-gradient Picard sweeps; with an obstacle the
    field is projected onto {u >= h} after every step.  The grid is padded
    by the largest jump shift so shifted evaluations interpolate instead of
    extrapolate.
    """
    if model.dim != 1:
        raise ValueError("the finite-difference oracle is one dimensional")
    dt = horizon / grid.n_time
    lam = model.jump_measure.total_intensity if model.has_jumps else 0.0
    x_base = grid.x
    dx = grid.dx

    # padding so every shift from a base node lands inside the padded grid
    if model.has_jumps:
        b = _jump_table(model, x_base)
        max_up = float(b.max(initial=0.0))
        max_dn = float((-b).max(initial=0.0))
        width = grid.x_hi - grid.x_lo
        if max(max_up, max_dn) > _PAD_MARGIN * width:
            raise BoundaryError(
                f"jump shifts need padding {max(max_up, max_dn):.3g}, more than "
                f"{_PAD_MARGIN}x the base width {width:.3g}")
        n_lo = int(math.ceil(max_dn / dx)) + 1
        n_hi = int(math.ceil(max_up / dx)) + 1
    else:
        n_lo = n_hi = 0
    xp = np.concatenate([
        grid.x_lo - dx * np.arange(n_lo, 0, -1), x_base,
        grid.x_hi + dx * np.arange(1, n_hi + 1)])
    jp = xp.size

    a_diag = np.asarray(model.diffusion_matrix(xp[:, None]), float)[:, 0, 0]
    cfl = dt * (lam + float(np.abs(a_diag).max()) / dx**2)
    if dt * lam > 1.0:
        raise StabilityError(
            f"explicit nonlocal part unstable: dt * intensity = {dt * lam:.3g} > 1")

    # the nonlocal quadrature compensates itself (it subtracts beta . grad u),
    # so the local part uses the raw drift
    b_eff = np.asarray(model.drift(xp[:, None]), float)[:, 0]

    # the implicit operator in banded form, ab[w + i - j, j] = A[i, j]: central
    # differences inside; "dirichlet" keeps identity end rows, while the
    # zero-curvature end rows [1, -2, 1] of "linear" reach one column past
    # the tridiagonal band, so that system keeps two bands on each side
    w = 1 if grid.bc == "dirichlet" else 2
    ab = np.zeros((2 * w + 1, jp))
    ab[w] = 1.0
    ai, bi = a_diag[1:-1], b_eff[1:-1]
    ab[w - 1, 2:] = -dt * (0.5 * ai / dx**2 + 0.5 * bi / dx)
    ab[w, 1:-1] = 1.0 + dt * ai / dx**2
    ab[w + 1, :-2] = -dt * (0.5 * ai / dx**2 - 0.5 * bi / dx)
    if grid.bc == "linear":
        ab[[2, 1, 0], [0, 1, 2]] = ab[[4, 3, 2], [jp - 3, jp - 2, jp - 1]] = 1.0, -2.0, 1.0

    solve = _banded_solver(ab, w)

    nonlocal_term = _nonlocal_term(model, driver.functionals, xp)
    sig_xp = np.asarray(model.diffusion(xp[:, None]), float)[:, 0, 0]

    u = np.asarray(terminal(xp[:, None]), float).reshape(jp)
    if obstacle is not None:
        u = np.maximum(u, np.asarray(obstacle(horizon, xp[:, None]), float).reshape(jp))
    n_time = grid.n_time
    out = np.empty((n_time + 1, jp))
    out[n_time] = u
    g_ends = (u[0], u[-1])

    for step in range(n_time - 1, -1, -1):
        t_k = step * dt
        u_next = u
        u_star = u_next
        for _ in range(max(1, picard_sweeps)):
            du = np.gradient(u_star, dx)
            k2, vbar = nonlocal_term(u_star, du)
            z = (sig_xp * du)[:, None]
            fval = np.asarray(driver.f(t_k, xp[:, None], u_star, z, vbar), float).reshape(jp)
            rhs = u_next + dt * (k2 + fval)
            rhs[0], rhs[-1] = g_ends if grid.bc == "dirichlet" else (0.0, 0.0)
            if not np.isfinite(rhs).all():
                raise NumericError(f"non-finite finite-difference right-hand side at "
                                   f"time step {step}")
            u_star = solve(rhs)
        u = u_star
        if obstacle is not None:
            u = np.maximum(u, np.asarray(obstacle(t_k, xp[:, None]), float).reshape(jp))
        out[step] = u

    base = slice(n_lo, n_lo + x_base.size)
    times = np.linspace(0.0, horizon, n_time + 1)
    return FdSolution(
        x=x_base, times=times, values=out[:, base],
        x_padded=xp, values_padded=out,
        diagnostics={"cfl": cfl, "dt": dt, "dx": dx, "n_pad": (n_lo, n_hi)},
    )


def _banded_solver(ab, w):
    """Factor the banded matrix ab[w + i - j, j] = A[i, j] once; return
    rhs -> A^{-1} rhs.

    LAPACK's gtsv and gbsv, behind ``scipy.linalg.solve_banded``, factor and
    then solve; factoring once with gttrf (w = 1) or gbtrf and solving each
    right-hand side with gttrs or gbtrs gives their answers bit for bit.
    """
    if not np.isfinite(ab).all():
        raise NumericError("non-finite finite-difference implicit matrix")
    if w == 1:
        gttrf, gttrs = get_lapack_funcs(("gttrf", "gttrs"), (ab,))
        *factors, info = gttrf(ab[2, :-1], ab[1], ab[0, 1:])
        solve = lambda rhs: gttrs(*factors, rhs)[0]  # noqa: E731
    else:
        gbtrf, gbtrs = get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        # gbtrf keeps the fill-in of its row interchanges in w more rows on top
        lu = np.zeros((3 * w + 1, ab.shape[1]))
        lu[w:] = ab
        lu, ipiv, info = gbtrf(lu, w, w)
        solve = lambda rhs: gbtrs(lu, w, w, rhs, ipiv)[0]  # noqa: E731
    if info > 0:
        raise np.linalg.LinAlgError("singular finite-difference implicit matrix")
    return solve


def _nonlocal_term(model, functionals, xp):
    """The explicit nonlocal part on the padded grid xp as a function of
    (u, u'), its operators built once: k2 = sum_j w_j [u(x + beta_j) - u -
    beta_j u'] = J u - (sum w) u - (sum w beta) u' and vbar_i = G_i u -
    (sum_j w_j gamma_i(e_j)) u, with J and G_i sparse sums of interpolations."""
    jp = xp.size
    q = len(functionals)
    if not model.has_jumps:
        return lambda u, du: (np.zeros(jp), np.zeros((jp, max(1, q))))
    q_nodes = model.jump_measure.nodes
    q_weights = model.jump_measure.weights
    beta_tab = _jump_table(model, xp)
    shifted = xp + beta_tab
    jump_op = _interp_operator(xp, shifted, q_weights)
    w_total = float(q_weights.sum())
    w_beta = q_weights @ beta_tab
    gamma_w = [q_weights * np.broadcast_to(np.asarray(g(q_nodes), float), q_nodes.shape)
               for g in functionals]
    gamma_ops = [(_interp_operator(xp, shifted, gw), float(gw.sum())) for gw in gamma_w]

    def term(u, du):
        k2 = jump_op @ u - w_total * u - w_beta * du
        vbar = np.zeros((jp, max(1, q)))
        for i, (op, total) in enumerate(gamma_ops):
            vbar[:, i] = op @ u - total * u
        return k2, vbar

    return term


def _jump_table(model, x):
    """beta(x, e_j) on the 1-d nodes x for every quadrature mark, (n_marks, x.size)."""
    marks = model.jump_measure.nodes
    xx = np.broadcast_to(x[None, :, None], (marks.size, x.size, 1))
    ee = np.broadcast_to(marks[:, None], (marks.size, x.size))
    return np.asarray(model.jump_coeff(xx, ee), float)[..., 0]


def _interp_operator(xp, shifted, coefs):
    """Sparse sum_j coefs_j P_j, where P_j u interpolates u linearly at
    shifted[j]; values off the grid clamp to its end values, as np.interp."""
    jp = xp.size
    left = np.clip(np.searchsorted(xp, shifted, side="right") - 1, 0, jp - 2)
    frac = np.clip((shifted - xp[left]) / (xp[left + 1] - xp[left]), 0.0, 1.0)
    rows = np.broadcast_to(np.arange(jp), (2,) + shifted.shape)
    data = coefs[:, None] * np.stack([1.0 - frac, frac])
    return csr_matrix((data.ravel(), (rows.ravel(), np.stack([left, left + 1]).ravel())),
                      shape=(jp, jp))


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def _norm_cdf(x):
    """Standard normal CDF of a scalar."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def black_scholes(s0, strike, rate, sigma, horizon, kind="call"):
    """Black-Scholes European price."""
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    if horizon <= 0 or sigma == 0:
        # a riskless stock: the payoff of the strike discounted to today
        discounted = strike * math.exp(-rate * max(horizon, 0.0))
        intrinsic = max(s0 - discounted, 0.0) if kind == "call" else max(discounted - s0, 0.0)
        return float(intrinsic)
    sq = sigma * math.sqrt(horizon)
    d1 = (math.log(s0 / strike) + (rate + 0.5 * sigma**2) * horizon) / sq
    d2 = d1 - sq
    if kind == "call":
        return float(s0 * _norm_cdf(d1) - strike * math.exp(-rate * horizon) * _norm_cdf(d2))
    return float(strike * math.exp(-rate * horizon) * _norm_cdf(-d2) - s0 * _norm_cdf(-d1))


def merton_price(s0, strike, rate, sigma, horizon, jump_intensity,
                 jump_mean, jump_sd, n_terms=60, kind="call"):
    """Jump-diffusion call/put price by the conditional-Poisson series.

    Sums Black-Scholes prices over the number of jumps with the standard
    parameter shifts.  Raises when the truncated tail is not negligible.
    """
    if n_terms < 1:
        raise ValueError("need at least one series term")
    if not (sigma >= 0 and jump_intensity >= 0 and jump_sd >= 0):
        raise ValueError("sigma, jump intensity and jump sd must be >= 0")
    kbar = math.exp(jump_mean + 0.5 * jump_sd**2) - 1.0
    lam_p = jump_intensity * (1.0 + kbar)
    if lam_p * horizon <= 0:
        return black_scholes(s0, strike, rate, sigma, horizon, kind)
    # the first n_terms terms are the price; the next 40 check the dropped tail
    total = extra = 0.0
    log_w = -lam_p * horizon
    for n in range(n_terms + 40):
        if n > 0:
            log_w += math.log(lam_p * horizon) - math.log(n)
        sig_n = math.sqrt(sigma**2 + n * jump_sd**2 / horizon)
        r_n = rate - jump_intensity * kbar + n * (jump_mean + 0.5 * jump_sd**2) / horizon
        term = math.exp(log_w) * black_scholes(s0, strike, r_n, sig_n, horizon, kind)
        if n < n_terms:
            total += term
        else:
            extra += term
    if extra > 1e-12 * max(1.0, abs(total)):
        raise TailError(f"series tail {extra:.3g} above tolerance after {n_terms} terms")
    return float(total)


def binomial_american(s0, strike, rate, sigma, horizon, steps, kind="put"):
    """Cox-Ross-Rubinstein tree with early exercise."""
    if steps < 1:
        raise ValueError("need at least one step")
    if not sigma >= 0:
        raise ValueError("sigma must be >= 0")
    dt = horizon / steps
    if sigma == 0:
        sigma = 1e-12
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    disc = math.exp(-rate * dt)
    p = (math.exp(rate * dt) - d) / (u - d)
    p = min(max(p, 0.0), 1.0)

    # s0 u^j and d^j once; step i's prices are (s0 u^j) d^(i-j), j = 0..i
    j = np.arange(steps + 1)
    up, down = s0 * u**j, d**j
    prices = up * down[::-1]
    if kind == "call":
        payoff = lambda s: np.maximum(s - strike, 0.0)
    elif kind == "put":
        payoff = lambda s: np.maximum(strike - s, 0.0)
    else:
        raise ValueError("kind must be 'call' or 'put'")
    values = payoff(prices)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1:i + 2] + (1 - p) * values[:i + 1])
        prices = up[:i + 1] * down[i::-1]
        values = np.maximum(values, payoff(prices))
    return float(values[0])


def binomial_european(s0, strike, rate, sigma, horizon, steps, kind="put"):
    """Same tree without early exercise (for the r = 0 equivalence check)."""
    if steps < 1:
        raise ValueError("need at least one step")
    if kind not in ("call", "put"):
        raise ValueError("kind must be 'call' or 'put'")
    dt = horizon / steps
    u = math.exp(sigma * math.sqrt(dt))
    d = 1.0 / u
    disc = math.exp(-rate * dt)
    p = (math.exp(rate * dt) - d) / (u - d)
    j = np.arange(steps + 1)
    prices = s0 * u**j * d ** (steps - j)
    values = np.maximum(strike - prices, 0.0) if kind == "put" else np.maximum(prices - strike, 0.0)
    for i in range(steps - 1, -1, -1):
        values = disc * (p * values[1:i + 2] + (1 - p) * values[:i + 1])
    return float(values[0])
