"""Empirical equivalence-of-norms checks.

Compares the weighted integral of E|phi(X_{t,s}(x))| over starting points
against the weighted integral of |phi| itself, for a family of test
functions and several horizons.  The outer integral is a deterministic
Gauss-Legendre panel quadrature; the inner expectation is Monte Carlo on a
single dispersed-start simulation, so all horizons share one set of paths.
Two-sided boundedness of these ratios is the bridge between path-space and
weighted-Sobolev estimates; the artifact can only certify it empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import GridError, QuadratureError
from .forward import TimeGrid, simulate_paths
from .model import trapezoid_weights

__all__ = [
    "XQuadrature",
    "gauss_legendre_panels",
    "NormRatioReport",
    "norm_ratio",
    "spacetime_norm_ratio",
    "shipped_phi_family",
]

# the finest grid ``_grid_containing`` builds over a set of horizons
_MAX_GRID_STEPS = 4000


@dataclass(frozen=True)
class XQuadrature:
    """Deterministic quadrature over starting points (1-d)."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, float)
        weights = np.asarray(self.weights, float)
        if nodes.shape != weights.shape or nodes.ndim != 1 or not nodes.size:
            raise ValueError("nodes and weights must be equal-length 1-d arrays")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def size(self):
        return self.nodes.size


def gauss_legendre_panels(radius, n_panels=16, nodes_per_panel=8):
    """Composite Gauss-Legendre rule on [-radius, radius]."""
    x, w = np.polynomial.legendre.leggauss(nodes_per_panel)
    edges = np.linspace(-radius, radius, n_panels + 1)
    nodes = []
    weights = []
    for a, b in zip(edges[:-1], edges[1:]):
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    return XQuadrature(np.concatenate(nodes), np.concatenate(weights))


@dataclass(frozen=True)
class NormRatioReport:
    """Rows (phi_id, s, ratio, stderr) plus the family-wide extremes."""

    rows: tuple

    @property
    def ratios(self):
        return np.array([r[2] for r in self.rows])

    @property
    def min_ratio(self):
        return float(self.ratios.min())

    @property
    def max_ratio(self):
        return float(self.ratios.max())

    def bracket(self):
        return self.min_ratio, self.max_ratio


def _grid_containing(t, s_list):
    """Smallest uniform grid from t whose nodes contain every s.

    A grid over ``_MAX_GRID_STEPS`` steps is halved while it can be; a grid
    still over the cap, or a horizon that is then no longer a node, raises
    GridError.
    """
    fracs = [Fraction(s - t).limit_denominator(10**6) for s in s_list]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // math.gcd(denom, f.denominator)
    smax = max(s_list)
    n = int(round((smax - t) * denom))
    while n > _MAX_GRID_STEPS and n % 2 == 0:
        n //= 2
    if n < 1:
        raise ValueError("horizons collapse onto the start time")
    if n > _MAX_GRID_STEPS:
        raise GridError(f"horizons {list(s_list)} need a grid of {n} steps from {t}, "
                        f"over the cap of {_MAX_GRID_STEPS} steps")
    grid = TimeGrid(t, smax, n)
    for s in s_list:
        try:
            grid.node_index(s)
        except GridError:
            raise GridError(
                f"horizon {s} is not a node of the {n}-step grid on [{t}, {smax}]; "
                f"grids are coarsened to at most {_MAX_GRID_STEPS} steps") from None
    return grid


def _tail_check(fn, weight, quad, label):
    """Flag integrals whose tail beyond the quadrature range is material."""
    radius = float(np.abs(quad.nodes).max())
    ext = gauss_legendre_panels(1.5 * radius, n_panels=12, nodes_per_panel=8)
    outer = np.abs(ext.nodes) > radius
    vals_out = np.abs(fn(ext.nodes[outer])) * weight(ext.nodes[outer, None])
    tail = float(np.sum(ext.weights[outer] * vals_out))
    base = float(np.sum(quad.weights * weight(quad.nodes[:, None])
                        * np.abs(fn(quad.nodes))))
    if base <= 0 or tail > 0.01 * base:
        raise QuadratureError(
            f"{label}: quadrature tail {tail:.3g} above 1% of the integral {base:.3g}")
    return base


def _dispersed_paths(model, grid, quad, n_paths, seed):
    """One simulation from the quadrature nodes: n_paths // n_nodes paths
    per node, grouped node by node."""
    if model.dim != 1:
        raise ValueError("norm checks are implemented for 1-d models")
    m_per = n_paths // quad.size
    if m_per < 2:
        raise ValueError(f"need at least 2 paths per quadrature node, "
                         f"got {n_paths} paths for {quad.size} nodes")
    x0 = np.repeat(quad.nodes, m_per)[:, None]
    return simulate_paths(model, grid, x0, quad.size * m_per, seed)


def _node_moments(vals, w):
    """Quadrature with weights w of the per-node means of the path values
    vals (in the order of ``_dispersed_paths``) and the Monte-Carlo variance
    of that sum.  A node whose path values all coincide gets that value as
    its exact mean."""
    vals = vals.reshape(w.size, -1)
    mean = vals.mean(axis=1)
    same = np.ptp(vals, axis=1) == 0.0
    mean[same] = vals[same, 0]
    var = vals.var(axis=1, ddof=1)
    return float(np.sum(w * mean)), float(np.sum(w**2 * var / vals.shape[1]))


def norm_ratio(model, weight, phi_family, t, s_list, x_quadrature, n_paths, seed):
    """Ratios of E-composed to plain weighted L1 norms for each (phi, s).

    One simulation serves every horizon: paths start from the quadrature
    nodes (n_paths split evenly across nodes) and are read off at each s.
    The zero model gives ratio exactly 1 for every phi by construction.
    """
    quad = x_quadrature
    grid = _grid_containing(t, list(s_list))
    bundle = _dispersed_paths(model, grid, quad, n_paths, seed)
    w = quad.weights * weight(quad.nodes[:, None])

    rows = []
    for pid, phi in phi_family:
        denom = _tail_check(phi, weight, quad, pid)
        for s in s_list:
            k = grid.node_index(s)
            num, var = _node_moments(np.abs(phi(bundle.states[k][:, 0])), w)
            rows.append((pid, float(s), num / denom, math.sqrt(var) / denom))
    return NormRatioReport(rows=tuple(rows))


def spacetime_norm_ratio(model, weight, psi_family, t, horizon, x_quadrature,
                         n_paths, seed, n_steps=20):
    """Space-time variant: trapezoid over the simulation grid in time.

    For time-independent integrands this reproduces the weighted time
    average of the per-horizon ratios exactly (same paths, same rule).
    """
    quad = x_quadrature
    grid = TimeGrid(t, horizon, n_steps)
    bundle = _dispersed_paths(model, grid, quad, n_paths, seed)
    w = quad.weights * weight(quad.nodes[:, None])
    wt = trapezoid_weights(np.full(n_steps, grid.dt))

    rows = []
    for pid, psi in psi_family:
        num = 0.0
        den = 0.0
        var_acc = 0.0
        for k, s in enumerate(grid.nodes):
            mean_k, var_k = _node_moments(np.abs(psi(s, bundle.states[k][:, 0])), w)
            num += wt[k] * mean_k
            var_acc += wt[k] ** 2 * var_k
            den += wt[k] * float(np.sum(w * np.abs(psi(s, quad.nodes))))
        if den <= 0:
            raise QuadratureError(f"{pid}: vanishing reference integral")
        rows.append((pid, float(horizon), num / den, math.sqrt(var_acc) / den))
    return NormRatioReport(rows=tuple(rows))


def shipped_phi_family():
    """Mixed smooth and rough test functions probing both regularity regimes."""

    def indicator(lo, hi):
        return lambda x: ((x >= lo) & (x <= hi)).astype(float)

    fam = [
        ("box[-1,1]", indicator(-1.0, 1.0)),
        ("box[0,2]", indicator(0.0, 2.0)),
        ("gauss", lambda x: np.exp(-x**2)),
        ("gauss-wide", lambda x: np.exp(-0.25 * x**2)),
        ("x1-gauss", lambda x: np.abs(x) * np.exp(-x**2)),
        ("x2-gauss", lambda x: x**2 * np.exp(-x**2)),
        ("step-mix", lambda x: (0.5 + (x > 0)) * ((np.abs(x) <= 1.5).astype(float))),
    ]
    return fam
