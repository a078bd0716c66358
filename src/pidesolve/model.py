"""Problem data for the PIDE solver.

Declares the coefficients of the state dynamics (drift, diffusion, jump
coefficient, finite-activity jump measure), the nonlinear driver, obstacle
and weight function, together with validation helpers for the structural
assumptions they must satisfy.  The PIDE's generator is discretised in
one place only, the finite-difference oracle (``oracle.fd_solve_pide``).

Vectorization contract: all user-supplied coefficient callables accept
batched inputs.  For a model of dimension ``d``:

* ``drift(x)``      : ``(..., d) -> (..., d)``
* ``diffusion(x)``  : ``(..., d) -> (..., d, d)``
* ``jump_coeff(x, e)``: ``(..., d), (...,) -> (..., d)`` (scalar marks)

``scalar_model`` wraps plain one-dimensional callables into this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "JumpMeasure",
    "ModelSpec",
    "DriverSpec",
    "ObstacleSpec",
    "WeightFunction",
    "scalar_model",
    "translation_jump",
    "named_model",
]


# ---------------------------------------------------------------------------
# jump measure
# ---------------------------------------------------------------------------

def _empty_sampler(rng, n):
    if n:
        raise ValueError("measure has zero intensity, cannot draw marks")
    return np.empty(0)


@dataclass(frozen=True)
class JumpMeasure:
    """Finite-activity mark measure with sampler and matching quadrature.

    ``total_intensity`` is the expected number of jumps per unit time.
    ``mark_sampler(rng, n)`` draws ``n`` iid marks.  The simulator calls it
    on its draw thread, one call at a time, so it must draw from the
    generator it is given and from nothing else (no shared state of its
    own).  ``nodes``/``weights`` approximate integrals against the measure;
    the weights are nonnegative and sum to the intensity.  Marks are scalar.
    """

    total_intensity: float
    mark_sampler: Callable = _empty_sampler
    nodes: np.ndarray = field(default_factory=lambda: np.empty(0))
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        lam = float(self.total_intensity)
        if not math.isfinite(lam) or lam < 0:
            raise ValueError("total intensity must be finite and >= 0")
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if nodes.shape != weights.shape or nodes.ndim != 1:
            raise ValueError("nodes and weights must be 1-d arrays of equal length")
        if np.any(weights < 0):
            raise ValueError("quadrature weights must be nonnegative")
        small = np.sum(weights * np.minimum(1.0, nodes**2))
        if not math.isfinite(small):
            raise ValueError("sum of w * (1 ^ |e|^2) must be finite")
        if weights.size and abs(weights.sum() - lam) > 1e-8 * max(1.0, lam):
            raise ValueError("quadrature weights must sum to the total intensity")
        if lam > 0 and weights.size == 0:
            raise ValueError("positive intensity requires a nonempty quadrature")
        nodes.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "total_intensity", lam)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def is_active(self):
        return self.total_intensity > 0 and self.nodes.size > 0

    def integrate(self, f):
        """Quadrature of ``f`` against the measure: sum_j w_j f(e_j)."""
        if not self.nodes.size:
            return 0.0
        return float(np.sum(self.weights * np.asarray(f(self.nodes), dtype=float)))

    # -- built-in constructors ------------------------------------------------

    @classmethod
    def none(cls):
        """Measure with zero intensity (no jumps)."""
        return cls(0.0)

    @classmethod
    def uniform(cls, lo=-1.0, hi=1.0, intensity=1.0, n_nodes=32):
        """Marks uniform on [lo, hi]; Gauss-Legendre quadrature."""
        x, w = np.polynomial.legendre.leggauss(n_nodes)
        nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * x
        weights = intensity * w / 2.0

        def sampler(rng, n):
            return rng.uniform(lo, hi, n)

        return cls(intensity, sampler, nodes, weights)

    @classmethod
    def gaussian(cls, mean=0.0, sd=1.0, intensity=1.0, n_nodes=32):
        """Normally distributed marks; Gauss-Hermite quadrature."""
        x, w = np.polynomial.hermite.hermgauss(n_nodes)
        nodes = mean + math.sqrt(2.0) * sd * x
        weights = intensity * w / math.sqrt(math.pi)

        def sampler(rng, n):
            return rng.normal(mean, sd, n)

        return cls(intensity, sampler, nodes, weights)

    @classmethod
    def two_point(cls, down=-0.1, up=0.1, p_up=0.5, intensity=1.0):
        """Two-atom mark distribution (Kou-like up/down moves)."""
        if not 0.0 <= p_up <= 1.0:
            raise ValueError("p_up must lie in [0, 1]")
        nodes = np.array([down, up])
        weights = intensity * np.array([1.0 - p_up, p_up])

        def sampler(rng, n):
            return np.where(rng.random(n) < p_up, up, down)

        return cls(intensity, sampler, nodes, weights)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """State dynamics: drift, diffusion, jump coefficient and jump measure.

    The spec holds no Jacobians: ``forward.tangent_flow`` differentiates the
    simulated flow itself, by the central differences of ``_fd_jacobian``.
    """

    dim: int
    drift: Callable
    diffusion: Callable
    jump_coeff: Optional[Callable] = None
    jump_measure: JumpMeasure = field(default_factory=JumpMeasure.none)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.jump_measure.is_active and self.jump_coeff is None:
            raise ValueError("active jump measure requires a jump coefficient")
        # a translation jump's compensator sum_j w_j e_j is one constant, summed
        # from 0.0 in node order as the quadrature loop of ``compensator_drift``
        # sums it, so the drift keeps its bits
        constant = None
        if self.has_jumps and self.jump_coeff is translation_jump:
            constant = 0.0
            for e_j, w_j in zip(self.jump_measure.nodes, self.jump_measure.weights):
                constant = constant + w_j * e_j
        object.__setattr__(self, "_compensator", constant)

    @property
    def has_jumps(self):
        return self.jump_measure.is_active and self.jump_coeff is not None

    def diffusion_matrix(self, x):
        """a = sigma sigma^T at x, shape (..., d, d)."""
        sig = np.asarray(self.diffusion(x), dtype=float)
        return sig @ np.swapaxes(sig, -1, -2)

    def compensator_drift(self, x):
        """Quadrature of the jump coefficient: sum_j w_j beta(x, e_j).

        This is the drift the simulator subtracts between jumps so that the
        jump part is integrated against the compensated measure.  A constant
        compensator comes back as a read-only broadcast view.
        """
        x = np.asarray(x, dtype=float)
        if not self.has_jumps:
            return np.broadcast_to(0.0, x.shape)
        if self._compensator is not None:
            return np.broadcast_to(self._compensator, x.shape)
        nodes = self.jump_measure.nodes
        weights = self.jump_measure.weights
        out = np.zeros_like(x)
        for e_j, w_j in zip(nodes, weights):
            out = out + w_j * np.asarray(self.jump_coeff(x, np.full(x.shape[:-1], e_j)))
        return out


def translation_jump(x, e):
    """beta(x, e) = e: the jump shifts every coordinate of x by the mark."""
    x = np.asarray(x, dtype=float)
    return np.broadcast_to(np.asarray(e, dtype=float)[..., None], x.shape).astype(float)


def scalar_model(drift, diffusion, jump=None, jump_measure=None):
    """Build a 1-d ModelSpec from plain scalar callables.

    ``drift`` and ``diffusion`` map a batch ``(m,)`` of states to ``(m,)``
    values; ``jump(x, e)`` maps batched states and marks to displacements.
    ``translation_jump`` is passed on as it is.
    """
    jm = jump_measure if jump_measure is not None else JumpMeasure.none()

    def _drift(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(drift(x[..., 0]), dtype=float)[..., None]

    def _diff(x):
        x = np.asarray(x, dtype=float)
        return np.asarray(diffusion(x[..., 0]), dtype=float)[..., None, None]

    _jump = jump
    if jump is not None and jump is not translation_jump:
        def _jump(x, e):
            x = np.asarray(x, dtype=float)
            return np.asarray(jump(x[..., 0], np.asarray(e, dtype=float)), dtype=float)[..., None]

    return ModelSpec(dim=1, drift=_drift, diffusion=_diff, jump_coeff=_jump,
                     jump_measure=jm)


# default parameters of each preset; ``named_model`` and config validation
# accept exactly these keys
PRESET_PARAMS = {
    "bs": {"r": 0.05, "sigma": 0.2},
    "merton": {"r": 0.05, "sigma": 0.2, "intensity": 1.0, "n_nodes": 32,
               "jump_mean": -0.1, "jump_sd": 0.15},
    "kou": {"r": 0.05, "sigma": 0.2, "intensity": 1.0,
            "down": -0.1, "up": 0.1, "p_up": 0.5},
    "toy-uniform": {"intensity": 1.0, "half_width": 1.0, "n_nodes": 32},
}


def named_model(name, **params):
    """Built-in model presets selectable by string key.

    * ``"bs"``          geometric Brownian motion in price space.
    * ``"merton"``      risk-neutral jump diffusion in log-price space with
                        normal jump sizes; translation jumps keep the scheme
                        exact in distribution.
    * ``"kou"``         log-price dynamics with two-point jump sizes.
    * ``"toy-uniform"`` unit diffusion plus translation jumps with marks
                        uniform on [-1, 1] at unit intensity.

    ``params`` override the defaults in ``PRESET_PARAMS``; any other key is
    rejected.
    """
    name = name.lower()
    if name not in PRESET_PARAMS:
        raise ValueError(f"unknown model preset: {name!r}")
    unknown = sorted(set(params) - set(PRESET_PARAMS[name]))
    if unknown:
        raise ValueError(f"unknown parameters for preset {name!r}: {unknown}")
    p = {**PRESET_PARAMS[name], **params}
    if name == "bs":
        r, sigma = p["r"], p["sigma"]
        return scalar_model(
            drift=lambda x: r * x,
            diffusion=lambda x: sigma * x,
        )
    if name == "toy-uniform":
        half_width = p["half_width"]
        jm = JumpMeasure.uniform(-half_width, half_width, p["intensity"], p["n_nodes"])
        return scalar_model(
            drift=lambda x: np.zeros_like(x),
            diffusion=lambda x: np.ones_like(x),
            jump=translation_jump,
            jump_measure=jm,
        )
    r, sigma, intensity = p["r"], p["sigma"], p["intensity"]
    if name == "merton":
        jump_mean, jump_sd = p["jump_mean"], p["jump_sd"]
        jm = JumpMeasure.gaussian(jump_mean, jump_sd, intensity, p["n_nodes"])
        kbar = math.exp(jump_mean + 0.5 * jump_sd**2) - 1.0
        mbar = jump_mean
    else:
        down, up, p_up = p["down"], p["up"], p["p_up"]
        jm = JumpMeasure.two_point(down, up, p_up, intensity)
        kbar = (1 - p_up) * (math.exp(down) - 1) + p_up * (math.exp(up) - 1)
        mbar = (1 - p_up) * down + p_up * up
    # log-price drift chosen so the compensated dynamics reproduce the
    # risk-neutral process: effective drift = r - sigma^2/2 - lambda*kbar
    b = r - 0.5 * sigma**2 - intensity * kbar + intensity * mbar
    return scalar_model(
        drift=lambda x: np.broadcast_to(b, x.shape),
        diffusion=lambda x: np.broadcast_to(sigma, x.shape),
        jump=translation_jump,
        jump_measure=jm,
    )


# ---------------------------------------------------------------------------
# driver / obstacle / weight
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DriverSpec:
    """Nonlinear driver f(t, x, y, z, vbar).

    ``vbar`` collects the values of finitely many linear jump functionals
    vbar_i = integral of v(e) gamma_i(e) against the jump measure, where the
    ``functionals`` gamma_i are scalar callables of the mark.  ``lipschitz``
    is the declared joint Lipschitz constant in (y, z, vbar).
    """

    f: Callable
    functionals: tuple = ()
    lipschitz: float = 0.0

    MAX_FUNCTIONALS = 8

    def __post_init__(self):
        if not self.lipschitz >= 0:
            raise ValueError("lipschitz must be >= 0")
        object.__setattr__(self, "functionals", tuple(self.functionals))
        if len(self.functionals) > self.MAX_FUNCTIONALS:
            raise ValueError(
                f"at most {self.MAX_FUNCTIONALS} jump functionals are supported; "
                f"regression can only estimate finitely many conditional moments")

    @property
    def n_functionals(self):
        return len(self.functionals)

    def f_zero(self, t, x):
        """f(t, x, 0, 0, 0), the inhomogeneous part of the driver."""
        x = np.asarray(x, dtype=float)
        m = x.shape[0] if x.ndim > 1 else 1
        y = np.zeros(m)
        z = np.zeros((m, x.shape[-1]))
        v = np.zeros((m, max(1, self.n_functionals)))
        return np.asarray(self.f(t, x, y, z, v), dtype=float)


def zero_driver():
    return DriverSpec(f=lambda t, x, y, z, v: np.zeros_like(y), lipschitz=0.0)


def discount_driver(rate):
    """f = -rate * y: the discounting driver of linear pricing problems."""
    return DriverSpec(f=lambda t, x, y, z, v: -rate * y, lipschitz=abs(rate))


def borrowing_rate_driver(rate, borrow_rate, risk_premium, sigma):
    """Driver for hedging one stock of volatility ``sigma`` when borrowing
    costs more than lending (El Karoui, Peng & Quenez 1997, section 1.1).

    z is sigma times the amount held in the stock, so the cash is
    y - sum(z) / sigma, and cash below zero pays ``borrow_rate``:
    f(t,x,y,z,v) = -(rate*y + risk_premium*sum(z)
                     + (borrow_rate - rate) * min(y - sum(z) / sigma, 0)).
    Its slope is rate or borrow_rate in y and risk_premium or
    risk_premium - (borrow_rate - rate) / sigma in z; the Lipschitz
    constant is the sum of the larger of each pair.
    """
    if not sigma > 0:
        raise ValueError("sigma must be > 0")
    spread = borrow_rate - rate

    def f(t, x, y, z, v):
        zs = np.sum(z, axis=-1)
        return -(rate * y + risk_premium * zs + spread * np.minimum(y - zs / sigma, 0.0))

    return DriverSpec(f=f, lipschitz=max(abs(rate), abs(borrow_rate))
                      + max(abs(risk_premium), abs(risk_premium - spread / sigma)))


@dataclass(frozen=True)
class ObstacleSpec:
    """Obstacle h(t, x), continuous with |h| <= iota*(1 + |x|^kappa)."""

    h: Callable
    iota: float = 1.0
    kappa: float = 1.0

    def __post_init__(self):
        for name in ("iota", "kappa"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")

    def __call__(self, t, x):
        return np.asarray(self.h(t, np.asarray(x, dtype=float)), dtype=float)

    def spot_check_growth(self, box, t_grid):
        """Max of |h| / (iota*(1+|x|^kappa)) on the times t_grid and 64
        points of the box; <= 1 passes."""
        xs = np.linspace(box[0], box[1], 64)[:, None]
        worst = 0.0
        for t in t_grid:
            vals = np.abs(self(t, xs))
            bound = self.iota * (1.0 + np.linalg.norm(xs, axis=-1) ** self.kappa)
            worst = max(worst, float(np.max(vals / bound)))
        return worst


@dataclass(frozen=True)
class WeightFunction:
    """Integrable weight rho(x) = (1 + |x|)^(-p)."""

    p: float

    def __post_init__(self):
        if not self.p > 0:
            raise ValueError("weight exponent p must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 0:
            return (1.0 + abs(float(x))) ** (-self.p)
        r = np.linalg.norm(x, axis=-1) if x.shape[-1:] and x.ndim > 1 else np.abs(x)
        return (1.0 + r) ** (-self.p)

    def exponent_floor(self, dim, kappa):
        """Smallest admissible exponent kappa + dim + 1 for obstacle problems."""
        return kappa + dim + 1

    def admits_obstacle(self, dim, kappa):
        return self.p >= self.exponent_floor(dim, kappa) - 1e-12


# ---------------------------------------------------------------------------
# quadrature and derivatives of user fields
# ---------------------------------------------------------------------------

def trapezoid_weights(h):
    """Trapezoid quadrature weights on the nodes whose spacings are h: each
    node weighs half the spacings beside it; a node alone weighs 1."""
    if not h.size:
        return np.ones(1)
    w = np.append(h, 0.0)
    w[1:] += h
    return w / 2


def _fd_jacobian(fn, x, h=None):
    """Central-difference Jacobian of fn at the points x (..., d).

    ``fn`` maps x to outputs of any rank (a scalar per point included);
    the derivatives d fn / d x_k are stacked along a new last axis.  ``h``
    is the step, a scalar or one per coordinate of x, by default
    1e-5 * (1 + |x|).
    """
    x = np.asarray(x, dtype=float)
    h = 1e-5 * (1.0 + np.abs(x)) if h is None else np.broadcast_to(np.asarray(h, float), x.shape)
    cols = []
    for k in range(x.shape[-1]):
        hk = h[..., k]
        xp, xm = x.copy(), x.copy()
        xp[..., k] += hk
        xm[..., k] -= hk
        diff = np.asarray(fn(xp), dtype=float) - np.asarray(fn(xm), dtype=float)
        step = np.reshape(2.0 * hk, np.shape(hk) + (1,) * (np.ndim(diff) - np.ndim(hk)))
        cols.append(diff / step)
    return np.stack(cols, axis=-1)
