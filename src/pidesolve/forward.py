"""Forward simulation of the jump diffusion.

Euler stepping between jump times with exact jump insertion: per step the
number of jumps is Poisson, jump times are uniform in the step, marks are
iid from the measure's sampler, and the compensator drift is applied
continuously between events.  Noise for step ``k`` comes from a dedicated
counter-based stream keyed by ``(seed, k + key_offset)``, so a simulation
restarted at an interior node with the matching key offset replays the same
randomness bit for bit, and simulations from different starts draw the same
noise; the flow-composition check and the tangent flow exploit exactly this.

Within a step, the first diffusion segment of every path (to its first jump,
or over the whole step when it does not jump) is one Euler update of all
paths together; only the paths that jump then go on, grouped by their number
of jumps, through each jump and the segment after it.

No step's draws depend on the state, so ``simulate_paths`` submits them to a
one-worker executor, whose thread ``pidesolve-draw_0`` makes them in step
order under the caller's NumPy error state, at most two steps ahead of the
Euler and jump updates on the calling thread.  Only the generator and the
measure's ``mark_sampler`` run there, never a model coefficient, and the
bundle is bit-identical to drawing each step just before advancing it.
"""

from __future__ import annotations

import collections
import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import GridError, NumericError
from .model import _fd_jacobian

__all__ = [
    "TimeGrid",
    "PathBundle",
    "simulate_paths",
    "check_flow_property",
    "moment_report",
    "MomentReport",
    "tangent_flow",
    "TangentFlowReport",
    "dump_paths_csv",
    "dump_paths_binary",
]

_KEY_MASK = (1 << 64) - 1
# steps the draw thread may draw ahead of the step being advanced
_LOOKAHEAD = 2
# moment_report's bootstrap: resamples, and the key of their stream
_N_BOOT = 200
_BOOT_SEED = 0


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid t_k = t0 + k * dt, k = 0..n_steps."""

    t0: float
    t1: float
    n_steps: int

    def __post_init__(self):
        if self.n_steps < 1:
            raise ValueError("need at least one step")
        if not self.t1 > self.t0:
            raise ValueError("grid must be strictly increasing")

    @property
    def dt(self):
        return (self.t1 - self.t0) / self.n_steps

    @property
    def nodes(self):
        return self.t0 + self.dt * np.arange(self.n_steps + 1)

    def node_index(self, t):
        """Index of t among the nodes, or GridError if t is not a node."""
        k = (t - self.t0) / self.dt
        kr = round(k)
        if abs(k - kr) > 1e-9 * max(1.0, abs(k)) or not 0 <= kr <= self.n_steps:
            raise GridError(f"time {t} is not a node of the grid")
        return int(kr)


@dataclass
class PathBundle:
    """Simulated forward paths plus the increments backward passes need.

    ``states`` has shape (n_steps+1, n_paths, dim), ``brownian`` the per-step
    Brownian increments (n_steps, n_paths, dim).  Jumps are stored per step
    as parallel arrays (owning path index, mark), sorted by path then time.
    These are the bundle's only path arrays: the per-step jump counts are
    derived from ``jump_paths`` when read.
    """

    grid: TimeGrid
    states: np.ndarray
    brownian: np.ndarray
    jump_paths: tuple
    jump_marks: tuple

    @property
    def n_paths(self):
        return self.states.shape[1]

    @property
    def dim(self):
        return self.states.shape[2]

    @property
    def jump_counts(self):
        """Jumps per step and path, (n_steps, n_paths) int64, counted from
        ``jump_paths``."""
        counts = np.empty((self.grid.n_steps, self.n_paths), dtype=np.int64)
        for k, paths in enumerate(self.jump_paths):
            counts[k] = np.bincount(paths, minlength=self.n_paths)
        return counts

    def total_jumps_per_path(self):
        return np.bincount(np.concatenate(self.jump_paths), minlength=self.n_paths)

    def compensated_increments(self, functionals, jump_measure):
        """Per-step compensated jump functional increments, shape (q, N, M).

        Entry (i, k, p) is sum over the step's jumps of gamma_i(mark) minus
        dt times the quadrature of gamma_i against the measure.
        """
        functionals = tuple(functionals)
        q = len(functionals)
        n, m = self.grid.n_steps, self.n_paths
        out = np.zeros((q, n, m))
        if q == 0:
            return out
        dt = self.grid.dt
        comp = np.array([jump_measure.integrate(g) for g in functionals])
        for k in range(n):
            marks = self.jump_marks[k]
            paths = self.jump_paths[k]
            for i, gamma in enumerate(functionals):
                out[i, k, :] = -dt * comp[i]
                if marks.size:
                    np.add.at(out[i, k], paths, np.asarray(gamma(marks), dtype=float))
        return out


def _step_stream(seed, key):
    bits = np.array([seed, key], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=bits))


def _euler_segment(model, x, tau, xi):
    """One diffusion segment: state update and Brownian increment.

    ``tau`` is a step length or a (g, 1) column of them, ``xi`` standard
    normal (g, d).  The effective drift is drift minus the compensator drift
    of the jump part.
    """
    dw = np.sqrt(tau) * xi
    # x + (b - c) * tau + sigma dw, summed in that order in the fresh array
    # b - c; the coefficients themselves may be read-only broadcast views
    step = np.subtract(np.asarray(model.drift(x), dtype=float), model.compensator_drift(x))
    step *= tau
    step += x
    step += np.einsum("gij,gj->gi", np.asarray(model.diffusion(x), dtype=float), dw)
    return step, dw


def _draw(model, m, d, dt, rng):
    """All of one step's draws for m paths in dimension d, from its stream.

    Returns (counts, offsets, marks, normals), drawn in that fixed order:
    Poisson counts, jump time offsets in [0, dt), the marks, then one
    standard normal row per diffusion segment, (m + total jumps, d), laid out
    in path-major order, so path p's rows start at p plus the jumps of the
    paths before it.  Offsets and marks are in draw order, grouped by path.
    """
    lam = model.jump_measure.total_intensity if model.has_jumps else 0.0
    if lam > 0:
        counts = rng.poisson(lam * dt, m)
    else:
        counts = np.zeros(m, dtype=np.int64)
    total = int(counts.sum())
    if not total:
        return counts, np.empty(0), np.empty(0), rng.standard_normal((m, d))
    offsets = rng.random(total) * dt
    marks = np.array(model.jump_measure.mark_sampler(rng, total), dtype=float)
    return counts, offsets, marks, rng.standard_normal((m + total, d))


def _advance(model, x, dt, drawn):
    """Advance all paths over one step of length dt on the step's draws.

    ``drawn`` is what ``_draw`` returned for the step.  Returns (new_x, dW,
    jump_paths, jump_marks), the jumps sorted by path, then time.

    Every path's first segment, up to its first jump or to the end of the
    step, runs in one Euler call over all paths in path order.  Only the
    paths that jump, grouped by their number of jumps, then take each jump
    and the segment after it, adding its increment to their dW.
    """
    counts, offsets, marks, normals = drawn
    m = x.shape[0]
    if not offsets.size:
        new_x, dW = _euler_segment(model, x, dt, normals)
        return new_x, dW, np.empty(0, dtype=np.intp), marks

    seg_start = np.cumsum(counts)
    seg_start -= counts
    seg_start += np.arange(m)
    jumped = np.flatnonzero(counts > 0)
    n_jumps = counts[jumped]
    # sort each jumped path's jumps in time, their marks in place in the
    # drawn array; its first segment ends at the first of them
    tau = np.full((m, 1), dt)
    groups = []
    for c in np.flatnonzero(np.bincount(n_jumps)):
        idx = jumped[n_jumps == c]
        jcols = (seg_start[idx] - idx)[:, None] + np.arange(c)
        times = offsets[jcols]
        order = np.argsort(times, axis=1)
        times = np.take_along_axis(times, order, axis=1)
        mk = np.take_along_axis(marks[jcols], order, axis=1)
        marks[jcols] = mk
        tau[idx, 0] = times[:, 0]
        groups.append((idx, times, mk))

    new_x, dW = _euler_segment(model, x, tau, np.take(normals, seg_start, axis=0))
    for idx, times, mk in groups:
        c = times.shape[1]
        rows = seg_start[idx]
        cur = new_x[idx]
        for s in range(1, c + 1):
            cur = cur + np.asarray(model.jump_coeff(cur, mk[:, s - 1]), dtype=float)
            end = times[:, s] if s < c else dt
            seg = np.maximum(end - times[:, s - 1], 0.0)[:, None]
            cur, dw = _euler_segment(model, cur, seg, np.take(normals, rows + s, axis=0))
            dW[idx] += dw
        new_x[idx] = cur
    return new_x, dW, np.repeat(jumped, n_jumps), marks


def _as_start(x0, n_paths, dim):
    x0 = np.asarray(x0, dtype=float)
    if x0.ndim == 0:
        x0 = x0.reshape(1)
    if x0.ndim == 1:
        if x0.size != dim:
            raise ValueError(f"starting point has dim {x0.size}, model dim {dim}")
        return np.broadcast_to(x0, (n_paths, dim)).copy()
    if x0.shape != (n_paths, dim):
        raise ValueError("per-path starts must have shape (n_paths, dim)")
    return x0.copy()


def simulate_paths(model, grid, x0, n_paths, seed, key_offset=0):
    """Simulate the forward jump diffusion on the grid.

    ``x0`` is a point (all paths start there) or an (n_paths, dim) array of
    per-path starts for dispersed-start experiments.  Identical
    (model, grid, x0, n_paths, seed, key_offset) give a bit-identical bundle.
    The seed and every step's key ``key_offset + k`` are ints in [0, 2^64),
    the range of the streams' 64-bit key.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    if not 0 <= seed <= _KEY_MASK:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    if not 0 <= key_offset <= _KEY_MASK - (grid.n_steps - 1):
        raise ValueError(f"key_offset + k must be in [0, 2**64) for every step k < "
                         f"{grid.n_steps}, got key_offset {key_offset}")
    dt = grid.dt
    x = _as_start(x0, n_paths, model.dim)
    n = grid.n_steps
    states = np.empty((n + 1, n_paths, model.dim))
    states[0] = x
    brownian = np.empty((n, n_paths, model.dim))
    jp, jm = [], []

    def draw(key):
        return _draw(model, n_paths, model.dim, dt, _step_stream(seed, key))

    # step k + _LOOKAHEAD is drawn on the worker while step k advances;
    # .result() raises a draw's error at its own step, and the shutdown
    # drops the draws not yet started and joins the worker
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="pidesolve-draw",
                              initializer=functools.partial(np.seterr, **np.geterr()))
    try:
        ahead = collections.deque(pool.submit(draw, key_offset + k)
                                  for k in range(min(_LOOKAHEAD, n)))
        for k in range(n):
            drawn = ahead.popleft().result()
            if k + _LOOKAHEAD < n:
                ahead.append(pool.submit(draw, key_offset + k + _LOOKAHEAD))
            x, dw, paths_k, marks_k = _advance(model, x, dt, drawn)
            if not np.isfinite(x).all():
                bad = np.argwhere(~np.isfinite(x))
                p, comp = bad[0]
                raise NumericError(f"non-finite state at step {k + 1}, path {p} "
                                   f"(component {comp})")
            states[k + 1] = x
            brownian[k] = dw
            jp.append(paths_k)
            jm.append(marks_k)
    finally:
        pool.shutdown(cancel_futures=True)

    return PathBundle(grid=grid, states=states, brownian=brownian,
                      jump_paths=tuple(jp), jump_marks=tuple(jm))


def check_flow_property(model, t, s, r, x0, n_paths, seed, n_steps):
    """Max pathwise gap between X_{t,r}(x) and the composition through s.

    Both simulations share noise through the per-step key streams; on an
    aligned grid the discrepancy is zero up to floating point.
    """
    if not t < s < r:
        raise ValueError("need t < s < r")
    grid_tr = TimeGrid(t, r, n_steps)
    m = grid_tr.node_index(s)
    if m == 0 or m == n_steps:
        raise GridError("s must be an interior node shared by both sub-grids")
    direct = simulate_paths(model, grid_tr, x0, n_paths, seed)
    leg1 = simulate_paths(model, TimeGrid(t, s, m), x0, n_paths, seed)
    leg2 = simulate_paths(model, TimeGrid(s, r, n_steps - m), leg1.states[-1],
                          n_paths, seed, key_offset=m)
    gap = np.abs(leg2.states[-1] - direct.states[-1])
    return float(gap.max())


@dataclass(frozen=True)
class MomentReport:
    ratio: float
    stderr: float


def moment_report(bundle, x0, p):
    """Empirical ratio E[sup_k |X_k - x0|^p] / ((t1 - t0) (1 + |x0|^p)).

    Bootstrap standard error over paths, from 200 resamples.  Certifies the
    uniform moment bound of the flow when scanned over starting points.
    """
    if p < 2:
        raise ValueError("p must be >= 2")
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    dev = np.linalg.norm(bundle.states - x0[None, None, :], axis=2)
    sup_p = dev.max(axis=0) ** p
    denom = (bundle.grid.t1 - bundle.grid.t0) * (1.0 + np.linalg.norm(x0) ** p)
    ratio = float(sup_p.mean() / denom)
    rng = np.random.Generator(np.random.Philox(key=np.array([_BOOT_SEED, 0xB0507],
                                                            dtype=np.uint64)))
    m = sup_p.size
    boots = np.empty(_N_BOOT)
    # resamples drawn and averaged 16 at a time bound the memory; the chunks
    # continue one index stream, so they draw what one (200, m) call draws
    for s in range(0, _N_BOOT, 16):
        idx = rng.integers(0, m, size=(min(16, _N_BOOT - s), m))
        boots[s:s + idx.shape[0]] = sup_p[idx].mean(axis=1) / denom
    return MomentReport(ratio=ratio, stderr=float(boots.std(ddof=1)))


@dataclass(frozen=True)
class TangentFlowReport:
    mean_det: float
    stderr: float
    determinants: np.ndarray


def tangent_flow(model, grid, x0, n_paths, seed):
    """Mean, standard error and values of det(dX_{t0,t1}/dx) over paths.

    The Jacobian of the simulated flow x -> X_{t0,t1}(x) is taken by central
    differences (``model._fd_jacobian``) of whole simulations from the
    shifted starts.  Jump counts, times, marks and Brownian normals come
    from per-step streams keyed by the seed and the step, never by the state, so
    both sides of each difference move along the same noise and the quotient
    differentiates one realization of the flow, jumps included.
    """
    def flow(x):
        return simulate_paths(model, grid, x, n_paths, seed).states[-1]

    jac = _fd_jacobian(flow, _as_start(x0, n_paths, model.dim))
    if not np.isfinite(jac).all():
        raise NumericError("non-finite tangent flow")
    dets = np.linalg.det(jac)
    se = float(dets.std(ddof=1) / math.sqrt(dets.size)) if dets.size > 1 else 0.0
    return TangentFlowReport(mean_det=float(dets.mean()), stderr=se, determinants=dets)


# ---------------------------------------------------------------------------
# path dumps
# ---------------------------------------------------------------------------

def dump_paths_csv(bundle, path):
    """Write paths as CSV rows (path, step, time, x[0..d-1], n_jumps)."""
    n1, m, d = bundle.states.shape
    times = bundle.grid.nodes
    counts = np.vstack([np.zeros((1, m), dtype=np.int64), bundle.jump_counts])
    with open(path, "w") as fh:
        cols = ",".join(f"x{i}" for i in range(d))
        fh.write(f"path,step,time,{cols},n_jumps\n")
        for pth in range(m):
            for k in range(n1):
                xs = ",".join(f"{v:.17g}" for v in bundle.states[k, pth])
                fh.write(f"{pth},{k},{times[k]:.17g},{xs},{counts[k, pth]}\n")


_BIN_MAGIC = b"PIDE1"


def dump_paths_binary(bundle, path):
    """Binary path dump, little endian.

    Layout: 5-byte magic ``PIDE1``; three uint32 (n_times, n_paths, dim);
    n_times float64 node times; then the state array in C order
    (n_times, n_paths, dim) as float64.
    """
    n1, m, d = bundle.states.shape
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        np.array([n1, m, d], dtype="<u4").tofile(fh)
        bundle.grid.nodes.astype("<f8").tofile(fh)
        bundle.states.astype("<f8").tofile(fh)


def load_paths_binary(path):
    """Read a binary dump produced by dump_paths_binary."""
    with open(path, "rb") as fh:
        magic = fh.read(5)
        if magic != _BIN_MAGIC:
            raise ValueError(f"bad magic {magic!r}")
        n1, m, d = np.fromfile(fh, dtype="<u4", count=3)
        times = np.fromfile(fh, dtype="<f8", count=int(n1))
        states = np.fromfile(fh, dtype="<f8", count=int(n1 * m * d))
    return times, states.reshape(int(n1), int(m), int(d))
