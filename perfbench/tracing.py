"""Span recording around the calls into each pidesolve layer.

The wrappers are installed at run time from the benchmark's own files; the
package itself is not modified.  Because pidesolve binds functions by name
(``from .bsde import solve_bsde``), a wrapper replaces every binding of the
original function in the loaded ``pidesolve`` modules, so the attribute the
caller actually looks up is the wrapped one.  Methods are wrapped on their
class.

Spans stay in memory as ``[name, layer, start, end, parent, counts]`` and
are written out once, at the end of the run.  Self time is derived from the
spans afterwards (see ``summarize``).
"""

from __future__ import annotations

import importlib
import json
import sys
import time

__all__ = ["Tracer", "install", "summarize"]


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn, name, layer, counter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, layer, clock(), None, stack[-1] if stack else None, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if counter is not None:
                span[5] = counter(args, kwargs, result)
            return result

        return traced

    def write(self, path):
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def _patch_function(tracer, module, name, layer, counter):
    """Wrap ``module.name`` and every other pidesolve binding of it."""
    orig = getattr(importlib.import_module(module), name)
    wrapped = tracer.wrap(orig, name, layer, counter)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "pidesolve" or mod_name.startswith("pidesolve.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)


def _patch_method(tracer, module, cls_name, name, layer, counter):
    cls = getattr(importlib.import_module(module), cls_name)
    setattr(cls, name, tracer.wrap(getattr(cls, name), name, layer, counter))


def _fit_rows(args, kwargs, result):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return {"rows": len(x)}


def _bundle_counts(args, kwargs, bundle):
    return {"path_steps": int(bundle.n_paths * bundle.grid.n_steps),
            "jumps": int(bundle.jump_counts.sum())}


def _fd_cells(args, kwargs, result):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    return {"cells": int(grid.n_space * grid.n_time)}


FUNCTIONS = (
    # (module, function, layer, counter); the span is named after the function
    ("pidesolve.forward", "simulate_paths", "forward", _bundle_counts),
    ("pidesolve.bsde", "solve_bsde", "bsde", None),
    ("pidesolve.bsde", "evaluate_u", "bsde", None),
    ("pidesolve.obstacle", "solve_reflected", "obstacle", None),
    ("pidesolve.obstacle", "solve_penalized", "obstacle", None),
    ("pidesolve.obstacle", "skorokhod_gap", "obstacle", None),
    ("pidesolve.obstacle", "obstacle_along_paths", "obstacle", None),
    ("pidesolve.obstacle", "estimate_reflection_measure", "obstacle", None),
    ("pidesolve.obstacle", "support_check", "obstacle", None),
    ("pidesolve.oracle", "fd_solve_pide", "oracle", _fd_cells),
    ("pidesolve.oracle", "binomial_american", "oracle", None),
    ("pidesolve.oracle", "merton_price", "oracle", None),
    ("pidesolve.config", "validate_config", "config", None),
    ("pidesolve.runner", "run_experiment", "runner", None),
)

METHODS = (
    # (module, class, method, layer, counter); the span is named after the method
    ("pidesolve.bsde", "PolynomialBasis", "fit", "bsde", _fit_rows),
    ("pidesolve.bsde", "PolynomialBasis", "predict", "bsde", None),
    ("pidesolve.bsde", "PolynomialBasis", "design", "bsde", None),
    ("pidesolve.bsde", "LocalAffineBasis", "fit", "bsde", _fit_rows),
    ("pidesolve.bsde", "LocalAffineBasis", "predict", "bsde", None),
    ("pidesolve.model", "ModelSpec", "compensator_drift", "model", None),
)


def install(tracer):
    """Install every wrapper; call once, after pidesolve is imported."""
    importlib.import_module("pidesolve")
    for module, name, layer, counter in FUNCTIONS:
        _patch_function(tracer, module, name, layer, counter)
    for module, cls_name, name, layer, counter in METHODS:
        _patch_method(tracer, module, cls_name, name, layer, counter)


def summarize(spans):
    """Per-name totals, per-layer self time and the top-level span total.

    A span's self time is its duration minus the durations of its direct
    children; the process is single-threaded, so children never overlap.
    Returns ``{"by_name": {name: {"s", "calls", counts...}},
    "self_s": {layer: seconds}, "top_s": seconds, "direct_s": seconds}``,
    where ``direct_s`` is the time of backward solves called directly by
    ``solve_reflected`` (the direct-reflection cross-check).
    """
    child_s = [0.0] * len(spans)
    by_name, self_s = {}, {}
    top_s = direct_s = 0.0
    for name, layer, t0, t1, parent, counts in spans:
        dur = t1 - t0
        if parent is None:
            top_s += dur
        else:
            child_s[parent] += dur
            if name == "solve_bsde" and spans[parent][0] == "solve_reflected":
                direct_s += dur
        entry = by_name.setdefault(name, {"s": 0.0, "calls": 0})
        entry["s"] += dur
        entry["calls"] += 1
        for key, val in (counts or {}).items():
            entry[key] = entry.get(key, 0) + val
    for (name, layer, t0, t1, _, _), inner in zip(spans, child_s):
        self_s[layer] = self_s.get(layer, 0.0) + (t1 - t0) - inner
    return {"by_name": by_name, "self_s": self_s, "top_s": top_s, "direct_s": direct_s}
