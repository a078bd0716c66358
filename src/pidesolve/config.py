"""Declarative experiment configuration.

JSON in, validated and normalized config out: unknown keys are rejected
with the offending path, types are checked, defaults are filled, and the
blocks resolve to model / driver / terminal / obstacle / weight objects.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, SchemaError
from .model import (PRESET_PARAMS, JumpMeasure, ObstacleSpec, WeightFunction,
                    borrowing_rate_driver, discount_driver, named_model,
                    scalar_model, translation_jump, zero_driver)
from .obstacle import default_schedule

__all__ = ["ExperimentConfig", "validate_config", "TASKS"]

TASKS = ("simulate", "solve", "solve-obstacle", "oracle", "normcheck", "compare")

# a count's largest value, and a seed's: the per-step streams key on 64 bits
_COUNT_MAX = int(np.iinfo(np.intp).max)
_SEED_MAX = 2**64 - 1
# the market keys of the oracle task's closed forms (merton series, binomial
# tree) and the values the runner uses for keys its block leaves out; a
# compare oracle's market is derived from the config (_compare_market)
_ORACLE_MARKET = {"s0": 100.0, "strike": 100.0, "rate": 0.05, "sigma": 0.2,
                  "horizon": 1.0, "intensity": 0.0, "jump_mean": 0.0, "jump_sd": 1e-8}
_JUMP_KEYS = ("intensity", "jump_mean", "jump_sd")
# the fd oracle's space interval where its block leaves it out
_FD_SPACE = {"x_lo": -8.0, "x_hi": 8.0}
# the keys each oracle kind reads besides its kind, horizon and market
_ORACLE_KEYS = {"fd": ("x_lo", "x_hi", "n_space", "n_time", "bc"),
                "merton": ("n_terms",), "binomial": ("steps",)}
# the params each named block accepts; driver params default to 0 and an
# obstacle also takes its growth constants iota and kappa
_DRIVER_PARAMS = {"zero": (), "discount": ("rate",),
                  "borrowing": ("rate", "borrow_rate", "risk_premium")}
_DRIVERS = {"zero": zero_driver, "discount": discount_driver,
            "borrowing": borrowing_rate_driver}
_PAYOFF_PARAMS = {"square": (), "constant": ("value",), "call": ("strike",),
                  "put": ("strike",), "exp-call": ("strike",), "exp-put": ("strike",)}
_OBSTACLE_PARAMS = {name: keys + ("iota", "kappa")
                    for name, keys in _PAYOFF_PARAMS.items() if name != "square"}
# the custom model's params: affine drift and diffusion, and a jump part
# made of a jump kind and a measure whose keys and defaults depend on its kind
_CUSTOM_KEYS = {"drift", "diffusion", "measure", "jump"}
_CUSTOM_JUMPS = {"none": None,
                 "translation": translation_jump,
                 "proportional-exp": lambda x, e: x * (np.exp(e) - 1.0)}
_CUSTOM_MEASURES = {"uniform": (JumpMeasure.uniform, {"lo": -1.0, "hi": 1.0}),
                    "gaussian": (JumpMeasure.gaussian, {"mean": 0.0, "sd": 1.0}),
                    "two-point": (JumpMeasure.two_point,
                                  {"down": -0.1, "up": 0.1, "p_up": 0.5})}


def _type_name(v):
    return type(v).__name__


def _expect(value, types, path):
    if not isinstance(value, types):
        wanted = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise SchemaError(f"{path}: expected {wanted}, got {_type_name(value)}")
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"{path}: expected number, got bool")
    return value


def _expect_num(value, path):
    """A finite number as float: JSON's NaN and Infinity, and integers beyond
    the float range, are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected number, got {_type_name(value)}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"{path}: expected finite number, got {number}")
    return number


def _expect_choice(value, path, choices):
    """A string among the choices; anything else is rejected with the choices."""
    if _expect(value, str, path) not in choices:
        raise ConfigError(f"{path} must be one of {sorted(choices)}, got {value!r}")
    return value


def _expect_count(value, path, minimum=1, maximum=_COUNT_MAX):
    """An int from minimum to maximum, as given; a count's maximum is the
    largest size NumPy can index."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}: expected int, got {_type_name(value)}")
    if not minimum <= value <= maximum:
        raise SchemaError(f"{path}: expected int from {minimum} to {maximum}, got {value}")
    return value


def _expect_nums(value, path):
    """A list of finite numbers as floats."""
    return [_expect_num(v, f"{path}[{i}]") for i, v in enumerate(_expect(value, list, path))]


def _expect_nonnegative(value, path):
    """A finite number >= 0 as float."""
    number = _expect_num(value, path)
    if number < 0:
        raise ConfigError(f"{path}: expected a number >= 0, got {number}")
    return number


def _expect_positive(value, path):
    """A finite number > 0 as float."""
    number = _expect_num(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: expected a number > 0, got {number}")
    return number


def _expect_positives(value, path):
    """A nonempty list of finite numbers > 0 as floats."""
    if not _expect(value, list, path):
        raise ConfigError(f"{path}: expected a nonempty list")
    return [_expect_positive(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _expect_pair(value, path):
    """A [lo, hi] pair of finite numbers, lo < hi, as floats; null means none."""
    if value is None:
        return None
    if len(_expect(value, list, path)) != 2:
        raise SchemaError(f"{path}: expected [lo, hi]")
    lo, hi = _expect_nums(value, path)
    if not lo < hi:
        raise ConfigError(f"{path}: expected lo < hi, got [{lo}, {hi}]")
    return [lo, hi]


def _check_keys(block, allowed, path):
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key at {path}.{key}" if path else f"unknown key {key}")


def _typed(block, table, path):
    """A block checked against its table of typed keys, over its defaults
    (``_DEFAULTS`` at the block's path).

    An unknown key is rejected with its path.  Each given value goes through
    its entry: a checker ``(value, path)`` returning the value normalized
    (a ``None``, for a null pair or model, leaves the key at its default or
    absent), or a nested table, checked the same way and filled with its
    defaults also when not given.
    """
    _check_keys(_expect(block, dict, path or "config"), table, path)
    out = dict(_DEFAULTS.get(path, {}))
    for key, check in table.items():
        sub = f"{path}.{key}" if path else key
        if isinstance(check, dict):
            out[key] = _typed(block.get(key, {}), check, sub)
        elif key in block:
            value = check(block[key], sub)
            if value is not None:
                out[key] = value
    return out


@dataclass
class ExperimentConfig:
    """Normalized experiment description; builders resolve the blocks."""

    task: str
    seed: int
    raw: dict

    @property
    def numerics(self):
        return self.raw["numerics"]

    def canonical_json(self):
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))

    def build_model(self):
        block = self.raw["model"]
        if block["name"] != "custom":
            return named_model(block["name"], **block.get("params", {}))
        return _build_custom_model(block.get("params", {}))

    def build_driver(self):
        block = self.raw.get("driver") or {"name": "zero", "params": {}}
        name = block["name"]
        params = {**dict.fromkeys(_DRIVER_PARAMS[name], 0.0), **block.get("params", {})}
        return _DRIVERS[name](**params)

    def build_terminal(self):
        block = self.raw["terminal"]
        return _build_payoff(block["name"], dict(block.get("params", {})),
                             "terminal")

    def build_obstacle(self):
        block = self.raw.get("obstacle")
        if block is None:
            return None
        fn = _build_payoff(block["name"], dict(block.get("params", {})), "obstacle")
        params = block.get("params", {})
        return ObstacleSpec(h=lambda t, X: fn(X), iota=params.get("iota", 1.0 + params.get("strike", 1.0)),
                            kappa=params.get("kappa", 1.0))

    def build_weight(self):
        return WeightFunction(self.raw["weight"]["p"])

    def schedule(self):
        num = self.numerics
        if num.get("schedule"):
            return tuple(num["schedule"])
        return default_schedule(num["schedule_max_exp"])


def _build_payoff(name, params, path):
    strike = params.get("strike", 1.0)
    if name == "square":
        return lambda X: X[:, 0] ** 2
    if name == "constant":
        value = params.get("value", 0.0)
        return lambda X: np.full(X.shape[0], float(value))
    if name == "call":
        return lambda X: np.maximum(X[:, 0] - strike, 0.0)
    if name == "put":
        return lambda X: np.maximum(strike - X[:, 0], 0.0)
    if name == "exp-call":
        return lambda X: np.maximum(np.exp(X[:, 0]) - strike, 0.0)
    if name == "exp-put":
        return lambda X: np.maximum(strike - np.exp(X[:, 0]), 0.0)
    raise ConfigError(f"unknown {path} preset {name!r}")


def _build_custom_model(params):
    def coef(spec, default_slope, default_icpt):
        if spec is None:
            return lambda x: default_slope * x + default_icpt
        slope = spec.get("slope", 0.0)
        icpt = spec.get("intercept", 0.0)
        return lambda x: slope * x + icpt

    measure, jump = JumpMeasure.none(), None
    spec = params.get("measure")
    if spec:  # validation pairs a measure with a jump kind other than none
        make, defaults = _CUSTOM_MEASURES[spec.get("kind", "uniform")]
        measure = make(*(spec.get(k, v) for k, v in defaults.items()),
                       intensity=spec.get("intensity", 1.0))
        jump = _CUSTOM_JUMPS[params["jump"]]
    return scalar_model(drift=coef(params.get("drift"), 0.0, 0.0),
                        diffusion=coef(params.get("diffusion"), 0.0, 1.0),
                        jump=jump, jump_measure=measure)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_config(raw):
    """Validate raw JSON (text or dict) into an ExperimentConfig.

    Rejects unknown keys with their path, checks types, injects documented
    defaults (grid_n=50, paths=1e5, degree-4 polynomial basis), and enforces
    the weight-exponent floor p >= kappa + dim + 1 for obstacle tasks.
    """
    if isinstance(raw, (str, bytes)):
        try:
            raw = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"config is not valid JSON: {exc}") from None
    out = _typed(raw, _TOP, "")
    if "task" not in out:
        raise SchemaError(f"task is required, one of {sorted(TASKS)}")
    if "seed" not in out:
        raise ConfigError("seed is required (no silent nondeterminism)")
    task = out["task"]
    if "model" not in out:
        if task != "oracle":
            raise ConfigError("model block is required")
        out["model"] = {"name": "bs", "params": {}}
    schedule = out["numerics"].get("schedule", [])
    for i, level in enumerate(schedule):
        if level <= 0:
            raise SchemaError(f"numerics.schedule[{i}]: expected positive number")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ConfigError("numerics.schedule must be increasing")
    _check_task_requirements(task, out)
    return ExperimentConfig(task=task, seed=out["seed"], raw=out)


def _norm_model(block, path):
    if block is None:  # no model; the oracle task's default is filled later
        return None
    _check_keys(_expect(block, dict, path), {"name", "params"}, path)
    name = _expect_choice(block.get("name"), f"{path}.name", {*PRESET_PARAMS, "custom"})
    params = block.get("params", {})
    if name == "custom":
        _check_custom_params(params, f"{path}.params")
    else:
        _check_params(params, PRESET_PARAMS[name], f"{path}.params")
        if "n_nodes" in params:
            _expect_count(params["n_nodes"], f"{path}.params.n_nodes")
    return {"name": name, "params": params}


def _check_params(block, allowed, path, other=()):
    """A params block: only the allowed keys, each a number unless in other."""
    _expect(block, dict, path)
    _check_keys(block, allowed, path)
    for key, val in block.items():
        if key not in other:
            _expect_num(val, f"{path}.{key}")
    return block


def _check_custom_params(params, path):
    """Reject keys the custom model would ignore, also inside its blocks."""
    _check_params(params, _CUSTOM_KEYS, path, other=_CUSTOM_KEYS)
    for key in ("drift", "diffusion"):
        if key in params:
            _check_params(params[key], ("slope", "intercept"), f"{path}.{key}")
    jump = _expect_choice(params.get("jump", "none"), f"{path}.jump", _CUSTOM_JUMPS)
    measure = _expect(params.get("measure", {}), dict, f"{path}.measure")
    if measure:
        kind = _expect_choice(measure.get("kind", "uniform"), f"{path}.measure.kind",
                              _CUSTOM_MEASURES)
        _check_params(measure, {"kind", "intensity", *_CUSTOM_MEASURES[kind][1]},
                      f"{path}.measure", other=("kind",))
    # the model has jumps only with both a jump kind and a measure
    if (jump != "none") != bool(measure):
        raise ConfigError(f"{path}: jump {jump!r} {'with' if measure else 'without'} "
                          f"a measure; jumps need both a jump kind and a measure")


def _norm_named_block(block, path, known):
    _expect(block, dict, path)
    _check_keys(block, {"name", "params"}, path)
    name = _expect_choice(block.get("name"), f"{path}.name", known)
    params = _check_params(block.get("params", {}), known[name], f"{path}.params")
    return {"name": name, "params": dict(params)}


def _norm_oracle(block, path, market=()):
    """An oracle block: its kind, the horizon and the keys that kind reads,
    and the market keys given that it prices with; a compare oracle takes
    none (its market is the config's own), and the fd oracle prices the
    config's model on its grid."""
    kind = _expect_choice(_expect(block, dict, path).get("kind"), f"{path}.kind", _ORACLE_KEYS)
    market = {"fd": (), "merton": market,
              "binomial": [k for k in market if k not in _JUMP_KEYS]}[kind]
    keys = ("kind", "horizon", *_ORACLE_KEYS[kind], *market)
    out = _typed(block, {key: _ORACLE[key] for key in keys}, path)
    lo, hi = ({**_FD_SPACE, **out}[key] for key in ("x_lo", "x_hi"))
    if kind == "fd" and not lo < hi:
        raise ConfigError(f"{path}: expected x_lo < x_hi (defaults {_FD_SPACE['x_lo']} and "
                          f"{_FD_SPACE['x_hi']}), got {lo} and {hi}")
    return out


def _norm_compare(block, path):
    out = _typed(block, _COMPARE, path)
    if "oracle" not in out:
        raise ConfigError("compare.oracle is required")
    # the solver grid spans [0, 1]; an oracle on another horizon would
    # answer a different problem
    if out["oracle"].get("horizon", 1.0) != 1.0:
        raise ConfigError(
            f"compare.oracle.horizon = {out['oracle']['horizon']} but the "
            f"solver horizon is 1.0; set it to 1.0 or drop it")
    # a closed-form oracle prices the one spot x0; every other grid point
    # would be checked against that one price
    if out["x_grid_n"] > 1 and out["oracle"]["kind"] != "fd":
        raise ConfigError(
            f"compare.x_grid_n = {out['x_grid_n']} but a {out['oracle']['kind']} oracle "
            f"prices the one spot x0; use an fd oracle or x_grid_n = 1")
    return out


def _compare_market(out):
    """The market a closed-form compare oracle prices, read off the config:
    a ``bs`` model in price space, a ``merton`` one in log-price with its
    jump law, the terminal's strike and option, the solver's horizon.  A
    problem the closed form does not price is a ``ConfigError``."""
    kind, name = out["compare"]["oracle"]["kind"], out["model"]["name"]
    terminal, driver, obstacle = out["terminal"], out["driver"], out.get("obstacle")
    if name not in ("bs", "merton"):
        raise ConfigError(f"a {kind} compare oracle prices a bs or merton model, "
                          f"not {name!r}; use an fd oracle")
    params = {**PRESET_PARAMS[name], **out["model"]["params"]}
    options = {("exp-" if name == "merton" else "") + o: o for o in ("call", "put")}
    if terminal["name"] not in options:
        raise ConfigError(f"a {kind} compare oracle prices a {' or '.join(options)} "
                          f"terminal under model {name!r}, not {terminal['name']!r}")
    rate = {"zero": 0.0, "discount": driver["params"].get("rate", 0.0)}.get(driver["name"])
    if rate != params["r"]:
        raise ConfigError(f"a {kind} compare oracle discounts at model.params.r = {params['r']}"
                          f", driver {driver['name']!r} "
                          + ("is not linear" if rate is None else f"at {rate}"))
    x0 = out["numerics"]["x0"]
    if name == "bs" and x0 <= 0:
        raise ConfigError(f"a {kind} compare oracle needs a positive spot, not numerics.x0 = {x0}")
    market = {"s0": math.exp(x0) if name == "merton" else x0,
              "strike": terminal["params"].get("strike", 1.0), "rate": params["r"],
              "sigma": params["sigma"], "horizon": 1.0,
              "intensity": params.get("intensity", 0.0), "jump_mean": params.get("jump_mean", 0.0),
              "jump_sd": params.get("jump_sd", 0.0), "option": options[terminal["name"]]}
    if kind == "merton" and obstacle is not None:
        raise ConfigError("a merton compare oracle prices a European claim; "
                          "drop the obstacle or use a binomial or fd oracle")
    if kind == "binomial" and (obstacle is None or obstacle["name"] != terminal["name"] or
                               obstacle["params"].get("strike", 1.0) != market["strike"]):
        raise ConfigError("a binomial compare oracle prices an American claim; "
                          "the obstacle must be the terminal payoff, strike included")
    if kind == "binomial" and market["intensity"] != 0:
        raise ConfigError(f"a binomial compare oracle has no jumps but "
                          f"model.params.intensity = {market['intensity']}")
    return market


def _check_compare_grid(block, x0):
    """The compare x-grid: x_grid_n points spread over the region, or x0
    alone, which a region given with it must contain."""
    region, n = block.get("region"), block["x_grid_n"]
    if n > 1 and region is None:
        raise ConfigError(f"compare.x_grid_n = {n} but no compare.region to spread "
                          f"the points over; give a region or x_grid_n = 1")
    if n == 1 and region is not None and not region[0] <= x0 <= region[1]:
        raise ConfigError(f"compare.region = {region} does not contain numerics.x0 = {x0}, "
                          f"the one point compared at compare.x_grid_n = 1")


def _check_task_requirements(task, out):
    def need(block):
        if block not in out:
            raise ConfigError(f"task {task!r} requires a {block} block")

    if task in ("solve", "solve-obstacle", "compare"):
        need("terminal")
        need("driver")
    if task == "solve-obstacle":
        need("obstacle")
    if task == "compare":
        need("compare")
    if task == "oracle":
        need("oracle")
    if task == "normcheck":
        nc = out.get("normcheck", _DEFAULTS["normcheck"])
        nodes, paths = nc["n_panels"] * nc["nodes_per_panel"], out["numerics"]["paths"]
        if paths < 2 * nodes:
            raise ConfigError(f"numerics.paths = {paths} is below 2 per quadrature node: "
                              f"normcheck.n_panels * nodes_per_panel = {nodes}")
    if task == "compare":
        _check_compare_grid(out["compare"], out["numerics"]["x0"])
    if task == "compare" and out["compare"]["oracle"]["kind"] != "fd":
        _compare_market(out)
    if task == "solve-obstacle" or (task == "compare" and "obstacle" in out):
        kappa = out["obstacle"]["params"].get("kappa", 1.0)
        weight = WeightFunction(out["weight"]["p"])
        if not weight.admits_obstacle(1, kappa):
            raise ConfigError(
                f"weight.p = {weight.p} below the obstacle floor "
                f"kappa + dim + 1 = {weight.exponent_floor(1, kappa)}; "
                f"raise the weight exponent")


# ---------------------------------------------------------------------------
# the typed-key tables: each key's checker, or a nested table
# ---------------------------------------------------------------------------

_ORACLE = {"kind": partial(_expect_choice, choices=_ORACLE_KEYS), "horizon": _expect_num,
           "x_lo": _expect_num, "x_hi": _expect_num,
           "n_space": partial(_expect_count, minimum=3),
           "n_time": _expect_count, "bc": partial(_expect_choice, choices=("dirichlet", "linear")),
           "n_terms": _expect_count, "steps": partial(_expect_count, minimum=2),
           **dict.fromkeys(_ORACLE_MARKET, _expect_num),
           "option": partial(_expect_choice, choices=("call", "put"))}
_COMPARE = {"oracle": _norm_oracle, "tol_rel": _expect_positive, "region": _expect_pair,
            "x_grid_n": _expect_count}
_NUMERICS = {"grid_n": _expect_count, "paths": _expect_count, "x0": _expect_num,
             "x0_spread": _expect_nonnegative, "picard": _expect_count, "tol": _expect_positive,
             "schedule_max_exp": _expect_count, "schedule": _expect_nums,
             "eval_points": partial(_expect_count, minimum=2),
             "dump_paths": partial(_expect_choice, choices=("none", "csv", "binary")),
             "basis": {"kind": partial(_expect_choice, choices=("poly", "local")),
                       "degree": _expect_count, "cells": _expect_count,
                       "box": _expect_pair}}
_NORMCHECK = {"radius": _expect_positive, "n_panels": _expect_count,
              "nodes_per_panel": _expect_count, "s_list": _expect_positives}
_TOP = {"task": partial(_expect_choice, choices=TASKS),
        "seed": partial(_expect_count, minimum=0, maximum=_SEED_MAX),
        "output": lambda value, path: _expect(value, str, path),
        "model": _norm_model,
        "driver": partial(_norm_named_block, known=_DRIVER_PARAMS),
        "terminal": partial(_norm_named_block, known=_PAYOFF_PARAMS),
        "obstacle": partial(_norm_named_block, known=_OBSTACLE_PARAMS),
        "weight": {"p": _expect_positive},
        "numerics": _NUMERICS,
        "oracle": partial(_norm_oracle, market=(*_ORACLE_MARKET, "option")),
        "normcheck": lambda value, path: _typed(value, _NORMCHECK, path),
        "compare": _norm_compare}
# the defaults of each block, by its path
_DEFAULTS = {"numerics": {"grid_n": 50, "paths": 100_000, "x0": 0.0, "x0_spread": 0.0,
                          "picard": 3, "tol": 1e-3, "schedule_max_exp": 12,
                          "dump_paths": "none"},
             "numerics.basis": {"kind": "poly", "degree": 4, "cells": 40, "box": None},
             "weight": {"p": 4.0},
             "normcheck": {"radius": 9.0, "n_panels": 18, "nodes_per_panel": 8,
                           "s_list": (0.1, 0.5, 1.0)},
             "compare": {"tol_rel": 0.01, "x_grid_n": 1}}
