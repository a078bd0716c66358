"""Declarative experiment configuration.

JSON in, validated and normalized config out: unknown keys are rejected
with the offending path, types are checked, defaults are filled, and the
blocks resolve to model / driver / terminal / obstacle / weight objects.
"""

from __future__ import annotations

import copy
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
from .oracle import _crr

__all__ = ["ExperimentConfig", "validate_config", "TASKS"]

TASKS = ("simulate", "solve", "solve-obstacle", "oracle", "normcheck", "compare")

# a count's largest value, and a seed's: the per-step streams key on 64 bits
_COUNT_MAX = int(np.iinfo(np.intp).max)
_SEED_MAX = 2**64 - 1
# the solver's time grid spans [0, 1]; an oracle's horizon defaults to it
_HORIZON = 1.0
# the keys each oracle kind reads besides its kind and horizon, with their
# defaults; a closed form's market is the config's (ExperimentConfig.oracle)
_ORACLE_KEYS = {"fd": {"x_lo": -8.0, "x_hi": 8.0, "n_space": 800, "n_time": 400,
                       "bc": "dirichlet"},
                "merton": {"n_terms": 60}, "binomial": {"steps": 2000}}
_JUMP_KEYS = ("intensity", "jump_mean", "jump_sd")
# the params each named block takes, with their defaults; an obstacle also
# takes its growth constants, iota with none here (_norm_obstacle derives it)
_DRIVER_PARAMS = {"zero": {}, "discount": {"rate": 0.0},
                  "borrowing": {"rate": 0.0, "borrow_rate": 0.0, "risk_premium": 0.0}}
_DRIVERS = {"zero": zero_driver, "discount": discount_driver,
            "borrowing": borrowing_rate_driver}
_PAYOFF_PARAMS = {"square": {}, "constant": {"value": 0.0},
                  **dict.fromkeys(("call", "put", "exp-call", "exp-put"), {"strike": 1.0})}
_OBSTACLE_PARAMS = {name: {**params, "kappa": 1.0, "iota": None}
                    for name, params in _PAYOFF_PARAMS.items() if name != "square"}
# the custom model's params: affine drift and diffusion, and a jump part made
# of a jump kind and a measure, whose keys and defaults depend on its kind
_CUSTOM_DEFAULTS = {"drift": {"slope": 0.0, "intercept": 0.0},
                    "diffusion": {"slope": 0.0, "intercept": 1.0}, "jump": "none"}
_CUSTOM_JUMPS = {"none": None,
                 "translation": translation_jump,
                 "proportional-exp": lambda x, e: x * (np.exp(e) - 1.0)}
_CUSTOM_MEASURE = {"kind": "uniform", "intensity": 1.0}
_CUSTOM_MEASURES = {"uniform": (JumpMeasure.uniform, {"lo": -1.0, "hi": 1.0}),
                    "gaussian": (JumpMeasure.gaussian, {"mean": 0.0, "sd": 1.0}),
                    "two-point": (JumpMeasure.two_point,
                                  {"down": -0.1, "up": 0.1, "p_up": 0.5})}


def _expect(value, types, path):
    if not isinstance(value, types):
        wanted = "/".join(t.__name__ for t in (types if isinstance(types, tuple) else (types,)))
        raise SchemaError(f"{path}: expected {wanted}, got {type(value).__name__}")
    if isinstance(value, bool) and bool not in (types if isinstance(types, tuple) else (types,)):
        raise SchemaError(f"{path}: expected number, got bool")
    return value


def _expect_num(value, path):
    """A finite number as float: JSON's NaN and Infinity, and integers beyond
    the float range, are rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected number, got {type(value).__name__}")
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
        raise SchemaError(f"{path}: expected int, got {type(value).__name__}")
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


def _expect_schedule(value, path):
    """Penalty levels: a nonempty increasing list of finite numbers > 0, kept
    as given, so the default's int levels re-validate to themselves."""
    levels = _expect_nums(value, path)
    if not levels:
        raise ConfigError(f"{path}: expected a nonempty list")
    for i, level in enumerate(levels):
        if level <= 0:
            raise SchemaError(f"{path}[{i}]: expected positive number")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError(f"{path} must be increasing")
    return list(value)


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
    """A block checked against its table of typed keys, over a copy of its
    defaults (``_DEFAULTS`` at the block's path).  An unknown key is rejected
    with its path.  Each given value goes through its entry: a checker
    ``(value, path)`` returning the value normalized (a ``None``, for a null
    pair or model, leaves the key at its default or absent), or a nested
    table, checked the same way and filled also when not given.
    """
    _check_keys(_expect(block, dict, path or "config"), table, path)
    out = copy.deepcopy(_DEFAULTS.get(path, {}))
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
        if block["name"] == "custom":
            return _build_custom_model(block["params"])
        return named_model(block["name"], **block["params"])

    def build_driver(self):
        block = self.raw["driver"]
        params = dict(block["params"])
        if block["name"] == "borrowing":
            params["sigma"] = _stock_sigma(self.raw["model"])
        return _DRIVERS[block["name"]](**params)

    def build_terminal(self):
        block = self.raw["terminal"]
        return _build_payoff(block["name"], block["params"])

    def build_obstacle(self):
        block = self.raw.get("obstacle")
        if block is None:
            return None
        params = block["params"]
        fn = _build_payoff(block["name"], params)
        return ObstacleSpec(h=lambda t, X: fn(X), iota=params["iota"], kappa=params["kappa"])

    def build_weight(self):
        return WeightFunction(self.raw["weight"]["p"])

    def oracle(self):
        """The task's oracle block, ``compare.oracle`` or ``oracle``; a closed
        form's with the market it prices, read off the config by
        ``_closed_form_market``."""
        spec = self.raw["compare"]["oracle"] if self.task == "compare" else self.raw["oracle"]
        return spec if spec["kind"] == "fd" else {**spec, **_closed_form_market(self.raw, spec)}


def _stock_sigma(model):
    """The stock's volatility of a ``bs``, ``merton`` or ``kou`` model: a
    borrowing driver divides z by it to get the amount held in the stock."""
    name = model["name"]
    if name not in ("bs", "merton", "kou"):
        raise ConfigError(f"a borrowing driver reads the stock's volatility of a bs, "
                          f"merton or kou model, not {name!r}")
    sigma = model["params"]["sigma"]
    if not sigma > 0:
        raise ConfigError(f"a borrowing driver needs model.params.sigma > 0, got {sigma}")
    return sigma


def _build_payoff(name, params):
    """The payoff of a terminal or obstacle block, on the first coordinate."""
    if name == "square":
        return lambda X: X[:, 0] ** 2
    if name == "constant":
        value = params["value"]
        return lambda X: np.full(X.shape[0], float(value))
    strike = params["strike"]
    return {"call": lambda X: np.maximum(X[:, 0] - strike, 0.0),
            "put": lambda X: np.maximum(strike - X[:, 0], 0.0),
            "exp-call": lambda X: np.maximum(np.exp(X[:, 0]) - strike, 0.0),
            "exp-put": lambda X: np.maximum(strike - np.exp(X[:, 0]), 0.0)}[name]


def _build_custom_model(params):
    """The custom model of params normalized by ``_norm_custom``."""
    def coef(spec):
        slope, icpt = spec["slope"], spec["intercept"]
        return lambda x: slope * x + icpt

    measure, jump = JumpMeasure.none(), _CUSTOM_JUMPS[params["jump"]]
    if jump is not None:  # validation pairs a jump kind other than none with a measure
        spec = params["measure"]
        make, keys = _CUSTOM_MEASURES[spec["kind"]]
        measure = make(*(spec[k] for k in keys), intensity=spec["intensity"])
    return scalar_model(drift=coef(params["drift"]), diffusion=coef(params["diffusion"]),
                        jump=jump, jump_measure=measure)


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate_config(raw):
    """Validate raw JSON (text or dict) into a complete ExperimentConfig.

    Rejects unknown keys with their path, checks types, fills every default
    from this module's tables, which the README lists, and enforces the
    weight floor p >= kappa + dim + 1 for obstacles.
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
    if "model" not in out:
        raise ConfigError("model block is required")
    if out.get("driver", {}).get("name") == "borrowing":
        _stock_sigma(out["model"])
    cfg = ExperimentConfig(task=out["task"], seed=out["seed"], raw=out)
    _check_task_requirements(cfg)
    return cfg


def _norm_model(block, path):
    """A model block with its params filled: a preset's from
    ``PRESET_PARAMS``, the custom model's by ``_norm_custom``."""
    if block is None:  # no model, which validation rejects
        return None
    _check_keys(_expect(block, dict, path), {"name", "params"}, path)
    name = _expect_choice(block.get("name"), f"{path}.name", {*PRESET_PARAMS, "custom"})
    params = block.get("params", {})
    if name == "custom":
        return {"name": name, "params": _norm_custom(params, f"{path}.params")}
    params = _params(params, PRESET_PARAMS[name], f"{path}.params")
    if "n_nodes" in params:
        _expect_count(params["n_nodes"], f"{path}.params.n_nodes")
    _check_model_params(params, f"{path}.params")
    return {"name": name, "params": params}


def _check_model_params(params, path):
    """Refuse what the model builders and the jump samplers refuse: a
    negative scale, width or intensity, a p_up outside [0, 1] and a uniform
    measure's hi below its lo."""
    for key in ("sigma", "intensity", "jump_sd", "half_width", "sd"):
        if key in params:
            _expect_nonnegative(params[key], f"{path}.{key}")
    if "p_up" in params and not 0 <= params["p_up"] <= 1:
        raise ConfigError(f"{path}.p_up: expected a number in [0, 1], got {params['p_up']}")
    if "lo" in params and params["hi"] < params["lo"]:
        raise ConfigError(f"{path}.hi: expected a number >= lo ({params['lo']}), "
                          f"got {params['hi']}")


def _params(block, defaults, path, other=()):
    """A params block over its defaults: only their keys (a None default is
    a key without one), each a number unless in other."""
    _check_keys(_expect(block, dict, path), defaults, path)
    for key, val in block.items():
        if key not in other:
            _expect_num(val, f"{path}.{key}")
    return {**{k: v for k, v in defaults.items() if v is not None}, **block}


def _norm_custom(params, path):
    """The custom model's params, filled; jumps need a jump kind and a measure,
    and a key left out of a given drift or diffusion is 0."""
    out = _params(params, {**_CUSTOM_DEFAULTS, "measure": None}, path,
                  other=(*_CUSTOM_DEFAULTS, "measure"))
    for key in ("drift", "diffusion"):
        out[key] = (_params(params[key], dict.fromkeys(("slope", "intercept"), 0.0),
                            f"{path}.{key}") if key in params else dict(out[key]))
    jump = _expect_choice(out["jump"], f"{path}.jump", _CUSTOM_JUMPS)
    measure = _expect(out.pop("measure", {}), dict, f"{path}.measure")
    if measure:
        kind = _expect_choice({**_CUSTOM_MEASURE, **measure}["kind"], f"{path}.measure.kind",
                              _CUSTOM_MEASURES)
        out["measure"] = _params(measure, {**_CUSTOM_MEASURE, **_CUSTOM_MEASURES[kind][1]},
                                 f"{path}.measure", other=("kind",))
        _check_model_params(out["measure"], f"{path}.measure")
    if (jump != "none") != bool(measure):
        raise ConfigError(f"{path}: jump {jump!r} {'with' if measure else 'without'} "
                          f"a measure; jumps need both a jump kind and a measure")
    return out


def _norm_named_block(block, path, known):
    """A driver, terminal or obstacle block: its name and its params."""
    _check_keys(_expect(block, dict, path), {"name", "params"}, path)
    name = _expect_choice(block.get("name"), f"{path}.name", known)
    return {"name": name, "params": _params(block.get("params", {}), known[name],
                                            f"{path}.params")}


def _norm_obstacle(block, path):
    """An obstacle block with its growth constants, both > 0: iota's default
    bounds the payoff, 1 + strike, or 1 + |value| for a constant."""
    out = _norm_named_block(block, path, _OBSTACLE_PARAMS)
    params = out["params"]
    if "iota" not in params:
        params["iota"] = 1.0 + (params["strike"] if "strike" in params else abs(params["value"]))
    for key in ("iota", "kappa"):
        _expect_positive(params[key], f"{path}.params.{key}")
    return out


def _norm_oracle(block, path):
    """An oracle block filled: its kind, the horizon and that kind's keys."""
    kind = _expect_choice(_expect(block, dict, path).get("kind"), f"{path}.kind", _ORACLE_KEYS)
    defaults = {"horizon": _HORIZON, **_ORACLE_KEYS[kind]}
    out = {**defaults, **_typed(block, {key: _ORACLE[key] for key in ("kind", *defaults)}, path)}
    if kind == "fd" and not out["x_lo"] < out["x_hi"]:
        raise ConfigError(f"{path}: expected x_lo < x_hi (defaults {defaults['x_lo']} and "
                          f"{defaults['x_hi']}), got {out['x_lo']} and {out['x_hi']}")
    return out


def _norm_compare(block, path):
    out = _typed(block, _COMPARE, path)
    if "oracle" not in out:
        raise ConfigError("compare.oracle is required")
    # the solver grid spans [0, 1]; an oracle on another horizon would
    # answer a different problem
    if out["oracle"]["horizon"] != _HORIZON:
        raise ConfigError(f"compare.oracle.horizon = {out['oracle']['horizon']} but the "
                          f"solver horizon is {_HORIZON}; set it to {_HORIZON} or drop it")
    # a closed-form oracle prices the one spot x0; every other grid point
    # would be checked against that one price
    if out["x_grid_n"] > 1 and out["oracle"]["kind"] != "fd":
        raise ConfigError(
            f"compare.x_grid_n = {out['x_grid_n']} but a {out['oracle']['kind']} oracle "
            f"prices the one spot x0; use an fd oracle or x_grid_n = 1")
    return out


def _closed_form_market(out, spec):
    """The market a closed-form oracle ``spec`` prices at its horizon, read
    off the config: a ``bs`` model in price space, a ``merton`` one in
    log-price with its jump law, and the terminal's strike and option.  A
    problem the closed form does not price is a ``ConfigError``."""
    kind, name = spec["kind"], out["model"]["name"]
    terminal, driver, obstacle = out["terminal"], out["driver"], out.get("obstacle")
    if name not in ("bs", "merton"):
        raise ConfigError(f"a {kind} oracle prices a bs or merton model, "
                          f"not {name!r}; use an fd oracle")
    params = out["model"]["params"]
    options = {("exp-" if name == "merton" else "") + o: o for o in ("call", "put")}
    if terminal["name"] not in options:
        raise ConfigError(f"a {kind} oracle prices a {' or '.join(options)} "
                          f"terminal under model {name!r}, not {terminal['name']!r}")
    rate = {"zero": 0.0, "discount": driver["params"].get("rate")}.get(driver["name"])
    if rate != params["r"]:
        raise ConfigError(f"a {kind} oracle discounts at model.params.r = {params['r']}"
                          f", driver {driver['name']!r} "
                          + ("is not linear" if rate is None else f"at {rate}"))
    x0, strike = out["numerics"]["x0"], terminal["params"]["strike"]
    if name == "bs" and x0 <= 0:
        raise ConfigError(f"a {kind} oracle needs a positive spot, not numerics.x0 = {x0}")
    if strike <= 0:
        raise ConfigError(f"a {kind} oracle needs a positive strike, "
                          f"not terminal.params.strike = {strike}")
    # a bs model has no jumps
    jumps = ({key: params[key] for key in _JUMP_KEYS} if name == "merton"
             else dict.fromkeys(_JUMP_KEYS, 0.0))
    market = {"s0": math.exp(x0) if name == "merton" else x0, "strike": strike,
              "rate": params["r"], "sigma": params["sigma"],
              **jumps, "option": options[terminal["name"]]}
    if kind == "merton" and obstacle is not None:
        raise ConfigError("a merton oracle prices a European claim; "
                          "drop the obstacle or use a binomial or fd oracle")
    if kind == "binomial" and (obstacle is None or obstacle["name"] != terminal["name"] or
                               obstacle["params"]["strike"] != market["strike"]):
        raise ConfigError("a binomial oracle prices an American claim; "
                          "the obstacle must be the terminal payoff, strike included")
    if kind == "binomial" and market["intensity"] != 0:
        raise ConfigError(f"a binomial oracle has no jumps but "
                          f"model.params.intensity = {market['intensity']}")
    return market


def _check_tree(spec):
    """A binomial oracle's tree must be one the CRR pricer admits at steps // 2,
    its error estimate's tree, and so at steps; else E_CONFIG naming the
    model's sigma, which sets the tree's moves."""
    try:
        _crr(*(spec[key] for key in ("s0", "strike", "rate", "sigma", "horizon")),
             spec["steps"] // 2, spec["option"])
    except ValueError as exc:
        raise ConfigError(f"model.params.sigma = {spec['sigma']} is too small for the "
                          f"binomial oracle: {exc}") from None


def _check_compare_grid(block, x0):
    """The compare x-grid: x_grid_n points spread over the region, or x0
    alone, which a region given with it must contain; an fd oracle's grid
    contains them, as its values beyond are its ends'."""
    region, n = block.get("region"), block["x_grid_n"]
    if n > 1 and region is None:
        raise ConfigError(f"compare.x_grid_n = {n} but no compare.region to spread "
                          f"the points over; give a region or x_grid_n = 1")
    if n == 1 and region is not None and not region[0] <= x0 <= region[1]:
        raise ConfigError(f"compare.region = {region} does not contain numerics.x0 = {x0}, "
                          f"the one point compared at compare.x_grid_n = 1")
    spec = block["oracle"]
    lo, hi = region if n > 1 else (x0, x0)
    if spec["kind"] == "fd" and not spec["x_lo"] <= lo <= hi <= spec["x_hi"]:
        raise ConfigError(f"compare.oracle: the fd grid [{spec['x_lo']}, {spec['x_hi']}] does "
                          f"not contain the points compared, [{lo}, {hi}]")


def _check_task_requirements(cfg):
    """The blocks a task needs, the zero driver and the normcheck block
    filled where a task may leave them out, and the checks across blocks."""
    task, out = cfg.task, cfg.raw

    def need(block):
        if block not in out:
            raise ConfigError(f"task {task!r} requires a {block} block")

    if task in ("compare", "oracle"):
        need(task)
    if task in ("solve", "solve-obstacle", "compare", "oracle"):
        need("terminal")
    if task in ("solve", "solve-obstacle", "compare"):
        need("driver")
    if task == "solve-obstacle":
        need("obstacle")
    out.setdefault("driver", {"name": "zero", "params": {}})
    if task == "normcheck":
        nc = out.setdefault("normcheck", _typed({}, _NORMCHECK, "normcheck"))
        nodes, paths = nc["n_panels"] * nc["nodes_per_panel"], out["numerics"]["paths"]
        if paths < 2 * nodes:
            raise ConfigError(f"numerics.paths = {paths} is below 2 per quadrature node: "
                              f"normcheck.n_panels * nodes_per_panel = {nodes}")
    if task == "compare":
        _check_compare_grid(out["compare"], out["numerics"]["x0"])
    if task in ("compare", "oracle"):
        spec = cfg.oracle()  # a closed form's market is derived, or refused, here
        if spec["kind"] == "binomial":
            _check_tree(spec)
    if task == "solve-obstacle" or (task == "compare" and "obstacle" in out):
        kappa = out["obstacle"]["params"]["kappa"]
        weight = WeightFunction(out["weight"]["p"])
        if not weight.admits_obstacle(1, kappa):
            raise ConfigError(
                f"weight.p = {weight.p} below the obstacle floor "
                f"kappa + dim + 1 = {weight.exponent_floor(1, kappa)}; "
                f"raise the weight exponent")


# ---------------------------------------------------------------------------
# the typed-key tables: each key's checker, or a nested table
# ---------------------------------------------------------------------------

_ORACLE = {"kind": partial(_expect_choice, choices=_ORACLE_KEYS),
           "x_lo": _expect_num, "x_hi": _expect_num,
           "n_space": partial(_expect_count, minimum=3),
           "n_time": _expect_count, "bc": partial(_expect_choice, choices=("dirichlet", "linear")),
           "n_terms": _expect_count, "steps": partial(_expect_count, minimum=2),
           "horizon": _expect_positive}
_COMPARE = {"oracle": _norm_oracle, "tol_rel": _expect_positive, "region": _expect_pair,
            "x_grid_n": _expect_count}
_NUMERICS = {"grid_n": _expect_count, "paths": _expect_count, "x0": _expect_num,
             "x0_spread": _expect_nonnegative, "picard": _expect_count, "tol": _expect_positive,
             "schedule": _expect_schedule, "eval_points": partial(_expect_count, minimum=2),
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
        "obstacle": _norm_obstacle,
        "weight": {"p": _expect_positive},
        "numerics": _NUMERICS,
        "oracle": _norm_oracle,
        "normcheck": lambda value, path: _typed(value, _NORMCHECK, path),
        "compare": _norm_compare}
# the defaults of the other blocks, by their path ("" the top level)
_DEFAULTS = {"": {"output": "out"},
             "numerics": {"grid_n": 50, "paths": 100_000, "x0": 0.0, "x0_spread": 0.0,
                          "picard": 3, "tol": 1e-3, "eval_points": 101, "dump_paths": "none",
                          "schedule": list(default_schedule())},
             "numerics.basis": {"kind": "poly", "degree": 4, "cells": 40, "box": None},
             "weight": {"p": 4.0},
             "normcheck": {"radius": 9.0, "n_panels": 18, "nodes_per_panel": 8,
                           "s_list": [0.1, 0.5, 1.0]},
             "compare": {"tol_rel": 0.01, "x_grid_n": 1}}
