import functools
import json
import math
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import pidesolve
from pidesolve.cli import main as cli_main
from pidesolve.config import validate_config
from pidesolve.errors import ConfigError, SchemaError
from pidesolve.model import WeightFunction
from pidesolve.oracle import binomial_american
from pidesolve.runner import (EXIT_CRITERION, EXIT_ERROR, EXIT_OK, _compare_table,
                              run_experiment)


def heat_solve_config(**numerics):
    num = {"grid_n": 20, "paths": 4000, "x0": 0.0,
           "basis": {"kind": "poly", "degree": 3}}
    num.update(numerics)
    return {"task": "solve", "seed": 3,
            "model": {"name": "custom",
                      "params": {"diffusion": {"slope": 0.0, "intercept": 1.0}}},
            "driver": {"name": "zero"},
            "terminal": {"name": "square"},
            "numerics": num}


def obstacle_put_config(**numerics):
    # an American put without jumps along a penalty schedule
    num = {"grid_n": 10, "paths": 5000, "x0": 100.0,
           "basis": {"kind": "local", "cells": 12}}
    num.update(numerics)
    return {"task": "solve-obstacle", "seed": 4,
            "model": {"name": "bs", "params": {"r": 0.05, "sigma": 0.2}},
            "driver": {"name": "discount", "params": {"rate": 0.05}},
            "terminal": {"name": "put", "params": {"strike": 100}},
            "obstacle": {"name": "put", "params": {"strike": 100, "kappa": 1.0,
                                                   "iota": 101.0}},
            "weight": {"p": 4},
            "numerics": num}


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def test_minimal_config_defaults():
    cfg = validate_config({"task": "solve", "seed": 1, "model": {"name": "bs"},
                           "driver": {"name": "zero"},
                           "terminal": {"name": "square"}})
    assert cfg.numerics["grid_n"] == 50
    assert cfg.numerics["paths"] == 100_000
    assert cfg.numerics["basis"] == {"kind": "poly", "degree": 4, "cells": 40,
                                     "box": None}
    assert cfg.numerics["picard"] == 3


def test_unknown_key_rejected_with_path():
    with pytest.raises(ConfigError, match="modle"):
        validate_config({"task": "solve", "seed": 1, "modle": {"name": "bs"}})
    with pytest.raises(ConfigError, match="numerics.grid_m"):
        validate_config({"task": "solve", "seed": 1, "model": {"name": "bs"},
                         "driver": {"name": "zero"}, "terminal": {"name": "square"},
                         "numerics": {"grid_m": 10}})


def test_seed_required():
    with pytest.raises(ConfigError, match="seed"):
        validate_config({"task": "solve", "model": {"name": "bs"},
                         "driver": {"name": "zero"}, "terminal": {"name": "square"}})


def test_type_mismatches():
    with pytest.raises(SchemaError):
        validate_config({"task": "solve", "seed": "one", "model": {"name": "bs"},
                         "driver": {"name": "zero"}, "terminal": {"name": "square"}})
    with pytest.raises(SchemaError):
        validate_config({"task": "solve", "seed": 1, "model": {"name": "bs"},
                         "driver": {"name": "zero"}, "terminal": {"name": "square"},
                         "numerics": {"paths": "many"}})
    with pytest.raises(SchemaError):
        validate_config("{not json")


def _solve_with_model(model, **blocks):
    raw = {"task": "solve", "seed": 1, "model": model,
           "driver": {"name": "zero"}, "terminal": {"name": "square"}}
    raw.update(blocks)
    return raw


@pytest.mark.parametrize("params, path", [
    ({"drfit": {"slope": 1.0}}, "model.params.drfit"),
    ({"drift": {"slop": 5}}, "model.params.drift.slop"),
    ({"diffusion": {"intercept": 1.0, "slpoe": 0.0}}, "model.params.diffusion.slpoe"),
    ({"jump": "translation", "measure": {"kind": "uniform", "sd": 1.0}},
     "model.params.measure.sd"),
    ({"jump": "translation", "measure": {"kind": "gaussian", "lo": -1.0}},
     "model.params.measure.lo"),
    ({"jump": "translation", "measure": {"kind": "levy"}}, "model.params.measure.kind"),
    ({"jump": "shift", "measure": {"kind": "uniform"}}, "model.params.jump"),
    ({"k_jump": 4.0}, "model.params.k_jump"),
    ({"k_coef": 1.0}, "model.params.k_coef"),
])
def test_custom_model_unknown_params_rejected(params, path):
    # before validation named them, these ran silently with the defaults
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")) as err:
        validate_config(_solve_with_model({"name": "custom", "params": params}))
    assert err.value.code == "E_CONFIG"


@pytest.mark.parametrize("params", [
    {"jump": "translation"},
    {"measure": {"kind": "uniform", "lo": -1.0, "hi": 1.0}},
])
def test_custom_model_jumps_need_kind_and_measure(params):
    # one without the other used to give a model without jumps
    with pytest.raises(ConfigError, match="jump kind and a measure"):
        validate_config(_solve_with_model({"name": "custom", "params": params}))


def test_custom_model_with_jumps_builds():
    params = {"drift": {"slope": -0.5}, "jump": "translation",
              "measure": {"kind": "two-point", "down": -0.2, "up": 0.1,
                          "p_up": 0.25, "intensity": 2.0}}
    model = validate_config(_solve_with_model({"name": "custom",
                                               "params": params})).build_model()
    assert model.has_jumps
    assert model.jump_measure.total_intensity == 2.0
    assert np.allclose(model.jump_measure.nodes, [-0.2, 0.1])
    assert np.allclose(model.drift(np.array([[2.0]])), [[-1.0]])


def _custom_measure(**measure):
    return {"name": "custom", "params": {"jump": "translation", "measure": measure}}


@pytest.mark.parametrize("model, message", [
    ({"name": "toy-uniform", "params": {"half_width": -1.0}},
     "model.params.half_width: expected a number >= 0, got -1.0"),
    ({"name": "kou", "params": {"p_up": 1.5}},
     "model.params.p_up: expected a number in [0, 1], got 1.5"),
    ({"name": "kou", "params": {"p_up": -0.5}},
     "model.params.p_up: expected a number in [0, 1], got -0.5"),
    (_custom_measure(kind="uniform", intensity=-1.0),
     "model.params.measure.intensity: expected a number >= 0, got -1.0"),
    (_custom_measure(kind="two-point", p_up=1.5),
     "model.params.measure.p_up: expected a number in [0, 1], got 1.5"),
    (_custom_measure(kind="gaussian", sd=-1.0),
     "model.params.measure.sd: expected a number >= 0, got -1.0"),
    (_custom_measure(kind="uniform", lo=1.0, hi=-1.0),
     "model.params.measure.hi: expected a number >= lo (1.0), got -1.0"),
], ids=["toy-half-width", "kou-p-up", "kou-p-up-negative", "custom-intensity",
        "two-point-p-up", "gaussian-sd", "uniform-hi-below-lo"])
def test_model_params_the_builder_refuses_rejected_at_validation(model, message, tmp_path,
                                                                 capsys):
    # each used to validate and then exit with E_ERROR ValueError from the
    # model's builder or its jump sampler ("high - low < 0", "p_up must lie
    # in [0, 1]", "total intensity must be finite and >= 0", "scale < 0")
    raw = dict(_simulate_config("none"), model=model)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["simulate", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert "[E_CONFIG]" in capsys.readouterr().err


@pytest.mark.parametrize("model", [
    {"name": "toy-uniform", "params": {"half_width": 0.0}},
    {"name": "kou", "params": {"p_up": 0.0}},
    {"name": "kou", "params": {"p_up": 1.0}},
    _custom_measure(kind="uniform", intensity=0.0),
    _custom_measure(kind="uniform", lo=1.0, hi=1.0),
    _custom_measure(kind="gaussian", sd=0.0),
    _custom_measure(kind="two-point", p_up=1.0),
], ids=["toy-half-width-zero", "kou-p-up-zero", "kou-p-up-one", "custom-intensity-zero",
        "uniform-hi-equals-lo", "gaussian-sd-zero", "two-point-p-up-one"])
def test_model_params_at_the_builders_bounds_run(model, tmp_path):
    # the bounds themselves build and simulate
    out = tmp_path / "run"
    _, code = run_experiment(dict(_simulate_config("none"), model=model), str(out))
    assert code == EXIT_OK and (out / "report.json").exists()


@pytest.mark.parametrize("model, path", [
    ({"name": "bs", "params": {"sigmaa": 0.2}}, "model.params.sigmaa"),
    ({"name": "kou", "params": {"n_nodes": 16}}, "model.params.n_nodes"),
    ({"name": "merton", "params": {"jump_sd": 0.1, "jump_std": 0.2}},
     "model.params.jump_std"),
])
def test_preset_unknown_params_rejected_at_validation(model, path):
    # a preset typo used to fail only at run time, as E_ERROR
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")) as err:
        validate_config(_solve_with_model(model))
    assert err.value.code == "E_CONFIG"


def test_model_param_types_checked():
    with pytest.raises(SchemaError, match="model.params.sigma"):
        validate_config(_solve_with_model({"name": "bs", "params": {"sigma": "0.2"}}))
    with pytest.raises(SchemaError, match="model.params.n_nodes"):
        validate_config(_solve_with_model({"name": "merton", "params": {"n_nodes": 32.0}}))
    with pytest.raises(SchemaError, match="model.params.drift"):
        validate_config(_solve_with_model({"name": "custom", "params": {"drift": 1.0}}))


@pytest.mark.parametrize("blocks, path", [
    ({"numerics": {"tol": "NaN"}}, "numerics.tol"),
    ({"numerics": {"x0": "Infinity"}}, "numerics.x0"),
    ({"numerics": {"basis": {"box": ["NaN", 200]}}}, r"numerics.basis.box\[0\]"),
    ({"driver": {"name": "discount", "params": {"rate": "NaN"}}}, "driver.params.rate"),
    ({"numerics": {"schedule": [1, 2, "Infinity"]}}, r"numerics.schedule\[2\]"),
    ({"numerics": {"schedule": [1, 2, 10**400]}}, r"numerics.schedule\[2\]"),
], ids=["tol", "x0", "box", "rate", "schedule", "huge-int"])
def test_non_finite_numbers_rejected(blocks, path):
    # Python's json parses the NaN and Infinity literals, and integers of any
    # size; a config that uses them is rejected at the path, not run
    text = json.dumps(_solve_with_model({"name": "bs"}, **blocks))
    text = text.replace('"NaN"', "NaN").replace('"Infinity"', "Infinity")
    with pytest.raises(SchemaError, match=path):
        validate_config(text)


COUNT_PATHS = [
    *(f"numerics.{key}" for key in ("grid_n", "paths", "picard", "eval_points",
                                    "basis.degree", "basis.cells")),
    "model.params.n_nodes", "oracle.steps", "oracle.n_space", "oracle.n_time",
    "oracle.n_terms", "normcheck.n_panels", "normcheck.nodes_per_panel", "compare.x_grid_n"]


def _config_with(path, value):
    """A valid config of a task that reads the count at ``path``, set to value."""
    kind = {"oracle.steps": "binomial", "oracle.n_terms": "merton"}.get(path, "fd")
    raw = {"numerics": heat_solve_config(),
           "model": _solve_with_model({"name": "merton", "params": {}}),
           "oracle": oracle_task_config(kind),
           "normcheck": {"task": "normcheck", "seed": 1, "model": {"name": "toy-uniform"}},
           "compare": fd_put_compare_config()}[path.split(".")[0]]
    if path == "compare.x_grid_n":  # an x-grid spreads over a region
        raw["compare"]["region"] = [90.0, 110.0]
    *heads, last = path.split(".")
    block = raw
    for key in heads:
        block = block.setdefault(key, {})
    block[last] = value
    return raw


@pytest.mark.parametrize("path", COUNT_PATHS)
def test_count_beyond_array_sizes_rejected(path, tmp_path, capsys):
    # a count NumPy cannot size an array with is a schema error naming its
    # path, not a run that fails inside the simulation or the oracle
    raw = _config_with(path, 10**30)
    with pytest.raises(SchemaError, match=re.escape(path)) as err:
        validate_config(raw)
    assert err.value.code == "E_SCHEMA"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main([raw["task"], "--config", str(cfg_path), "--out",
                     str(tmp_path / "run")]) == EXIT_ERROR
    err_text = capsys.readouterr().err
    assert "[E_SCHEMA]" in err_text and path in err_text
    validate_config(_config_with(path, 3))


def test_counts_below_their_minimum_share_one_code():
    codes = set()
    for path in ("numerics.paths", "numerics.basis.cells"):
        with pytest.raises(SchemaError, match=re.escape(path)) as err:
            validate_config(_config_with(path, 0))
        codes.add(err.value.code)
    assert codes == {"E_SCHEMA"}


@pytest.mark.parametrize("seed", [-1, 2**64, 10**30, 1.0, True],
                         ids=["negative", "2^64", "10^30", "float", "bool"])
def test_seed_outside_the_stream_key_rejected(seed, tmp_path, capsys):
    # seeds key 64-bit streams: one outside [0, 2^64) would alias another
    raw = heat_solve_config()
    raw["seed"] = seed
    with pytest.raises(SchemaError, match="seed") as err:
        validate_config(raw)
    assert err.value.code == "E_SCHEMA"
    for ok in (0, 2**64 - 1):
        assert validate_config(dict(raw, seed=ok)).seed == ok
    if seed == -1:  # the command line's override is checked the same way
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(heat_solve_config()))
        assert cli_main(["solve", "--config", str(cfg_path), "--seed", "-1", "--out",
                         str(tmp_path / "run")]) == EXIT_ERROR
        assert "[E_SCHEMA]" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("config, path", [
    (lambda: heat_solve_config(basis={"box": [200, 50]}), "numerics.basis.box"),
    (lambda: heat_solve_config(basis={"box": [1.0, 1.0]}), "numerics.basis.box"),
    (lambda: heat_solve_config(x0_spread=-0.5), "numerics.x0_spread"),
    (lambda: dict(fd_put_compare_config(), compare={"oracle": {"kind": "fd"},
                                                    "region": [110, 90]}), "compare.region"),
], ids=["box-reversed", "box-empty", "negative-spread", "region-reversed"])
def test_inconsistent_ranges_rejected_at_validation(config, path):
    # a reversed box used to simulate every path and only then fail as
    # E_ERROR; a negative spread silently meant point starts
    with pytest.raises(ConfigError, match=re.escape(path)) as err:
        validate_config(config())
    assert err.value.code == "E_CONFIG"


def _normcheck_config(paths=400, **normcheck):
    raw = {"task": "normcheck", "seed": 1, "model": {"name": "toy-uniform"},
           "numerics": {"paths": paths}}
    if normcheck:
        raw["normcheck"] = dict({"radius": 4.0, "n_panels": 4, "nodes_per_panel": 4,
                                 "s_list": [0.1, 0.5]}, **normcheck)
    return raw


@pytest.mark.parametrize("raw, path", [
    (_normcheck_config(paths=287), "numerics.paths"),
    (_normcheck_config(paths=31, radius=4.0), "numerics.paths"),
    (_normcheck_config(radius=0.0), "normcheck.radius"),
    (_normcheck_config(radius=-9.0), "normcheck.radius"),
    (_normcheck_config(s_list=[]), "normcheck.s_list"),
    (_normcheck_config(s_list=[0.0]), "normcheck.s_list[0]"),
    (_normcheck_config(s_list=[-0.5, 1.0]), "normcheck.s_list[0]"),
], ids=["paths-defaults", "paths-block", "radius-zero", "radius-negative", "s-list-empty",
        "s-list-zero", "s-list-negative"])
def test_normcheck_ranges_rejected_at_validation(raw, path, tmp_path, capsys):
    # each of these validated and then failed in the run: too few paths per
    # quadrature node or an empty horizon list as E_ERROR, a radius <= 0 as
    # E_QUAD after simulating every path, a horizon <= 0 as E_ERROR or E_GRID
    with pytest.raises(ConfigError, match=re.escape(path)) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["normcheck", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert "[E_CONFIG]" in capsys.readouterr().err
    # two paths per node, 144 at the defaults and 16 in the block, validate
    validate_config(_normcheck_config(paths=288))
    validate_config(_normcheck_config(paths=32, radius=4.0))


def test_null_region_means_none():
    raw = fd_put_compare_config()
    raw["compare"]["region"] = None
    assert "region" not in validate_config(raw).raw["compare"]
    raw["compare"]["region"] = [90, 110]
    assert validate_config(raw).raw["compare"]["region"] == [90.0, 110.0]


@pytest.mark.parametrize("blocks, path", [
    ({"driver": {"name": "discount", "params": {"rat": 0.05}}}, "driver.params.rat"),
    ({"terminal": {"name": "put", "params": {"strik": 100}}}, "terminal.params.strik"),
    ({"terminal": {"name": "square", "params": {"strike": 100}}},
     "terminal.params.strike"),
])
def test_named_block_unknown_params_rejected(blocks, path):
    # these used to run silently with the default rate 0 or strike 1
    with pytest.raises(ConfigError, match=path.replace(".", r"\.")):
        validate_config(_solve_with_model({"name": "bs"}, **blocks))


def test_obstacle_unknown_params_rejected():
    raw = {"task": "solve-obstacle", "seed": 1, "model": {"name": "bs"},
           "driver": {"name": "discount", "params": {"rate": 0.05}},
           "terminal": {"name": "put", "params": {"strike": 100}},
           "obstacle": {"name": "put", "params": {"strike": 100, "kapa": 1.0}},
           "weight": {"p": 4.0}}
    with pytest.raises(ConfigError, match=r"obstacle\.params\.kapa"):
        validate_config(raw)
    raw["obstacle"]["params"] = {"strike": 100, "kappa": 1.0, "iota": 101.0}
    validate_config(raw)


def test_driver_params_default_to_zero():
    cfg = validate_config(_solve_with_model(
        {"name": "bs"}, driver={"name": "borrowing", "params": {"borrow_rate": 0.1}}))
    drv = cfg.build_driver()
    y = np.array([-1.0, 2.0])
    z = np.zeros((2, 1))
    # rate = risk_premium = 0: f = -0.1 * min(y, 0)
    assert np.array_equal(drv.f(0.0, None, y, z, None), [0.1, -0.0])


@pytest.mark.parametrize("model, message", [
    ({"name": "custom", "params": {}}, "not 'custom'"),
    ({"name": "toy-uniform"}, "not 'toy-uniform'"),
    ({"name": "bs", "params": {"sigma": 0.0}}, "model.params.sigma > 0"),
])
def test_borrowing_driver_needs_a_stock_volatility(model, message, tmp_path, capsys):
    # the borrowing driver's cash is y - z / sigma, with the sigma of a bs,
    # merton or kou model; any other model has no such sigma
    raw = _solve_with_model(model, driver={"name": "borrowing",
                                           "params": {"rate": 0.05, "borrow_rate": 0.08}})
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["solve", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert "[E_CONFIG]" in capsys.readouterr().err
    # a preset's sigma, given or its default, reaches the driver
    for model, sigma in (({"name": "merton", "params": {"sigma": 0.3}}, 0.3),
                         ({"name": "kou"}, 0.2)):
        driver = validate_config(dict(raw, model=model)).build_driver()
        assert driver.lipschitz == pytest.approx(0.08 + 0.03 / sigma)


def test_obstacle_weight_floor_rule():
    raw = {"task": "solve-obstacle", "seed": 1, "model": {"name": "bs"},
           "driver": {"name": "discount", "params": {"rate": 0.05}},
           "terminal": {"name": "put", "params": {"strike": 100}},
           "obstacle": {"name": "put", "params": {"strike": 100, "kappa": 1.0}},
           "weight": {"p": 2.0}}
    with pytest.raises(ConfigError, match="kappa \\+ dim \\+ 1"):
        validate_config(raw)
    raw["weight"]["p"] = 4.0
    validate_config(raw)


@pytest.mark.parametrize("p", [-1, 0])
def test_nonpositive_weight_exponent_rejected(p):
    raw = {"task": "normcheck", "seed": 1, "model": {"name": "toy-uniform"},
           "weight": {"p": p}}
    with pytest.raises(ConfigError, match="weight.p") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"


def test_task_requirements():
    with pytest.raises(ConfigError, match="terminal"):
        validate_config({"task": "solve", "seed": 1, "model": {"name": "bs"},
                         "driver": {"name": "zero"}})
    with pytest.raises(ConfigError, match="requires a oracle block"):
        validate_config({"task": "oracle", "seed": 1, "model": {"name": "bs"}})
    # every task that prices needs a model: the oracle task has no default one
    raw = oracle_task_config("binomial")
    del raw["model"]
    with pytest.raises(ConfigError, match="model block is required") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    # a closed form also prices the terminal
    raw = oracle_task_config("merton")
    del raw["terminal"]
    with pytest.raises(ConfigError, match="requires a terminal block"):
        validate_config(raw)


def american_put_compare_config(**oracle):
    # an American put without jumps against the binomial tree
    return {"task": "compare", "seed": 5,
            "model": {"name": "bs", "params": {"r": 0.05, "sigma": 0.2}},
            "driver": {"name": "discount", "params": {"rate": 0.05}},
            "terminal": {"name": "put", "params": {"strike": 100}},
            "obstacle": {"name": "put", "params": {"strike": 100}},
            "numerics": {"grid_n": 10, "paths": 3000, "x0": 100.0,
                         "basis": {"kind": "poly", "degree": 3}},
            "compare": {"oracle": dict({"kind": "binomial", "steps": 200}, **oracle),
                        "tol_rel": 0.05}}


def fd_put_compare_config():
    raw = american_put_compare_config()
    raw["compare"]["oracle"] = {"kind": "fd", "x_lo": 50.0, "x_hi": 150.0}
    return raw


def merton_compare_config(**oracle):
    # the README example: a merton call against the closed-form series
    return {"task": "compare", "seed": 11,
            "model": {"name": "merton", "params": {"r": 0.05, "sigma": 0.2,
                      "intensity": 1.0, "jump_mean": -0.1, "jump_sd": 0.15}},
            "driver": {"name": "discount", "params": {"rate": 0.05}},
            "terminal": {"name": "exp-call", "params": {"strike": 100}},
            "numerics": {"grid_n": 50, "paths": 100000, "x0": 4.60517},
            "compare": {"oracle": dict({"kind": "merton"}, **oracle), "tol_rel": 0.01}}


def bs_call_compare_config(**blocks):
    # a European call without jumps against the series (Black-Scholes)
    raw = {"task": "compare", "seed": 1,
           "model": {"name": "bs"},
           "driver": {"name": "discount", "params": {"rate": 0.05}},
           "terminal": {"name": "call", "params": {"strike": 100}},
           "numerics": {"x0": 100.0},
           "compare": {"oracle": {"kind": "merton"}}}
    raw.update(blocks)
    return raw


def as_oracle_task(raw):
    """The compare config ``raw`` as an oracle task on its compare oracle."""
    raw = dict(raw, task="oracle", oracle=raw["compare"]["oracle"])
    del raw["compare"]
    return raw


def oracle_task_config(kind, **oracle):
    """An oracle task of that kind on a problem it prices: the fd put, the
    README's merton call or the American put, with the oracle's keys given."""
    raw = as_oracle_task({"fd": fd_put_compare_config, "merton": merton_compare_config,
                          "binomial": american_put_compare_config}[kind]())
    raw["oracle"] = dict(oracle, kind=kind)
    return raw


def test_compare_horizon_must_match_solver(tmp_path):
    # the solver grid spans [0, 1]: a compare oracle on another horizon
    # would be checked against a different problem
    raw = american_put_compare_config(horizon=0.5)
    with pytest.raises(ConfigError, match="horizon") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    raw["compare"]["oracle"]["horizon"] = 1.0
    validate_config(raw)
    del raw["compare"]["oracle"]["horizon"]
    validate_config(raw)
    # the oracle task prices the config's market at its own horizon
    cfg = validate_config(as_oracle_task(american_put_compare_config(horizon=0.5)))
    assert cfg.oracle()["horizon"] == 0.5
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_OK, report.body
    payload = json.loads((tmp_path / "oracle_price.json").read_text())
    assert payload["price"] == binomial_american(100.0, 100, 0.05, 0.2, 0.5, 200, "put")


def test_closed_form_compare_oracle_prices_one_spot():
    # a merton or binomial oracle prices x0 alone: on an x-grid every point
    # would be checked against that one price
    for raw, region in ((merton_compare_config(), [4.5, 4.7]),
                        (american_put_compare_config(), [95.0, 105.0])):
        validate_config(raw)
        raw["compare"].update(region=region, x_grid_n=5)
        with pytest.raises(ConfigError, match="compare.x_grid_n") as err:
            validate_config(raw)
        assert err.value.code == "E_CONFIG"
        raw["compare"]["x_grid_n"] = 1
        validate_config(raw)
    raw = merton_compare_config()
    raw["compare"].update(oracle={"kind": "fd"}, region=[4.5, 4.7], x_grid_n=5)
    assert validate_config(raw).raw["compare"]["x_grid_n"] == 5


@pytest.mark.parametrize("key, value", [
    ("s0", 100), ("strike", 100), ("rate", 0.05), ("sigma", 0.2), ("intensity", 1.0),
    ("jump_mean", -0.1), ("jump_sd", 0.15), ("option", "call")])
def test_compare_oracle_market_keys_rejected(key, value):
    # an oracle's market is the config's own, in the compare and the oracle task
    with pytest.raises(ConfigError, match=f"unknown key at compare.oracle.{key}") as err:
        validate_config(merton_compare_config(**{key: value}))
    assert err.value.code == "E_CONFIG"
    with pytest.raises(ConfigError, match=f"^unknown key at oracle.{key}$") as err:
        validate_config(oracle_task_config("merton", **{key: value}))
    assert err.value.code == "E_CONFIG"


@pytest.mark.parametrize("compare, message", [
    ({"x_grid_n": 5}, "compare.x_grid_n = 5 but no compare.region"),
    ({"region": [95.0, 99.0]}, "compare.region = [95.0, 99.0] does not contain numerics.x0"),
], ids=["grid-without-region", "region-without-x0"])
def test_inconsistent_compare_grid_rejected(compare, message, tmp_path):
    # an x-grid used to shrink to x0 alone without a region, and a region
    # without x0 was ignored at one point: both compared elsewhere than asked
    raw = fd_put_compare_config()
    raw["compare"].update(compare)
    with pytest.raises(ConfigError, match=re.escape(message)) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert not (tmp_path / "run").exists()
    raw["compare"]["region"] = [95.0, 105.0]  # spreads the grid, or contains x0
    validate_config(raw)


@pytest.mark.parametrize("compare, points", [
    ({"oracle": {"kind": "fd"}}, "[-8.0, 8.0] does not contain the points compared, "
                                 "[100.0, 100.0]"),
    ({"oracle": {"kind": "fd", "x_lo": 50.0, "x_hi": 100.0}, "region": [95.0, 105.0],
      "x_grid_n": 5}, "[50.0, 100.0] does not contain the points compared, [95.0, 105.0]"),
    ({"oracle": {"kind": "fd", "x_lo": 96.0, "x_hi": 150.0}, "region": [95.0, 105.0],
      "x_grid_n": 5}, "[96.0, 150.0] does not contain the points compared, [95.0, 105.0]"),
], ids=["x0-beyond-default-grid", "region-beyond-x_hi", "region-below-x_lo"])
def test_fd_compare_grid_must_contain_the_compared_points(compare, points, tmp_path):
    # the fd oracle's values beyond its grid are its end values: on the
    # default grid [-8, 8] a put at x0 = 100 was compared with u(0, 8) = 92,
    # and the run reported criterion-failure with sup_rel_err 0.93
    raw = american_put_compare_config()
    raw["compare"] = dict(compare, tol_rel=0.05)
    with pytest.raises(ConfigError, match=re.escape(points)) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    assert str(err.value).startswith("compare.oracle: ")
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert not (tmp_path / "run").exists()
    # a grid that reaches the points, at its ends included, validates
    raw["compare"]["oracle"].update(x_lo=95.0, x_hi=105.0)
    validate_config(raw)


@pytest.mark.parametrize("task", ["oracle", "compare"])
@pytest.mark.parametrize("oracle, path, code", [
    ({"kind": "binomial", "steps": 1}, "oracle.steps", "E_SCHEMA"),
    ({"kind": "fd", "n_space": 2}, "oracle.n_space", "E_SCHEMA"),
    ({"kind": "fd", "x_lo": 200.0, "x_hi": 50.0}, "oracle", "E_CONFIG"),
    ({"kind": "fd", "x_lo": 10.0}, "oracle", "E_CONFIG"),
], ids=["one-step-tree", "two-node-grid", "reversed-interval", "above-default-x_hi"])
def test_oracle_grid_that_cannot_be_built_rejected(task, oracle, path, code, tmp_path,
                                                   capsys):
    # each used to validate and then exit with E_ERROR from the oracle: the
    # tree's error estimate prices steps // 2, and the fd grid needs three
    # nodes on a nonempty interval (x_lo and x_hi default to -8 and 8)
    if task == "oracle":
        raw = oracle_task_config(**oracle)
    elif oracle["kind"] == "binomial":
        raw = american_put_compare_config(**oracle)
    else:
        raw = fd_put_compare_config()
        raw["compare"]["oracle"] = oracle
    path = f"{'compare.' if task == 'compare' else ''}{path}"
    with pytest.raises((ConfigError, SchemaError), match=re.escape(path)) as err:
        validate_config(raw)
    assert err.value.code == code
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main([task, "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert f"[{code}]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("task, oracle, key", [
    ("oracle", {"kind": "binomial", "steps": 200, "intensity": 1.0}, "intensity"),
    ("oracle", {"kind": "binomial", "jump_mean": -0.1}, "jump_mean"),
    ("oracle", {"kind": "binomial", "jump_sd": 0.15}, "jump_sd"),
    ("oracle", {"kind": "binomial", "n_terms": 60}, "n_terms"),
    ("oracle", {"kind": "binomial", "n_space": 400}, "n_space"),
    ("oracle", {"kind": "merton", "steps": 200}, "steps"),
    ("oracle", {"kind": "merton", "bc": "linear"}, "bc"),
    ("oracle", {"kind": "fd", "s0": 100.0}, "s0"),
    ("oracle", {"kind": "fd", "strike": 100.0}, "strike"),
    ("oracle", {"kind": "fd", "option": "put"}, "option"),
    ("oracle", {"kind": "fd", "steps": 200}, "steps"),
    ("compare", {"kind": "merton", "n_space": 400}, "n_space"),
    ("compare", {"kind": "merton", "bc": "linear"}, "bc"),
    ("compare", {"kind": "merton", "steps": 200}, "steps"),
    ("compare", {"kind": "binomial", "n_terms": 60}, "n_terms"),
    ("compare", {"kind": "binomial", "x_lo": 4.0}, "x_lo"),
    ("compare", {"kind": "fd", "n_terms": 60}, "n_terms"),
    ("compare", {"kind": "fd", "steps": 200}, "steps"),
])
def test_oracle_keys_belong_to_their_kind(task, oracle, key, tmp_path):
    # each kind takes the keys it reads: a binomial tree has no jumps, a
    # series no grid, and no kind a market of its own
    if task == "oracle":
        raw = oracle_task_config(**oracle)
    elif oracle["kind"] == "binomial":
        raw = american_put_compare_config(**oracle)
    else:
        raw = merton_compare_config(**oracle)
    path = f"{'compare.' if task == 'compare' else ''}oracle.{key}"
    with pytest.raises(ConfigError, match=f"^unknown key at {re.escape(path)}$") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main([task, "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert not (tmp_path / "run").exists()


def test_oracle_kinds_keep_their_own_keys():
    # in the oracle task each kind keeps its keys and its own horizon
    for oracle in ({"kind": "binomial", "horizon": 0.5, "steps": 100},
                   {"kind": "merton", "horizon": 0.5, "n_terms": 40},
                   {"kind": "fd", "x_lo": -4.0, "x_hi": 4.0, "n_space": 200, "n_time": 100,
                    "bc": "linear", "horizon": 0.5}):
        assert validate_config(oracle_task_config(**oracle)).raw["oracle"] == oracle
    for raw in (american_put_compare_config(steps=100, horizon=1.0),
                merton_compare_config(n_terms=40, horizon=1.0),
                # a compare's fd grid contains x0 = log 100
                merton_compare_config(kind="fd", x_lo=1.0, x_hi=8.0, n_space=200,
                                      n_time=100, bc="linear", horizon=1.0)):
        validate_config(raw)


def _oracle_task_with(kind, model=None, terminal=None, **oracle):
    """An oracle task of that kind with its model params or its terminal (and
    a payoff obstacle alike) changed, or its oracle keys given."""
    raw = oracle_task_config(kind, **oracle)
    if model is not None:
        raw["model"] = {"name": raw["model"]["name"],
                        "params": dict(raw["model"]["params"], **model)}
    if terminal is not None:
        raw["terminal"] = terminal
        if "obstacle" in raw:
            raw["obstacle"] = {"name": terminal["name"],
                               "params": dict(terminal["params"], iota=1.0)}
    return raw


def _bs_call_oracle_task(**numerics):
    raw = as_oracle_task(bs_call_compare_config())
    raw["numerics"].update(numerics)
    return raw


def _without_terminal(raw):
    del raw["terminal"]
    return raw


@pytest.mark.parametrize("make, path", [
    (lambda: _oracle_task_with("binomial", model={"sigma": -0.2}), "model.params.sigma"),
    (lambda: _oracle_task_with("merton", model={"sigma": -0.2}), "model.params.sigma"),
    (lambda: _oracle_task_with("merton", model={"intensity": -1.0}), "model.params.intensity"),
    (lambda: _oracle_task_with("merton", model={"jump_sd": -0.15}), "model.params.jump_sd"),
    (lambda: _bs_call_oracle_task(x0=0.0), "numerics.x0 = 0.0"),
    (lambda: _oracle_task_with("binomial", terminal={"name": "put",
                                                     "params": {"strike": -100.0}}),
     "terminal.params.strike = -100.0"),
    (lambda: _oracle_task_with("merton", horizon=-1.0), "oracle.horizon"),
    (lambda: _oracle_task_with("binomial", horizon=0.0), "oracle.horizon"),
    (lambda: _oracle_task_with("fd", horizon=-1.0), "oracle.horizon"),
    (lambda: _without_terminal(oracle_task_config("fd")), "requires a terminal block"),
    (lambda: _oracle_task_with("binomial", model={"sigma": 0.0}), "model.params.sigma = 0.0"),
    (lambda: _oracle_task_with("binomial", model={"sigma": 0.05}, steps=2),
     "model.params.sigma = 0.05"),
], ids=["binomial-negative-sigma", "merton-negative-sigma", "merton-negative-intensity",
        "merton-negative-jump-sd", "merton-zero-s0", "binomial-negative-strike",
        "merton-negative-horizon", "binomial-zero-horizon", "fd-negative-horizon",
        "fd-without-terminal", "binomial-zero-sigma", "binomial-coarse-tree"])
def test_unrunnable_oracle_task_rejected_at_validation(make, path, tmp_path, capsys):
    # each used to validate and then exit with E_ERROR from the oracle: a
    # negative sigma, intensity or jump sd as ValueError, a spot, strike or
    # horizon <= 0 as a math domain error or ZeroDivisionError, and an fd
    # oracle, which solves from the config's terminal, as KeyError: 'terminal'.
    # A binomial tree whose up probability leaves (0, 1), at sigma 0 or on
    # the error estimate's tree of steps // 2 (here 1 step, where
    # sigma sqrt(dt) = rate dt), priced with a clipped one and exited 0.
    # The market is the config's, so each is refused where it is given
    raw = make()
    with pytest.raises(ConfigError, match=re.escape(path)) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["oracle", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert "[E_CONFIG]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # zero volatility, intensity and jump sd validate
    validate_config(_oracle_task_with("merton", model={"sigma": 0.0, "intensity": 0.0,
                                                       "jump_sd": 0.0}))


def _merton_with(**changes):
    raw = merton_compare_config()
    raw["model"]["params"].update(changes)
    return raw


def _american_put_with(obstacle_strike=100, **numerics):
    raw = american_put_compare_config()
    raw["obstacle"]["params"]["strike"] = obstacle_strike
    raw["numerics"].update(numerics)
    return raw


def _without_obstacle(raw):
    del raw["obstacle"]
    return raw


# each row was accepted by the check that compared copied keys with the
# model, and then compared against another problem; a market the oracle
# restates is now an unknown key, and a derived one must be priceable
MOTIVATION_ROWS = {
    "x0-110-vs-oracle-s0-100": (
        dict(_american_put_with(x0=110.0), compare={"oracle": {
            "kind": "binomial", "s0": 100}}), "unknown key at compare.oracle.s0"),
    "strike-120-vs-oracle-strike-100": (
        dict(american_put_compare_config(strike=100),
             terminal={"name": "put", "params": {"strike": 120}},
             obstacle={"name": "put", "params": {"strike": 120}}),
        "unknown key at compare.oracle.strike"),
    "call-terminal-vs-binomial-put": (
        dict(american_put_compare_config(option="put"),
             terminal={"name": "call", "params": {"strike": 100}},
             obstacle={"name": "call", "params": {"strike": 100}}),
        "unknown key at compare.oracle.option"),
    "exp-put-terminal-vs-merton-call": (
        dict(merton_compare_config(s0=100, strike=100, rate=0.05, sigma=0.2,
                                   intensity=1.0, jump_mean=-0.1, jump_sd=0.15),
             terminal={"name": "exp-put", "params": {"strike": 100}}),
        "unknown key at compare.oracle"),
    "zero-driver-vs-discounted-series": (
        bs_call_compare_config(driver={"name": "zero"}), "driver 'zero' at 0.0"),
    "borrowing-driver-vs-discounted-series": (
        bs_call_compare_config(driver={"name": "borrowing", "params": {
            "rate": 0.05, "borrow_rate": 0.1}}), "driver 'borrowing' is not linear"),
    "european-series-vs-obstacle-solve": (
        bs_call_compare_config(obstacle={"name": "call", "params": {"strike": 100}}),
        "European claim"),
    "american-tree-vs-solve-without-obstacle": (
        _without_obstacle(american_put_compare_config()), "American claim"),
    "tree-obstacle-strike-90-vs-payoff-100": (
        _american_put_with(obstacle_strike=90), "American claim"),
}


@pytest.mark.parametrize("row", sorted(MOTIVATION_ROWS))
def test_closed_form_compare_of_another_problem_rejected(row, tmp_path):
    raw, message = MOTIVATION_ROWS[row]
    with pytest.raises(ConfigError, match=message) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["compare", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("raw, message", [
    (_merton_with(r=0.04), "driver 'discount' at 0.05"),
    (dict(merton_compare_config(), model={"name": "kou"}), "not 'kou'; use an fd oracle"),
    (dict(merton_compare_config(), model={"name": "toy-uniform"}), "not 'toy-uniform'"),
    (dict(merton_compare_config(), model={"name": "custom", "params": {}}), "not 'custom'"),
    (dict(merton_compare_config(), terminal={"name": "call"}), "exp-call or exp-put"),
    (bs_call_compare_config(terminal={"name": "exp-call"}), "a call or put terminal"),
    (bs_call_compare_config(terminal={"name": "square"}), "not 'square'"),
    (bs_call_compare_config(numerics={"x0": 0.0}), "positive spot"),
    (dict(_merton_with(), terminal={"name": "exp-put", "params": {"strike": 100}},
          obstacle={"name": "exp-put", "params": {"strike": 100}},
          compare={"oracle": {"kind": "binomial"}}), "no jumps"),
    (dict(_american_put_with(), obstacle={"name": "call", "params": {"strike": 100}}),
     "American claim"),
    (dict(merton_compare_config(), terminal={"name": "exp-call", "params": {"strike": 0}}),
     r"positive strike, not terminal\.params\.strike = 0"),
    (bs_call_compare_config(terminal={"name": "put", "params": {"strike": -5.0}}),
     r"positive strike, not terminal\.params\.strike = -5"),
    # a tree the CRR pricer refuses, at steps or at steps // 2: the compare
    # used to run its whole Monte-Carlo solve before the oracle's error
    (dict(american_put_compare_config(), model={"name": "bs", "params": {"sigma": 0.0}}),
     r"model\.params\.sigma = 0\.0 is too small"),
    (dict(american_put_compare_config(steps=2),
          model={"name": "bs", "params": {"r": 0.05, "sigma": 0.05}}),
     r"model\.params\.sigma = 0\.05 is too small"),
])
def test_closed_form_compare_needs_a_problem_it_prices(raw, message):
    with pytest.raises(ConfigError, match=message) as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"


def test_compare_market_is_derived():
    raw = dict(american_put_compare_config(),
               model={"name": "bs", "params": {"sigma": 0.3}},
               terminal={"name": "put", "params": {"strike": 110}},
               obstacle={"name": "put", "params": {"strike": 110, "kappa": 0.5}})
    assert validate_config(raw).oracle() == {
        "kind": "binomial", "steps": 200, "s0": 100.0, "strike": 110, "rate": 0.05,
        "sigma": 0.3, "horizon": 1.0, "intensity": 0.0, "jump_mean": 0.0, "jump_sd": 0.0,
        "option": "put"}
    raw = merton_compare_config()
    raw["model"]["params"] = {"r": 0.03, "intensity": 0.5, "jump_sd": 0.1}
    raw["driver"]["params"]["rate"] = 0.03
    raw["terminal"]["params"]["strike"] = 90
    raw["numerics"]["x0"] = math.log(95.0)
    assert validate_config(raw).oracle() == {
        "kind": "merton", "n_terms": 60, "s0": math.exp(math.log(95.0)),
        "strike": 90, "rate": 0.03, "sigma": 0.2, "horizon": 1.0, "intensity": 0.5,
        "jump_mean": -0.1, "jump_sd": 0.1, "option": "call"}
    # a merton model without jumps has an American tree too
    raw = dict(_merton_with(intensity=0.0),
               terminal={"name": "exp-put", "params": {"strike": 100}},
               obstacle={"name": "exp-put", "params": {"strike": 100}},
               compare={"oracle": {"kind": "binomial"}})
    assert validate_config(raw).oracle()["option"] == "put"


def test_binomial_compare_prices_the_configured_put(tmp_path):
    raw = american_put_compare_config()
    raw["model"]["params"] = {"r": 0.04, "sigma": 0.25}
    raw["driver"]["params"]["rate"] = 0.04
    raw["numerics"]["x0"] = 110.0
    raw["terminal"]["params"]["strike"] = raw["obstacle"]["params"]["strike"] = 105
    cfg = validate_config(raw)
    assert cfg.raw["compare"]["oracle"] == {"kind": "binomial", "steps": 200, "horizon": 1.0}
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert report.body["status"] != "error"
    payload = json.loads((tmp_path / "oracle_cmp_price.json").read_text())
    assert payload["price"] == binomial_american(110.0, 105, 0.04, 0.25, 1.0, 200, "put")


@pytest.mark.parametrize("make", [lambda: _small_merton_compare_config(),
                                  american_put_compare_config],
                         ids=["merton-readme", "binomial-american-put"])
def test_oracle_task_prices_what_compare_prices(make, tmp_path):
    # one config run as compare and, on its compare oracle, as the oracle
    # task: both price the market the config derives, and write the same
    # price and error estimate bit for bit
    raw = make()
    report, _ = run_experiment(raw, out_dir=tmp_path / "compare")
    assert report.body["status"] != "error", report.body.get("error")
    report, code = run_experiment(as_oracle_task(raw), out_dir=tmp_path / "oracle")
    assert code == EXIT_OK, report.body
    compared = (tmp_path / "compare" / "oracle_cmp_price.json").read_text()
    assert (tmp_path / "oracle" / "oracle_price.json").read_text() == compared


def test_obstacle_compare_solves_only_the_last_level(tmp_path, monkeypatch):
    # the comparison reads the schedule's last level only: one backward pass
    # of that one level, whose values are solve_reflected's, bit for bit
    import pidesolve.bsde as bsde_mod
    import pidesolve.obstacle as obstacle_mod
    from pidesolve.bsde import evaluate_u
    from pidesolve.runner import _backward_problem
    cfg = validate_config(american_put_compare_config())
    passes = []
    for mod in (bsde_mod, obstacle_mod):
        def counted(*args, _pass=mod._backward_pass, **kwargs):
            passes.append([(level, reflect) for level, reflect, _ in args[5]])
            return _pass(*args, **kwargs)
        monkeypatch.setattr(mod, "_backward_pass", counted)
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    assert report.body["status"] != "error", report.body.get("error")
    assert passes == [[(cfg.numerics["schedule"][-1], False)]]
    monkeypatch.undo()
    model, driver, terminal, paths, basis = _backward_problem(cfg)
    refl = obstacle_mod.solve_reflected(
        model, driver, terminal, cfg.build_obstacle(), paths, basis,
        schedule=cfg.numerics["schedule"], tol=cfg.numerics["tol"], weight=cfg.build_weight(),
        picard_iters=cfg.numerics["picard"])
    xq = np.array([cfg.numerics["x0"]])
    rows = (tmp_path / "solver_u0.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == xq.tolist()
    assert ([float(row.split(",")[1]) for row in rows]
            == evaluate_u(refl.solution, 0, xq[:, None]).tolist())


def test_obstacle_compare_checks_the_horizon(tmp_path, capsys):
    # a put terminal at strike 90 under a put obstacle at strike 100 leaves
    # the obstacle above the terminal condition at the horizon
    raw = fd_put_compare_config()
    raw["terminal"]["params"]["strike"] = 90
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    out = tmp_path / "run"
    assert cli_main(["compare", "--config", str(cfg_path), "--out", str(out)]) == EXIT_ERROR
    assert "h(T, .) <= g" in capsys.readouterr().err
    assert not (out / "solver_u0.csv").exists()
    report = json.loads((out / "report.json").read_text())
    assert "h(T, .) <= g" in report["body"]["error"]["message"]


def test_compare_solves_its_oracle_on_a_helper_thread(tmp_path, monkeypatch):
    import pidesolve.oracle as oracle_mod
    threads = []

    def spy(*args, _solve=oracle_mod.fd_solve_pide, **kwargs):
        threads.append(threading.current_thread().name)
        return _solve(*args, **kwargs)

    monkeypatch.setattr(oracle_mod, "fd_solve_pide", spy)
    report, _ = run_experiment(fd_put_compare_config(), out_dir=tmp_path)
    assert report.body["status"] != "error", report.body.get("error")
    assert threads == ["pidesolve-oracle_0"]
    assert not [t for t in threading.enumerate() if t.name.startswith("pidesolve-oracle")]
    # the timings of the overlap stay out of the hashed body
    assert report.meta["oracle_s"] >= 0 and report.meta["oracle_wait_s"] >= 0
    assert "oracle_s" not in json.dumps(report.body)


def test_kou_call_matches_the_fd_oracle(tmp_path):
    # the kou preset's two-point jumps against the FD oracle on log K +- 3;
    # over seeds 1-60 at this size sup_rel_err ran from 0.02% to 1.67%
    # (mean 0.54%, sd 0.38%), so tol_rel 2.5% is 1.5 times the worst
    log_k = math.log(100.0)
    raw = {"task": "compare", "seed": 1, "model": {"name": "kou"},
           "driver": {"name": "discount", "params": {"rate": 0.05}},
           "terminal": {"name": "exp-call", "params": {"strike": 100}},
           "numerics": {"grid_n": 25, "paths": 50_000, "x0": log_k},
           "compare": {"oracle": {"kind": "fd", "x_lo": log_k - 3.0, "x_hi": log_k + 3.0,
                                  "n_space": 600, "n_time": 200}, "tol_rel": 0.025}}
    report, code = run_experiment(raw, out_dir=tmp_path)
    assert code == EXIT_OK, report.body
    assert report.body["headline"]["sup_rel_err"] <= 0.025


def test_borrowing_merton_call_matches_the_fd_oracle(tmp_path):
    # the borrowing driver (lend at 5%, borrow at 8%) under the merton preset
    # against the FD oracle on log K +- 3; over seeds 1-30 at this size
    # sup_rel_err ran from 0.04% to 1.22% (mean 0.47%, sd 0.29%), so tol_rel
    # 2% is 1.6 times the worst.  The oracle's 14.36 is well above the
    # lending-rate series price, 12.76: the call's hedge borrows
    from pidesolve.oracle import merton_price
    log_k = math.log(100.0)
    raw = {"task": "compare", "seed": 1, "model": {"name": "merton"},
           "driver": {"name": "borrowing", "params": {"rate": 0.05, "borrow_rate": 0.08}},
           "terminal": {"name": "exp-call", "params": {"strike": 100}},
           "numerics": {"grid_n": 25, "paths": 50_000, "x0": log_k},
           "compare": {"oracle": {"kind": "fd", "x_lo": log_k - 3.0, "x_hi": log_k + 3.0,
                                  "n_space": 600, "n_time": 200}, "tol_rel": 0.02}}
    report, code = run_experiment(raw, out_dir=tmp_path)
    assert code == EXIT_OK, report.body
    assert report.body["headline"]["sup_rel_err"] <= 0.02
    oracle_u0 = float((tmp_path / "oracle_u0.csv").read_text().splitlines()[1].split(",")[1])
    assert oracle_u0 > 1.1 * merton_price(100.0, 100.0, 0.05, 0.2, 1.0, 1.0, -0.1, 0.15)


def unstable_fd_compare_config(**terminal):
    # dt * intensity = 0.1 * 20 = 2: the FD oracle raises E_STABILITY
    raw = fd_put_compare_config()
    raw["model"] = {"name": "merton", "params": {"r": 0.05, "sigma": 0.2, "intensity": 20.0}}
    raw["terminal"]["params"].update(terminal)
    raw["compare"]["oracle"]["n_time"] = 10
    return raw


def test_solver_error_takes_precedence_over_the_oracle_error(tmp_path):
    # the h(T, .) <= g problem of the horizon check, with an oracle that fails too
    report, code = run_experiment(unstable_fd_compare_config(strike=90), out_dir=tmp_path)
    assert code == EXIT_ERROR
    assert "h(T, .) <= g" in report.body["error"]["message"]
    assert report.body["error"]["code"] != "E_STABILITY"
    assert os.listdir(tmp_path) == ["report.json"]


def test_oracle_error_after_a_valid_solve(tmp_path):
    report, code = run_experiment(unstable_fd_compare_config(), out_dir=tmp_path)
    assert code == EXIT_ERROR
    assert report.body["error"]["code"] == "E_STABILITY"
    assert report.body["artifacts"] == ["report.json"]
    # the solver's file is written before the oracle's error is read
    assert sorted(os.listdir(tmp_path)) == ["report.json", "solver_u0.csv"]


def test_readme_example_is_a_valid_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    cfg = validate_config(json.loads(blocks[0]))
    assert cfg.task == "compare" and cfg.raw["compare"]["oracle"]["kind"] == "merton"


def _readme_defaults():
    """The README's defaults table: (block, names, defaults) per row."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = text.split("| block | name or kind | defaults |\n| --- | --- | --- |\n")[1]
    rows = []
    for line in table.split("\n\n")[0].splitlines():
        block, names, defaults = (cell.strip() for cell in line.strip("|").split("|"))
        names = re.findall(r"`([\w-]+)`", names.split(":")[0])
        rows.append((block.strip("`"), names or [None], json.loads(defaults.strip("`"))))
    return rows


def _filled(block, name):
    """What validation fills in ``block`` (of that name or kind) for a
    config that gives it no keys of its own."""
    raw = {"task": "solve", "seed": 1, "model": {"name": "bs"}, "driver": {"name": "zero"},
           "terminal": {"name": "square"}}
    if block in ("model", "driver", "terminal", "obstacle"):
        raw[block] = {"name": name}
        return validate_config(raw).raw[block]["params"]
    if block == "model.params.measure":
        raw["model"] = {"name": "custom", "params": {"jump": "translation",
                                                     "measure": {"kind": name}}}
        filled = validate_config(raw).raw["model"]["params"]["measure"]
        assert filled.pop("kind") == name
        return filled
    if block == "oracle":
        filled = validate_config(oracle_task_config(name)).raw["oracle"]
        assert filled.pop("kind") == name
        return filled
    if block == "normcheck":
        return validate_config(_normcheck_config()).raw["normcheck"]
    if block == "compare":
        raw = fd_put_compare_config()
        raw["compare"] = {"oracle": raw["compare"]["oracle"]}
        return {k: v for k, v in validate_config(raw).raw["compare"].items() if k != "oracle"}
    filled = validate_config(raw).raw
    if block == "config":
        return {"output": filled["output"]}
    for key in block.split("."):
        filled = filled[key]
    return {k: v for k, v in filled.items() if not isinstance(v, dict)}


def test_readme_defaults_table_is_what_validation_fills():
    rows = _readme_defaults()
    for block, names, defaults in rows:
        for name in names:
            assert _filled(block, name) == defaults, (block, name)
    # every name and kind validation admits has its row, save those without params
    named = {(block, name) for block, names, _ in rows for name in names}
    base = {"task": "solve", "seed": 1, "model": {"name": "bs"}, "driver": {"name": "zero"},
            "terminal": {"name": "square"}}
    for block, raw in (
            ("model", dict(base, model={"name": "?"})),
            ("driver", dict(base, driver={"name": "?"})),
            ("terminal", dict(base, terminal={"name": "?"})),
            ("obstacle", dict(base, obstacle={"name": "?"})),
            ("model.params.measure", dict(base, model={"name": "custom", "params": {
                "jump": "translation", "measure": {"kind": "?"}}})),
            ("oracle", {"task": "oracle", "seed": 1, "oracle": {"kind": "?"}})):
        with pytest.raises(ConfigError, match="must be one of") as err:
            validate_config(raw)
        choices = json.loads(re.search(r"one of (\[.*?\])", str(err.value))[1].replace("'", '"'))
        without_params = {"driver": {"zero"}, "terminal": {"square"}}.get(block, set())
        assert {name for b, name in named if b == block} == set(choices) - without_params
    # a compare oracle takes its kind's keys, at the same defaults
    for raw in (fd_put_compare_config(), bs_call_compare_config(),
                american_put_compare_config()):
        given = raw["compare"]["oracle"]
        filled = validate_config(raw).raw["compare"]["oracle"]
        row = _filled("oracle", given["kind"])
        assert {k: v for k, v in filled.items() if k not in given} == {
            k: row[k] for k in filled if k not in given}


def test_config_hash_semantics(tmp_path):
    a = validate_config(heat_solve_config())
    reordered = json.loads(json.dumps(heat_solve_config(), sort_keys=True))
    b = validate_config(reordered)
    assert a.canonical_json() == b.canonical_json()
    c = validate_config(heat_solve_config(grid_n=21))
    assert a.canonical_json() != c.canonical_json()


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def test_deterministic_reports(tmp_path):
    r1, c1 = run_experiment(heat_solve_config(), out_dir=tmp_path / "a")
    r2, c2 = run_experiment(heat_solve_config(), out_dir=tmp_path / "b")
    assert c1 == c2 == EXIT_OK
    assert r1.hash == r2.hash
    assert r1.body == r2.body
    # timestamps live outside the hashed body
    assert "timestamp" in r1.meta and "timestamp" not in r1.body


def _simulate_config(dump):
    return {"task": "simulate", "seed": 2, "model": {"name": "toy-uniform"},
            "numerics": {"grid_n": 5, "paths": 100, "x0": 0.0, "dump_paths": dump}}


def _fd_put_oracle_config():
    raw = fd_put_compare_config()
    raw.update(task="oracle", oracle={"kind": "fd", "x_lo": 50.0, "x_hi": 150.0,
                                      "n_space": 60, "n_time": 30})
    del raw["compare"]
    return raw


def _small_merton_compare_config():
    raw = merton_compare_config()
    raw["numerics"].update(grid_n=10, paths=5000)
    return raw


def _fd_grid_compare_config():
    raw = fd_put_compare_config()
    raw["compare"].update(region=[95.0, 105.0], x_grid_n=5)
    raw["compare"]["oracle"].update(x_lo=50.0, x_hi=150.0, n_space=80, n_time=40)
    return raw


ARTIFACT_RUNS = {
    "simulate-csv": (lambda: _simulate_config("csv"), {"paths.csv"}),
    "simulate-binary": (lambda: _simulate_config("binary"), {"paths.bin"}),
    "solve": (heat_solve_config, {"solution.csv", "diagnostics.json"}),
    "solve-obstacle-fractional": (
        lambda: obstacle_put_config(paths=2000, tol=1e-12, schedule=[1.2, 1.4]),
        {"u_level_1.2.csv", "u_level_1.3999999999999999.csv", "nu_histogram.csv",
         "trace.json"}),
    "oracle-fd": (_fd_put_oracle_config, {"oracle_fd.csv"}),
    "oracle-merton": (lambda: oracle_task_config("merton"), {"oracle_price.json"}),
    "oracle-binomial": (lambda: oracle_task_config("binomial", steps=100),
                        {"oracle_price.json"}),
    "normcheck": (lambda: {"task": "normcheck", "seed": 1, "model": {"name": "toy-uniform"},
                           "numerics": {"paths": 400},
                           "normcheck": {"radius": 4.0, "n_panels": 4, "nodes_per_panel": 4,
                                         "s_list": [0.1, 0.5]}},
                  {"norm_ratios.csv", "norm_summary.json"}),
    "compare-fd-grid": (_fd_grid_compare_config, {"oracle_cmp_fd.csv"}),
    "compare-merton": (_small_merton_compare_config, {"oracle_cmp_price.json"}),
    "compare-binomial": (american_put_compare_config, {"oracle_cmp_price.json"}),
}
COMPARE_FILES = {"solver_u0.csv", "oracle_u0.csv", "compare.csv"}


@pytest.mark.parametrize("run", list(ARTIFACT_RUNS))
def test_all_artifacts_listed(run, tmp_path):
    # the report lists exactly the files the run wrote, each once
    make_config, written = ARTIFACT_RUNS[run]
    report, code = run_experiment(make_config(), out_dir=tmp_path)
    assert report.body["status"] != "error", report.body.get("error")
    if run.startswith("compare"):
        written = written | COMPARE_FILES
    artifacts = report.body["artifacts"]
    assert artifacts == sorted(written | {"report.json"})
    assert set(os.listdir(tmp_path)) == set(artifacts)


def _solve_kept(monkeypatch, tmp_path):
    # the solve task run on heat_solve_config, and the solution it wrote
    import pidesolve.runner as runner_mod
    sols = []

    def kept(*args, _solve=runner_mod.solve_bsde, **kwargs):
        sols.append(_solve(*args, **kwargs))
        return sols[-1]

    monkeypatch.setattr(runner_mod, "solve_bsde", kept)
    report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert code == EXIT_OK, report.body.get("error")
    (sol,) = sols
    return sol


def test_solution_csv_holds_the_fitted_fields(tmp_path, monkeypatch):
    # each row of solution.csv, read back from its .17g text, is the fitted
    # u and z at its grid point and step; z is 0 at the horizon
    from pidesolve.bsde import evaluate_u, evaluate_z
    sol = _solve_kept(monkeypatch, tmp_path)
    header, *lines = (tmp_path / "solution.csv").read_text().splitlines()
    assert header == "step,time,x,u,z"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines])
    steps = rows[:, 0].astype(int)
    n = sol.n_steps
    assert np.array_equal(np.unique(steps), np.arange(n + 1))
    for k in range(n + 1):
        at = rows[steps == k]
        assert np.all(at[:, 1] == sol.grid.nodes[k])
        assert np.array_equal(at[:, 3], evaluate_u(sol, k, at[:, 2:3])), k
        assert np.array_equal(at[:, 4], evaluate_z(sol, k, at[:, 2:3])[:, 0]), k
    assert not rows[steps == n, 4].any()


def test_solve_writes_the_ridge_it_used(tmp_path, monkeypatch):
    # diagnostics.json records each step's ridge, positive wherever the
    # design is not degenerate (the first step, at one start point, is)
    sol = _solve_kept(monkeypatch, tmp_path)
    diag = json.loads((tmp_path / "diagnostics.json").read_text())
    assert diag["ridges"] == sol.diagnostics["ridge"].tolist()
    assert len(diag["ridges"]) == sol.n_steps == heat_solve_config()["numerics"]["grid_n"]
    assert diag["degenerate_steps"][0] == 1
    assert all(r > 0 for r, deg in zip(diag["ridges"], diag["degenerate_steps"]) if not deg)


def _readme_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return json.loads(re.findall(r"```json\n(.*?)```", text, re.S)[0])


# every config helper of the tests, with the blocks each leaves to its defaults
CONFIG_HELPERS = {
    "heat-solve": heat_solve_config,
    "obstacle-put": obstacle_put_config,
    "obstacle-put-schedule": lambda: obstacle_put_config(schedule=[1, 8, 64]),
    "custom-model": lambda: _solve_with_model({"name": "custom", "params": {
        "jump": "translation", "drift": {"slope": 1}, "measure": {"kind": "two-point"}}}),
    "borrowing-driver": lambda: _solve_with_model(
        {"name": "kou"}, driver={"name": "borrowing", "params": {"borrow_rate": 0.1}}),
    "constant-obstacle": lambda: dict(obstacle_put_config(),
                                      obstacle={"name": "constant", "params": {"value": -1}}),
    "normcheck-defaults": lambda: _normcheck_config(paths=288),
    "normcheck-block": lambda: _normcheck_config(radius=4.0),
    "american-put-compare": american_put_compare_config,
    "fd-put-compare": fd_put_compare_config,
    "merton-compare": merton_compare_config,
    "bs-call-compare": bs_call_compare_config,
    "merton-with": _merton_with,
    "american-put-with": _american_put_with,
    "unstable-fd-compare": unstable_fd_compare_config,
    "simulate": lambda: _simulate_config("binary"),
    "fd-put-oracle": _fd_put_oracle_config,
    "small-merton-compare": _small_merton_compare_config,
    "fd-grid-compare": _fd_grid_compare_config,
    "oracle-merton": lambda: oracle_task_config("merton"),
    "oracle-binomial": lambda: oracle_task_config("binomial"),
    **{f"count-{path}": functools.partial(_config_with, path, 3) for path in COUNT_PATHS},
    "readme": _readme_config,
}


@pytest.mark.parametrize("helper", list(CONFIG_HELPERS))
def test_normalized_config_validates_to_itself(helper):
    # validation fills every default, so a second pass changes nothing
    cfg = validate_config(CONFIG_HELPERS[helper]())
    again = validate_config(json.loads(cfg.canonical_json()))
    assert again.canonical_json() == cfg.canonical_json()


def test_schedule_max_exp_is_an_unknown_key():
    # the default schedule's one length was its only value in use
    with pytest.raises(ConfigError, match="unknown key at numerics.schedule_max_exp"):
        validate_config(heat_solve_config(schedule_max_exp=12))


def test_default_schedule_is_filled():
    # a config without numerics.schedule holds the 7 default levels once
    # validated, and re-validates to itself
    cfg = validate_config(obstacle_put_config())
    assert cfg.numerics["schedule"] == [1, 4, 16, 64, 256, 1024, 4096]
    again = validate_config(json.loads(cfg.canonical_json()))
    assert again.canonical_json() == cfg.canonical_json()


@pytest.mark.parametrize("schedule, message, code", [
    ([], "numerics.schedule: expected a nonempty list", "E_CONFIG"),
    ([0, 1], "numerics.schedule[0]: expected positive number", "E_SCHEMA"),
    ([1, 4, 2], "numerics.schedule must be increasing", "E_CONFIG"),
], ids=["empty", "zero-level", "decreasing"])
def test_schedule_levels_checked(schedule, message, code, tmp_path, capsys):
    # an empty list used to validate and run the default schedule
    raw = obstacle_put_config(schedule=schedule)
    with pytest.raises((ConfigError, SchemaError), match=f"^{re.escape(message)}$") as err:
        validate_config(raw)
    assert err.value.code == code
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["solve-obstacle", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert f"[{code}]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _put_obstacle_at(strike, **params):
    raw = obstacle_put_config()
    raw["terminal"]["params"]["strike"] = strike
    raw["obstacle"]["params"] = dict(params, strike=strike)
    return raw


@pytest.mark.parametrize("raw, path", [
    (_put_obstacle_at(-2.0), "obstacle.params.iota: expected a number > 0, got -1.0"),
    (_put_obstacle_at(100, kappa=0.0), "obstacle.params.kappa: expected a number > 0, got 0.0"),
    (_put_obstacle_at(100, iota=-5.0), "obstacle.params.iota: expected a number > 0, got -5.0"),
], ids=["iota-default-below-zero", "kappa-zero", "iota-negative"])
def test_obstacle_growth_constants_checked_at_validation(raw, path, tmp_path, capsys):
    # each used to validate and then exit with E_ERROR "must be positive"
    # from ObstacleSpec: iota's default, 1 + strike, is -1 at strike -2
    with pytest.raises(ConfigError, match=f"^{re.escape(path)}$") as err:
        validate_config(raw)
    assert err.value.code == "E_CONFIG"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(raw))
    assert cli_main(["solve-obstacle", "--config", str(cfg_path),
                     "--out", str(tmp_path / "run")]) == EXIT_ERROR
    assert "[E_CONFIG]" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    # the filled iota bounds the payoff: 1 + strike, 1 + abs(value) for a constant
    assert validate_config(_put_obstacle_at(100)).raw["obstacle"]["params"]["iota"] == 101.0
    raw = dict(_put_obstacle_at(100), obstacle={"name": "constant", "params": {"value": -3}})
    assert validate_config(raw).raw["obstacle"]["params"]["iota"] == 4.0


def test_artifact_writer_refuses_a_repeated_name(tmp_path):
    from pidesolve.runner import _Artifacts
    art = _Artifacts(str(tmp_path))
    art.csv("a.csv", "x,u", [(1.0, "b")])
    with pytest.raises(ValueError, match="a.csv"):
        art.path("a.csv")
    with pytest.raises(ValueError, match="a.csv"):
        art.json("a.csv", {})
    assert art.names == ["a.csv"]
    assert (tmp_path / "a.csv").read_text() == "x,u\n1,b\n"


_AWKWARD_FLOATS = [-0.0, 0.0, 5e-324, -2.2250738585072009e-308, math.inf, -math.inf,
                   2.0**53 + 2, 1e300, -123456789012345678.0, 0.1, 1 / 3]


def test_csv_writer_bytes_are_per_value_format(tmp_path):
    # rows of NumPy scalars, Python floats from tolist, large ints, strings
    # and values formatted once where they repeat give the bytes of
    # format(v, ".17g") applied to each value on its own
    from pidesolve.runner import _Artifacts, _oracle_write
    from pidesolve.oracle import FdSolution
    vals = np.array(_AWKWARD_FLOATS)
    ints = [0, -7, 2**53 + 1, 10**20, np.int64(-(2**62))]
    rows = [(i, v, w, "id", format(v, ".17g")) for i, v, w in zip(ints * 3, vals, vals.tolist())]
    art = _Artifacts(str(tmp_path))
    art.csv("a.csv", "i,v,w,s,f", rows)
    want = "i,v,w,s,f\n" + "".join(
        ",".join(v if isinstance(v, str) else format(v, ".17g") for v in row) + "\n"
        for row in [(i, v, v, "id", v) for i, v in zip(ints * 3, vals)])
    assert (tmp_path / "a.csv").read_text() == want
    # the FD oracle's slices: every stride-th time, all of the x column
    times = np.linspace(0.0, 1.0, 23)
    x = np.concatenate([vals[:6], np.linspace(-3.0, 3.0, 5)])
    values = np.tile(np.resize(vals, x.size), (times.size, 1))
    values[:, -1] = times
    fd = FdSolution(x=x, times=times, values=values, diagnostics={"cfl": 0.5})
    _oracle_write(fd, art, "o")
    want = "time,x,u\n" + "".join(f"{format(times[i], '.17g')},{format(xj, '.17g')},"
                                  f"{format(uj, '.17g')}\n"
                                  for i in range(0, times.size, 2)
                                  for xj, uj in zip(x, values[i]))
    assert (tmp_path / "o_fd.csv").read_text() == want


def test_lock_file_serializes(tmp_path):
    # a lock held through another open file, as another run in this process
    # or another holds it, is refused and its file left as it is
    import fcntl
    lock = tmp_path / ".lock"
    with open(lock, "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        before = os.stat(lock)
        with pytest.raises(ConfigError, match="locked") as err:
            run_experiment(heat_solve_config(), out_dir=tmp_path)
        assert err.value.code == "E_CONFIG"
        assert os.path.samestat(os.stat(lock), before) and lock.read_text() == ""
    report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert code == EXIT_OK
    assert not lock.exists()


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_stale_lock_is_removed(tmp_path):
    # a lock file that no run holds does not block: the run takes it and
    # removes it when it ends
    (tmp_path / ".lock").write_text(str(_dead_pid()))
    report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert code == EXIT_OK
    assert not (tmp_path / ".lock").exists()


def test_lock_naming_a_live_process_does_not_block(tmp_path):
    # a killed run's lock file may name a pid that a live process took over
    # later; without a holder of its flock it is no lock
    sleeper = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    try:
        (tmp_path / ".lock").write_text(str(sleeper.pid))
        report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    finally:
        sleeper.kill()
        sleeper.wait()
    assert code == EXIT_OK
    assert not (tmp_path / ".lock").exists()


def test_lock_of_a_killed_run_is_released(tmp_path):
    # a process that holds the lock blocks every run until SIGKILL ends it;
    # the kernel then drops its flock, and the next run takes the lock
    import signal
    src = str(Path(pidesolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, time; from pidesolve.runner import _take_lock; "
            "fd = _take_lock(sys.argv[1], sys.argv[2]); "
            "print('held', flush=True); time.sleep(60)")
    lock = str(tmp_path / ".lock")
    holder = subprocess.Popen([sys.executable, "-c", code, lock, str(tmp_path)],
                              env=env, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "held\n"
        with pytest.raises(ConfigError, match="locked") as err:
            run_experiment(heat_solve_config(), out_dir=tmp_path)
        assert err.value.code == "E_CONFIG"
    finally:
        holder.send_signal(signal.SIGKILL)
        holder.wait()
        holder.stdout.close()
    assert holder.returncode == -signal.SIGKILL
    assert os.path.exists(lock)
    report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert code == EXIT_OK
    assert not os.path.exists(lock)


@pytest.mark.parametrize("recreate", [False, True])
def test_lock_file_replaced_before_the_flock(tmp_path, monkeypatch, recreate):
    # the file one run opened is removed, and maybe re-created and locked by
    # another run, before the first run's flock takes hold: the first run
    # opens the path again, so the two never both hold a lock
    import fcntl
    import types
    import pidesolve.runner as runner_mod
    lock = str(tmp_path / ".lock")
    held = []

    def flock(fd, op):
        if not held:
            held.append(None)
            os.unlink(lock)
            if recreate:
                held[0] = runner_mod._take_lock(lock, str(tmp_path))
        fcntl.flock(fd, op)

    monkeypatch.setattr(runner_mod, "fcntl", types.SimpleNamespace(
        flock=flock, LOCK_EX=fcntl.LOCK_EX, LOCK_NB=fcntl.LOCK_NB))
    if recreate:
        with pytest.raises(ConfigError, match="locked"):
            runner_mod._take_lock(lock, str(tmp_path))
        fd = held[0]
    else:
        fd = runner_mod._take_lock(lock, str(tmp_path))
    assert not os.get_inheritable(fd)
    assert os.path.samestat(os.fstat(fd), os.stat(lock))
    runner_mod._release_lock(fd, lock)
    assert not os.path.exists(lock)


def test_lock_of_another_run_is_not_removed(tmp_path):
    # a run whose lock file was replaced leaves the other run's lock alone
    import pidesolve.runner as runner_mod
    lock = str(tmp_path / ".lock")
    fd = runner_mod._take_lock(lock, str(tmp_path))
    os.unlink(lock)
    (tmp_path / ".lock").write_text("other")
    runner_mod._release_lock(fd, lock)
    assert (tmp_path / ".lock").read_text() == "other"


def test_exit_code_on_criterion_failure(tmp_path):
    cfg = {"task": "compare", "seed": 5,
           "model": {"name": "bs", "params": {"r": 0.05, "sigma": 0.2}},
           "driver": {"name": "discount", "params": {"rate": 0.05}},
           "terminal": {"name": "put", "params": {"strike": 100}},
           "obstacle": {"name": "put", "params": {"strike": 100}},
           "numerics": {"grid_n": 10, "paths": 3000, "x0": 100.0,
                        "basis": {"kind": "poly", "degree": 3}},
           "compare": {"oracle": {"kind": "binomial", "steps": 200}, "tol_rel": 1e-9}}
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_CRITERION
    assert [c["passed"] for c in report.body["criteria"]] == [False]


def test_exit_code_on_error(tmp_path):
    cfg = heat_solve_config(paths=50)
    cfg["numerics"]["basis"] = {"kind": "poly", "degree": 9}  # floor violation
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_ERROR
    assert report.body["status"] == "error"
    # an error run lists only its report
    assert report.body["artifacts"] == ["report.json"]
    assert os.listdir(tmp_path) == ["report.json"]


def test_simulate_task_dumps(tmp_path):
    cfg = {"task": "simulate", "seed": 2,
           "model": {"name": "toy-uniform"},
           "numerics": {"grid_n": 5, "paths": 100, "x0": 0.0,
                        "dump_paths": "csv"}}
    report, code = run_experiment(cfg, out_dir=tmp_path / "csv")
    assert code == EXIT_OK
    assert "paths.csv" in report.body["artifacts"]
    header = (tmp_path / "csv" / "paths.csv").read_text().splitlines()[0]
    assert header == "path,step,time,x0,n_jumps"

    cfg["numerics"]["dump_paths"] = "binary"
    report, code = run_experiment(cfg, out_dir=tmp_path / "bin")
    assert code == EXIT_OK
    assert (tmp_path / "bin" / "paths.bin").read_bytes()[:5] == b"PIDE1"


def test_solve_obstacle_nonconvergence_exit_code(tmp_path):
    cfg = obstacle_put_config(tol=1e-12, schedule=[1, 2])
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_CRITERION
    assert not report.body["headline"]["converged"]


def test_solve_obstacle_task(tmp_path):
    cfg = obstacle_put_config(tol=5.0, schedule=[1, 8, 64])
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert code == EXIT_OK
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["converged"]
    assert set(trace) == {"levels", "converged", "direct_gap_rel"}
    assert {"u_level_1.csv", "nu_histogram.csv", "trace.json"} <= set(os.listdir(tmp_path))


def test_default_tol_returns_the_last_level(tmp_path):
    # numerics.tol left at its default: every level of the schedule is
    # written, and the result is the last one, whichever level met tol
    cfg = obstacle_put_config(schedule=[1, 8, 64])
    report, code = run_experiment(cfg, out_dir=tmp_path)
    (criterion,) = report.body["criteria"]
    assert criterion["threshold"] == 1e-3
    levels = sorted(f for f in os.listdir(tmp_path) if f.startswith("u_level_"))
    assert levels == [f"u_level_{v}.csv" for v in (1, 64, 8)]
    headline = report.body["headline"]
    assert headline["final_level"] == 64.0
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert [entry["level"] for entry in trace["levels"]] == [1, 8, 64]
    assert headline["converged"] == (trace["levels"][-1]["penalty_norm"] < 1e-3)
    assert criterion["value"] == trace["levels"][-1]["penalty_norm"]
    assert code == (EXIT_OK if headline["converged"] else EXIT_CRITERION)


def test_fractional_levels_write_one_file_each(tmp_path):
    # levels 1.2 and 1.4 round to the same integer; each still gets its own
    # u_level file, and the report lists every artifact once
    cfg = obstacle_put_config(paths=2000, tol=1e-12, schedule=[1.2, 1.4])
    report, _ = run_experiment(cfg, out_dir=tmp_path)
    levels = sorted(f for f in os.listdir(tmp_path) if f.startswith("u_level_"))
    assert levels == [f"u_level_{v:.17g}.csv" for v in (1.2, 1.4)]
    artifacts = report.body["artifacts"]
    assert len(artifacts) == len(set(artifacts))
    assert set(levels) <= set(artifacts)


# ---------------------------------------------------------------------------
# compare table
# ---------------------------------------------------------------------------

def test_compare_identical_values_pass():
    x = np.linspace(0, 1, 11)
    u = 1.0 + x**2
    rel, sup_rel, l2 = _compare_table(x, u, u.copy(), WeightFunction(4))
    assert not rel.any() and sup_rel == 0.0 and l2 == 0.0


def test_compare_shifted_oracle_fails():
    x = np.linspace(0, 1, 11)
    u = 1.0 + x**2
    rel, sup_rel, l2 = _compare_table(x, u, 1.1 * u, WeightFunction(4))
    assert sup_rel == rel.max() and 0.09 <= sup_rel <= 0.101 and l2 > 0.05


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_solve_roundtrip(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    code = cli_main(["solve", "--config", str(cfg_path), "--out",
                     str(tmp_path / "run")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "report:" in out and "u0:" in out
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert payload["body"]["task"] == "solve"
    assert payload["body"]["seed"] == 3


def test_cli_seed_override_changes_hash(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    assert cli_main(["solve", "--config", str(cfg_path), "--out",
                     str(tmp_path / "r1")]) == EXIT_OK
    assert cli_main(["solve", "--config", str(cfg_path), "--seed", "99", "--out",
                     str(tmp_path / "r2")]) == EXIT_OK
    h1 = json.loads((tmp_path / "r1" / "report.json").read_text())["hash"]
    h2 = json.loads((tmp_path / "r2" / "report.json").read_text())["hash"]
    assert h1 != h2


def test_cli_task_mismatch(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    assert cli_main(["simulate", "--config", str(cfg_path)]) == EXIT_ERROR


def test_cli_bad_config(tmp_path):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text("{\"task\": \"solve\"")
    assert cli_main(["solve", "--config", str(cfg_path)]) == EXIT_ERROR
    cfg_path.write_text(json.dumps({"task": "solve", "seed": 1}))
    assert cli_main(["solve", "--config", str(cfg_path)]) == EXIT_ERROR


@pytest.mark.parametrize("seed", [None, "3"], ids=["no-seed", "seed"])
@pytest.mark.parametrize("text", ["[]", "3", '"x"'], ids=["list", "number", "string"])
def test_cli_config_not_an_object(text, seed, tmp_path, capsys):
    # JSON that parses but is not an object is a schema error, before the
    # seed override touches it; a string is not parsed a second time
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(text)
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    if seed is not None:
        argv += ["--seed", seed]
    assert cli_main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error [E_SCHEMA]: config: expected a JSON object")
    assert "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("option", [["--threads", "2"], ["--deterministic"]],
                         ids=["threads", "deterministic"])
def test_cli_run_options_are_usage_errors(option, tmp_path, capsys):
    # the config and the seed are a run's whole input: the echo-only thread
    # count and determinism flag are gone, and no report is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--config", str(cfg_path), *option, "--out", str(tmp_path / "run")])
    assert exc.value.code == EXIT_ERROR
    assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_cli_report_ignores_the_thread_environment(tmp_path, monkeypatch):
    # SOLVER_THREADS set or not, one config and seed give one report hash
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    hashes = []
    for run, env in (("a", None), ("b", "4"), ("c", "abc")):
        if env is None:
            monkeypatch.delenv("SOLVER_THREADS", raising=False)
        else:
            monkeypatch.setenv("SOLVER_THREADS", env)
        assert cli_main(["solve", "--config", str(cfg_path),
                         "--out", str(tmp_path / run)]) == EXIT_OK
        hashes.append(json.loads((tmp_path / run / "report.json").read_text())["hash"])
    assert len(set(hashes)) == 1


@pytest.mark.parametrize("argv", [
    ["solve", "--config", "x.json", "--seed", "abc"],
    ["solve"],
    ["solve", "--config", "x.json", "--bogus"],
    ["nosuchtask", "--config", "x.json"],
    [],
], ids=["seed-text", "no-config", "unknown-option", "unknown-task", "no-task"])
def test_cli_usage_error_is_an_input_error(argv, capsys):
    # exit code 2 means a missed criterion, so a command line that does not
    # parse must not exit with argparse's own 2
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("usage: solver") and "error: " in err


def test_cli_usage_error_exit_status(tmp_path):
    # the status a shell sees, through `python -m pidesolve.cli`
    src = str(Path(pidesolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pidesolve.cli", "solve", "--config",
                           str(tmp_path / "x.json"), "--seed", "abc"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_ERROR
    assert "invalid int value: 'abc'" in proc.stderr
