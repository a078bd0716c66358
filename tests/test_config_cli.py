import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pidesolve
from pidesolve.cli import main as cli_main
from pidesolve.config import _compare_market, validate_config
from pidesolve.errors import ConfigError, GridMismatchError, SchemaError
from pidesolve.oracle import binomial_american
from pidesolve.runner import (EXIT_CRITERION, EXIT_ERROR, EXIT_OK,
                              compare_report, run_experiment)


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
    *(f"numerics.{key}" for key in ("grid_n", "paths", "picard", "schedule_max_exp",
                                    "eval_points", "basis.degree", "basis.cells")),
    "model.params.n_nodes", "oracle.steps", "oracle.n_space", "oracle.n_time",
    "oracle.n_terms", "normcheck.n_panels", "normcheck.nodes_per_panel", "compare.x_grid_n"]


def _config_with(path, value):
    """A valid config of a task that reads the count at ``path``, set to value."""
    kind = {"oracle.steps": "binomial", "oracle.n_terms": "merton"}.get(path, "fd")
    raw = {"numerics": heat_solve_config(),
           "model": _solve_with_model({"name": "merton", "params": {}}),
           "oracle": {"task": "oracle", "seed": 1, "oracle": {"kind": kind}},
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
    with pytest.raises(ConfigError, match="oracle"):
        validate_config({"task": "oracle", "seed": 1})


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
    raw["compare"]["oracle"] = {"kind": "fd"}
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


def test_compare_horizon_must_match_solver():
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
    # the standalone oracle task answers its own problem and keeps its horizon
    oracle = {"kind": "binomial", "s0": 100, "strike": 100, "rate": 0.05,
              "sigma": 0.2, "horizon": 0.5, "steps": 200, "option": "put"}
    cfg = validate_config({"task": "oracle", "seed": 1, "oracle": oracle})
    assert cfg.raw["oracle"]["horizon"] == 0.5


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
    # a compare oracle's market is the config's own; the oracle task's is not
    with pytest.raises(ConfigError, match=f"unknown key at compare.oracle.{key}") as err:
        validate_config(merton_compare_config(**{key: value}))
    assert err.value.code == "E_CONFIG"
    cfg = validate_config({"task": "oracle", "seed": 1,
                           "oracle": {"kind": "merton", key: value}})
    assert cfg.raw["oracle"][key] == value


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


ORACLE_TASK = {"task": "oracle", "seed": 1}


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
        raw = dict(ORACLE_TASK, oracle=oracle)
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
    # series no grid and an fd grid no market of its own
    if task == "oracle":
        raw = dict(ORACLE_TASK, oracle=oracle)
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
    binomial = {"kind": "binomial", "s0": 90, "strike": 100, "rate": 0.04, "sigma": 0.3,
                "horizon": 0.5, "steps": 100, "option": "call"}
    merton = {"kind": "merton", "s0": 90, "strike": 100, "rate": 0.04, "sigma": 0.3,
              "horizon": 0.5, "intensity": 1.0, "jump_mean": -0.1, "jump_sd": 0.15,
              "n_terms": 40, "option": "put"}
    fd = {"kind": "fd", "x_lo": -4.0, "x_hi": 4.0, "n_space": 200, "n_time": 100,
          "bc": "linear", "horizon": 0.5}
    for oracle in (binomial, merton, fd):
        assert validate_config(dict(ORACLE_TASK, oracle=oracle)).raw["oracle"] == oracle
    for raw in (american_put_compare_config(steps=100, horizon=1.0),
                merton_compare_config(n_terms=40, horizon=1.0),
                merton_compare_config(**dict(fd, horizon=1.0))):
        validate_config(raw)


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
    assert _compare_market(validate_config(raw).raw) == {
        "s0": 100.0, "strike": 110, "rate": 0.05, "sigma": 0.3, "horizon": 1.0,
        "intensity": 0.0, "jump_mean": 0.0, "jump_sd": 0.0, "option": "put"}
    raw = merton_compare_config()
    raw["model"]["params"] = {"r": 0.03, "intensity": 0.5, "jump_sd": 0.1}
    raw["driver"]["params"]["rate"] = 0.03
    raw["terminal"]["params"]["strike"] = 90
    raw["numerics"]["x0"] = math.log(95.0)
    assert _compare_market(validate_config(raw).raw) == {
        "s0": math.exp(math.log(95.0)),
        "strike": 90, "rate": 0.03, "sigma": 0.2, "horizon": 1.0, "intensity": 0.5,
        "jump_mean": -0.1, "jump_sd": 0.1, "option": "call"}
    # a merton model without jumps has an American tree too
    raw = dict(_merton_with(intensity=0.0),
               terminal={"name": "exp-put", "params": {"strike": 100}},
               obstacle={"name": "exp-put", "params": {"strike": 100}},
               compare={"oracle": {"kind": "binomial"}})
    assert _compare_market(validate_config(raw).raw)["option"] == "put"


def test_binomial_compare_prices_the_configured_put(tmp_path):
    raw = american_put_compare_config()
    raw["model"]["params"] = {"r": 0.04, "sigma": 0.25}
    raw["driver"]["params"]["rate"] = 0.04
    raw["numerics"]["x0"] = 110.0
    raw["terminal"]["params"]["strike"] = raw["obstacle"]["params"]["strike"] = 105
    cfg = validate_config(raw)
    assert cfg.raw["compare"]["oracle"] == {"kind": "binomial", "steps": 200}
    report, code = run_experiment(cfg, out_dir=tmp_path)
    assert report.body["status"] != "error"
    payload = json.loads((tmp_path / "oracle_cmp_price.json").read_text())
    assert payload["price"] == binomial_american(110.0, 105, 0.04, 0.25, 1.0, 200, "put")


def test_readme_example_is_a_valid_config():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", text, re.S)
    assert len(blocks) == 1
    cfg = validate_config(json.loads(blocks[0]))
    assert cfg.task == "compare" and cfg.raw["compare"]["oracle"]["kind"] == "merton"


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
    "solve": (heat_solve_config, {"solution.csv", "diagnostics.json", "u0_grid.csv"}),
    "solve-obstacle-fractional": (
        lambda: obstacle_put_config(paths=2000, tol=1e-12, schedule=[1.2, 1.4]),
        {"u_level_1.2.csv", "u_level_1.3999999999999999.csv", "nu_histogram.csv",
         "trace.json", "u0_grid.csv"}),
    "oracle-fd": (_fd_put_oracle_config, {"oracle_fd.csv"}),
    "oracle-merton": (lambda: {"task": "oracle", "seed": 1, "oracle": {"kind": "merton"}},
                      {"oracle_price.json"}),
    "oracle-binomial": (lambda: {"task": "oracle", "seed": 1,
                                 "oracle": {"kind": "binomial", "steps": 100}},
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


def test_lock_file_serializes(tmp_path):
    (tmp_path / ".lock").write_text("")
    with pytest.raises(ConfigError, match="locked"):
        run_experiment(heat_solve_config(), out_dir=tmp_path)
    (tmp_path / ".lock").unlink()
    run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert not (tmp_path / ".lock").exists()


def _dead_pid():
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    return child.pid


def test_stale_lock_is_removed(tmp_path):
    # a lock whose pid no longer runs is stale: it is removed and the run
    # goes ahead; a running pid's lock is still refused
    (tmp_path / ".lock").write_text(str(_dead_pid()))
    report, code = run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert code == EXIT_OK
    assert not (tmp_path / ".lock").exists()
    for content in (str(os.getpid()), "not a pid", "0"):
        (tmp_path / ".lock").write_text(content)
        with pytest.raises(ConfigError, match="locked") as err:
            run_experiment(heat_solve_config(), out_dir=tmp_path)
        assert err.value.code == "E_CONFIG"
        assert (tmp_path / ".lock").read_text() == content


def test_two_takers_of_one_stale_lock(tmp_path, monkeypatch):
    # one run takes a stale lock while another sits between its own stale
    # verdict and the takeover: afterwards exactly one of them holds it
    import threading
    import pidesolve.runner as runner_mod
    lock = str(tmp_path / ".lock")
    (tmp_path / ".lock").write_text(str(_dead_pid()))
    checking, other_done = threading.Event(), threading.Event()
    is_stale = runner_mod._lock_is_stale

    def slow_first_verdict(path):
        stale = is_stale(path)
        if not checking.is_set():
            checking.set()
            other_done.wait(timeout=1.0)
        return stale

    monkeypatch.setattr(runner_mod, "_lock_is_stale", slow_first_verdict)
    held = []

    def take():
        try:
            held.append(runner_mod._take_lock(lock, str(tmp_path)))
        except ConfigError:
            pass

    first = threading.Thread(target=take)
    first.start()
    checking.wait()
    take()
    other_done.set()
    first.join()
    assert len(held) == 1
    assert (tmp_path / ".lock").read_text() == str(os.getpid())
    runner_mod._release_lock(held[0], lock)
    assert not (tmp_path / ".lock").exists()


def test_lock_created_after_the_verdict_is_kept(tmp_path, monkeypatch):
    # the lock is gone when a run looks at it, and another run creates its
    # own before the first acts on the verdict: that new lock stays and
    # the first run is refused
    import pidesolve.runner as runner_mod
    lock = tmp_path / ".lock"
    lock.write_text(str(_dead_pid()))
    is_stale, looked = runner_mod._lock_is_stale, []

    def gone_then_created(path):
        if looked:
            return is_stale(path)
        looked.append(path)
        lock.unlink()
        try:
            return is_stale(path)
        finally:
            lock.write_text("other")

    monkeypatch.setattr(runner_mod, "_lock_is_stale", gone_then_created)
    with pytest.raises(ConfigError, match="locked"):
        runner_mod._take_lock(str(lock), str(tmp_path))
    assert lock.read_text() == "other"


def test_lock_of_another_run_is_not_removed(tmp_path):
    # a run whose lock file was replaced leaves the other run's lock alone
    import pidesolve.runner as runner_mod
    lock = str(tmp_path / ".lock")
    fd = runner_mod._take_lock(lock, str(tmp_path))
    os.unlink(lock)
    (tmp_path / ".lock").write_text("other")
    runner_mod._release_lock(fd, lock)
    assert (tmp_path / ".lock").read_text() == "other"


def test_lock_holds_the_running_pid(tmp_path, monkeypatch):
    import pidesolve.runner as runner_mod
    seen = []
    task = runner_mod._TASK_FNS["solve"]

    def spy(cfg, out_dir):
        seen.append((tmp_path / ".lock").read_text())
        return task(cfg, out_dir)

    monkeypatch.setitem(runner_mod._TASK_FNS, "solve", spy)
    run_experiment(heat_solve_config(), out_dir=tmp_path)
    assert seen == [str(os.getpid())]


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
    assert not report.passed


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
# compare fixtures
# ---------------------------------------------------------------------------

def _write_xu(path, x, u):
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for xi, ui in zip(x, u):
            fh.write(f"{xi},{ui}\n")


def test_compare_identical_files(tmp_path):
    x = np.linspace(0, 1, 11)
    u = 1.0 + x**2
    _write_xu(tmp_path / "a.csv", x, u)
    _write_xu(tmp_path / "b.csv", x, u)
    table = compare_report(tmp_path / "a.csv", tmp_path / "b.csv", tol_rel=0.01)
    assert table.passed and table.sup_rel == 0.0


def test_compare_shifted_oracle_fails(tmp_path):
    x = np.linspace(0, 1, 11)
    u = 1.0 + x**2
    _write_xu(tmp_path / "a.csv", x, u)
    _write_xu(tmp_path / "b.csv", x, 1.1 * u)
    table = compare_report(tmp_path / "a.csv", tmp_path / "b.csv", tol_rel=0.05)
    assert not table.passed
    assert 0.09 <= table.sup_rel <= 0.101


def test_compare_grid_mismatch(tmp_path):
    _write_xu(tmp_path / "a.csv", [0.0, 1.0], [1.0, 2.0])
    _write_xu(tmp_path / "b.csv", [0.0, 0.5, 1.0], [1.0, 1.5, 2.0])
    with pytest.raises(GridMismatchError):
        compare_report(tmp_path / "a.csv", tmp_path / "b.csv", tol_rel=0.1)
    # restricting to a region with matching points passes
    _write_xu(tmp_path / "c.csv", [0.0, 0.3, 1.0], [1.0, 9.0, 2.0])
    table = compare_report(tmp_path / "a.csv", tmp_path / "c.csv", tol_rel=0.1,
                           region=(0.9, 1.1))
    assert table.passed


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
    assert payload["body"]["flags"]["seed"] == 3


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


def test_cli_threads_env_fallback(tmp_path, monkeypatch, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    monkeypatch.setenv("SOLVER_THREADS", "4")
    assert cli_main(["solve", "--config", str(cfg_path), "--out",
                     str(tmp_path / "run")]) == EXIT_OK
    payload = json.loads((tmp_path / "run" / "report.json").read_text())
    assert payload["body"]["flags"]["threads"] == 4
    assert payload["body"]["flags"]["deterministic"] is True


@pytest.mark.parametrize("env, flag", [("abc", None), ("0", None), ("1", "-3"), ("2", "x")],
                         ids=["env-text", "env-zero", "flag-negative", "flag-text"])
def test_cli_threads_rejected(tmp_path, monkeypatch, capsys, env, flag):
    # a thread count that is not a positive integer is an input error, from
    # the flag or from its environment fallback, and no report is written
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(heat_solve_config()))
    monkeypatch.setenv("SOLVER_THREADS", env)
    argv = ["solve", "--config", str(cfg_path), "--out", str(tmp_path / "run")]
    if flag is not None:
        argv += ["--threads", flag]
    assert cli_main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and ("--threads" if flag else "SOLVER_THREADS") in err
    assert not (tmp_path / "run").exists()


def test_cli_help_with_bad_threads_env(monkeypatch, capsys):
    monkeypatch.setenv("SOLVER_THREADS", "abc")
    with pytest.raises(SystemExit) as exc:
        cli_main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--threads" in capsys.readouterr().out


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
