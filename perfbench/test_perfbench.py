"""Self-test of the benchmark: tracing changes timing only, and the metric
lists agree with ``BENCHMARK.json``.

    python3 -m pytest perfbench -q

The child runs use a reduced path count, so the answers are checked for
bit-identity, not against the workload tolerances.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SMALL_PATHS = 4000
SEED = 3


def _bench_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _metric_spec():
    with open(os.path.join(HERE, "metrics.json")) as fh:
        return json.load(fh)


def _child(tmp_path, workload, trace):
    env, _ = run.environment()
    res, spans, err = run.run_child(workload, SEED, trace, env, str(tmp_path), paths=SMALL_PATHS)
    assert err is None, err
    return res, spans


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_and_untraced_answers_are_bit_identical(tmp_path, workload):
    plain, _ = _child(tmp_path, workload, 0)
    traced, spans = _child(tmp_path, workload, 1)
    for key in ("u0", "err_rel", "l2_weighted_rel", "report_hash"):
        assert plain.get(key) == traced.get(key), key
    assert run.identical(plain, traced)
    assert spans and all(s[3] >= s[2] for s in spans)
    layers = run.per_layer((traced, spans), plain)
    assert layers["coverage.untraced_share"][0] < 0.2


def test_cli_report_hash_repeats(tmp_path):
    first, _ = _child(tmp_path, "amput-merton-cli", 0)
    second, _ = _child(tmp_path, "amput-merton-cli", 0)
    assert first["report_hash"] == second["report_hash"]
    assert first["artifacts"] == 5 and first["artifact_bytes"] > 0


def test_summarize_derives_self_time():
    spans = [["solve_bsde", "bsde", 0.0, 10.0, None, None],
             ["fit", "bsde", 1.0, 4.0, 0, {"rows": 7}],
             ["driver", "model", 5.0, 6.0, 0, None],
             ["fit", "bsde", 6.0, 8.0, 0, {"rows": 5}],
             ["solve_reflected", "obstacle", 10.0, 20.0, None, None],
             ["solve_bsde", "bsde", 11.0, 19.0, 4, None]]
    s = tracing.summarize(spans)
    assert s["by_name"]["fit"] == {"s": 5.0, "calls": 2, "rows": 12}
    assert s["self_s"] == {"bsde": 4.0 + 5.0 + 8.0, "model": 1.0, "obstacle": 2.0}
    assert s["top_s"] == 20.0 and s["direct_s"] == 8.0


def test_metric_lists_match_benchmark_json():
    bench, spec = _bench_spec(), _metric_spec()
    assert [w["name"] for w in bench["workloads"]] == list(spec["workloads"])
    assert set(w["name"] for w in bench["workloads"]) == set(WORKLOADS)
    for w in bench["workloads"]:
        entry, workload = spec["workloads"][w["name"]], WORKLOADS[w["name"]]
        assert entry["why"] == w["why"]
        assert entry["tol_rel"] == workload.tol_rel
        assert entry["size"]["paths"] == workload.paths and entry["size"]["steps"] == workload.steps
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    assert set(e2e) == set(spec["end_to_end"]) and set(layer) == set(spec["per_layer"])
    for name, entry in spec["per_layer"].items():
        assert entry["unit"] == layer[name]["unit"] and entry["better"] == layer[name]["better"]
        for move in entry["moves"]:
            assert move["workload"] in WORKLOADS and move["metric"] in e2e
    results = [{"run_s": 2.0, "setup_s": 1.0, "paths": 10, "steps": 5, "stderr_rel": 0.01,
                "peak_rss_mb": 100.0}]
    assert {k: u for k, (_, u) in run.end_to_end(results).items()} == \
        {k: m["unit"] for k, m in e2e.items()}
    dummy = {"run_s": 1.0, "err_rel": 0.0, "l2_weighted_rel": 0.0, "user_s": 0.0,
             "sys_s": 0.0, "minor_faults": 0}
    got = run.per_layer((dummy, [["fit", "bsde", 0.0, 0.5, None, {"rows": 3}]]), dummy)
    assert {k: u for k, (_, u) in got.items()} == {k: m["unit"] for k, m in layer.items()}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, *_bench_spec()["command"][1:], "--workload",
                           "euro-merton-poly", "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
