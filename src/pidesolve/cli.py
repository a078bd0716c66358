"""Command-line entry point.

    solver <task> --config <path> [--seed S] [--out DIR]

Tasks: simulate, solve, solve-obstacle, oracle, normcheck, compare.  The
task on the command line must match the config's task field.  The config,
with ``--seed`` in place of its seed, is the run's whole input.  Exit codes:
0 success, 1 error (a usage error included), 2 criterion failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import TASKS, validate_config
from .errors import SchemaError, SolverError
from .runner import EXIT_ERROR, run_experiment

__all__ = ["main", "build_parser"]


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors on the input-error exit code: its own
    code, 2, is this CLI's criterion failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="solver",
        description="PIDE / obstacle-problem solver: declarative experiment runner.")
    sub = parser.add_subparsers(dest="task", required=True, metavar="task")
    for task in TASKS:
        p = sub.add_parser(task, help=f"run a {task} experiment")
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's seed")
        p.add_argument("--out", default=None, help="output directory")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_ERROR
    try:
        if not isinstance(raw, dict):
            raise SchemaError(f"config: expected a JSON object, got {type(raw).__name__}")
        if args.seed is not None:
            raw["seed"] = args.seed
        cfg = validate_config(raw)
        if cfg.task != args.task:
            print(f"error: config task {cfg.task!r} does not match "
                  f"command {args.task!r}", file=sys.stderr)
            return EXIT_ERROR
        report, code = run_experiment(cfg, out_dir=args.out)
    except SolverError as exc:
        print(f"error [{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ERROR
    out_path = os.path.join(report.meta["out_dir"], "report.json")
    print(f"report: {out_path}")
    for key, val in report.body.get("headline", {}).items():
        print(f"  {key}: {val}")
    for crit in report.body.get("criteria", []):
        mark = "PASS" if crit["passed"] else "FAIL"
        print(f"  [{mark}] {crit['name']}: {crit['value']:.6g} "
              f"(threshold {crit['threshold']:.6g})")
    if report.body.get("status") == "error":
        err = report.body["error"]
        print(f"error [{err['code']}]: {err['message']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
