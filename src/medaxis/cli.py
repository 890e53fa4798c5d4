"""Command line entry point for the stability experiments.

Usage: axiform <command> --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 when every enforced assertion passes, 2 when an enforced
assertion fails, 3 on bad input (missing file, malformed config, bad scene,
invalid parameter).  A KeyError or TypeError counts as bad input only while
the config loads; raised by an experiment, it is a program error and
propagates with its traceback.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .scene import InvalidSceneError
from . import experiments as ex

_COMMANDS = {
    "axis": ex.run_axis,
    "critfn": ex.run_critfn,
    "flow": ex.run_flow,
    "sweep-lambda": ex.run_sweep_lambda,
    "sweep-alpha": ex.run_sweep_alpha,
    "perturb": ex.run_perturb,
    "gh": ex.run_gh,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="axiform",
        description="Filtered medial axis stability experiments.")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    parser.add_argument("--out", default=None,
                        help="override the config output directory")
    return parser


def _load_config(args) -> ex.ExperimentConfig:
    """The config file with the command-line overrides applied, and checked
    again.  A KeyError or TypeError here means a missing or mistyped config
    entry."""
    try:
        overrides = {"seed": args.seed, "out_dir": args.out}
        config = dataclasses.replace(ex.load_config(args.config), **{
            key: val for key, val in overrides.items() if val is not None})
    except (KeyError, TypeError) as err:
        raise InvalidSceneError("malformed config: %s" % err) from err
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](_load_config(args))
    except (InvalidSceneError, FileNotFoundError, json.JSONDecodeError,
            ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 3
    summary = {
        "kind": report.kind,
        "passed": report.passed,
        "assertions": len(report.assertions),
        "skipped": report.skipped_count,
        "flags": report.flags,
    }
    print(json.dumps(summary, sort_keys=True))
    for entry in report.assertions:
        if entry["enforced"] and not entry["passed"]:
            print("FAILED: %s" % entry["name"], file=sys.stderr)
    return 0 if report.passed else 2


if __name__ == "__main__":
    raise SystemExit(main())
