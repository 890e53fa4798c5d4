"""Command line entry point for the stability experiments.

Usage: axiform <command> --config cfg.json [--seed N] [--out DIR]

Exit codes: 0 when every enforced assertion passes, 2 when an enforced
assertion fails, 3 on bad input (missing file, malformed config, bad scene,
invalid parameter, or a start or query point outside the scene's domain).
A KeyError, TypeError or ValueError counts as bad input only while the
config loads; raised by an experiment, it is a program error and propagates
with its traceback.

A run writes its own files into ``--out`` and removes only the files of its
own kind that an earlier run left and it does not write: ``axis`` the
``axis_lam*_alp*.json`` and ``.svg`` files off its grid, ``flow`` the
``trajectory_NN.csv`` tables that ``trajectories.csv`` replaced.  So the
``files`` of ``axis_report.json`` lists every axis file in ``--out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .scene import DomainError, InvalidSceneError
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
    again.  A KeyError, TypeError or other ValueError here means a missing,
    mistyped or unreadable config entry (bad JSON, ragged sites)."""
    try:
        overrides = {"seed": args.seed, "out_dir": args.out}
        config = dataclasses.replace(ex.load_config(args.config), **{
            key: val for key, val in overrides.items() if val is not None})
    except InvalidSceneError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise InvalidSceneError("malformed config: %s" % err) from err
    return config


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report = _COMMANDS[args.command](_load_config(args))
    except (InvalidSceneError, DomainError, FileNotFoundError) as err:
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
