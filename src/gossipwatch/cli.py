"""Command line interface: reproducible simulation, data, training, ROC runs.

Subcommands:
  simulate      convergence / attack-steering study (the converge family)
  gen-data      build labeled detector datasets and write them as CSV
  train         fit one detector network on a dataset CSV
  train-gossip  collaborative training over a learner graph, with telemetry
  eval-roc      sweep detectors over test CSVs, write ROC curves and AUCs
  experiment    run a named experiment family end to end

This module only parses: experiments.run_family runs every subcommand.  Its
settings come from experiments.DEFAULTS, overlaid by an optional
``--config FILE`` (JSON document) and then by repeatable ``--set key=value``
flags (dotted keys reach nested fields, values parse as JSON).  Unknown keys
fail with the full field path.  Artifacts land in ``--out`` or, by default,
under ``$GOSSIPWATCH_OUT/<name>`` (``./runs/<name>`` if unset).  Outputs
carry no timestamps: the same spec writes the same bytes.

Exit codes: 0 success, 1 configuration error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import experiments as ex


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ex.ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="gossipwatch", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file with config overrides")
        p.add_argument(
            "--set",
            dest="sets",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override one config field (dotted keys, JSON values)",
        )
        p.add_argument("--out", help="output directory")

    common(sub.add_parser("simulate", help="convergence and attack steering"))
    p = sub.add_parser("gen-data", help="build labeled detector datasets")
    common(p)
    p.add_argument("--full", action="store_true", help="full-size row budgets")
    common(sub.add_parser("train", help="fit a detector network"))
    common(sub.add_parser("train-gossip", help="collaborative training"))
    common(sub.add_parser("eval-roc", help="ROC curves and AUC table"))
    p = sub.add_parser("experiment", help="run an experiment family")
    p.add_argument("family", choices=list(ex.FAMILIES))
    common(p)
    return parser


def _collect_overrides(args) -> dict:
    overrides: dict = {}
    if args.config:
        if not os.path.exists(args.config):
            raise FileNotFoundError(f"config file not found: {args.config}")
        overrides = ex.read_json(args.config, ex.ConfigError)
        if not isinstance(overrides, dict):
            raise ex.ConfigError(f"config file {args.config} must hold a JSON object")
    for item in args.sets:
        if "=" not in item:
            raise ex.ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = overrides
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ex.ConfigError(f"--set key {key!r} descends into a non-object")
        node[parts[-1]] = value
    if getattr(args, "full", False):
        overrides["full"] = True
    return overrides


def _outdir(args, name: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get("GOSSIPWATCH_OUT", "runs")
    return os.path.join(root, name)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        name = getattr(args, "family", args.command)  # `experiment F` runs and names F
        section = "converge" if name == "simulate" else name
        ex.run_family(section, _outdir(args, name), _collect_overrides(args))
        return 0
    except ex.ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
