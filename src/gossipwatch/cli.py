"""Command line interface: reproducible simulation, data, training, ROC runs.

Subcommands:
  simulate      convergence / attack-steering study (the converge family)
  gen-data      build labeled detector datasets and write them as CSV
  train         fit one detector network on a dataset CSV
  train-gossip  collaborative training over a learner graph, with telemetry
  eval-roc      sweep detectors over test CSVs, write ROC curves and AUCs
  experiment    run a named experiment family end to end

Every subcommand takes its settings from defaults, overlaid by an optional
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

import numpy as np

from . import experiments as ex
from .datagen import (
    Budget,
    ShardPolicy,
    build_dataset,
    read_dataset_csv,
    scenario_from_tag,
    shard_for_gossip,
    write_csv,
    write_dataset_csv,
)
from .evaluation import (
    auc_table_to_csv,
    evaluate_detector,
    make_nn_detector,
    make_score_detector,
    roc_to_csv,
)
from .experiments import ConfigError, apply_overrides
from .gossip_train import run_gossip_training
from .neural import TrainConfig, load_model, save_model
from .topology import induced_subgraph, manhattan_grid

# Every config passes experiments.check_config (through apply_overrides).
# A null default takes any value and is checked where it is read: task,
# kind, K and d come from the gen-data manifest beside the CSV when unset,
# and lie in their experiments.DOMAINS domain either way.
GEN_DATA_DEFAULTS = {
    "scenario": "S0",
    "rows": 3,
    "cols": 3,
    "m": 1,
    "c": 1,
    "K": 2,
    "d": 2,
    "T": 2000,
    "monitor": None,
    "master_seed": 0,
    "scale": 0.1,
    "full": False,
    "tasks": ["nd", "nl"],
    "events": ["h0", "next-to", "far-from"],
}

TRAIN_DEFAULTS = {
    "data": None,
    "task": None,
    "kind": None,
    "K": None,
    "d": None,
    **ex.TRAIN_DEFAULTS,
    "seed": 0,
    "name": "model",
}

TRAIN_GOSSIP_DEFAULTS = {
    "data": None,
    "task": None,
    "kind": None,
    "K": None,
    "d": None,
    "rows": 3,
    "cols": 3,
    "exclude": [1],
    "policy": "starved",
    "starved_agent": 1,
    "starved_fraction": 0.02,
    "starved_events": ["next-to"],
    "position_groups": None,
    "rounds": 200,
    "mu": 0.5,
    "mode": "sync",
    "policy_seed": 0,
    "seed": 0,
    **{key: ex.TRAIN_DEFAULTS[key] for key in ("eta", "batch_size")},
}

EVAL_ROC_DEFAULTS = {
    "temporal_data": None,
    "spatial_data": None,
    "task": None,
    "K": None,
    "d": None,
    "detectors": ["td", "sd", "tdnn", "sdnn"],
    "tdnn_model": None,
    "sdnn_model": None,
    "oracle_nd": True,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


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
        overrides = _read_json(args.config, ConfigError)
        if not isinstance(overrides, dict):
            raise ConfigError(f"config file {args.config} must hold a JSON object")
    for item in args.sets:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
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
                raise ConfigError(f"--set key {key!r} descends into a non-object")
        node[parts[-1]] = value
    return overrides


def _read_json(path, error):
    """The JSON document in ``path``; raises ``error`` naming the file, line
    and column when it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise error(f"{path}:{err.lineno}: column {err.colno}: not JSON: {err.msg}") from None


def _outdir(args, name: str) -> str:
    if args.out:
        return args.out
    root = os.environ.get("GOSSIPWATCH_OUT", "runs")
    return os.path.join(root, name)


_DATASET_FIELDS = ("task", "kind", "K", "d")


def _dataset_meta(path) -> dict:
    """Per-file metadata from a manifest.json sitting next to the CSV."""
    manifest = os.path.join(os.path.dirname(os.path.abspath(str(path))), "manifest.json")
    if not os.path.exists(manifest):
        return {}
    content = _read_json(manifest, ValueError)
    if not isinstance(content, dict):
        raise ValueError(f"{manifest}: not a JSON object")
    name = os.path.basename(str(path))
    datasets = content.get("datasets", {})
    if not isinstance(datasets, dict):
        raise ValueError(f"{manifest}: field 'datasets': not an object")
    entry = datasets.get(name, {})
    if not isinstance(entry, dict):
        raise ValueError(f"{manifest}: field 'datasets.{name}': not an object")
    for field in _DATASET_FIELDS:
        path = f"datasets.{name}.{field}"
        try:
            ex.check_value(field, entry.get(field), path)
        except ConfigError as err:  # a file error, naming the manifest field
            problem = str(err).removeprefix(f"'{path}' ")
            raise ValueError(f"{manifest}: field '{path}': {problem}") from None
    return entry


def _load_dataset(path, cfg, section, expected_kind=None):
    """The dataset CSV at ``path``; its task, kind, K and d come from the
    ``section`` config ``cfg`` or else from the gen-data manifest beside it."""
    if path is None:
        raise ConfigError("no dataset file configured; pass --set data=PATH")
    for field in _DATASET_FIELDS:
        ex.check_value(field, cfg.get(field), f"{section}.{field}")
    if not os.path.exists(path):
        raise FileNotFoundError(
            f"dataset file not found: {path}; produce it with the gen-data subcommand"
        )
    meta = _dataset_meta(path)
    fields = {}
    for field in _DATASET_FIELDS:
        value = cfg[field] if cfg.get(field) is not None else meta.get(field)
        if value is None:
            raise ConfigError(
                f"cannot determine {field!r} for {path}; "
                f"pass --set {field}=... or keep the gen-data manifest.json beside it"
            )
        fields[field] = value
    if expected_kind is not None and fields["kind"] != expected_kind:
        raise ConfigError(
            f"{path} holds {fields['kind']} features, expected {expected_kind}"
        )
    dataset = read_dataset_csv(path, fields["task"], fields["kind"], fields["K"], fields["d"])
    if dataset.n_rows == 0:
        raise ValueError(f"{path}: no data rows")
    return dataset


# --- subcommand bodies ------------------------------------------------------


def _cmd_simulate(args) -> int:
    ex.run_family("converge", _outdir(args, "simulate"), _collect_overrides(args))
    return 0


def _cmd_gen_data(args) -> int:
    overrides = _collect_overrides(args)
    if getattr(args, "full", False):
        overrides["full"] = True
    cfg = apply_overrides(GEN_DATA_DEFAULTS, overrides, "gen-data")
    # A next-to row places c of the m attackers beside the monitor, a
    # far-from row none: each [m, c] must fit the torus as a family's combo.
    for event, c in (("next-to", cfg["c"]), ("far-from", 0)):
        if event in cfg["events"]:
            try:
                ex.check_pair("combos", [cfg["m"], c], cfg, "gen-data.m")
            except ConfigError as err:
                raise ConfigError(f"{err} for its {event} rows") from None

    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    scenario = scenario_from_tag(
        cfg["scenario"], graph,
        m=cfg["m"], c=cfg["c"], d=cfg["d"], T=cfg["T"],
        monitor=cfg["monitor"],
    )
    budget = Budget.full() if cfg["full"] else Budget.desk(cfg["scale"])
    data = build_dataset(
        scenario, cfg["K"], budget, cfg["master_seed"],
        tasks=tuple(cfg["tasks"]), events=tuple(cfg["events"]),
    )
    outdir = _outdir(args, "gen-data")
    os.makedirs(outdir, exist_ok=True)

    artifacts, datasets = [], {}
    for key, pair in sorted(data.items()):
        for split, ds in (("train", pair.train), ("test", pair.test)):
            name = f"{key}_{split}.csv"
            write_dataset_csv(ds, os.path.join(outdir, name))
            artifacts.append(name)
            datasets[name] = {
                "task": ds.task, "kind": ds.kind, "split": split,
                "K": ds.K, "d": ds.d, "M": ds.M, "rows": ds.n_rows,
            }
    ex.write_manifest(outdir, "gen-data", cfg, artifacts, extra={"datasets": datasets})
    return 0


def _cmd_train(args) -> int:
    cfg = apply_overrides(TRAIN_DEFAULTS, _collect_overrides(args), "train")
    dataset = _load_dataset(cfg["data"], cfg, "train")
    config = TrainConfig(eta=cfg["eta"], batch_size=cfg["batch_size"], epochs=cfg["epochs"])
    mlp, losses = ex.fit(dataset, config, np.random.default_rng(cfg["seed"]))

    outdir = _outdir(args, "train")
    os.makedirs(outdir, exist_ok=True)
    files = save_model(
        mlp, os.path.join(outdir, cfg["name"] + ".json"),
        meta={"task": dataset.task, "kind": dataset.kind, "K": dataset.K, "d": dataset.d},
    )
    write_csv(os.path.join(outdir, "losses.csv"), ["epoch", "loss"],
              [np.arange(len(losses)), losses])
    ex.write_manifest(outdir, "train", cfg, [*files, "losses.csv"])
    return 0


def _cmd_train_gossip(args) -> int:
    cfg = apply_overrides(TRAIN_GOSSIP_DEFAULTS, _collect_overrides(args), "train-gossip")
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    keep = [v for v in range(graph.n) if v not in cfg["exclude"]]
    # position_groups, which the by-position policy needs, maps event tags
    # to lists of learner ids.
    groups = cfg["position_groups"]
    if groups is None and cfg["policy"] == "by-position":
        raise ConfigError("'train-gossip.position_groups' must be set for the by-position policy")
    if groups is not None:
        if ex.json_type(groups) != "object":
            raise ConfigError(
                f"'train-gossip.position_groups' expects a JSON object, got {groups!r}"
            )
        for tag, group in groups.items():
            here = f"train-gossip.position_groups.{tag}"
            ex.check_value("event", tag, here)
            ex.check_agent_ids(group, len(keep), here, many=True)
    dataset = _load_dataset(cfg["data"], cfg, "train-gossip")
    learner_graph = induced_subgraph(graph, keep)
    agents = tuple(range(learner_graph.n))

    policy = ShardPolicy(
        kind=cfg["policy"],
        agents=agents,
        starved_agent=cfg["starved_agent"],
        starved_fraction=cfg["starved_fraction"],
        starved_events=tuple(cfg["starved_events"]) if cfg["starved_events"] else None,
        position_groups={k: tuple(v) for k, v in groups.items()} if groups else None,
        seed=cfg["policy_seed"],
    )
    shards = shard_for_gossip(dataset, policy)
    learners = ex.spawn_learners(shards, dataset, agents, (cfg["seed"],))
    metrics = run_gossip_training(
        learners, learner_graph, cfg["rounds"], np.random.default_rng([cfg["seed"], len(agents)]),
        cfg["eta"], cfg["batch_size"], cfg["mu"], mode=cfg["mode"],
    )

    outdir = _outdir(args, "train-gossip")
    os.makedirs(outdir, exist_ok=True)
    artifacts = ["telemetry.csv"]
    ex.write_telemetry(os.path.join(outdir, "telemetry.csv"), metrics)
    for state in learners:
        artifacts += save_model(
            state.model, os.path.join(outdir, f"model_agent{state.agent}.json"),
            meta={"agent": state.agent, "task": dataset.task, "kind": dataset.kind,
                  "K": dataset.K, "d": dataset.d, "shard_rows": int(len(shards[state.agent]))},
        )
    ex.write_manifest(outdir, "train-gossip", cfg, artifacts)
    return 0


def _cmd_eval_roc(args) -> int:
    cfg = apply_overrides(EVAL_ROC_DEFAULTS, _collect_overrides(args), "eval-roc")
    datasets: dict[str, object] = {}
    detectors = []
    for det in cfg["detectors"]:
        kind = ex.DETECTOR_KINDS[det]
        if kind not in datasets:
            path = cfg[f"{kind}_data"]
            if path is None:
                raise ConfigError(
                    f"detector {det!r} needs --set {kind}_data=PATH (a gen-data CSV)"
                )
            datasets[kind] = _load_dataset(path, cfg, "eval-roc", expected_kind=kind)
        dataset = datasets[kind]
        if det in ("td", "sd"):
            detector = make_score_detector(det, dataset.task)
        else:
            model_path = cfg[f"{det}_model"]
            if model_path is None:
                raise ConfigError(f"detector {det!r} needs --set {det}_model=PATH")
            if not os.path.exists(model_path):
                raise FileNotFoundError(
                    f"model file not found: {model_path}; "
                    f"produce it with the train subcommand"
                )
            mlp, _ = load_model(model_path)
            detector = make_nn_detector(mlp, dataset.task, kind, det)
        detectors.append((detector, dataset))

    outdir = _outdir(args, "eval-roc")
    os.makedirs(outdir, exist_ok=True)
    artifacts, summaries = [], []
    for detector, dataset in detectors:
        curve, summary = evaluate_detector(detector, dataset, oracle_nd=cfg["oracle_nd"])
        name = f"roc_{detector.name}.csv"
        roc_to_csv(curve, os.path.join(outdir, name))
        artifacts.append(name)
        summaries.append(summary)

    auc_table_to_csv(summaries, os.path.join(outdir, "aucs.csv"))
    artifacts.append("aucs.csv")
    ex.write_manifest(outdir, "eval-roc", cfg, artifacts)
    return 0


def _cmd_experiment(args) -> int:
    ex.run_family(args.family, _outdir(args, args.family), _collect_overrides(args))
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "train-gossip": _cmd_train_gossip,
    "eval-roc": _cmd_eval_roc,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
