"""Experiment families and pipeline steps: one runner each, CSV/JSON artifacts.

Each family, and each pipeline step the CLI runs (gen-data, train,
train-gossip, eval-roc), has a DEFAULTS config (plain JSON-serializable
dict), a runner ``run_<name>(cfg, outdir) -> manifest fields``, and one
driver ``run_family`` that resolves overrides, runs, and writes a
``manifest.json`` recording the exact config, its digest, and every
artifact produced.  All output is deterministic: same config, same bytes.

Families:
  converge        attacker-free convergence and single-attacker steering
  one-attacker    detector ROC study on the torus, one attacker
  multi-attacker  fixed detectors tested against (m, c) attacker combos
  degree-tailor   monitor-degree cuts with tailored detector inputs
  mismatch        train on one beta law, test across S0..S4
  gossip-learning collaborative training, starved and position-split shards
  small-world     torus-trained detectors on a rewired 20-agent graph

Every network starts in ``fit``, which trains one, or in ``_gossip``, which
runs gossip learning.  Every ROC family lists the networks it fits and the
test sets it scores, and hands both lists to one driver, ``_fit_and_test``,
which fits the networks on forked workers (fanout.fan_out) that send them
back, saves them, sweeps the score and neural detectors over each test set
in list order and writes the ROC curves and ``aucs.csv``.  multi-attacker,
degree-tailor, mismatch and small-world differ only in their test
conditions and build their lists through ``_sweep``.  A ``Scenario`` leaves
K open: datasets needed at several K for the same rows come from one
``build_datasets`` call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import shutil
from typing import NamedTuple

import numpy as np

from .datagen import (
    BETA_LAWS,
    EVENT_FAR,
    EVENT_H0,
    EVENT_NEXT,
    EVENTS,
    Budget,
    Scenario,
    ShardPolicy,
    scenario_from_tag,
    build_dataset,
    build_datasets,
    read_dataset_csv,
    shard_for_gossip,
    subset_rows,
    training_arrays,
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
from .fanout import fan_out
from .gossip_train import LearnerState, RoundMetrics, run_gossip_training
from .neural import Mlp, TrainConfig, init_mlp, load_model, save_model, train
from .protocol import (
    LeastSquaresProblem,
    ProtocolConfig,
    draw_problems,
    entropy_words,
    optimal_value,
    run_batch,
    seed_states,
)
from .topology import (
    attacker_mask,
    expected_transition_matrix,
    induced_subgraph,
    manhattan_grid,
    remove_edge,
    second_largest_eigenvalue,
    small_world,
    subset_connected,
)

HIDDEN = (200, 100, 50)

TRAIN_DEFAULTS = {"eta": 0.01, "batch_size": 32, "epochs": 30}

_METHODS = {"temporal": "td", "spatial": "sd"}  # score detector of each feature kind

# The feature kind of each detector: a score detector, or its network.
DETECTOR_KINDS = {method + nn: kind for kind, method in _METHODS.items() for nn in ("", "nn")}


class ConfigError(ValueError):
    """Bad experiment configuration (unknown field, invalid value)."""


def _family_defaults(**fields) -> dict:
    """The defaults of a ROC or gossip family: those the six share, and its own."""
    return {"master_seed": 0, "scale": 0.1, "rows": 3, "cols": 3, **fields,
            "train": dict(TRAIN_DEFAULTS)}


DEFAULTS: dict[str, dict] = {
    "converge": {
        "master_seed": 0,
        "seeds": 10,
        "rows": 3,
        "cols": 3,
        "d": 2,
        "T": 2000,
        "attacker": 1,
        "trace_seed": 0,
    },
    "one-attacker": _family_defaults(
        scenario="S0", temporal_setups=[[5, 2], [2, 2], [1, 2], [2, 1]],
        spatial_setups=[[2, 2], [1, 2]],
    ),
    "multi-attacker": _family_defaults(
        scenario="S0", combos=[[1, 1], [2, 1], [2, 2], [5, 1], [5, 3]],
        temporal_K=5, spatial_K=2, d=2,
    ),
    "degree-tailor": _family_defaults(
        scenario="S0", monitor=2, cuts=[[2, 5], [2, 8]], temporal_K=5, spatial_K=2, d=2,
    ),
    "mismatch": _family_defaults(
        train_scenario="S0", test_scenarios=["S0", "S1", "S2", "S3", "S4"],
        temporal_K=5, spatial_Ks=[2, 1], d=2,
    ),
    "gossip-learning": _family_defaults(
        scenario="S0", excluded_agent=1, K=1, d=2, rounds=200, mu=0.5, policy_seed=0,
        starved_agent=1, starved_fraction=0.02, next_group=[0, 1, 2, 3], far_group=[4, 5, 6, 7],
    ),
    "small-world": _family_defaults(
        scenario="S0", n=20, mean_degree=8, rewire_prob=0.2, graph_seed=5, attackers=[3, 10, 17],
        M=4, temporal_K=5, spatial_K=2, d=2,
    ),
    # The pipeline steps that the CLI runs as subcommands of their own.  A
    # dataset field left null (task, kind, K, d) comes from the gen-data
    # manifest beside the CSV.
    "gen-data": {
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
    },
    "train": {
        "data": None,
        "task": None,
        "kind": None,
        "K": None,
        "d": None,
        **TRAIN_DEFAULTS,
        "seed": 0,
        "name": "model",
    },
    "train-gossip": {
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
        **{key: TRAIN_DEFAULTS[key] for key in ("eta", "batch_size")},
    },
    "eval-roc": {
        "temporal_data": None,
        "spatial_data": None,
        "task": None,
        "K": None,
        "d": None,
        "detectors": ["td", "sd", "tdnn", "sdnn"],
        "tdnn_model": None,
        "sdnn_model": None,
        "oracle_nd": True,
    },
}


def resolve_config(section: str, overrides: dict | None = None) -> dict:
    """Defaults for ``section``, a family or a pipeline step, with
    ``overrides`` merged in and checked, by apply_overrides.

    Unknown fields raise ConfigError with the full field path, so a typo in
    a config file fails loudly instead of being ignored.
    """
    if section not in DEFAULTS:
        raise ConfigError(
            f"unknown experiment family {section!r}; known: {sorted(DEFAULTS)}"
        )
    return apply_overrides(DEFAULTS[section], overrides or {}, section)


def apply_overrides(defaults: dict, overrides: dict, path: str) -> dict:
    """Deep-copied ``defaults`` with ``overrides`` merged, unknown keys
    failing, and the result passed through check_config."""
    cfg = json.loads(json.dumps(defaults))
    _merge(cfg, overrides, path)
    check_config(cfg, path)
    return cfg


def check_config(cfg: dict, section: str) -> None:
    """The check of every merged config, of an experiment family or a
    pipeline step: a ConfigError naming the field path under ``section``,
    so that a bad value fails before any output is made.  Checks the row
    budgets' scale, each list field's entries against its row of
    _LIST_DOMAINS or _PAIR_DOMAINS and for repeats (each entry names its
    own artifacts), each agent id against the graph it indexes, gen-data's
    [m, c] against the torus, train-gossip's position groups and that every
    input file a step reads is set."""
    if section in _DESK_SECTIONS and not cfg.get("full"):
        if cfg["scale"] > 1:
            raise ConfigError(f"'{section}.scale' must be in (0, 1], got {cfg['scale']!r}")
    elif section in _SWEEP_FAMILIES and _test_budget(cfg["scale"]).nl_test < 1:
        # The test split is _sweep's smallest: a scale that gives it no row
        # would fail only after fitting on the training split, or in the fit.
        raise ConfigError(
            f"'{section}.scale' must be > 1/12000, so that every split has a row, "
            f"got {cfg['scale']!r}"
        )
    for key in (*_LIST_DOMAINS, *dict.fromkeys(key for key, _, _ in _PAIR_DOMAINS)):
        if key in ("tasks", "detectors") and cfg.get(key) == []:  # would select nothing
            raise ConfigError(f"'{section}.{key}' must list at least one entry, got []")
        seen = []
        for i, entry in enumerate(cfg.get(key, ())):
            here = f"{section}.{key}[{i}]"
            if key in _LIST_DOMAINS:
                check_value(_LIST_DOMAINS[key], entry, here)
            else:
                check_pair(key, entry, cfg, here)
            same = sorted(entry) if key == "cuts" else entry  # an edge either way round
            if same in seen:
                raise ConfigError(f"'{here}' repeats an earlier entry, got {entry!r}")
            seen.append(same)
    if cfg.get("m") == 0 and "nl" in cfg.get("tasks", ()):
        raise ConfigError(f"'{section}.tasks' must not list 'nl' when m is 0: localization "
                          f"rows need an attack scenario, got {cfg['tasks']!r}")
    graph = _torus(cfg) if "cuts" in cfg else None
    for i, (u, v) in enumerate(cfg.get("cuts", ())):  # in order, as degree-tailor cuts
        try:
            graph = remove_edge(graph, u, v)
        except ValueError as err:
            raise ConfigError(f"'{section}.cuts[{i}]' must leave the torus connected after the "
                              f"cuts before it, got {[u, v]!r}: {err}") from None
    if "mean_degree" in cfg and cfg["mean_degree"] >= cfg["n"]:
        raise ConfigError(
            f"'{section}.mean_degree' must be < n = {cfg['n']}, got {cfg['mean_degree']!r}"
        )
    if "exclude" in cfg:  # the learners it leaves, which _AGENT_FIELDS counts
        keep = [v for v in range(_grid(cfg)) if v not in cfg["exclude"]]
        if len(keep) < 2 or not subset_connected(_torus(cfg), keep):
            raise ConfigError(
                f"'{section}.exclude' must leave one or more of the {_grid(cfg)} agents, and the "
                f"learners left must be two or more that are connected on the "
                f"{cfg['rows']}x{cfg['cols']} torus, got {cfg['exclude']!r}"
            )
    for key, count, many in _AGENT_FIELDS:
        if cfg.get(key) is not None:
            check_agent_ids(cfg[key], count(cfg), f"{section}.{key}", many, key == "exclude")
    # A next-to row places c of the m attackers beside the monitor, a
    # far-from row none: each [m, c] must fit the torus as a family's combo.
    for event, c in (("next-to", cfg.get("c")), ("far-from", 0)):
        if event in cfg.get("events", ()):
            try:
                check_pair("combos", [cfg["m"], c], cfg, f"{section}.m")
            except ConfigError as err:
                raise ConfigError(f"{err} for its {event} rows") from None
    # position_groups, which the by-position policy needs, maps event tags
    # to lists of learner ids.
    groups = cfg.get("position_groups")
    if groups is None and cfg.get("policy") == "by-position":
        raise ConfigError(f"'{section}.position_groups' must be set for the by-position policy")
    if groups is not None:
        if json_type(groups) != "object":
            raise ConfigError(f"'{section}.position_groups' expects a JSON object, got {groups!r}")
        for tag, group in groups.items():
            here = f"{section}.position_groups.{tag}"
            check_value("event", tag, here)
            check_agent_ids(group, _learners(cfg), here, many=True)
    # The files a pipeline step reads: train's and train-gossip's dataset,
    # and each eval-roc detector's test CSV and, for a network, its model
    # (a score detector has no model field).
    inputs = [("data", "")] + [
        (key, f" for detector {det!r}") for det in cfg.get("detectors", ())
        for key in (f"{DETECTOR_KINDS[det]}_data", f"{det}_model")
    ]
    for key, why in inputs:
        if key in cfg and cfg[key] is None:
            raise ConfigError(f"'{section}.{key}' must be set to a file path{why}, got null")


def check_value(field: str, value, path: str) -> None:
    """A ConfigError naming ``path`` unless ``value`` has the JSON type and
    lies in the domain that DOMAINS gives ``field``; null, and any value of
    a field without a row there, passes."""
    if value is not None and field in DOMAINS:
        kind, valid, what = DOMAINS[field]
        if not _typed(kind, value):
            raise ConfigError(f"'{path}' expects a JSON {kind}, got {value!r}")
        if not valid(value):
            raise ConfigError(f"'{path}' must be {what}, got {value!r}")


def check_pair(key: str, entry, cfg: dict, path: str) -> None:
    """A ConfigError naming ``path`` unless ``entry`` is a pair of integers
    in every domain that _PAIR_DOMAINS gives the list field ``key``."""
    pair = json_type(entry) == "list" and list(map(json_type, entry)) == ["integer"] * 2
    for name, valid, what in _PAIR_DOMAINS:
        if name == key and not (pair and valid(*entry, cfg)):
            raise ConfigError(f"'{path}' must be {what.format(**cfg)}, got {entry!r}")


def check_agent_ids(value, n: int, path: str, many: bool = False, empty: bool = False) -> None:
    """A ConfigError naming ``path`` unless ``value`` is an agent id in
    [0, n) or, with ``many``, a list of distinct ones, non-empty unless
    ``empty`` allows it."""
    ids = value if many and json_type(value) == "list" else [value]
    ints = all(json_type(i) == "integer" and 0 <= i < n for i in ids)
    if many:
        valid = ints and ids is value and (ids or empty) and len(set(ids)) == len(ids)
        what = "a list of distinct agent ids" if empty else "a non-empty list of distinct agent ids"
    else:
        valid, what = ints, "an agent id"
    if not valid:
        raise ConfigError(f"'{path}' must be {what} in [0, {n}), got {value!r}")


def _choice(values) -> tuple:
    return ("string", lambda v: v in values, f"one of {sorted(values)}")


# Fields, wherever they appear in a config, and entry domains of list
# fields: (JSON type, valid, what a value must be).
DOMAINS = {
    **dict.fromkeys(
        ("T", "K", "d", "temporal_K", "spatial_K", "M", "batch_size"),
        ("integer", lambda v: v >= 1, ">= 1"),
    ),
    **dict.fromkeys(
        ("epochs", "rounds", "master_seed", "seed", "policy_seed", "graph_seed", "trace_seed"),
        ("integer", lambda v: v >= 0, ">= 0"),
    ),
    **dict.fromkeys(
        ("data", "temporal_data", "spatial_data", "tdnn_model", "sdnn_model"),
        ("string", lambda v: True, "a path"),
    ),
    **dict.fromkeys(("rows", "cols", "n"), ("integer", lambda v: v >= 3, ">= 3")),
    "name": ("string", lambda v: v not in ("", ".", "..") and os.path.basename(v) == v,
             "a file name: not empty, '.' or '..', and with no path separator"),
    **dict.fromkeys(("scenario", "train_scenario"), _choice(BETA_LAWS)),
    "task": _choice(("nd", "nl")),
    "kind": _choice(_METHODS),
    "event": _choice(EVENTS),
    "detector": _choice(DETECTOR_KINDS),
    "scale": ("number", lambda v: v > 0, "> 0"),
    "starved_fraction": ("number", lambda v: 0 < v < 1, "in (0, 1)"),
    "eta": ("number", lambda v: v > 0, "> 0"),
    "mu": ("number", lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mode": ("string", lambda v: v in ("sync", "async"), "'sync' or 'async'"),
    "policy": (
        "string",
        lambda v: v in ("uniform", "starved", "by-position"),
        "'uniform', 'starved' or 'by-position'",
    ),
    "mean_degree": ("integer", lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2"),
    "rewire_prob": ("number", lambda v: 0 <= v <= 1, "in [0, 1]"),
}

# List fields whose entries each lie in a domain of DOMAINS: that domain.
_LIST_DOMAINS = {
    "spatial_Ks": "spatial_K",
    "test_scenarios": "scenario",
    "tasks": "task",
    "events": "event",
    "starved_events": "event",
    "detectors": "detector",
}


def _grid(cfg: dict) -> int:
    return cfg["rows"] * cfg["cols"]


def _torus(cfg: dict):
    return manhattan_grid(cfg["rows"], cfg["cols"])


def _learners(cfg: dict) -> int:
    """The gossip learners: the grid without its excluded agent or agents."""
    return _grid(cfg) - len(cfg.get("exclude", [cfg.get("excluded_agent")]))


# Agent-id fields, one id or a list of distinct ids (exclude's may be
# empty): (field, agent count of the graph it indexes, a list?).  The gossip
# learners are numbered anew.
_AGENT_FIELDS = [
    ("attackers", lambda cfg: cfg["n"], True),
    ("monitor", _grid, False),
    ("excluded_agent", _grid, False),
    ("exclude", _grid, True),
    ("starved_agent", _learners, False),
    ("next_group", _learners, True),
    ("far_group", _learners, True),
]

# List fields of integer pairs: (field, valid given the config, what an entry
# must be).  A combo puts c attackers on the monitor's 4 torus neighbors and
# m - c on the other agents but the monitor; with all 4 neighbors attackers
# the monitor is cut off unless every other agent is an attacker too.
_PAIR_DOMAINS = [
    ("temporal_setups", lambda K, d, cfg: K >= 1 and d >= 1, "[K, d] with K, d >= 1"),
    ("spatial_setups", lambda K, d, cfg: K >= 1 and d >= 1, "[K, d] with K, d >= 1"),
    ("combos", lambda m, c, cfg: 0 <= c <= m, "[m, c] with 0 <= c <= m"),
    ("combos", lambda m, c, cfg: m - c <= _grid(cfg) - 5 and (c <= 3 or m - c == _grid(cfg) - 5),
     "[m, c] that fits the {rows}x{cols} torus with the trustworthy agents connected: "
     "m - c <= rows * cols - 5, and c <= 3, or c == 4 with m - c == rows * cols - 5"),
    ("cuts", lambda u, v, cfg: (min(u, v), max(u, v)) in _torus(cfg).edges,
     "an edge [u, v] of the {rows}x{cols} torus"),
]


# Sections whose row budgets come from Budget.desk, which takes a scale in
# (0, 1] and gives every split at least one row (gen-data's unless full);
# the sweep families scale their row counts by any scale large enough that
# no split is empty.
_DESK_SECTIONS = ("one-attacker", "gossip-learning", "gen-data")
_SWEEP_FAMILIES = ("multi-attacker", "degree-tailor", "mismatch", "small-world")


def _merge(base: dict, overrides: dict, path: str) -> None:
    """Overlay ``overrides`` on ``base`` in place.  Each value must have the
    JSON type of its default (_typed; a null default takes any type), and a
    field of ``DOMAINS`` its domain, whatever its default."""
    for key, value in overrides.items():
        here = f"{path}.{key}"
        if key not in base:
            raise ConfigError(f"unknown config field {here!r}")
        expected = json_type(base[key])
        if not _typed(expected, value):
            raise ConfigError(f"{here!r} expects a JSON {expected}, got {value!r}")
        if expected == "object":
            _merge(base[key], value, here)
        else:
            check_value(key, value, here)
            base[key] = value


def _typed(kind: str, value) -> bool:
    """Whether ``value`` may stand where JSON type ``kind`` is expected: a
    number also as an integer, and null as any value."""
    got = json_type(value)
    return kind in ("null", got) or (kind, got) == ("number", "integer")


def json_type(value) -> str:
    """The JSON type of a decoded JSON value, with integers apart from other
    numbers (a bool is a boolean, not an integer)."""
    for kind, name in ((bool, "boolean"), (int, "integer"), (float, "number"),
                       (str, "string"), (list, "list"), (dict, "object")):
        if isinstance(value, kind):
            return name
    return "null"


def config_digest(cfg: dict) -> str:
    """sha256 of the canonical (sorted-keys, compact) JSON encoding."""
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def run_family(section: str, outdir, overrides: dict | None = None) -> dict:
    """The one driver, of every family and pipeline step: resolve the
    config of ``section``, make ``outdir``, run the section's runner there
    and write manifest.json from the fields it returns; returns the
    manifest.  A run that fails removes the directories that this call
    made, and nothing else."""
    cfg = resolve_config(section, overrides)
    made, parent = None, os.path.abspath(outdir)
    while not os.path.lexists(parent):  # made: the outermost directory to make
        made, parent = parent, os.path.dirname(parent)
    try:
        os.makedirs(outdir, exist_ok=True)
        return write_manifest(outdir, section, cfg, **_RUNNERS[section](cfg, outdir))
    except BaseException:
        if made is not None:
            shutil.rmtree(made, ignore_errors=True)
        raise


def write_manifest(outdir, family: str, cfg: dict, artifacts: list[str], **extra) -> dict:
    from . import __version__

    manifest = {
        "family": family,
        "config": cfg,
        "digest": config_digest(cfg),
        "version": __version__,
        "artifacts": sorted(artifacts) + ["manifest.json"],
        **extra,
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def write_telemetry(path, metrics: list[RoundMetrics]) -> None:
    """One row per round of run_gossip_training's metrics."""
    write_csv(path, RoundMetrics._fields,
              [[getattr(m, f) for m in metrics] for f in RoundMetrics._fields])


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(int(k) for k in key))


def fit(
    dataset, config: TrainConfig, init, rng: np.random.Generator, rows: np.ndarray | None
) -> tuple[Mlp, list[float]]:
    """The one network fit: a fresh network of _sizes(dataset), its weights
    drawn from ``init`` (a seed or a Generator), trained on the dataset's
    ``rows`` (all where None) with epochs shuffled by ``rng``; returns it
    with its epoch loss history."""
    X, Y, mask = training_arrays(dataset, rows)
    mlp = init_mlp(_sizes(dataset), seed=init)
    losses = train(mlp, X, Y, config, rng=rng, mask=mask)
    return mlp, losses


def _sizes(dataset) -> list[int]:
    """The layer sizes of a detector network: [M, 200, 100, 50, out], one
    output for detection and one per slot for localization."""
    return [dataset.M, *HIDDEN, 1 if dataset.task == "nd" else dataset.M]


def _fit_key(master: int, K: int, d: int, task: str, kind: str) -> tuple:
    """Seed key of the network fit for one (K, d, task, feature kind) setup."""
    return (master, 11, K, d, task == "nl", kind == "spatial")


def _fit_and_test(
    fits: list, tests: list, tcfg: TrainConfig, outdir, extra_cols=()
) -> list[str]:
    """Fit one network per (dataset, seed key, model name) of ``fits`` on
    forked workers (fanout.fan_out), its weights and epochs both drawn from
    _rng(*key), and save each as ``model name`` from this process.  Then
    score each (test set, model name, ROC stem tail, extra columns) of
    ``tests`` in order: the score detector of the set's feature kind, then
    the network of that name.  Writes one ROC curve per detector and test,
    and aucs.csv with ``extra_cols`` after the summary columns, by
    _roc_sweep; returns every artifact name."""
    jobs = []
    for dataset, key, _ in fits:
        g = _rng(*key)
        jobs.append(functools.partial(fit, dataset, tcfg, g, g, None))
    nets = fan_out(jobs, fork=True)
    models = {name: mlp for (_, _, name), (mlp, _) in zip(fits, nets)}
    saved = [
        f
        for name, mlp in models.items()
        for f in save_model(mlp, os.path.join(outdir, name + ".json"))
    ]
    runs = [
        (detector, ds, f"roc_{ds.task}_{detector.name}{tail}.csv", extra)
        for ds, name, tail, extra in tests
        for detector in (
            make_score_detector(_METHODS[ds.kind], ds.task),
            make_nn_detector(models[name], ds.task, ds.kind, _METHODS[ds.kind] + "nn"),
        )
    ]
    return saved + _roc_sweep(outdir, runs, extra_cols)


def _roc_sweep(outdir, runs: list, extra_cols=(), oracle_nd: bool = True) -> list[str]:
    """Evaluate each (detector, dataset, ROC file name, extra columns) of
    ``runs`` in order and write its ROC curve under that name, then
    aucs.csv: one summary row per run, ``extra_cols`` after the summary
    columns.  Returns the file names, aucs.csv last."""
    summaries = []
    for detector, dataset, name, extra in runs:
        curve, summary = evaluate_detector(detector, dataset, oracle_nd=oracle_nd)
        roc_to_csv(curve, os.path.join(outdir, name))
        summaries.append({**summary, **extra})
    auc_table_to_csv(summaries, os.path.join(outdir, "aucs.csv"), extra_cols)
    return [name for _, _, name, _ in runs] + ["aucs.csv"]


def _test_budget(scale: float) -> Budget:
    """Test-split rows only, for scenarios evaluated with imported models."""
    return Budget(
        nd_train_per_event=0,
        nd_test_per_event=round(6000 * scale),
        nl_train=0,
        nl_test=round(6000 * scale),
    )


# --- converge ---------------------------------------------------------------


def run_converge(cfg: dict, outdir) -> dict:
    """Attacker-free convergence plus single-attacker steering, per seed.

    All seeds run in two batches, one clean and one attacked, with one
    generator per seed.  report.csv has one row per seed with the
    final-iterate gaps; the trace_seed run additionally dumps full
    trajectories for plotting.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    n, d, T = graph.n, cfg["d"], cfg["T"]
    config = ProtocolConfig(d=d, T=T)
    flags = attacker_mask(graph, [cfg["attacker"]])
    lam = second_largest_eigenvalue(expected_transition_matrix(graph))
    master = cfg["master_seed"]
    S = cfg["seeds"]

    def states(key):
        """The PCG64 states of _rng(master, s, key) for every seed s."""
        return seed_states([entropy_words([master, s, key]) for s in range(S)])

    thetas, phis, _ = draw_problems(n, d, np.zeros(S), states(0))
    alphas = np.array([_rng(master, s, 2).uniform(-0.5, 0.5, size=d) for s in range(S)])
    alphas = alphas.reshape(S, d)

    def trajectories(batch_flags, batch_alphas, lam_b, key):
        """(S, T+1, n, d) states of every seed's run."""
        return run_batch(
            graph, batch_flags, thetas, phis, batch_alphas, lam_b, config, states(key),
            trajectory=True,
        ).trajectory

    clean = trajectories(np.zeros((S, n), dtype=bool), None, None, 1)
    hit = trajectories(np.tile(flags, (S, 1)), alphas, lam, 3)

    artifacts: list[str] = []
    finals = np.empty((3, S))  # f_gap, disagreement, attack_distance at t = T
    for s in range(S):
        problem = LeastSquaresProblem(theta=thetas[s], phi=phis[s])
        _, f_star = optimal_value(problem)
        f_gap_t, spread_t = _clean_trajectory(problem, clean[s], f_star)
        dist_t = _attack_trajectory(hit[s], alphas[s], flags)
        finals[:, s] = f_gap_t[-1], spread_t[-1], dist_t[-1]

        if s == cfg["trace_seed"]:
            write_csv(
                os.path.join(outdir, "trajectory_clean.csv"),
                ["t", "f_gap", "disagreement"],
                [np.arange(T + 1), f_gap_t, spread_t],
            )
            write_csv(
                os.path.join(outdir, "trajectory_attack.csv"),
                ["t", "attack_distance"],
                [np.arange(T + 1), dist_t],
            )
            artifacts.extend(["trajectory_clean.csv", "trajectory_attack.csv"])

    write_csv(
        os.path.join(outdir, "report.csv"),
        ["seed", "f_gap", "disagreement", "attack_distance"],
        [np.arange(S), *finals],
    )
    artifacts.append("report.csv")
    return {"artifacts": artifacts}


def _clean_trajectory(problem, states, f_star):
    resid = np.einsum("tnd,md->tnm", states, problem.theta) - problem.phi
    f_vals = (resid * resid).mean(axis=2)
    f_gap = f_vals.max(axis=1) - f_star
    diff = states[:, :, None, :] - states[:, None, :, :]
    spread = np.sqrt((diff * diff).sum(axis=3)).max(axis=(1, 2))
    return f_gap, spread


def _attack_trajectory(states, alpha, flags):
    trusted = states[:, ~flags, :] - alpha
    return np.sqrt((trusted * trusted).sum(axis=2)).max(axis=1)


# --- one-attacker -----------------------------------------------------------


def run_one_attacker(cfg: dict, outdir) -> dict:
    """Score and neural detectors on the torus with a single attacker.

    Temporal methods (td, tdnn) sweep the configured (K, d) setups; spatial
    methods (sd, sdnn) their own list.  Detection and localization both run;
    localization is evaluated in oracle-detection mode.  The setups of one d
    share one build, simulated at their largest K; each network is tested
    on the test split of the build it was fit on.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    master = cfg["master_seed"]
    budget = Budget.desk(cfg["scale"])
    tcfg = TrainConfig(**cfg["train"])

    setups = [tuple(s) for s in cfg["temporal_setups"]]
    for s in cfg["spatial_setups"]:
        if tuple(s) not in setups:
            setups.append(tuple(s))

    data = {}
    for d in dict.fromkeys(d for _, d in setups):
        scenario = scenario_from_tag(cfg["scenario"], graph, d=d)
        built = build_datasets(scenario, [K for K, dk in setups if dk == d], budget, master)
        data.update(((K, d), sets) for K, sets in built.items())
    fits, tests = [], []  # in (K, d) -> task -> kind order
    for (K, d), task, (kind, method) in itertools.product(setups, ("nd", "nl"), _METHODS.items()):
        if [K, d] in cfg[f"{kind}_setups"]:
            sets, name = data[K, d][f"{task}_{kind}"], f"model_{task}_{method}nn_K{K}_d{d}"
            fits.append((sets.train, _fit_key(master, K, d, task, kind), name))
            tests.append((sets.test, name, f"_K{K}_d{d}", {}))
    return {"artifacts": _fit_and_test(fits, tests, tcfg, outdir)}


# --- train-then-sweep families ---------------------------------------------


class _Variant(NamedTuple):
    """One test condition of a sweep: ROC stems end in ``suffix`` (formatted
    with K), ``extra`` fills the aucs.csv extra columns, ``scenario`` is the
    test scenario, rows are seeded by master + ``offset``."""

    suffix: str
    extra: dict
    scenario: Scenario
    offset: int
    events: tuple[str, ...]


def _sweep(
    cfg, outdir, train_scenario, specs, variants, extra_cols=(),
    model_name="model_{task}_{method}",
) -> dict:
    """Train networks once on ``train_scenario``, then test them and the
    score detectors on every variant, through _fit_and_test.

    specs lists (K, kind) pairs.  Each gets one network per task, fit on
    train_scenario at K and saved under ``model_name``; each variant is then
    tested per spec, in spec order, detection before localization.  The
    training set and each variant's test set are one build over all specs,
    and every dataset is built before the first fit.
    """
    master, d = cfg["master_seed"], cfg["d"]
    tcfg = TrainConfig(**cfg["train"])
    rows = round(10000 * cfg["scale"])
    budget = Budget(nd_train_per_event=rows, nd_test_per_event=0, nl_train=rows, nl_test=0)

    Ks = [K for K, _ in specs]
    train_data = build_datasets(train_scenario, Ks, budget, master)
    test_builds = [
        build_datasets(
            v.scenario, Ks, _test_budget(cfg["scale"]), master + v.offset, events=v.events,
        )
        for v in variants
    ]
    names = {
        (task, kind, K): model_name.format(task=task, method=_METHODS[kind] + "nn", K=K)
        for K, kind in specs
        for task in ("nd", "nl")
    }
    fits = [
        (train_data[K][f"{task}_{kind}"].train, _fit_key(master, K, d, task, kind), name)
        for (task, kind, K), name in names.items()
    ]
    tests = [
        (test_data[K][f"{task}_{kind}"].test, names[task, kind, K], v.suffix.format(K=K), v.extra)
        for v, test_data in zip(variants, test_builds)
        for K, kind in specs
        for task in ("nd", "nl")
    ]
    return {"artifacts": _fit_and_test(fits, tests, tcfg, outdir, extra_cols)}


def _two_specs(cfg) -> tuple[tuple[int, str], ...]:
    return ((cfg["temporal_K"], "temporal"), (cfg["spatial_K"], "spatial"))


# --- multi-attacker ---------------------------------------------------------


def run_multi_attacker(cfg: dict, outdir) -> dict:
    """Detectors trained on one attacker, tested against (m, c) combos.

    Attacked test events are all next-to placements: c of the m attackers
    touch the monitor.  The far-from event is omitted because placements
    with every attacker outside the monitor neighborhood stop existing on
    the 9-agent torus once m exceeds the non-neighbor count.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    tag, d = cfg["scenario"], cfg["d"]
    variants = [
        _Variant(
            f"_m{m}_c{c}", {"m": m, "c": c},
            scenario_from_tag(tag, graph, m=m, c=c, d=d), 1,
            (EVENT_H0, EVENT_NEXT),
        )
        for m, c in cfg["combos"]
    ]
    return _sweep(
        cfg, outdir, scenario_from_tag(tag, graph, d=d), _two_specs(cfg),
        variants, extra_cols=("m", "c"),
    )


# --- degree-tailor ----------------------------------------------------------


def run_degree_tailor(cfg: dict, outdir) -> dict:
    """Cut monitor edges one by one and re-test fixed-width detectors.

    Models train on the intact torus with the monitor drawn per sample;
    test sets fix the monitor at the agent losing edges, so its degree drops
    below the detector width and the tailoring path (padding) is exercised.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    tag, d = cfg["scenario"], cfg["d"]
    cuts = [graph]
    for u, v in cfg["cuts"]:
        cuts.append(remove_edge(cuts[-1], u, v))
    variants = [
        _Variant(
            f"_p{p}", {"p": p},
            scenario_from_tag(tag, cut, d=d, M=graph.max_degree(), monitor=cfg["monitor"]),
            1, EVENTS,
        )
        for p, cut in enumerate(cuts)
    ]
    return _sweep(
        cfg, outdir, scenario_from_tag(tag, graph, d=d), _two_specs(cfg),
        variants, extra_cols=("p",),
    )


# --- mismatch ---------------------------------------------------------------


def run_mismatch(cfg: dict, outdir) -> dict:
    """Train under one initial-state law, test across all of them."""
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    d = cfg["d"]
    specs = [(cfg["temporal_K"], "temporal")] + [(K, "spatial") for K in cfg["spatial_Ks"]]
    variants = [
        _Variant(
            "_K{K}_" + tag, {"scenario": tag},
            scenario_from_tag(tag, graph, d=d), 1000, EVENTS,
        )
        for tag in cfg["test_scenarios"]
    ]
    return _sweep(
        cfg, outdir, scenario_from_tag(cfg["train_scenario"], graph, d=d),
        specs, variants, extra_cols=("scenario",), model_name="model_{task}_{method}_K{K}",
    )


# --- gossip-learning --------------------------------------------------------


def run_gossip_learning(cfg: dict, outdir) -> dict:
    """Collaborative detector training over the trustworthy agents.

    Case 1 starves one agent of attacked rows (a starved_fraction share of
    the next-to rows, a fair share of everything else) and compares its
    isolated model against its model after gossip rounds.  Case 2 splits
    attacked rows by attacker position (next-to rows to one agent group,
    far-from rows to the other) and compares position-specialist models
    against collaborative ones on matched and mismatched test subsets.
    Each case is one _gossip_case.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    agents = tuple(range(_learners(cfg)))
    starved = cfg["starved_agent"]
    policy = ShardPolicy(
        kind="starved",
        agents=agents,
        starved_agent=starved,
        starved_fraction=cfg["starved_fraction"],
        starved_events=(EVENT_NEXT,),
        seed=cfg["policy_seed"],
    )
    test, nets, metrics = _gossip_case(
        cfg, graph, policy, offset=0, key=21, events=(EVENT_H0, EVENT_NEXT), isolated=[starved]
    )

    artifacts = []
    summaries = []
    shard_rows, isolated, collaborative = nets[starved]
    for name, mlp in (("isolated", isolated), ("collaborative", collaborative)):
        det = make_nn_detector(mlp, "nd", "spatial", name)
        curve, summary = evaluate_detector(det, test)
        summaries.append((name, shard_rows, summary["auc"]))
        roc_to_csv(curve, os.path.join(outdir, f"roc_case1_{name}.csv"))
        artifacts.append(f"roc_case1_{name}.csv")
        artifacts += save_model(mlp, os.path.join(outdir, f"model_case1_{name}.json"))

    write_csv(
        os.path.join(outdir, "case1_report.csv"),
        ["model", "starved_rows", "auc"],
        list(zip(*summaries)),
    )
    write_telemetry(os.path.join(outdir, "case1_telemetry.csv"), metrics)
    artifacts += ["case1_report.csv", "case1_telemetry.csv"]

    next_group = tuple(cfg["next_group"])
    far_group = tuple(cfg["far_group"])
    policy = ShardPolicy(
        kind="by-position",
        agents=agents,
        position_groups={
            EVENT_H0: agents,
            EVENT_NEXT: next_group,
            EVENT_FAR: far_group,
        },
        seed=cfg["policy_seed"],
    )
    probes = {"next": next_group[0], "far": far_group[0]}
    test, nets, metrics = _gossip_case(
        cfg, graph, policy, offset=500, key=31, events=EVENTS, isolated=list(probes.values())
    )

    subsets = {
        "next": subset_rows(test, np.isin(test.events, (EVENT_H0, EVENT_NEXT))),
        "far": subset_rows(test, np.isin(test.events, (EVENT_H0, EVENT_FAR))),
    }

    rows = []
    for agent in probes.values():
        _, independent, collaborative = nets[agent]
        for label, mlp in (("independent", independent), ("collaborative", collaborative)):
            det = make_nn_detector(mlp, "nd", "spatial", label)
            for subset_label, subset in subsets.items():
                _, summary = evaluate_detector(det, subset)
                rows.append((label, agent, subset_label, summary["auc"]))

    write_csv(
        os.path.join(outdir, "case2_report.csv"),
        ["model", "agent", "test_events", "auc"],
        list(zip(*rows)),
    )
    write_telemetry(os.path.join(outdir, "case2_telemetry.csv"), metrics)
    return {"artifacts": artifacts + ["case2_report.csv", "case2_telemetry.csv"]}


def _gossip_case(cfg, graph, policy: ShardPolicy, offset, key, events, isolated):
    """One case of the gossip-learning family.

    Builds the spatial detection dataset of ``events``, seeded by master +
    ``offset``, and gossips over its training rows by _gossip with
    ``policy``: agent a's network starts from _rng(master, key, a), and the
    sync rounds are drawn from _rng(master, key + 2).  Then fits, in this
    process, an isolated network for each agent a of ``isolated``: its
    learner's starting weights, trained on its shard with _rng(master, key
    + 1, a).  Returns the test split, (shard rows, isolated network,
    collaborative network) by isolated agent, and the round metrics.
    """
    master = cfg["master_seed"]
    tcfg = TrainConfig(**cfg["train"])
    scenario = scenario_from_tag(cfg["scenario"], graph, d=cfg["d"])
    data = build_dataset(
        scenario, cfg["K"], Budget.desk(cfg["scale"]), master + offset,
        tasks=("nd",), events=events,
    )["nd_spatial"]
    shards, learners, metrics = _gossip(
        data.train, graph, [cfg["excluded_agent"]], policy, (master, key),
        _rng(master, key + 2), cfg["rounds"], tcfg.eta, tcfg.batch_size, cfg["mu"], "sync",
    )
    nets = {}
    for a in isolated:
        mlp, _ = fit(data.train, tcfg, _rng(master, key, a), _rng(master, key + 1, a), shards[a])
        nets[a] = (shards[a].size, mlp, learners[a].model)
    return data.test, nets, metrics


def _gossip(dataset, graph, exclude, policy: ShardPolicy, key, rng, rounds, eta, batch_size,
            mu, mode):
    """The one gossip-learning run: the learners are the agents of ``graph``
    without those of ``exclude``, numbered anew as ``policy.agents``.  Their
    shards of ``dataset`` follow ``policy``, agent a's network starts from
    _rng(*key, a), and ``rounds`` rounds drawn from ``rng`` train them in
    place (gossip_train.run_gossip_training).  Returns the shards, the
    learners and the round metrics."""
    learner_graph = induced_subgraph(graph, [v for v in range(graph.n) if v not in exclude])
    shards = shard_for_gossip(dataset, policy)
    learners = []
    for a in policy.agents:
        X, Y, mask = training_arrays(dataset, shards[a])
        mlp = init_mlp(_sizes(dataset), seed=_rng(*key, a))
        learners.append(LearnerState(agent=a, model=mlp, X=X, Y=Y, mask=mask))
    metrics = run_gossip_training(
        learners, learner_graph, rounds, rng, eta, batch_size, mu, mode=mode
    )
    return shards, learners, metrics


# --- small-world ------------------------------------------------------------


def run_small_world(cfg: dict, outdir) -> dict:
    """Torus-trained detectors transplanted onto a rewired ring.

    The test graph is a Watts-Strogatz small world with fixed attackers;
    monitors are drawn from the attacker-adjacent agents, and monitor
    degrees exceed the detector width so inputs are tailored into windows.
    """
    torus = manhattan_grid(cfg["rows"], cfg["cols"])
    tag, d = cfg["scenario"], cfg["d"]
    world = small_world(
        cfg["n"], cfg["mean_degree"], cfg["rewire_prob"],
        np.random.default_rng(cfg["graph_seed"]),
    )
    attackers = tuple(int(a) for a in cfg["attackers"])
    adjacent = sorted(
        set(int(v) for a in attackers for v in world.neighbors[a]) - set(attackers)
    )
    test = scenario_from_tag(
        tag, world, m=len(attackers), c=1, d=d, M=cfg["M"],
        attackers=attackers, monitor_pool=tuple(adjacent),
    )
    return _sweep(
        cfg, outdir, scenario_from_tag(tag, torus, d=d), _two_specs(cfg),
        [_Variant("", {}, test, 1, (EVENT_H0, EVENT_NEXT))],
    )


# --- pipeline steps ---------------------------------------------------------


def run_gen_data(cfg: dict, outdir) -> dict:
    """Labeled detector datasets, one CSV per task, feature kind and split."""
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
    datasets = {}
    for key, pair in sorted(data.items()):
        for split, ds in (("train", pair.train), ("test", pair.test)):
            name = f"{key}_{split}.csv"
            write_dataset_csv(ds, os.path.join(outdir, name))
            datasets[name] = {
                "task": ds.task, "kind": ds.kind, "split": split,
                "K": ds.K, "d": ds.d, "M": ds.M, "rows": ds.n_rows,
            }
    return {"artifacts": list(datasets), "datasets": datasets}


def run_train(cfg: dict, outdir) -> dict:
    """One detector network fit on a dataset CSV, with its epoch losses."""
    dataset = _load_dataset(cfg["data"], cfg)
    config = TrainConfig(eta=cfg["eta"], batch_size=cfg["batch_size"], epochs=cfg["epochs"])
    rng = np.random.default_rng(cfg["seed"])
    mlp, losses = fit(dataset, config, rng, rng, None)
    files = save_model(
        mlp, os.path.join(outdir, cfg["name"] + ".json"),
        meta={"task": dataset.task, "kind": dataset.kind, "K": dataset.K, "d": dataset.d},
    )
    write_csv(os.path.join(outdir, "losses.csv"), ["epoch", "loss"],
              [np.arange(len(losses)), losses])
    return {"artifacts": [*files, "losses.csv"]}


def run_train_gossip(cfg: dict, outdir) -> dict:
    """Collaborative training over the torus without its excluded agents."""
    dataset = _load_dataset(cfg["data"], cfg)
    groups = cfg["position_groups"]
    policy = ShardPolicy(
        kind=cfg["policy"],
        agents=tuple(range(_learners(cfg))),
        starved_agent=cfg["starved_agent"],
        starved_fraction=cfg["starved_fraction"],
        starved_events=tuple(cfg["starved_events"]) if cfg["starved_events"] else None,
        position_groups={k: tuple(v) for k, v in groups.items()} if groups else None,
        seed=cfg["policy_seed"],
    )
    shards, learners, metrics = _gossip(
        dataset, _torus(cfg), cfg["exclude"], policy, (cfg["seed"],),
        _rng(cfg["seed"], len(policy.agents)), cfg["rounds"], cfg["eta"], cfg["batch_size"],
        cfg["mu"], cfg["mode"],
    )

    artifacts = ["telemetry.csv"]
    write_telemetry(os.path.join(outdir, "telemetry.csv"), metrics)
    for state in learners:
        artifacts += save_model(
            state.model, os.path.join(outdir, f"model_agent{state.agent}.json"),
            meta={"agent": state.agent, "task": dataset.task, "kind": dataset.kind,
                  "K": dataset.K, "d": dataset.d, "shard_rows": int(len(shards[state.agent]))},
        )
    return {"artifacts": artifacts}


def run_eval_roc(cfg: dict, outdir) -> dict:
    """ROC curves of the configured detectors on test CSVs, and aucs.csv."""
    datasets: dict[str, object] = {}
    runs = []
    for det in cfg["detectors"]:
        kind = DETECTOR_KINDS[det]
        if kind not in datasets:
            datasets[kind] = _load_dataset(cfg[f"{kind}_data"], cfg, expected_kind=kind)
        dataset = datasets[kind]
        if det in ("td", "sd"):
            detector = make_score_detector(det, dataset.task)
        else:
            model_path = cfg[f"{det}_model"]
            if not os.path.exists(model_path):
                raise FileNotFoundError(
                    f"model file not found: {model_path}; "
                    f"produce it with the train subcommand"
                )
            mlp, meta = load_model(model_path)
            for field in _DATASET_FIELDS:  # a family's models have no meta to check
                want = getattr(dataset, field)
                if field in meta and (type(meta[field]), meta[field]) != (type(want), want):
                    raise ValueError(
                        f"{model_path}: field 'meta.{field}': the network was fit on {field} "
                        f"{meta[field]!r}, but {cfg[f'{kind}_data']} holds {field} {want!r}"
                    )
            detector = make_nn_detector(mlp, dataset.task, kind, det)
        runs.append((detector, dataset, f"roc_{detector.name}.csv", {}))
    return {"artifacts": _roc_sweep(outdir, runs, oracle_nd=cfg["oracle_nd"])}


def read_json(path, error):
    """The JSON document in ``path``; raises ``error`` naming the file, line
    and column when it does not parse."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as err:
            raise error(f"{path}:{err.lineno}: column {err.colno}: not JSON: {err.msg}") from None


_DATASET_FIELDS = ("task", "kind", "K", "d")


def _dataset_meta(path) -> dict:
    """Per-file metadata from a manifest.json sitting next to the CSV: the
    fields of its entry under ``datasets``, and n, the agent count of the
    torus of its ``config`` (rows x cols), where the config gives both."""
    manifest = os.path.join(os.path.dirname(os.path.abspath(str(path))), "manifest.json")
    if not os.path.exists(manifest):
        return {}
    content = read_json(manifest, ValueError)
    if not isinstance(content, dict):
        raise ValueError(f"{manifest}: not a JSON object")
    name = os.path.basename(str(path))
    datasets = content.get("datasets", {})
    if not isinstance(datasets, dict):
        raise ValueError(f"{manifest}: field 'datasets': not an object")
    entry = datasets.get(name, {})
    if not isinstance(entry, dict):
        raise ValueError(f"{manifest}: field 'datasets.{name}': not an object")
    config = content.get("config", {})
    if not isinstance(config, dict):
        raise ValueError(f"{manifest}: field 'config': not an object")
    fields = {}
    for where, key, names in (
        (entry, f"datasets.{name}", _DATASET_FIELDS),
        (config, "config", ("rows", "cols")),
    ):
        for field in names:
            here = f"{key}.{field}"
            fields[field] = where.get(field)
            try:
                check_value(field, fields[field], here)
            except ConfigError as err:  # a file error, naming the manifest field
                problem = str(err).removeprefix(f"'{here}' ")
                raise ValueError(f"{manifest}: field '{here}': {problem}") from None
    if fields["rows"] is not None and fields["cols"] is not None:
        fields["n"] = _grid(fields)
    return fields


def _load_dataset(path, cfg, expected_kind=None):
    """The dataset CSV at ``path``; its task, kind, K and d come from the
    step's config ``cfg`` or else from the gen-data manifest beside it.
    With that manifest, a monitor or slot agent id of the file must lie in
    the torus of its config; without it, agent ids are not checked."""
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
    dataset = read_dataset_csv(
        path, fields["task"], fields["kind"], fields["K"], fields["d"], n=meta.get("n")
    )
    if dataset.n_rows == 0:
        raise ValueError(f"{path}: no data rows")
    return dataset


# The seven experiment families, then the four pipeline steps.
_RUNNERS = {
    "converge": run_converge,
    "one-attacker": run_one_attacker,
    "multi-attacker": run_multi_attacker,
    "degree-tailor": run_degree_tailor,
    "mismatch": run_mismatch,
    "gossip-learning": run_gossip_learning,
    "small-world": run_small_world,
    "gen-data": run_gen_data,
    "train": run_train,
    "train-gossip": run_train_gossip,
    "eval-roc": run_eval_roc,
}

FAMILIES = tuple(_RUNNERS)[:7]
