"""Experiment families: one runner per evaluation study, CSV/JSON artifacts.

Each family has a DEFAULTS config (plain JSON-serializable dict), a runner
``run_<family>(cfg, outdir) -> list of artifact names``, and a shared driver
``run_family`` that resolves overrides, runs, and writes a ``manifest.json``
recording the exact config, its digest, and every artifact produced.  All
output is deterministic: same config, same bytes.  Nothing here timestamps
or hashes anything machine-specific.

Families:
  converge        attacker-free convergence and single-attacker steering
  one-attacker    detector ROC study on the torus, one attacker
  multi-attacker  fixed detectors tested against (m, c) attacker combos
  degree-tailor   monitor-degree cuts with tailored detector inputs
  mismatch        train on one beta law, test across S0..S4
  gossip-learning collaborative training, starved and position-split shards
  small-world     torus-trained detectors on a rewired 20-agent graph

Every ROC family lists the networks it fits and the test sets it scores,
and hands both lists to one driver, ``_fit_and_test``, which fits the
networks, sweeps the score and neural detectors over each test set in list
order and writes the ROC curves and ``aucs.csv``.  multi-attacker,
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
from typing import NamedTuple

import numpy as np

from .datagen import (
    BETA_LAWS,
    EVENT_FAR,
    EVENT_H0,
    EVENT_NEXT,
    Budget,
    Scenario,
    ShardPolicy,
    scenario_from_tag,
    build_dataset,
    build_datasets,
    shard_for_gossip,
    subset_rows,
    training_arrays,
)
from .evaluation import (
    auc_table_to_csv,
    evaluate_detector,
    make_nn_detector,
    make_score_detector,
    roc_to_csv,
)
from .fanout import fan_out
from .gossip_train import LearnerState, metrics_to_csv, run_gossip_training
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
)

HIDDEN = (200, 100, 50)

_ALL_EVENTS = (EVENT_H0, EVENT_NEXT, EVENT_FAR)

TRAIN_DEFAULTS = {"eta": 0.01, "batch_size": 32, "epochs": 30}

_METHODS = {"temporal": "td", "spatial": "sd"}  # score detector of each feature kind


class ConfigError(ValueError):
    """Bad experiment configuration (unknown field, invalid value)."""


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
    "one-attacker": {
        "master_seed": 0,
        "scenario": "S0",
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "temporal_setups": [[5, 2], [2, 2], [1, 2], [2, 1]],
        "spatial_setups": [[2, 2], [1, 2]],
        "train": dict(TRAIN_DEFAULTS),
    },
    "multi-attacker": {
        "master_seed": 0,
        "scenario": "S0",
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "combos": [[1, 1], [2, 1], [2, 2], [5, 1], [5, 3]],
        "temporal_K": 5,
        "spatial_K": 2,
        "d": 2,
        "train": dict(TRAIN_DEFAULTS),
    },
    "degree-tailor": {
        "master_seed": 0,
        "scenario": "S0",
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "monitor": 2,
        "cuts": [[2, 5], [2, 8]],
        "temporal_K": 5,
        "spatial_K": 2,
        "d": 2,
        "train": dict(TRAIN_DEFAULTS),
    },
    "mismatch": {
        "master_seed": 0,
        "train_scenario": "S0",
        "test_scenarios": ["S0", "S1", "S2", "S3", "S4"],
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "temporal_K": 5,
        "spatial_Ks": [2, 1],
        "d": 2,
        "train": dict(TRAIN_DEFAULTS),
    },
    "gossip-learning": {
        "master_seed": 0,
        "scenario": "S0",
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "excluded_agent": 1,
        "K": 1,
        "d": 2,
        "rounds": 200,
        "mu": 0.5,
        "policy_seed": 0,
        "starved_agent": 1,
        "starved_fraction": 0.02,
        "next_group": [0, 1, 2, 3],
        "far_group": [4, 5, 6, 7],
        "train": dict(TRAIN_DEFAULTS),
    },
    "small-world": {
        "master_seed": 0,
        "scenario": "S0",
        "scale": 0.1,
        "rows": 3,
        "cols": 3,
        "n": 20,
        "mean_degree": 8,
        "rewire_prob": 0.2,
        "graph_seed": 5,
        "attackers": [3, 10, 17],
        "M": 4,
        "temporal_K": 5,
        "spatial_K": 2,
        "d": 2,
        "train": dict(TRAIN_DEFAULTS),
    },
}


def resolve_config(family: str, overrides: dict | None = None) -> dict:
    """Defaults for ``family`` with ``overrides`` merged in.

    Unknown fields raise ConfigError with the full field path, so a typo in
    a config file fails loudly instead of being ignored.
    """
    if family not in DEFAULTS:
        raise ConfigError(
            f"unknown experiment family {family!r}; known: {sorted(DEFAULTS)}"
        )
    cfg = apply_overrides(DEFAULTS[family], overrides or {}, family)
    if family in _DESK_FAMILIES:
        check_desk_scale(cfg, family)
    elif family in _SWEEP_FAMILIES and _test_budget(cfg["scale"]).nl_test < 1:
        # The test split is _sweep's smallest: a scale that gives it no row
        # would fail only after fitting on the training split, or in the fit.
        raise ConfigError(
            f"'{family}.scale' must be > 1/12000, so that every split has a row, "
            f"got {cfg['scale']!r}"
        )
    for key in dict.fromkeys(key for key, _, _ in _PAIR_DOMAINS):
        for i, entry in enumerate(cfg.get(key, ())):
            check_pair(key, entry, cfg, f"{family}.{key}[{i}]")
    for key, (field, kind) in _LIST_DOMAINS.items():
        valid, what = DOMAINS[field]
        for i, entry in enumerate(cfg.get(key, ())):
            if json_type(entry) != kind:
                raise ConfigError(f"'{family}.{key}[{i}]' expects a JSON {kind}, got {entry!r}")
            if not valid(entry):
                raise ConfigError(f"'{family}.{key}[{i}]' must be {what}, got {entry!r}")
    if "mean_degree" in cfg and cfg["mean_degree"] >= cfg["n"]:
        raise ConfigError(
            f"'{family}.mean_degree' must be < n = {cfg['n']}, got {cfg['mean_degree']!r}"
        )
    for key, count in _AGENT_FIELDS:
        if key in cfg:
            many = json_type(cfg[key]) == "list"
            check_agent_ids(cfg[key], count(cfg), f"{family}.{key}", many=many)
    return cfg


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


# Numeric and choice fields, wherever they appear in a config with a non-null
# default: (valid, what a value must be).
DOMAINS = {
    **dict.fromkeys(
        ("T", "K", "d", "temporal_K", "spatial_K", "M", "batch_size"), (lambda v: v >= 1, ">= 1")
    ),
    **dict.fromkeys(
        ("scenario", "train_scenario"), (lambda v: v in BETA_LAWS, f"one of {sorted(BETA_LAWS)}")
    ),
    "rows": (lambda v: v >= 3, ">= 3"),
    "cols": (lambda v: v >= 3, ">= 3"),
    "scale": (lambda v: v > 0, "> 0"),
    "starved_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "eta": (lambda v: v > 0, "> 0"),
    "epochs": (lambda v: v >= 0, ">= 0"),
    "rounds": (lambda v: v >= 0, ">= 0"),
    "mu": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mode": (lambda v: v in ("sync", "async"), "'sync' or 'async'"),
    "policy": (
        lambda v: v in ("uniform", "starved", "by-position"),
        "'uniform', 'starved' or 'by-position'",
    ),
    "n": (lambda v: v >= 3, ">= 3"),
    "mean_degree": (lambda v: v >= 2 and v % 2 == 0, "an even integer >= 2"),
    "rewire_prob": (lambda v: 0 <= v <= 1, "in [0, 1]"),
}

# List fields whose entries each lie in the domain of a field of DOMAINS:
# (that field, the JSON type of an entry).
_LIST_DOMAINS = {"spatial_Ks": ("spatial_K", "integer"), "test_scenarios": ("scenario", "string")}

# Agent-id fields, one id or a list of distinct ids, with the agent count of
# the graph they index.  The gossip learners are the grid without its
# excluded agent, numbered anew.
_AGENT_FIELDS = [
    ("attackers", lambda cfg: cfg["n"]),
    ("monitor", lambda cfg: cfg["rows"] * cfg["cols"]),
    ("excluded_agent", lambda cfg: cfg["rows"] * cfg["cols"]),
    ("starved_agent", lambda cfg: cfg["rows"] * cfg["cols"] - 1),
    ("next_group", lambda cfg: cfg["rows"] * cfg["cols"] - 1),
    ("far_group", lambda cfg: cfg["rows"] * cfg["cols"] - 1),
]

# List fields of integer pairs: (field, valid given the config, what an entry
# must be).  A combo puts c attackers on the monitor's 4 torus neighbors.
_PAIR_DOMAINS = [
    ("temporal_setups", lambda K, d, cfg: K >= 1 and d >= 1, "[K, d] with K, d >= 1"),
    ("spatial_setups", lambda K, d, cfg: K >= 1 and d >= 1, "[K, d] with K, d >= 1"),
    ("combos", lambda m, c, cfg: 0 <= c <= m, "[m, c] with 0 <= c <= m"),
    ("combos", lambda m, c, cfg: c <= 4 and m - c <= cfg["rows"] * cfg["cols"] - 5,
     "[m, c] that fits the {rows}x{cols} torus, c <= 4 and m - c <= rows * cols - 5"),
]


# Families whose row budgets come from Budget.desk, which takes a scale in
# (0, 1] and gives every split at least one row; the sweep families scale
# their row counts by any scale large enough that no split is empty.
_DESK_FAMILIES = ("one-attacker", "gossip-learning")
_SWEEP_FAMILIES = ("multi-attacker", "degree-tailor", "mismatch", "small-world")


def check_desk_scale(cfg: dict, path: str) -> None:
    """Budget.desk's domain of cfg["scale"], as a config error naming the
    field path, so that it fails before any output is made."""
    if cfg["scale"] > 1:
        raise ConfigError(f"'{path}.scale' must be in (0, 1], got {cfg['scale']!r}")


def apply_overrides(defaults: dict, overrides: dict, path: str) -> dict:
    """Deep-copied ``defaults`` with ``overrides`` merged; unknown keys fail."""
    cfg = json.loads(json.dumps(defaults))
    _merge(cfg, overrides, path)
    return cfg


def _merge(base: dict, overrides: dict, path: str) -> None:
    """Overlay ``overrides`` on ``base`` in place.  Each value must have the
    JSON type of its default, except that a number field takes an integer,
    and a field of ``DOMAINS`` its domain; a field whose default is null
    takes any value and is checked where it is used."""
    for key, value in overrides.items():
        here = f"{path}.{key}"
        if key not in base:
            raise ConfigError(f"unknown config field {here!r}")
        expected, got = json_type(base[key]), json_type(value)
        if expected not in ("null", got) and (expected, got) != ("number", "integer"):
            raise ConfigError(f"{here!r} expects a JSON {expected}, got {value!r}")
        if expected == "object":
            _merge(base[key], value, here)
        elif expected != "null" and key in DOMAINS and not DOMAINS[key][0](value):
            raise ConfigError(f"{here!r} must be {DOMAINS[key][1]}, got {value!r}")
        else:
            base[key] = value


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


def run_family(family: str, outdir, overrides: dict | None = None) -> dict:
    """Resolve config, run the family, write manifest.json; returns it."""
    cfg = resolve_config(family, overrides)
    os.makedirs(outdir, exist_ok=True)
    artifacts = _RUNNERS[family](cfg, outdir)
    return write_manifest(outdir, family, cfg, artifacts)


def write_manifest(
    outdir, family: str, cfg: dict, artifacts: list[str], extra: dict | None = None
) -> dict:
    from . import __version__

    manifest = {
        "family": family,
        "config": cfg,
        "digest": config_digest(cfg),
        "version": __version__,
        "artifacts": sorted(artifacts) + ["manifest.json"],
        **(extra or {}),
    }
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return manifest


def write_csv(path, header: list[str], rows: list[tuple]) -> None:
    """Floats via repr (round-trip exact), everything else via str."""
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(
                    repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in row
                )
                + "\n"
            )


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng(list(int(k) for k in key))


def _train_config(cfg: dict) -> TrainConfig:
    return TrainConfig(**cfg["train"])


def fit(
    dataset, config: TrainConfig, rng: np.random.Generator
) -> tuple[Mlp, list[float]]:
    """Train a fresh [M, 200, 100, 50, out] network on a labeled dataset;
    returns it with its epoch loss history."""
    X, Y, mask = training_arrays(dataset)
    mlp = init_mlp([dataset.M, *HIDDEN, _out_width(dataset)], seed=rng)
    losses = train(mlp, X, Y, config, rng=rng, mask=mask)
    return mlp, losses


def _fit_job(dataset, config: TrainConfig, key: tuple, outdir, name: str) -> None:
    """One job of _fit_all: fit a network on dataset, seeded by _rng(*key),
    and save it as ``name`` in outdir, where _fit_and_test reads it back."""
    mlp, _ = fit(dataset, config, _rng(*key))
    save_model(mlp, os.path.join(outdir, name + ".json"))


def _fit_key(master: int, K: int, d: int, task: str, kind: str) -> tuple:
    """Seed key of the network fit for one (K, d, task, feature kind) setup."""
    return (master, 11, K, d, task == "nl", kind == "spatial")


# The fewest row-epochs (one dataset row through one epoch, about 10 us of
# one CPU for a [4, 200, 100, 50, 1] network) worth fanning fits out: below
# it starting the workers and reading the models back cost about as much as
# the second CPU saves.
_FIT_WORK = 10_000


def _fit_all(fits: list, config: TrainConfig, outdir) -> None:
    """Fit and save one network per (dataset, key, name) of fits with
    _fit_job: on forked workers (fanout.fan_out) when their row-epochs come
    to _FIT_WORK or more, else in this process."""
    work = sum(dataset.n_rows for dataset, _, _ in fits) * config.epochs
    fan_out([
        functools.partial(_fit_job, dataset, config, key, outdir, name)
        for dataset, key, name in fits
    ], fork=work >= _FIT_WORK)


def _out_width(dataset) -> int:
    return 1 if dataset.task == "nd" else dataset.M


def _save(mlp, outdir, name, artifacts) -> None:
    save_model(mlp, os.path.join(outdir, name + ".json"))
    artifacts.extend([name + ".json", name + ".json.bin"])


def _fit_and_test(
    fits: list, tests: list, tcfg: TrainConfig, outdir, extra_cols=()
) -> list[str]:
    """Fit and save the networks of ``fits`` with _fit_all, then score each
    (test set, model name, ROC stem tail, extra columns) of ``tests`` in
    order: the score detector of the set's feature kind, then the network
    saved as ``model name``, read back for this test alone.  Writes one ROC
    curve per detector and test, and aucs.csv with ``extra_cols`` after the
    summary columns; returns every artifact name."""
    _fit_all(fits, tcfg, outdir)
    artifacts = [name + ext for _, _, name in fits for ext in (".json", ".json.bin")]
    summaries: list[dict] = []
    for ds, name, tail, extra in tests:
        method = _METHODS[ds.kind]
        mlp = load_model(os.path.join(outdir, name + ".json"))[0]
        for detector in (
            make_score_detector(method, ds.task),
            make_nn_detector(mlp, ds.task, ds.kind, method + "nn"),
        ):
            curve, summary = evaluate_detector(detector, ds)
            summaries.append({**summary, **extra})
            artifacts.append(f"roc_{ds.task}_{detector.name}{tail}.csv")
            roc_to_csv(curve, os.path.join(outdir, artifacts[-1]))
    auc_table_to_csv(summaries, os.path.join(outdir, "aucs.csv"), extra_cols)
    return artifacts + ["aucs.csv"]


def _test_budget(scale: float) -> Budget:
    """Test-split rows only, for scenarios evaluated with imported models."""
    return Budget(
        nd_train_per_event=0,
        nd_test_per_event=round(6000 * scale),
        nl_train=0,
        nl_test=round(6000 * scale),
    )


# --- converge ---------------------------------------------------------------


def run_converge(cfg: dict, outdir) -> list[str]:
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
        stats = run_batch(
            graph, batch_flags, thetas, phis, batch_alphas, lam_b, config, states(key),
            checkpoints=range(T + 1),
        )
        return np.stack([stats.checkpoints[t] for t in range(T + 1)], axis=1)

    clean = trajectories(np.zeros((S, n), dtype=bool), None, None, 1)
    hit = trajectories(np.tile(flags, (S, 1)), alphas, lam, 3)

    artifacts: list[str] = []
    rows = []
    for s in range(S):
        problem = LeastSquaresProblem(theta=thetas[s], phi=phis[s])
        _, f_star = optimal_value(problem)
        f_gap_t, spread_t = _clean_trajectory(problem, clean[s], f_star)
        dist_t = _attack_trajectory(hit[s], alphas[s], flags)
        rows.append((s, f_gap_t[-1], spread_t[-1], dist_t[-1]))

        if s == cfg["trace_seed"]:
            write_csv(
                os.path.join(outdir, "trajectory_clean.csv"),
                ["t", "f_gap", "disagreement"],
                [(t, f_gap_t[t], spread_t[t]) for t in range(T + 1)],
            )
            write_csv(
                os.path.join(outdir, "trajectory_attack.csv"),
                ["t", "attack_distance"],
                [(t, dist_t[t]) for t in range(T + 1)],
            )
            artifacts.extend(["trajectory_clean.csv", "trajectory_attack.csv"])

    write_csv(
        os.path.join(outdir, "report.csv"),
        ["seed", "f_gap", "disagreement", "attack_distance"],
        rows,
    )
    artifacts.append("report.csv")
    return artifacts


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


def run_one_attacker(cfg: dict, outdir) -> list[str]:
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
    tcfg = _train_config(cfg)

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
    return _fit_and_test(fits, tests, tcfg, outdir)


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
) -> list[str]:
    """Train networks once on ``train_scenario``, then test them and the
    score detectors on every variant, through _fit_and_test.

    specs lists (K, kind) pairs.  Each gets one network per task, fit on
    train_scenario at K and saved under ``model_name``; each variant is then
    tested per spec, in spec order, detection before localization.  The
    training set and each variant's test set are one build over all specs,
    and every dataset is built before the first fit.
    """
    master, d = cfg["master_seed"], cfg["d"]
    tcfg = _train_config(cfg)
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
    return _fit_and_test(fits, tests, tcfg, outdir, extra_cols)


def _two_specs(cfg) -> tuple[tuple[int, str], ...]:
    return ((cfg["temporal_K"], "temporal"), (cfg["spatial_K"], "spatial"))


# --- multi-attacker ---------------------------------------------------------


def run_multi_attacker(cfg: dict, outdir) -> list[str]:
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


def run_degree_tailor(cfg: dict, outdir) -> list[str]:
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
            1, _ALL_EVENTS,
        )
        for p, cut in enumerate(cuts)
    ]
    return _sweep(
        cfg, outdir, scenario_from_tag(tag, graph, d=d), _two_specs(cfg),
        variants, extra_cols=("p",),
    )


# --- mismatch ---------------------------------------------------------------


def run_mismatch(cfg: dict, outdir) -> list[str]:
    """Train under one initial-state law, test across all of them."""
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    d = cfg["d"]
    specs = [(cfg["temporal_K"], "temporal")] + [(K, "spatial") for K in cfg["spatial_Ks"]]
    variants = [
        _Variant(
            "_K{K}_" + tag, {"scenario": tag},
            scenario_from_tag(tag, graph, d=d), 1000, _ALL_EVENTS,
        )
        for tag in cfg["test_scenarios"]
    ]
    return _sweep(
        cfg, outdir, scenario_from_tag(cfg["train_scenario"], graph, d=d),
        specs, variants, extra_cols=("scenario",), model_name="model_{task}_{method}_K{K}",
    )


# --- gossip-learning --------------------------------------------------------


def run_gossip_learning(cfg: dict, outdir) -> list[str]:
    """Collaborative detector training over the trustworthy agents.

    Case 1 starves one agent of attacked rows (a starved_fraction share of
    the next-to rows, a fair share of everything else) and compares its
    isolated model against its model after gossip rounds.  Case 2 splits
    attacked rows by attacker position (next-to rows to one agent group,
    far-from rows to the other) and compares position-specialist models
    against collaborative ones on matched and mismatched test subsets.
    """
    graph = manhattan_grid(cfg["rows"], cfg["cols"])
    tcfg = _train_config(cfg)
    learner_graph = induced_subgraph(
        graph, [v for v in range(graph.n) if v != cfg["excluded_agent"]]
    )
    agents = tuple(range(learner_graph.n))
    case = functools.partial(_gossip_case, cfg, graph, learner_graph, tcfg)
    return _gossip_case1(cfg, case, agents, outdir) + _gossip_case2(cfg, case, agents, outdir)


def spawn_learners(shards, dataset, agents, tcfg, mu, key):
    """One learner per agent on its shard; agent a's network is seeded by
    _rng(*key, a)."""
    learners = []
    for a in agents:
        X, Y, mask = training_arrays(dataset, shards[a])
        mlp = init_mlp([dataset.M, *HIDDEN, _out_width(dataset)], seed=_rng(*key, a))
        learners.append(
            LearnerState(agent=a, model=mlp, X=X, Y=Y, mask=mask, mu=mu, config=tcfg)
        )
    return learners


def _gossip_case(cfg, graph, learner_graph, tcfg, policy, offset, key, events, isolated):
    """The steps both gossip-learning cases share.

    Builds the spatial detection dataset of ``events``, seeded by master +
    ``offset``, and shards its training rows by ``policy``.  Fits an isolated
    network on the shard of each agent in ``isolated``, initialized by
    _rng(master, key, a) and trained with _rng(master, key + 1, a), then
    gossips one learner per agent, initialized like the isolated networks,
    for cfg["rounds"] sync rounds drawn from _rng(master, key + 2).  Returns
    the test split, the shards, the isolated networks by agent, the learners
    and the round metrics.
    """
    master = cfg["master_seed"]
    scenario = scenario_from_tag(cfg["scenario"], graph, d=cfg["d"])
    data = build_dataset(
        scenario, cfg["K"], Budget.desk(cfg["scale"]), master + offset,
        tasks=("nd",), events=events,
    )["nd_spatial"]
    shards = shard_for_gossip(data.train, policy)
    iso = {}
    for a in isolated:
        X, Y, mask = training_arrays(data.train, shards[a])
        iso[a] = init_mlp([data.train.M, *HIDDEN, 1], seed=_rng(master, key, a))
        train(iso[a], X, Y, tcfg, rng=_rng(master, key + 1, a), mask=mask)
    learners = spawn_learners(shards, data.train, policy.agents, tcfg, cfg["mu"], (master, key))
    metrics = run_gossip_training(
        learners, learner_graph, cfg["rounds"], _rng(master, key + 2), mode="sync"
    )
    return data.test, shards, iso, learners, metrics


def _gossip_case1(cfg, case, agents, outdir):
    starved = cfg["starved_agent"]
    policy = ShardPolicy(
        kind="starved",
        agents=agents,
        starved_agent=starved,
        starved_fraction=cfg["starved_fraction"],
        starved_events=(EVENT_NEXT,),
        seed=cfg["policy_seed"],
    )
    test, shards, iso, learners, metrics = case(
        policy, offset=0, key=21, events=(EVENT_H0, EVENT_NEXT), isolated=[starved]
    )

    artifacts = []
    summaries = []
    for name, mlp in (("isolated", iso[starved]), ("collaborative", learners[starved].model)):
        det = make_nn_detector(mlp, "nd", "spatial", name)
        curve, summary = evaluate_detector(det, test)
        summaries.append((name, shards[starved].size, summary["auc"]))
        roc_to_csv(curve, os.path.join(outdir, f"roc_case1_{name}.csv"))
        artifacts.append(f"roc_case1_{name}.csv")
        _save(mlp, outdir, f"model_case1_{name}", artifacts)

    write_csv(
        os.path.join(outdir, "case1_report.csv"),
        ["model", "starved_rows", "auc"],
        summaries,
    )
    metrics_to_csv(metrics, os.path.join(outdir, "case1_telemetry.csv"))
    artifacts += ["case1_report.csv", "case1_telemetry.csv"]
    return artifacts


def _gossip_case2(cfg, case, agents, outdir):
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
    test, _, iso, learners, metrics = case(
        policy, offset=500, key=31, events=_ALL_EVENTS, isolated=list(probes.values())
    )

    subsets = {
        "next": subset_rows(test, np.isin(test.events, (EVENT_H0, EVENT_NEXT))),
        "far": subset_rows(test, np.isin(test.events, (EVENT_H0, EVENT_FAR))),
    }

    rows = []
    for agent in probes.values():
        for label, mlp in (("independent", iso[agent]), ("collaborative", learners[agent].model)):
            det = make_nn_detector(mlp, "nd", "spatial", label)
            for subset_label, subset in subsets.items():
                _, summary = evaluate_detector(det, subset)
                rows.append((label, agent, subset_label, summary["auc"]))

    write_csv(
        os.path.join(outdir, "case2_report.csv"),
        ["model", "agent", "test_events", "auc"],
        rows,
    )
    metrics_to_csv(metrics, os.path.join(outdir, "case2_telemetry.csv"))
    return ["case2_report.csv", "case2_telemetry.csv"]


# --- small-world ------------------------------------------------------------


def run_small_world(cfg: dict, outdir) -> list[str]:
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


_RUNNERS = {
    "converge": run_converge,
    "one-attacker": run_one_attacker,
    "multi-attacker": run_multi_attacker,
    "degree-tailor": run_degree_tailor,
    "mismatch": run_mismatch,
    "gossip-learning": run_gossip_learning,
    "small-world": run_small_world,
}

FAMILIES = tuple(_RUNNERS)
