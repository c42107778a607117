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

multi-attacker, degree-tailor, mismatch and small-world differ only in their
test conditions and share one train-then-sweep routine, ``_sweep``.  A
``Scenario`` leaves K open: datasets needed at several K for the same rows
come from one ``build_datasets`` call.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import NamedTuple

import numpy as np

from .datagen import (
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
from .protocol import LeastSquaresProblem, ProtocolConfig, draw_problems, optimal_value, run_batch
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

_TRAIN_DEFAULTS = {"eta": 0.01, "batch_size": 32, "epochs": 30}

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
        "train": dict(_TRAIN_DEFAULTS),
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
        "train": dict(_TRAIN_DEFAULTS),
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
        "train": dict(_TRAIN_DEFAULTS),
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
        "train": dict(_TRAIN_DEFAULTS),
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
        "train": dict(_TRAIN_DEFAULTS),
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
        "train": dict(_TRAIN_DEFAULTS),
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
    for key, valid, what in _PAIR_DOMAINS:
        for i, entry in enumerate(cfg.get(key, ())):
            pair = json_type(entry) == "list" and list(map(json_type, entry)) == ["integer"] * 2
            if not (pair and valid(*entry, cfg)):
                raise ConfigError(
                    f"'{family}.{key}[{i}]' must be {what.format(**cfg)}, got {entry!r}"
                )
    return cfg


# Numeric and choice fields, wherever they appear in a config with a non-null
# default: (valid, what a value must be).
_DOMAINS = {
    "T": (lambda v: v >= 1, ">= 1"),
    "rows": (lambda v: v >= 3, ">= 3"),
    "cols": (lambda v: v >= 3, ">= 3"),
    "K": (lambda v: v >= 1, ">= 1"),
    "d": (lambda v: v >= 1, ">= 1"),
    "scale": (lambda v: v > 0, "> 0"),
    "starved_fraction": (lambda v: 0 < v < 1, "in (0, 1)"),
    "eta": (lambda v: v > 0, "> 0"),
    "batch_size": (lambda v: v >= 1, ">= 1"),
    "epochs": (lambda v: v >= 0, ">= 0"),
    "rounds": (lambda v: v >= 0, ">= 0"),
    "mu": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "mode": (lambda v: v in ("sync", "async"), "'sync' or 'async'"),
}

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
    and a field of ``_DOMAINS`` its domain; a field whose default is null
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
        elif expected != "null" and key in _DOMAINS and not _DOMAINS[key][0](value):
            raise ConfigError(f"{here!r} must be {_DOMAINS[key][1]}, got {value!r}")
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


def _write_csv(path, header: list[str], rows: list[tuple]) -> None:
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


def _fit(
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
    and save it as ``name`` in outdir, where _load reads it back."""
    mlp, _ = _fit(dataset, config, _rng(*key))
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


def _eval(detector, dataset, outdir, stem, summaries, artifacts, extra=None):
    curve, summary = evaluate_detector(detector, dataset)
    if extra:
        summary.update(extra)
    summaries.append(summary)
    name = f"roc_{stem}.csv"
    roc_to_csv(curve, os.path.join(outdir, name))
    artifacts.append(name)


def _save(mlp, outdir, name, artifacts) -> None:
    save_model(mlp, os.path.join(outdir, name + ".json"))
    artifacts.extend([name + ".json", name + ".json.bin"])


def _load(outdir, name, artifacts) -> Mlp:
    """The network a _fit_job saved as ``name``; lists its two files."""
    artifacts.extend([name + ".json", name + ".json.bin"])
    return load_model(os.path.join(outdir, name + ".json"))[0]


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

    thetas, phis, _ = draw_problems(n, d, np.zeros(S), [_rng(master, s, 0) for s in range(S)])
    alphas = np.array([_rng(master, s, 2).uniform(-0.5, 0.5, size=d) for s in range(S)])
    alphas = alphas.reshape(S, d)

    def trajectories(batch_flags, batch_alphas, lam_b, key):
        """(S, T+1, n, d) states of every seed's run."""
        stats = run_batch(
            graph, batch_flags, thetas, phis, batch_alphas, lam_b, config,
            [_rng(master, s, key) for s in range(S)], checkpoints=range(T + 1),
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
            _write_csv(
                os.path.join(outdir, "trajectory_clean.csv"),
                ["t", "f_gap", "disagreement"],
                [(t, f_gap_t[t], spread_t[t]) for t in range(T + 1)],
            )
            _write_csv(
                os.path.join(outdir, "trajectory_attack.csv"),
                ["t", "attack_distance"],
                [(t, dist_t[t]) for t in range(T + 1)],
            )
            artifacts.extend(["trajectory_clean.csv", "trajectory_attack.csv"])

    _write_csv(
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
    share one build, simulated at their largest K.  Every dataset is built
    first; the networks are then fit and saved by _fit_all, and
    each is read back when its detector is evaluated, in setup order.
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
    runs = [  # (K, d, task, kind, method) in evaluation order
        (K, d, task, kind, method)
        for K, d in setups
        for task in ("nd", "nl")
        for kind, method in _METHODS.items()
        if [K, d] in [list(s) for s in cfg[f"{kind}_setups"]]
    ]
    _fit_all([
        (data[K, d][f"{task}_{kind}"].train, _fit_key(master, K, d, task, kind),
         f"model_{task}_{method}nn_K{K}_d{d}")
        for K, d, task, kind, method in runs
    ], tcfg, outdir)

    artifacts: list[str] = []
    summaries: list[dict] = []
    for K, d, task, kind, method in runs:
        ds, tail = data[K, d][f"{task}_{kind}"].test, f"_K{K}_d{d}"
        _eval(
            make_score_detector(method, task), ds, outdir, f"{task}_{method}{tail}",
            summaries, artifacts,
        )
        mlp = _load(outdir, f"model_{task}_{method}nn{tail}", artifacts)
        _eval(
            make_nn_detector(mlp, task, kind, method + "nn"), ds, outdir,
            f"{task}_{method}nn{tail}", summaries, artifacts,
        )

    auc_table_to_csv(summaries, os.path.join(outdir, "aucs.csv"))
    artifacts.append("aucs.csv")
    return artifacts


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
    score detectors on every variant.

    specs lists (K, kind) pairs.  Each gets one network per task, fit on
    train_scenario at K and saved under ``model_name``; each variant is then
    tested per spec, in spec order, detection before localization.  The
    training set and each variant's test set are one build over all specs.
    Every dataset is built first; the networks are then fit and saved by
    _fit_all, and read back once before the tests.
    """
    master, d = cfg["master_seed"], cfg["d"]
    tcfg = _train_config(cfg)
    rows = round(10000 * cfg["scale"])
    budget = Budget(nd_train_per_event=rows, nd_test_per_event=0, nl_train=rows, nl_test=0)

    Ks = [K for K, _ in specs]
    train_data = build_datasets(train_scenario, Ks, budget, master)
    tests = [
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
    _fit_all([
        (train_data[K][f"{task}_{kind}"].train, _fit_key(master, K, d, task, kind), name)
        for (task, kind, K), name in names.items()
    ], tcfg, outdir)

    artifacts: list[str] = []
    summaries: list[dict] = []
    models = {key: _load(outdir, name, artifacts) for key, name in names.items()}
    for v, test_data in zip(variants, tests):
        for K, kind in specs:
            method, tail = _METHODS[kind], v.suffix.format(K=K)
            for task in ("nd", "nl"):
                ds = test_data[K][f"{task}_{kind}"].test
                _eval(
                    make_score_detector(method, task), ds, outdir,
                    f"{task}_{method}{tail}", summaries, artifacts, v.extra,
                )
                _eval(
                    make_nn_detector(models[(task, kind, K)], task, kind, method + "nn"),
                    ds, outdir, f"{task}_{method}nn{tail}", summaries, artifacts, v.extra,
                )

    auc_table_to_csv(summaries, os.path.join(outdir, "aucs.csv"), extra_cols=extra_cols)
    artifacts.append("aucs.csv")
    return artifacts


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
    master = cfg["master_seed"]
    tcfg = _train_config(cfg)
    learner_graph = induced_subgraph(
        graph, [v for v in range(graph.n) if v != cfg["excluded_agent"]]
    )
    agents = tuple(range(learner_graph.n))

    artifacts: list[str] = []
    artifacts += _gossip_case1(cfg, graph, learner_graph, agents, master, tcfg, outdir)
    artifacts += _gossip_case2(cfg, graph, learner_graph, agents, master, tcfg, outdir)
    return artifacts


def _spawn_learners(shards, dataset, agents, tcfg, mu, key):
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


def _gossip_case1(cfg, graph, learner_graph, agents, master, tcfg, outdir):
    scenario = scenario_from_tag(cfg["scenario"], graph, d=cfg["d"])
    data = build_dataset(
        scenario, cfg["K"], Budget.desk(cfg["scale"]), master,
        tasks=("nd",), events=(EVENT_H0, EVENT_NEXT),
    )["nd_spatial"]
    policy = ShardPolicy(
        kind="starved",
        agents=agents,
        starved_agent=cfg["starved_agent"],
        starved_fraction=cfg["starved_fraction"],
        starved_events=(EVENT_NEXT,),
        seed=cfg["policy_seed"],
    )
    shards = shard_for_gossip(data.train, policy)
    starved = cfg["starved_agent"]

    iso_rows = shards[starved]
    X, Y, mask = training_arrays(data.train, iso_rows)
    iso = init_mlp([data.train.M, *HIDDEN, 1], seed=_rng(master, 21, starved))
    train(iso, X, Y, tcfg, rng=_rng(master, 22, starved), mask=mask)

    learners = _spawn_learners(shards, data.train, agents, tcfg, cfg["mu"], (master, 21))
    metrics = run_gossip_training(
        learners, learner_graph, cfg["rounds"], _rng(master, 23), mode="sync"
    )
    collab = learners[starved].model

    artifacts = []
    summaries = []
    for name, mlp in (("isolated", iso), ("collaborative", collab)):
        det = make_nn_detector(mlp, "nd", "spatial", name)
        curve, summary = evaluate_detector(det, data.test)
        summaries.append((name, iso_rows.size, summary["auc"]))
        roc_to_csv(curve, os.path.join(outdir, f"roc_case1_{name}.csv"))
        artifacts.append(f"roc_case1_{name}.csv")
        _save(mlp, outdir, f"model_case1_{name}", artifacts)

    _write_csv(
        os.path.join(outdir, "case1_report.csv"),
        ["model", "starved_rows", "auc"],
        summaries,
    )
    metrics_to_csv(metrics, os.path.join(outdir, "case1_telemetry.csv"))
    artifacts += ["case1_report.csv", "case1_telemetry.csv"]
    return artifacts


def _gossip_case2(cfg, graph, learner_graph, agents, master, tcfg, outdir):
    scenario = scenario_from_tag(cfg["scenario"], graph, d=cfg["d"])
    data = build_dataset(
        scenario, cfg["K"], Budget.desk(cfg["scale"]), master + 500, tasks=("nd",)
    )["nd_spatial"]
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
    shards = shard_for_gossip(data.train, policy)

    probes = {"next": next_group[0], "far": far_group[0]}
    iso_models = {}
    for label, agent in probes.items():
        X, Y, mask = training_arrays(data.train, shards[agent])
        mlp = init_mlp([data.train.M, *HIDDEN, 1], seed=_rng(master, 31, agent))
        train(mlp, X, Y, tcfg, rng=_rng(master, 32, agent), mask=mask)
        iso_models[label] = mlp

    learners = _spawn_learners(shards, data.train, agents, tcfg, cfg["mu"], (master, 31))
    metrics = run_gossip_training(
        learners, learner_graph, cfg["rounds"], _rng(master, 33), mode="sync"
    )

    events = data.test.events
    subsets = {
        "next": subset_rows(data.test, np.isin(events, (EVENT_H0, EVENT_NEXT))),
        "far": subset_rows(data.test, np.isin(events, (EVENT_H0, EVENT_FAR))),
    }

    rows = []
    for label, agent in probes.items():
        for model_kind, mlp in (
            ("independent", iso_models[label]),
            ("collaborative", learners[agent].model),
        ):
            det = make_nn_detector(mlp, "nd", "spatial", model_kind)
            for subset_label, subset in subsets.items():
                _, summary = evaluate_detector(det, subset)
                rows.append((model_kind, agent, subset_label, summary["auc"]))

    _write_csv(
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
