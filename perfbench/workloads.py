"""Benchmark workloads as the CLI argument lists passed to gossipwatch.cli.main.

Every op writes into its own output directory, named after the op and
relative to the run directory, so each artifact belongs to exactly one op.
The program receives only these generated arguments; the workload seed
becomes the program's master seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Op:
    name: str  # also the op's output directory
    argv: tuple[str, ...]


def _op(name: str, command: list[str], /, **fields) -> Op:
    argv = list(command)
    for key, value in fields.items():
        text = value if isinstance(value, str) else json.dumps(value)
        argv += ["--set", f"{key}={text}"]
    return Op(name, tuple(argv + ["--out", name]))


EVENTS = ["h0", "next-to", "far-from"]

# Fixed small calls of every subcommand the workloads use, run before timing
# starts so that first-call costs (BLAS start-up, lazy imports, page faults)
# land in set-up and not at random in the timed ops.  The warm-up does not
# depend on the workload seed.
WARMUP = (
    _op("warmup-data", ["gen-data"], K=2, d=2, T=100, scale=0.002),
    _op("warmup-train", ["train"], data="warmup-data/nd_temporal_train.csv",
        epochs=2, name="tdnn"),
    _op("warmup-eval", ["eval-roc"], temporal_data="warmup-data/nd_temporal_test.csv",
        spatial_data="warmup-data/nd_spatial_test.csv", detectors=["td", "sd", "tdnn"],
        tdnn_model="warmup-train/tdnn.json"),
    _op("warmup-gossip", ["train-gossip"], data="warmup-data/nd_temporal_train.csv",
        rounds=2),
    _op("warmup-converge", ["experiment", "converge"], seeds=1, T=50),
)

# Smallest desk scale at which every training chunk of build_dataset is a
# full 256-row chunk, i.e. B = 1280 protocol instances at K = 5.
BUILD_TORUS_SCALE = 0.0256
FIT_EVAL_INPUT_SCALE = 0.1
FIT_EPOCHS = 30
ONE_ATTACKER_SCALE = 0.01


def build_torus(seed: int) -> tuple[tuple[Op, ...], tuple[Op, ...]]:
    ops = (
        _op("gen-data", ["gen-data"], scenario="S0", m=1, c=1, K=5, d=2, T=2000,
            scale=BUILD_TORUS_SCALE, tasks=["nd", "nl"], events=EVENTS, master_seed=seed),
    )
    return (), ops


def fit_eval(seed: int) -> tuple[tuple[Op, ...], tuple[Op, ...]]:
    inputs = (
        _op("inputs", ["gen-data"], K=1, d=2, T=200, scale=FIT_EVAL_INPUT_SCALE,
            master_seed=seed),
    )
    trains = tuple(
        _op(f"train-{task}-{kind}", ["train"], data=f"inputs/{task}_{kind}_train.csv",
            epochs=FIT_EPOCHS, seed=seed, name=f"{kind[0]}dnn")
        for task in ("nd", "nl") for kind in ("temporal", "spatial")
    )
    evals = tuple(
        _op(f"eval-{task}", ["eval-roc"], temporal_data=f"inputs/{task}_temporal_test.csv",
            spatial_data=f"inputs/{task}_spatial_test.csv",
            detectors=["td", "sd", "tdnn", "sdnn"],
            tdnn_model=f"train-{task}-temporal/tdnn.json",
            sdnn_model=f"train-{task}-spatial/sdnn.json")
        for task in ("nd", "nl")
    )
    gossip = (
        _op("train-gossip", ["train-gossip"], data="inputs/nd_temporal_train.csv",
            rounds=200, mode="sync", seed=seed),
    )
    return inputs, trains + evals + gossip


def family_one_attacker(seed: int) -> tuple[tuple[Op, ...], tuple[Op, ...]]:
    ops = (
        _op("one-attacker", ["experiment", "one-attacker"], scale=ONE_ATTACKER_SCALE,
            master_seed=seed),
    )
    return (), ops


# name -> (function of the seed giving (set-up input ops, timed ops), why)
WORKLOADS = {
    "build-torus": (
        build_torus,
        "gen-data on the 3x3 torus at K=5, T=2000: simulation-bound at B=1280, "
        "bypasses neural, evaluation and gossip_train",
    ),
    "fit-eval": (
        fit_eval,
        "four fits, two ROC sweeps and a gossip training on CSV inputs made in set-up: "
        "bypasses the protocol simulation",
    ),
    "family-one-attacker": (
        family_one_attacker,
        "the one-attacker family at scale 0.01: every layer in real proportion, "
        "K in {5,2,1} at small batches, where sharing work across K would show",
    ),
}
