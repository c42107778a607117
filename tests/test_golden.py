"""Golden output digests: every artifact of every experiment family and of
a pipeline of the CLI subcommands, pinned.

Each family runs once with the small overrides of the determinism test
(test_acceptance._TINY) and the SHA-256 of every file it writes must equal
the digest recorded in tests/golden/digests.json.  The CLI pipeline
(CLI_RUNS) runs every subcommand but ``experiment`` on tiny inputs, one
output directory per run, and its files must equal the digests in
tests/golden/cli_digests.json.  A change that alters output bytes on
purpose re-pins both files and says why:

    python3 tests/test_golden.py --pin

The families run in a child process with one BLAS thread: multi-threaded
BLAS splits matrix products differently by thread count, which changes the
low bits of trained weights and so the bytes of every model artifact.  The
CPU count, by contrast, changes no byte: it sets the number of processes
that build a dataset's chunks and fit an experiment's networks, which
further runs with one and with two CPUs check.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "golden" / "digests.json"
CLI_DIGESTS = HERE / "golden" / "cli_digests.json"
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _run(out: str, *argv: str, **fields) -> list[str]:
    """gossipwatch.cli.main arguments: argv, one --set per field (JSON
    values), then --out out."""
    sets = [f"{key}={json.dumps(value)}" for key, value in fields.items()]
    return [*argv, *(arg for kv in sets for arg in ("--set", kv)), "--out", out]


# The CLI pipeline, run in order in one directory: a dataset build, five
# fits (one of zero epochs), sweeps of every detector with oracle detection
# on and off, both gossip modes and a convergence study.  gen-data's
# localization rows are all attacked, so the two nl sweeps differ only in
# their manifests.
CLI_RUNS = (
    _run("data", "gen-data", K=2, d=2, T=100, scale=0.002, master_seed=4),
    *(
        _run(f"train-{task}-{kind}", "train", data=f"data/{task}_{kind}_train.csv",
             epochs=2, seed=1, name=f"{kind[0]}dnn")
        for task in ("nd", "nl") for kind in ("temporal", "spatial")
    ),
    _run("train-zero", "train", data="data/nd_temporal_train.csv", epochs=0, name="tdnn"),
    *(
        _run(f"eval-{task}-{oracle}", "eval-roc",
             temporal_data=f"data/{task}_temporal_test.csv",
             spatial_data=f"data/{task}_spatial_test.csv",
             tdnn_model=f"train-{task}-temporal/tdnn.json",
             sdnn_model=f"train-{task}-spatial/sdnn.json", oracle_nd=oracle)
        for task, oracle in (("nd", True), ("nl", True), ("nl", False))
    ),
    _run("gossip-sync", "train-gossip", data="data/nd_spatial_train.csv", rounds=3,
         policy="starved", mode="sync", seed=2),
    _run("gossip-async", "train-gossip", data="data/nd_temporal_train.csv", rounds=12,
         policy="uniform", mode="async", seed=3),
    _run("simulate", "simulate", seeds=2, T=60),
)


def all_digests(flag: str = "--digests") -> dict[str, dict[str, str]]:
    """family -> artifact name -> sha256 (with --digests), or run output
    directory -> artifact name -> sha256 (with --cli-digests), computed in a
    one-thread child."""
    env = dict(os.environ, **{var: "1" for var in _BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), flag],
        env=env, capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


def _compute() -> dict[str, dict[str, str]]:
    from gossipwatch.experiments import FAMILIES, run_family
    from test_acceptance import _TINY

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for family in FAMILIES:
            outdir = Path(tmp) / family
            run_family(family, outdir, _TINY[family])
            digests[family] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())
            }
    return digests


def _compute_cli() -> dict[str, dict[str, str]]:
    """Run CLI_RUNS in a fresh directory, which becomes the working
    directory, so that the manifests record the same relative paths."""
    from gossipwatch.cli import main

    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        for argv in CLI_RUNS:
            assert main(argv) == 0, argv
            outdir = Path(argv[-1])
            digests[argv[-1]] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(outdir.iterdir())
            }
        os.chdir(ROOT)
    return digests


def test_golden_digests():
    from test_acceptance import _TINY

    assert set(json.loads(DIGESTS.read_text())) == set(_TINY)
    _assert_pinned(all_digests())


@pytest.mark.parametrize("cpus", [1, 2])
def test_golden_digests_hold_on_one_and_two_cpus(monkeypatch, cpus):
    """Dataset builds of enough work and the families' fits run on one
    forked worker per CPU; on one CPU (everything in this process) and on
    two (every build's chunks and every family's fits on two workers, even
    on a one-CPU machine) they write the same bytes."""
    from gossipwatch import datagen, fanout

    here = fanout.usable_cpus()  # taken again where the machine has fewer
    monkeypatch.setattr(fanout, "usable_cpus", lambda: (here * cpus)[:cpus])
    monkeypatch.setattr(datagen, "_FAN_OUT_WORK", 0)
    _assert_pinned(_compute())


def test_cli_digests():
    """Every file of every CLI_RUNS run, among them gen-data's datasets,
    train's losses.csv, eval-roc's curves and AUC tables and train-gossip's
    telemetry.csv, holds its pinned bytes."""
    _assert_pinned(all_digests("--cli-digests"), CLI_DIGESTS)


def _assert_pinned(got: dict[str, dict[str, str]], digests: Path = DIGESTS) -> None:
    pinned = json.loads(digests.read_text())
    assert set(got) == set(pinned)
    for family in sorted(pinned):
        assert sorted(got[family]) == sorted(pinned[family]), f"{family}: artifact set changed"
        changed = sorted(n for n in got[family] if got[family][n] != pinned[family][n])
        assert not changed, f"{family}: bytes changed in {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        json.dump(_compute(), sys.stdout)
    elif sys.argv[1:] == ["--cli-digests"]:
        json.dump(_compute_cli(), sys.stdout)
    elif sys.argv[1:] == ["--pin"]:
        for flag, path in (("--digests", DIGESTS), ("--cli-digests", CLI_DIGESTS)):
            digests = all_digests(flag)
            path.parent.mkdir(exist_ok=True)
            path.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
            print(f"pinned {sum(len(v) for v in digests.values())} artifacts to {path}")
    else:
        sys.exit("usage: python3 tests/test_golden.py --pin")
