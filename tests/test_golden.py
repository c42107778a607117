"""Golden output digests: every artifact of every experiment family, pinned.

Each family runs once with the small overrides of the determinism test
(test_acceptance._TINY) and the SHA-256 of every file it writes must equal
the digest recorded in tests/golden/digests.json.  A change that alters
output bytes on purpose re-pins the file and says why:

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
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def all_digests() -> dict[str, dict[str, str]]:
    """family -> artifact name -> sha256, computed in a one-thread child."""
    env = dict(os.environ, **{var: "1" for var in _BLAS_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--digests"],
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


def test_golden_digests():
    from test_acceptance import _TINY

    assert set(json.loads(DIGESTS.read_text())) == set(_TINY)
    _assert_pinned(all_digests())


@pytest.mark.parametrize("cpus", [1, 2])
def test_golden_digests_hold_on_one_and_two_cpus(monkeypatch, cpus):
    """Dataset builds and the families' fits of enough work run on one
    forked worker per CPU; on one CPU (everything in this process) and on
    two (every build's chunks and every family's fits on two workers, even
    on a one-CPU machine) they write the same bytes."""
    from gossipwatch import datagen, experiments, fanout

    here = fanout.usable_cpus()  # taken again where the machine has fewer
    monkeypatch.setattr(fanout, "usable_cpus", lambda: (here * cpus)[:cpus])
    monkeypatch.setattr(datagen, "_FAN_OUT_WORK", 0)
    monkeypatch.setattr(experiments, "_FIT_WORK", 0)
    _assert_pinned(_compute())


def _assert_pinned(got: dict[str, dict[str, str]]) -> None:
    pinned = json.loads(DIGESTS.read_text())
    assert set(got) == set(pinned)
    for family in sorted(pinned):
        assert sorted(got[family]) == sorted(pinned[family]), f"{family}: artifact set changed"
        changed = sorted(n for n in got[family] if got[family][n] != pinned[family][n])
        assert not changed, f"{family}: bytes changed in {changed}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--digests"]:
        json.dump(_compute(), sys.stdout)
    elif sys.argv[1:] == ["--pin"]:
        digests = all_digests()
        DIGESTS.parent.mkdir(exist_ok=True)
        DIGESTS.write_text(json.dumps(digests, sort_keys=True, indent=2) + "\n")
        print(f"pinned {sum(len(v) for v in digests.values())} artifacts to {DIGESTS}")
    else:
        sys.exit("usage: python3 tests/test_golden.py --pin")
