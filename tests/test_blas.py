"""Output bytes do not depend on the BLAS thread count: importing gossipwatch
runs numpy's bundled OpenBLAS on one thread, whatever the environment asks."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
_TWO_THREADS = {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2"}

_THREADS = """
import ctypes, glob, os
import numpy as np
root = os.path.dirname(np.__file__)
lib = ctypes.CDLL(glob.glob(os.path.join(root + ".libs", "libscipy_openblas*"))[0])
before = lib.scipy_openblas_get_num_threads64_()
import gossipwatch
print(before, lib.scipy_openblas_get_num_threads64_())
"""


def _child(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ, **_TWO_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
    )
    out = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out


def test_import_pins_openblas_to_one_thread():
    out = _child("-c", _THREADS)
    assert out.stdout.split() == ["2", "1"]
    assert "RuntimeWarning" not in out.stderr


def test_golden_digests_hold_with_two_blas_threads():
    got = json.loads(_child(str(HERE / "test_golden.py"), "--digests").stdout)
    pinned = json.loads((HERE / "golden" / "digests.json").read_text())
    for family in sorted(pinned):
        changed = sorted(n for n in pinned[family] if got[family].get(n) != pinned[family][n])
        assert not changed, f"{family}: bytes changed in {changed}"
