"""Output bytes do not depend on the BLAS thread count: importing gossipwatch
runs numpy's bundled OpenBLAS on one thread, whatever the environment asks.
Without that library, or without one of its symbols, the first fit or
forward pass fails with an error that names it."""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gossipwatch import cli, neural
from gossipwatch.neural import Step, forward, init_mlp

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
    """The child asks for two threads; OpenBLAS starts with no more than
    the CPUs it may run on, and the import leaves it one."""
    out = _child("-c", _THREADS)
    assert out.stdout.split() == [str(min(2, len(os.sched_getaffinity(0)))), "1"]
    assert "RuntimeWarning" not in out.stderr


def test_golden_digests_hold_with_two_blas_threads():
    got = json.loads(_child(str(HERE / "test_golden.py"), "--digests").stdout)
    pinned = json.loads((HERE / "golden" / "digests.json").read_text())
    for family in sorted(pinned):
        changed = sorted(n for n in pinned[family] if got[family].get(n) != pinned[family][n])
        assert not changed, f"{family}: bytes changed in {changed}"


@contextlib.contextmanager
def _numpy_libraries_in(root: Path):
    """neural._blas looking for numpy's bundled libraries under ``root``
    (``root``/numpy.libs), as it would for a numpy installed there."""
    saved = np.__file__
    neural._blas.cache_clear()
    np.__file__ = str(root / "numpy" / "__init__.py")
    try:
        yield
    finally:
        np.__file__ = saved
        neural._blas.cache_clear()


def test_a_missing_openblas_is_a_runtime_error_naming_it(tmp_path):
    mlp = init_mlp([2, 3, 1], seed=0)
    with _numpy_libraries_in(tmp_path):
        with pytest.raises(RuntimeError, match=r"libscipy_openblas64_.*numpy>=2\.0"):
            forward(mlp, np.zeros(2))
        with pytest.raises(RuntimeError, match="libscipy_openblas64_"):
            Step(mlp.sizes, 1, training=True)
    assert forward(mlp, np.zeros(2)).shape == (1,)


def test_a_missing_openblas_symbol_is_a_runtime_error_naming_it(tmp_path):
    """A library that pins threads but has no cblas entries."""
    libs = tmp_path / "numpy.libs"
    libs.mkdir()
    (tmp_path / "fake.c").write_text("void scipy_openblas_set_num_threads64_(int n) { (void)n; }\n")
    subprocess.run(
        ["cc", "-shared", "-fPIC", "-o", str(libs / "libscipy_openblas64_-fake.so"),
         str(tmp_path / "fake.c")], check=True,
    )
    with _numpy_libraries_in(tmp_path):
        with pytest.raises(RuntimeError, match=r"libscipy_openblas64_-fake\.so has no symbol "
                                               r"scipy_cblas_dgemm64_"):
            neural._blas()


def test_the_cli_exits_2_naming_a_missing_openblas(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["gen-data", "--set", "T=60", "--set", "K=1", "--set", "scale=0.002",
                     "--set", 'tasks=["nd"]', "--out", str(data)]) == 0
    capsys.readouterr()
    with _numpy_libraries_in(tmp_path / "elsewhere"):
        rc = cli.main(["train", "--set", f"data={data}/nd_spatial_train.csv",
                       "--out", str(tmp_path / "model")])
    assert rc == 2
    assert "libscipy_openblas64_" in capsys.readouterr().err
