"""The compiled network step's building blocks against numpy, byte for byte.

A harness library includes ``_gossip_loop.c`` whole, is built with the
package's own compiler command, and exposes the static helpers of the SGD
step: the matrix product dispatch, the column and row sums, the bias and
ReLU pass and the ReLU gate.  Each is compared with the numpy expression the
reference training path in ``tests/oracles.py`` evaluates, on every 2-D
shape and operand layout the step and the forward pass meet."""

import ctypes
import subprocess
from pathlib import Path

import numpy as np
import pytest

from gossipwatch import neural, protocol

HARNESS = r"""
#include "{source}"

void h_matmul(void *gemm, void *gemv, void *dot, const double *A, int64_t am, int64_t an,
              const double *B, int64_t bn, int64_t bp, double *C, int64_t cm, int64_t cp,
              int64_t m, int64_t n, int64_t p)
{{
    net_t net = {{gemm, gemv, dot}};
    matmul(&net, A, am, an, B, bn, bp, C, cm, cp, m, n, p);
}}

void h_sum_columns(const double *a, int64_t rows, int64_t cols, double *out)
{{
    sum_columns(a, rows, cols, out);
}}

double h_sum_row(const double *a, int64_t n)
{{
    return sum_row(a, n);
}}

void h_add_bias(double *out, const double *b, int64_t rows, int64_t cols, int64_t relu)
{{
    add_bias(out, b, rows, cols, (int)relu);
}}

void h_relu_gate(double *back, const double *a, int64_t n)
{{
    relu_gate(back, a, n);
}}
"""

ROWS = [1, 2, 31, 32, 1800]
# (fan in, fan out) of each layer of the detector networks, output width 1
# (detection) and M (localization).
LAYERS = [(4, 200), (200, 100), (100, 50), (50, 1), (50, 4)]


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("harness")
    source = Path(protocol.__file__).with_name("_gossip_loop.c")
    (tmp / "harness.c").write_text(HARNESS.format(source=source))
    so = tmp / "harness.so"
    subprocess.run([*protocol._CC, "-o", str(so), str(tmp / "harness.c")], check=True)
    lib = ctypes.CDLL(str(so))
    p, i64 = ctypes.c_void_p, ctypes.c_int64
    lib.h_matmul.argtypes = [p, p, p, p, i64, i64, p, i64, i64, p, i64, i64, i64, i64, i64]
    lib.h_sum_columns.argtypes = [p, i64, i64, p]
    lib.h_sum_row.argtypes, lib.h_sum_row.restype = [p, i64], ctypes.c_double
    lib.h_add_bias.argtypes = [p, p, i64, i64, i64]
    lib.h_relu_gate.argtypes = [p, p, i64]
    return lib


def _c_matmul(lib, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """A @ B through the C dispatch, on the operands' own element strides."""
    (m, n), p = A.shape, B.shape[1]
    C = np.empty((m, p))
    lib.h_matmul(
        *neural._blas(), A.ctypes.data, *(s // 8 for s in A.strides),
        B.ctypes.data, *(s // 8 for s in B.strides),
        C.ctypes.data, *(s // 8 for s in C.strides), m, n, p,
    )
    return C


def _values(rng, shape) -> np.ndarray:
    """Normal values with exact zeros of both signs mixed in."""
    a = rng.normal(size=shape)
    a[rng.random(shape) < 0.1] = 0.0
    a[rng.random(shape) < 0.1] = -0.0
    return a


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("fan_in, fan_out", LAYERS)
def test_products_follow_numpy_matmul(harness, rows, fan_in, fan_out):
    """The forward product a @ W.T, the weight gradient delta.T @ a and the
    back-propagated delta @ W, with the transposed views numpy sees."""
    rng = np.random.default_rng([rows, fan_in, fan_out])
    a, W = _values(rng, (rows, fan_in)), _values(rng, (fan_out, fan_in))
    delta = _values(rng, (rows, fan_out))
    wide = _values(rng, (rows, fan_in + 3))[:, :fan_in]  # rows further apart than fan_in
    for A, B in [(a, W.T), (wide, W.T), (delta.T, a), (delta.T, wide), (delta, W)]:
        assert _c_matmul(harness, A, B).tobytes() == np.matmul(A, B).tobytes()


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("cols", [1, 4, 50, 200])
def test_sums_follow_numpy_reductions(harness, rows, cols):
    """add.reduce(axis=0) of the bias gradients, pairwise down a single
    column and row by row across several; the row sums of a mask and the
    batch loss sum, pairwise from +0.0; all-(-0.0) input included."""
    rng = np.random.default_rng([rows, cols])
    for a in (_values(rng, (rows, cols)), np.full((rows, cols), -0.0)):
        out = np.empty(cols)
        harness.h_sum_columns(a.ctypes.data, rows, cols, out.ctypes.data)
        assert out.tobytes() == np.add.reduce(a, axis=0).tobytes()
        valid = [harness.h_sum_row(row.ctypes.data, cols) for row in a]
        assert np.array(valid).tobytes() == np.add.reduce(a, axis=1).tobytes()
        total = harness.h_sum_row(a.ctypes.data, a.size)
        assert np.float64(total).tobytes() == np.add.reduce(a, axis=None).tobytes()


def _specials(rng, shape) -> np.ndarray:
    a = _values(rng, shape)
    flat = a.reshape(-1)
    picks = rng.integers(0, flat.size, size=(4, max(1, flat.size // 20)))
    for pick, value in zip(picks, (np.nan, -np.nan, np.inf, -np.inf)):
        flat[pick] = value
    return a


@pytest.mark.parametrize("rows, cols", [(1, 1), (7, 4), (32, 200), (31, 50)])
def test_bias_relu_and_gate_follow_numpy(harness, rows, cols):
    """z += b, then np.maximum(z, 0.0); and delta *= (a > 0): NaN, infinity
    and both zeros as numpy's loops give them."""
    rng = np.random.default_rng([rows, cols, 1])
    z, b = _specials(rng, (rows, cols)), _specials(rng, cols)
    for relu in (0, 1):
        got = z.copy()
        harness.h_add_bias(got.ctypes.data, b.ctypes.data, rows, cols, relu)
        with np.errstate(invalid="ignore"):
            expect = z + b
        if relu:
            np.maximum(expect, 0.0, out=expect)
        assert got.tobytes() == expect.tobytes()
    delta, a = _specials(rng, (rows, cols)), _specials(rng, (rows, cols))
    got = delta.copy()
    harness.h_relu_gate(got.ctypes.data, a.ctypes.data, delta.size)
    expect = delta.copy()
    with np.errstate(invalid="ignore"):
        expect *= a > 0
    assert got.tobytes() == expect.tobytes()
