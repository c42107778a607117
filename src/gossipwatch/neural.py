"""Feedforward binary detectors: ReLU hidden layers, sigmoid outputs,
mean binary cross-entropy loss, plain mini-batch SGD.

A model owns one flat float64 parameter vector, laid out W then b for each
layer; the per-layer weight matrices and bias vectors are views into it.
The vector's little-endian bytes are the saved blob (beside a JSON header).

The forward pass and the SGD step are compiled: net_forward, net_output and
net_backward of the C library that protocol builds (_gossip_loop.c) run the
layers, the loss, the backward pass and the update in place.  They call
numpy's bundled OpenBLAS (``libscipy_openblas64_``, in numpy 2.0 and later
wheels) for every matrix product exactly as numpy's matmul would, and only
exp and the two logs of the loss run in numpy, on the step's own buffers,
so the bits are those of the numpy reference in ``tests/oracles.py``.  The
step reads C-contiguous float64 rows, copied so where need be.  A ``Step``
binds a step's buffers and raw pointers: once per ``train`` or ``forward``
call, and once per gossip run, whose ``sgd_step`` calls take that step.
The OpenBLAS runs on one thread, set when the package is imported, so
trained bits do not depend on the BLAS thread count.  Where numpy has no
bundled OpenBLAS, the first fit or forward pass raises a RuntimeError that
names the missing library or symbol.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import json
import os
from dataclasses import dataclass, field

import numpy as np

from gossipwatch.protocol import _compiled_loop


@functools.cache
def _blas() -> tuple[int, int, int]:
    """The addresses of numpy's bundled OpenBLAS dgemm, dgemv and ddot, with
    the library set to one thread: threads split a product's sums.  A
    RuntimeError names the library or the symbol where one is missing."""
    root = os.path.dirname(np.__file__)
    libs = glob.glob(root + ".libs/libscipy_openblas*")  # Linux and Windows wheels
    libs += glob.glob(root + "/.dylibs/libscipy_openblas*")  # macOS wheels
    if not libs:
        raise RuntimeError(
            f"numpy's bundled OpenBLAS (libscipy_openblas64_) is not in {root}.libs or "
            f"{root}/.dylibs; gossipwatch needs a numpy>=2.0 wheel that bundles "
            "scipy-openblas (the Linux, Windows and x86-64 macOS wheels)"
        )
    lib = ctypes.CDLL(libs[0])
    addresses = []
    for name in (
        "scipy_openblas_set_num_threads64_",
        "scipy_cblas_dgemm64_", "scipy_cblas_dgemv64_", "scipy_cblas_ddot64_",
    ):
        try:
            addresses.append(ctypes.cast(getattr(lib, name), ctypes.c_void_p).value)
        except AttributeError:
            raise RuntimeError(f"numpy's OpenBLAS {libs[0]} has no symbol {name}") from None
    ctypes.CFUNCTYPE(None, ctypes.c_int)(addresses[0])(1)
    return tuple(addresses[1:])


try:
    _blas()
except RuntimeError:
    pass  # raised again by the first fit or forward pass, which need the library


@dataclass
class Mlp:
    sizes: tuple[int, ...]
    params: np.ndarray  # float64, W then b for each layer
    weights: list[np.ndarray] = field(init=False)  # views (sizes[h+1], sizes[h])
    biases: list[np.ndarray] = field(init=False)  # views (sizes[h+1],)

    def __post_init__(self):
        self.weights, self.biases, at = [], [], 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            self.weights.append(self.params[at : at + fan_out * fan_in].reshape(fan_out, fan_in))
            at += fan_out * fan_in
            self.biases.append(self.params[at : at + fan_out])
            at += fan_out

    def __reduce__(self):
        """Pickled as its sizes and parameters, so that the weight and bias
        views are views of the loaded parameters again."""
        return Mlp, (self.sizes, self.params)

    def n_params(self) -> int:
        return self.params.size


def _n_params(sizes) -> int:
    return sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.01
    batch_size: int = 32
    epochs: int = 30

    def __post_init__(self):
        if self.eta <= 0 or self.batch_size < 1 or self.epochs < 0:
            raise ValueError("need eta > 0, batch_size >= 1, epochs >= 0")


def init_mlp(sizes, seed) -> Mlp:
    """Glorot-uniform weights, zero biases.  ``seed`` may be an int or a
    numpy Generator."""
    sizes = tuple(int(s) for s in sizes)
    if len(sizes) < 2 or any(s < 1 for s in sizes):
        raise ValueError(f"need at least two positive layer sizes, got {sizes}")
    rng = np.random.default_rng(seed)
    mlp = Mlp(sizes, np.zeros(_n_params(sizes)))
    for W in mlp.weights:
        fan_out, fan_in = W.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        W[...] = rng.uniform(-limit, limit, size=(fan_out, fan_in))
    return mlp


class _Net(ctypes.Structure):
    """net_t of _gossip_loop.c: numpy's BLAS entries, the layer widths and
    the work buffers of a step."""

    _fields_ = (
        [(name, ctypes.c_void_p) for name in ("gemm", "gemv", "dot")]
        + [("layers", ctypes.c_int64)]
        + [(name, ctypes.c_void_p) for name in (
            "sizes", "grad", "acts", "z", "e", "p", "lp", "lq", "w", "delta", "back"
        )]
        + [("loss", ctypes.c_double)]
    )


class Step:
    """The compiled forward pass and, with ``training``, SGD step for
    networks of layer ``sizes``, on up to ``cap`` C-contiguous float64 rows.
    The work buffers and their raw pointers are bound once, so a step is
    three ctypes calls and the numpy calls exp, log and log; the parameters
    are those of the network at hand, passed by address."""

    def __init__(self, sizes: tuple[int, ...], cap: int, training: bool):
        lib = _compiled_loop()
        self.c_forward, self.c_output, self.c_backward = (
            lib.net_forward, lib.net_output, lib.net_backward
        )
        self.sizes, self.cap, self.out, self.training = tuple(sizes), cap, sizes[-1], training
        self.widths = np.array(sizes, dtype=np.int64)
        n, t = cap * self.out, int(training)
        widest = cap * max(sizes[1:])
        lengths = {
            "grad": _n_params(sizes) * t, "acts": cap * sum(sizes[1:-1]),
            "z": n, "e": n, "p": n, "lp": n * t, "lq": n * t, "w": n * t,
            "delta": widest * t, "back": widest * t,
        }
        self.buf = {name: np.empty(length) for name, length in lengths.items()}
        self.net = _Net(
            *_blas(), len(sizes) - 1, self.widths.ctypes.data,
            *(b.ctypes.data for b in self.buf.values()),
        )
        self.ref = ctypes.addressof(self.net)

    def forward(self, params: int, X: np.ndarray) -> np.ndarray:
        """Output probabilities (rows, out) of X, whose rows are C-contiguous
        float64; a view of this step's buffer."""
        rows = X.shape[0]
        e = self.buf["e"][: rows * self.out]
        self.c_forward(self.ref, params, X.ctypes.data, rows)
        np.exp(e, out=e)
        self.c_output(self.ref, rows, 0)
        return self.buf["p"][: rows * self.out].reshape(rows, self.out)

    def sgd(self, params: int, x: int, y: int, mask: int | None, rows: int,
            eta: float) -> float:
        """One step in place on the parameters at address params, on the
        C-contiguous float64 rows at address x, with labels and mask weights
        (or None) at addresses y and mask, rows x out each.  Returns the
        batch loss before the update."""
        n = rows * self.out
        e, lp, lq = (self.buf[k][:n] for k in ("e", "lp", "lq"))
        self.c_forward(self.ref, params, x, rows)
        np.exp(e, out=e)
        self.c_output(self.ref, rows, 1)
        np.log(lp, out=lp)
        np.log(lq, out=lq)
        if self.c_backward(self.ref, params, x, y, mask, rows, eta):
            raise ValueError("every row needs at least one unmasked output slot")
        return self.net.loss


def _params(mlp: Mlp) -> int:
    """The address of mlp's parameters, which a step updates in place."""
    params = mlp.params
    if params.dtype != np.float64 or not (params.flags.c_contiguous and params.flags.writeable):
        raise ValueError("network parameters must be a writeable contiguous float64 vector")
    return params.ctypes.data


def _inputs(mlp: Mlp, x) -> np.ndarray:
    """x as an aligned, C-contiguous float64 (rows, M) array, the one input
    layout the compiled step reads; other layouts are copied."""
    X = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if X.ndim != 2 or X.shape[1] != mlp.sizes[0]:
        raise ValueError(f"inputs of shape {X.shape} for a network of {mlp.sizes[0]} inputs")
    return np.require(X, requirements=["C", "A"])


def _targets(mlp: Mlp, rows: int, Y, mask):
    """Y and mask (or None) as contiguous float64 (rows, out) arrays."""
    shape = (rows, mlp.sizes[-1])
    Y = np.ascontiguousarray(Y, dtype=np.float64).reshape(shape)
    return Y, None if mask is None else np.ascontiguousarray(mask, dtype=np.float64).reshape(shape)


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input (M,) or a batch (B, M)."""
    X = _inputs(mlp, x)
    params = np.ascontiguousarray(mlp.params, dtype=np.float64)
    out = Step(mlp.sizes, X.shape[0], training=False).forward(params.ctypes.data, X)
    return out[0] if np.ndim(x) == 1 else out


def sgd_step(step: Step, mlp: Mlp, X, Y, eta: float, mask=None) -> float:
    """One gradient step on a mini batch, in place, with ``mask`` as in
    ``train``, through the training ``step`` bound for mlp's layer sizes.
    Returns the batch loss before the step.  A batch of more than the
    step's ``cap`` rows, which would overrun its buffers, is a ValueError."""
    X = _inputs(mlp, X)
    rows = X.shape[0]
    if not (step.training and step.sizes == tuple(mlp.sizes) and rows <= step.cap):
        raise ValueError(f"a batch of {rows} rows for layer sizes {list(mlp.sizes)} needs a "
                         f"training step of those sizes and a cap of {rows} or more, got sizes "
                         f"{list(step.sizes)}, cap {step.cap}, training {step.training}")
    Y, mask = _targets(mlp, rows, Y, mask)
    m = None if mask is None else mask.ctypes.data
    return step.sgd(_params(mlp), X.ctypes.data, Y.ctypes.data, m, rows, eta)


def train(
    mlp: Mlp,
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> list[float]:
    """Run config.epochs shuffled epochs in place; returns the epoch loss
    history, each the per-sample mean of its batch losses.

    An epoch gathers the rows in a fresh ``rng.permutation`` order once,
    then steps through consecutive batches of config.batch_size rows.
    ``mask`` (same shape as Y) weights output slots: a row's loss is the
    mean over its unmasked slots, so padded localization slots drop out of
    both the loss and the gradient.
    """
    X = _inputs(mlp, X)
    B, M, out, size = X.shape[0], mlp.sizes[0], mlp.sizes[-1], config.batch_size
    Y, mask = _targets(mlp, B, Y, mask)
    step, params = Step(mlp.sizes, min(size, B), training=True), _params(mlp)
    losses = []
    for _ in range(config.epochs):
        perm = rng.permutation(B)
        Xp, Yp = X[perm], Y[perm]
        x, y = Xp.ctypes.data, Yp.ctypes.data
        mp = None if mask is None else mask[perm]
        m = None if mp is None else mp.ctypes.data
        total = 0.0
        for s in range(0, B, size):
            rows = min(B, s + size) - s
            loss = step.sgd(
                params, x + 8 * s * M, y + 8 * s * out,
                None if m is None else m + 8 * s * out, rows, config.eta,
            )
            total += loss * rows
        losses.append(total / B)
    return losses


def params_to_blob(mlp: Mlp) -> bytes:
    """Flat little-endian float64 parameters: W then b per layer, in order."""
    return mlp.params.astype("<f8", copy=False).tobytes()


def mlp_from_blob(sizes, blob: bytes) -> Mlp:
    sizes = tuple(int(s) for s in sizes)
    expect = _n_params(sizes)
    if len(blob) != 8 * expect:
        raise ValueError(
            f"blob holds {len(blob)} bytes, layer sizes {list(sizes)} need {8 * expect}"
        )
    return Mlp(sizes, np.frombuffer(blob, dtype="<f8").astype(np.float64))


def save_model(mlp: Mlp, path, meta: dict | None = None) -> list[str]:
    """Write ``path`` (JSON header) and ``path``.bin (parameter blob);
    returns the names of the two files, the header's first."""
    name = os.path.basename(str(path))
    blob_name = name + ".bin"
    header = {
        "sizes": list(mlp.sizes),
        "hidden_activation": "relu",
        "output_activation": "sigmoid",
        "params": mlp.n_params(),
        "blob": blob_name,
        "meta": meta or {},
    }
    with open(path, "w") as fh:
        json.dump(header, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    with open(str(path) + ".bin", "wb") as fh:
        fh.write(params_to_blob(mlp))
    return [name, blob_name]


def load_model(path) -> tuple[Mlp, dict]:
    """Read a model written by save_model.

    A header that is not JSON, lacks a field, names an activation other
    than relu (hidden) and sigmoid (output) or a parameter count other than
    its layer sizes' or a meta that is not an object, and a blob that is
    missing, does not fit the layer sizes or holds a weight that is not
    finite, each raise a ValueError naming the file and the field.
    """
    with open(path) as fh:
        try:
            header = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(
                f"{path}:{err.lineno}: column {err.colno}: not a JSON model header: {err.msg}"
            ) from None
    for name in ("sizes", "blob"):
        if not isinstance(header, dict) or name not in header:
            raise ValueError(f"{path}: field {name!r}: missing from the model header")
    sizes = header["sizes"]
    if not (
        isinstance(sizes, list) and len(sizes) >= 2
        and all(type(s) is int and s >= 1 for s in sizes)
    ):
        raise ValueError(f"{path}: field 'sizes': not a list of layer widths: {sizes!r}")
    need = {"hidden_activation": "relu", "output_activation": "sigmoid", "params": _n_params(sizes)}
    for name, value in need.items():
        if name not in header:
            raise ValueError(f"{path}: field {name!r}: missing from the model header")
        if type(header[name]) is not type(value) or header[name] != value:
            raise ValueError(f"{path}: field {name!r}: must be {value!r}, got {header[name]!r}")
    blob_path = os.path.join(os.path.dirname(str(path)), str(header["blob"]))
    try:
        with open(blob_path, "rb") as fh:
            mlp = mlp_from_blob(sizes, fh.read())
        bad = np.flatnonzero(~np.isfinite(mlp.params))
        if bad.size:
            raise ValueError(f"parameter {bad[0]} is not finite: {float(mlp.params[bad[0]])!r}")
    except FileNotFoundError:
        raise ValueError(f"{blob_path}: field 'blob' of {path}: file not found") from None
    except ValueError as err:
        raise ValueError(f"{blob_path}: field 'blob' of {path}: {err}") from None
    meta = header.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: field 'meta': not an object: {meta!r}")
    return mlp, meta
