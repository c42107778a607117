"""Feedforward binary detectors: ReLU hidden layers, sigmoid outputs,
mean binary cross-entropy loss, plain mini-batch SGD.

Implemented directly on numpy arrays.  A model owns one flat float64
parameter vector, laid out W then b for each layer; the per-layer weight
matrices and bias vectors are views into it, and backprop fills a gradient
vector of the same layout, so an SGD step and a gossip merge are each one
vector update.  The vector's little-endian bytes are both the saved blob
(beside a JSON header) and the gossip message payload.  Importing the module
runs numpy's bundled OpenBLAS on one thread, so trained bits do not depend
on the BLAS thread count.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

_CLIP = 1e-12  # probability clip for the loss value; keeps BCE finite


def _pin_blas() -> None:
    """One thread for numpy's bundled OpenBLAS: threads split a product's sums."""
    root = os.path.dirname(np.__file__)
    libs = glob.glob(root + ".libs/libscipy_openblas*")  # Linux and Windows wheels
    for path in libs + glob.glob(root + "/.dylibs/libscipy_openblas*"):  # macOS wheels
        set_threads = getattr(ctypes.CDLL(path), "scipy_openblas_set_num_threads64_", None)
        if set_threads is not None:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
            return
    warnings.warn("numpy's BLAS has no scipy_openblas_set_num_threads64_; left at its own "
                  "thread count, trained models may differ between thread counts", RuntimeWarning)


_pin_blas()


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


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _forward_cached(mlp: Mlp, X: np.ndarray) -> list[np.ndarray]:
    acts = [X]
    last = len(mlp.weights) - 1
    for h, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = acts[-1] @ W.T
        z += b
        acts.append(_sigmoid(z) if h == last else np.maximum(z, 0.0, out=z))
    return acts


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input (M,) or a batch (B, M)."""
    x = np.asarray(x, dtype=np.float64)
    out = _forward_cached(mlp, np.atleast_2d(x))[-1]
    return out[0] if x.ndim == 1 else out


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    pc = np.minimum(np.maximum(p, _CLIP), 1.0 - _CLIP)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


def loss_and_grad(
    mlp: Mlp, X: np.ndarray, Y: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, np.ndarray]:
    """Mean BCE over the batch and its exact gradient, laid out like ``mlp.params``.

    ``mask`` (same shape as Y) weights output slots; a row's loss is the
    mean over its unmasked slots, so padded localization slots drop out of
    both the loss and the gradient.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64).reshape(X.shape[0], -1)
    B, out = Y.shape
    if mask is None:
        w = 1.0 / out
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(Y.shape)
        valid = np.add.reduce(mask, axis=1, keepdims=True)
        if (valid == 0).any():
            raise ValueError("every row needs at least one unmasked output slot")
        w = mask / valid
    acts = _forward_cached(mlp, X)
    p = acts[-1]
    loss = float(np.add.reduce(w * _bce(p, Y), axis=None) / B)
    delta = w * (p - Y) / B
    grad = Mlp(mlp.sizes, np.empty_like(mlp.params))
    for h in range(len(mlp.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[h], out=grad.weights[h])
        np.add.reduce(delta, axis=0, out=grad.biases[h])
        if h > 0:
            delta = delta @ mlp.weights[h]
            delta *= acts[h] > 0
    return loss, grad.params


def sgd_step(mlp: Mlp, X, Y, eta: float, mask=None) -> float:
    """One gradient step on a mini batch, in place.  Returns the batch loss."""
    loss, grad = loss_and_grad(mlp, X, Y, mask)
    grad *= eta
    mlp.params -= grad
    return loss


def sgd_epoch(
    mlp: Mlp,
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> float:
    """One shuffled pass over the data, gathered once, updating ``mlp`` in place.

    Returns the per-sample mean loss of the epoch (batch losses weighted by
    batch size).
    """
    B = X.shape[0]
    perm = rng.permutation(B)
    X, Y = X[perm], Y[perm]
    mask = None if mask is None else mask[perm]
    total = 0.0
    for s in range(0, B, config.batch_size):
        rows = slice(s, min(B, s + config.batch_size))
        loss = sgd_step(mlp, X[rows], Y[rows], config.eta, None if mask is None else mask[rows])
        total += loss * (rows.stop - s)
    return total / B


def train(
    mlp: Mlp,
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> list[float]:
    """Run config.epochs epochs in place; returns the epoch loss history."""
    return [sgd_epoch(mlp, X, Y, config, rng, mask) for _ in range(config.epochs)]


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


def save_model(mlp: Mlp, path, meta: dict | None = None) -> None:
    """Write ``path`` (JSON header) and ``path``.bin (parameter blob)."""
    blob_name = os.path.basename(str(path)) + ".bin"
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


def load_model(path) -> tuple[Mlp, dict]:
    """Read a model written by save_model.

    A header that is not JSON or lacks a field, and a blob that is missing
    or does not fit the layer sizes, each raise a ValueError naming the file
    and the field.
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
        and all(isinstance(s, int) and s >= 1 for s in sizes)
    ):
        raise ValueError(f"{path}: field 'sizes': not a list of layer widths: {sizes!r}")
    blob_path = os.path.join(os.path.dirname(str(path)), str(header["blob"]))
    try:
        with open(blob_path, "rb") as fh:
            mlp = mlp_from_blob(sizes, fh.read())
    except FileNotFoundError:
        raise ValueError(f"{blob_path}: field 'blob' of {path}: file not found") from None
    except ValueError as err:
        raise ValueError(f"{blob_path}: field 'blob' of {path}: {err}") from None
    return mlp, header.get("meta", {})
