"""Feedforward binary detectors: ReLU hidden layers, sigmoid outputs,
mean binary cross-entropy loss, plain mini-batch SGD.

Implemented directly on numpy arrays.  A model owns one flat float64
parameter vector, laid out W then b for each layer; the per-layer weight
matrices and bias vectors are views into it.  Merging models, as
collaborative training requires, is arithmetic on the vectors, and the
vector's little-endian bytes are both the saved blob (beside a JSON header)
and the gossip message payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

_CLIP = 1e-12  # probability clip for the loss value; keeps BCE finite


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
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_cached(mlp: Mlp, X: np.ndarray) -> list[np.ndarray]:
    acts = [X]
    a = X
    last = len(mlp.weights) - 1
    for h, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ W.T + b
        a = _sigmoid(z) if h == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts


def forward(mlp: Mlp, x: np.ndarray) -> np.ndarray:
    """Network output for one input (M,) or a batch (B, M)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    a = _forward_cached(mlp, x[None] if single else x)[-1]
    return a[0] if single else a


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    pc = np.clip(p, _CLIP, 1.0 - _CLIP)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


def loss_and_grad(
    mlp: Mlp, X: np.ndarray, Y: np.ndarray, mask: np.ndarray | None = None
) -> tuple[float, list[np.ndarray], list[np.ndarray]]:
    """Mean BCE over the batch and its exact parameter gradient.

    ``mask`` (same shape as Y) weights output slots; a row's loss is the
    mean over its unmasked slots, so padded localization slots drop out of
    both the loss and the gradient.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64).reshape(X.shape[0], -1)
    B, out = Y.shape
    if mask is None:
        w = np.full_like(Y, 1.0 / out)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(Y.shape)
        valid = mask.sum(axis=1, keepdims=True)
        if (valid == 0).any():
            raise ValueError("every row needs at least one unmasked output slot")
        w = mask / valid
    acts = _forward_cached(mlp, X)
    p = acts[-1]
    loss = float((w * _bce(p, Y)).sum() / B)
    delta = w * (p - Y) / B
    dWs = [np.empty(0)] * len(mlp.weights)
    dbs = [np.empty(0)] * len(mlp.biases)
    for h in range(len(mlp.weights) - 1, -1, -1):
        dWs[h] = delta.T @ acts[h]
        dbs[h] = delta.sum(axis=0)
        if h > 0:
            delta = (delta @ mlp.weights[h]) * (acts[h] > 0)
    return loss, dWs, dbs


def sgd_step(
    mlp: Mlp, X, Y, eta: float, mask=None
) -> float:
    """One gradient step on a mini batch, in place.  Returns the batch loss."""
    loss, dWs, dbs = loss_and_grad(mlp, X, Y, mask)
    for W, b, dW, db in zip(mlp.weights, mlp.biases, dWs, dbs):
        W -= eta * dW
        b -= eta * db
    return loss


def sgd_epoch(
    mlp: Mlp,
    X: np.ndarray,
    Y: np.ndarray,
    config: TrainConfig,
    rng: np.random.Generator,
    mask: np.ndarray | None = None,
) -> float:
    """One shuffled pass over the data, updating ``mlp`` in place.

    Returns the per-sample mean loss of the epoch (batch losses weighted by
    batch size).
    """
    B = X.shape[0]
    perm = rng.permutation(B)
    total = 0.0
    for s in range(0, B, config.batch_size):
        idx = perm[s : s + config.batch_size]
        loss = sgd_step(
            mlp, X[idx], Y[idx], config.eta, None if mask is None else mask[idx]
        )
        total += loss * idx.size
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
    return mlp.params.astype("<f8").tobytes()


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
