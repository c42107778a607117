"""Feedforward binary detectors: ReLU hidden layers, sigmoid outputs,
mean binary cross-entropy loss, plain mini-batch SGD.

Implemented directly on numpy arrays.  A model is a value object (lists of
weight matrices and bias vectors) so copies are cheap and merging models,
as collaborative training requires, is elementwise arithmetic.  Parameters
serialize to a JSON header plus a flat little-endian float64 blob; the blob
doubles as the gossip message payload.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

_CLIP = 1e-12  # probability clip for the loss value; keeps BCE finite


@dataclass
class Mlp:
    sizes: tuple[int, ...]
    weights: list[np.ndarray]  # weights[h]: (sizes[h+1], sizes[h])
    biases: list[np.ndarray]  # biases[h]: (sizes[h+1],)

    def copy(self) -> "Mlp":
        return Mlp(
            sizes=self.sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def n_params(self) -> int:
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))


@dataclass(frozen=True)
class TrainConfig:
    eta: float = 0.01
    batch_size: int = 32
    epochs: int = 30
    seed: int | None = None

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
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Mlp(sizes=sizes, weights=weights, biases=biases)


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
    rng: np.random.Generator | None = None,
    mask: np.ndarray | None = None,
) -> list[float]:
    """Run config.epochs epochs in place; returns the epoch loss history."""
    if rng is None:
        rng = np.random.default_rng(config.seed)
    return [sgd_epoch(mlp, X, Y, config, rng, mask) for _ in range(config.epochs)]


def params_to_blob(mlp: Mlp) -> bytes:
    """Flat little-endian float64 parameters: W then b per layer, in order."""
    parts = []
    for W, b in zip(mlp.weights, mlp.biases):
        parts.append(W.astype("<f8").tobytes())
        parts.append(b.astype("<f8").tobytes())
    return b"".join(parts)


def mlp_from_blob(sizes, blob: bytes) -> Mlp:
    sizes = tuple(int(s) for s in sizes)
    flat = np.frombuffer(blob, dtype="<f8")
    expect = sum(o * i + o for i, o in zip(sizes[:-1], sizes[1:]))
    if flat.size != expect:
        raise ValueError(f"blob holds {flat.size} params, layer sizes need {expect}")
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(flat[at : at + fan_out * fan_in].reshape(fan_out, fan_in).copy())
        at += fan_out * fan_in
        biases.append(flat[at : at + fan_out].copy())
        at += fan_out
    return Mlp(sizes=sizes, weights=weights, biases=biases)


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
    with open(path) as fh:
        header = json.load(fh)
    blob_path = os.path.join(os.path.dirname(str(path)), header["blob"])
    with open(blob_path, "rb") as fh:
        mlp = mlp_from_blob(header["sizes"], fh.read())
    return mlp, header.get("meta", {})
