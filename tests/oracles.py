"""Reference implementations that only the tests use.

Per-instance spatial aggregates and the score statistics over them, the
pair-averaging matrix of one gossip step, the rates of a thresholded
detector, and the per-layer training path (one gradient array per layer
and per bias, one row gather per SGD step, a gossip merge through a decoded
model).  The package computes the same quantities by other routes (row
statistics over tailored slots, the expected transition matrix, the exact
ROC sweep, one flat gradient and in-place merges); the tests check one
against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gossipwatch.evaluation import _validate_scores_labels
from gossipwatch.neural import Mlp, mlp_from_blob, params_to_blob
from gossipwatch.score_detectors import GREATER_IS_H1, SMALLER_IS_H1
from gossipwatch.topology import Graph


@dataclass(frozen=True)
class SdScoreFeatures:
    """Spatial aggregates of one monitoring agent over K instances.

    detection[k, a] = phibar_ij^k and localization[k, a] = phi_ij^k for the
    a-th neighbor (ascending ids); self_detection[k] = phibar_ii^k.
    """

    agent: int
    neighbor_ids: tuple[int, ...]
    detection: np.ndarray  # (K, nn, d)
    localization: np.ndarray  # (K, nn, d)
    self_detection: np.ndarray  # (K, d)
    K: int
    d: int


def sd_aggregates(sums: np.ndarray, graph: Graph, agent: int) -> SdScoreFeatures:
    """Per-instance spatial deviation vectors for detection and localization,
    from stacked (K, n, d) run time-sums."""
    K, _, d = sums.shape
    members = np.sort(np.append(graph.neighbors[agent], agent))
    center = sums[:, members, :].mean(axis=1)
    nbrs = graph.neighbors[agent]
    detection = sums[:, nbrs, :] - center[:, None, :]
    self_detection = sums[:, agent, :] - center
    # phi_ij = sum_t(x_j - x_i) - phibar_ii = S_j - 2 S_i + center
    localization = sums[:, nbrs, :] - 2.0 * sums[:, agent, None, :] + center[:, None, :]
    return SdScoreFeatures(
        agent=agent,
        neighbor_ids=tuple(int(v) for v in nbrs),
        detection=detection,
        localization=localization,
        self_detection=self_detection,
        K=K,
        d=d,
    )


def sd_detection_score(sd: SdScoreFeatures) -> float:
    """Mean of squared per-neighbor scalar spatial deviations."""
    scal = sd.detection.sum(axis=(0, 2)) / (sd.K * sd.d)
    return float((scal * scal).mean())


def sd_localization_scores(sd: SdScoreFeatures, include_self: bool = False) -> np.ndarray:
    """Squared scalar self-referenced deviations per neighbor.

    With include_self a final entry for j = i is appended, using
    phi_ii = -phibar_ii.
    """
    scal = sd.localization.sum(axis=(0, 2)) / (sd.K * sd.d)
    z = scal * scal
    if include_self:
        s = -sd.self_detection.sum() / (sd.K * sd.d)
        z = np.append(z, s * s)
    return z


def pair_averaging_matrix(n: int, i: int, j: int) -> np.ndarray:
    """One-step state-averaging matrix of the pair (i, j): rows i and j both
    become (e_i + e_j)/2, all other rows stay identity."""
    A = np.eye(n)
    A[i, i] = A[j, j] = 0.5
    A[i, j] = A[j, i] = 0.5
    return A


def rates_at_threshold(
    scores, labels, threshold: float, orientation: str = GREATER_IS_H1
) -> tuple[float, float]:
    """(detection rate, false-alarm rate) of the thresholded detector."""
    scores, labels, n_pos, n_neg = _validate_scores_labels(scores, labels)
    if orientation == GREATER_IS_H1:
        flagged = scores > threshold
    elif orientation == SMALLER_IS_H1:
        flagged = scores < threshold
    else:
        raise ValueError(f"unknown orientation: {orientation!r}")
    p_d = float(flagged[labels == 1].sum() / n_pos)
    p_f = float(flagged[labels == 0].sum() / n_neg)
    return p_d, p_f


# --- per-layer training path ------------------------------------------------


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


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


def loss_and_grad(mlp: Mlp, X, Y, mask=None):
    """Mean BCE over the batch and its gradient as per-layer lists
    (dWs, dbs)."""
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


def sgd_step(mlp: Mlp, X, Y, eta: float, mask=None) -> float:
    """One gradient step, updating each layer's weights and biases apart."""
    loss, dWs, dbs = loss_and_grad(mlp, X, Y, mask)
    for W, b, dW, db in zip(mlp.weights, mlp.biases, dWs, dbs):
        W -= eta * dW
        b -= eta * db
    return loss


def train(mlp: Mlp, X, Y, config, rng, mask=None) -> list[float]:
    """config.epochs shuffled epochs that gather each batch's rows apart."""
    losses = []
    for _ in range(config.epochs):
        B = X.shape[0]
        perm = rng.permutation(B)
        total = 0.0
        for s in range(0, B, config.batch_size):
            idx = perm[s : s + config.batch_size]
            loss = sgd_step(
                mlp, X[idx], Y[idx], config.eta, None if mask is None else mask[idx]
            )
            total += loss * idx.size
        losses.append(total / B)
    return losses


def gossip_act(lr, graph: Graph, rng: np.random.Generator):
    """One learner's turn of gossip training: decode the inbox into a model,
    merge it into a new parameter vector, then step and pick a recipient."""
    if lr.inbox is not None:
        received = mlp_from_blob(lr.model.sizes, lr.inbox)
        lr.model = Mlp(lr.model.sizes, (1.0 - lr.mu) * lr.model.params + lr.mu * received.params)
        lr.inbox = None
    rows = lr.X.shape[0]
    if rows:
        take = min(lr.config.batch_size, rows)
        idx = rng.choice(rows, size=take, replace=False)
        loss = sgd_step(
            lr.model, lr.X[idx], lr.Y[idx], lr.config.eta,
            None if lr.mask is None else lr.mask[idx],
        )
    else:
        loss = float("nan")
    nbrs = graph.neighbors[lr.agent]
    recipient = int(nbrs[int(rng.random() * len(nbrs))])
    return recipient, params_to_blob(lr.model), loss
