"""Collaborative peer-to-peer detector training over a gossip network.

Each agent keeps a private model and a private data shard.  A round lets
every agent (in id order) merge any model received since its last turn,
take one mini-batch SGD step on its own shard, and push its parameters to a
uniformly chosen neighbor.  A message is the sender's whole parameter vector
as little-endian float64 bytes (``neural.params_to_blob``, the same bytes a
saved model's blob holds); the recipient reads the bytes in place and merges
them into its own vector in place.  Inboxes hold one message; a newer
arrival overwrites an unread one.  Synchronous rounds stage all sends and
deliver them after every agent has acted, so the serial loop matches a
barrier-synchronized parallel execution; the asynchronous mode wakes one
random agent per tick with immediate delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from gossipwatch.neural import Mlp, TrainConfig, params_to_blob, sgd_step
from gossipwatch.topology import Graph


@dataclass
class LearnerState:
    """One agent's training state: model, local shard, merge weight, inbox."""

    agent: int
    model: Mlp
    X: np.ndarray
    Y: np.ndarray
    mask: np.ndarray | None = None
    mu: float = 0.5
    config: TrainConfig = field(default_factory=TrainConfig)
    inbox: bytes | None = None

    def __post_init__(self):
        if not 0.0 <= self.mu <= 1.0:
            raise ValueError(f"merge weight mu must be in [0, 1], got {self.mu}")
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("shard X and Y row counts differ")


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    mean_loss: float  # mean batch loss over agents that trained (nan if none)
    dispersion: float  # max over model pairs of the max-abs parameter gap


def merge_model(own: Mlp, received: np.ndarray, mu: float) -> None:
    """Convex parameter merge in place: own <- (1 - mu) own + mu received,
    where ``received`` is a parameter vector laid out like ``own.params``."""
    if received.shape != own.params.shape:
        raise ValueError(f"cannot merge {received.size} parameters into {own.params.size}")
    if not 0.0 <= mu <= 1.0:
        raise ValueError(f"merge weight mu must be in [0, 1], got {mu}")
    own.params *= 1.0 - mu
    own.params += mu * received


def _check_learners(learners, graph):
    if len(learners) != graph.n:
        raise ValueError(f"{len(learners)} learners for a graph of {graph.n} agents")
    for pos, lr in enumerate(learners):
        if lr.agent != pos:
            raise ValueError("learners must be listed in ascending agent id order")


def _act(lr: LearnerState, graph: Graph, rng: np.random.Generator):
    """Merge inbox, take one local SGD step, pick a recipient.  Returns the
    (recipient, payload) message and the batch loss (nan on an empty shard)."""
    if lr.inbox is not None:
        merge_model(lr.model, np.frombuffer(lr.inbox, dtype="<f8"), lr.mu)
        lr.inbox = None
    rows, loss = lr.X.shape[0], float("nan")
    if rows:
        idx = rng.choice(rows, size=min(lr.config.batch_size, rows), replace=False)
        mask = None if lr.mask is None else lr.mask[idx]
        loss = sgd_step(lr.model, lr.X[idx], lr.Y[idx], lr.config.eta, mask)
    nbrs = graph.neighbors[lr.agent]
    recipient = int(nbrs[int(rng.random() * len(nbrs))])
    return recipient, params_to_blob(lr.model), loss


def _dispersion(learners) -> float:
    """Largest per-parameter spread over the learners' models, from a running
    maximum and minimum of one parameter vector each."""
    hi = learners[0].model.params.copy()
    lo = hi.copy()
    for lr in learners[1:]:
        np.maximum(hi, lr.model.params, out=hi)
        np.minimum(lo, lr.model.params, out=lo)
    return float(np.subtract(hi, lo, out=hi).max())


def run_gossip_training(
    learners: list[LearnerState],
    graph: Graph,
    rounds: int,
    rng: np.random.Generator,
    mode: str = "sync",
) -> list[RoundMetrics]:
    """Run ``rounds`` of collaborative training in place, with telemetry.

    mode "sync" sweeps every agent per round; "async" wakes one uniformly
    random agent per round and delivers its message immediately.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown mode: {mode!r}")
    _check_learners(learners, graph)
    metrics = []
    for r in range(rounds):
        if mode == "sync":
            acting = learners
        else:
            acting = [learners[int(rng.integers(len(learners)))]]
        # Sends are staged until every acting agent has acted.
        staged = [_act(lr, graph, rng) for lr in acting]
        for recipient, payload, _ in staged:
            learners[recipient].inbox = payload
        arr = np.array([loss for _, _, loss in staged], dtype=np.float64)
        mean_loss = float(np.nanmean(arr)) if np.isfinite(arr).any() else float("nan")
        metrics.append(
            RoundMetrics(round=r, mean_loss=mean_loss, dispersion=_dispersion(learners))
        )
    return metrics


def metrics_to_csv(metrics: list[RoundMetrics], path) -> None:
    with open(path, "w") as fh:
        fh.write("round,mean_loss,dispersion\n")
        for m in metrics:
            fh.write(f"{m.round},{repr(m.mean_loss)},{repr(m.dispersion)}\n")
