"""Collaborative peer-to-peer detector training over a gossip network.

Each agent keeps a private model and a private data shard.  A round lets
every agent (in id order) merge any model received since its last turn,
take one mini-batch SGD step on its own shard, and push its parameters to a
uniformly chosen neighbor.  A message is a copy of the sender's whole
parameter vector, which the recipient merges into its own vector in place.
The learning rate, batch size and merge weight belong to the run, and the
run binds one compiled ``neural.Step`` that every learner's steps share.
Inboxes hold one message; a newer arrival overwrites an unread one.
Synchronous rounds stage all sends and deliver them after every agent has
acted, so the serial loop matches a barrier-synchronized parallel
execution; the asynchronous mode wakes one random agent per tick with
immediate delivery.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from gossipwatch.neural import Mlp, Step, sgd_step
from gossipwatch.topology import Graph


@dataclass
class LearnerState:
    """One agent's training state: model, local shard, inbox."""

    agent: int
    model: Mlp
    X: np.ndarray
    Y: np.ndarray
    mask: np.ndarray | None = None
    inbox: np.ndarray | None = None  # the last parameter vector received

    def __post_init__(self):
        if self.X.shape[0] != self.Y.shape[0]:
            raise ValueError("shard X and Y row counts differ")


class RoundMetrics(NamedTuple):
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


def _act(lr: LearnerState, graph: Graph, rng: np.random.Generator, step: Step, eta: float,
         batch_size: int, mu: float):
    """Merge inbox, take one local SGD step, pick a recipient.  Returns the
    (recipient, payload) message and the batch loss (nan on an empty shard)."""
    if lr.inbox is not None:
        merge_model(lr.model, lr.inbox, mu)
        lr.inbox = None
    rows, loss = lr.X.shape[0], float("nan")
    if rows:
        idx = rng.choice(rows, size=min(batch_size, rows), replace=False)
        mask = None if lr.mask is None else lr.mask[idx]
        loss = sgd_step(step, lr.model, lr.X[idx], lr.Y[idx], eta, mask)
    nbrs = graph.neighbors[lr.agent]
    recipient = int(nbrs[int(rng.random() * len(nbrs))])
    return recipient, lr.model.params.copy(), loss


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
    eta: float,
    batch_size: int,
    mu: float,
    mode: str = "sync",
) -> list[RoundMetrics]:
    """Run ``rounds`` of collaborative training in place, with telemetry.

    Every step takes a batch of up to ``batch_size`` rows of its learner's
    shard at learning rate ``eta``, and every merge weighs the message by
    ``mu``.  mode "sync" sweeps every agent per round; "async" wakes one
    uniformly random agent per round and delivers its message immediately.
    """
    if mode not in ("sync", "async"):
        raise ValueError(f"unknown mode: {mode!r}")
    if not (0.0 <= mu <= 1.0 and eta > 0 and batch_size >= 1):
        raise ValueError(f"need a merge weight mu in [0, 1], eta > 0 and batch_size >= 1, "
                         f"got mu={mu}, eta={eta}, batch_size={batch_size}")
    agents = [lr.agent for lr in learners]
    if agents != list(range(graph.n)):
        raise ValueError(f"need one learner per agent of the graph's {graph.n}, in agent id "
                         f"order, got learners of agents {agents}")
    # One step for the whole run, with buffers for its largest batch.
    cap = min(batch_size, max(lr.X.shape[0] for lr in learners))
    step = Step(learners[0].model.sizes, cap, training=True)
    metrics = []
    for r in range(rounds):
        if mode == "sync":
            acting = learners
        else:
            acting = [learners[int(rng.integers(len(learners)))]]
        # Sends are staged until every acting agent has acted.
        staged = [_act(lr, graph, rng, step, eta, batch_size, mu) for lr in acting]
        for recipient, payload, _ in staged:
            learners[recipient].inbox = payload
        arr = np.array([loss for _, _, loss in staged], dtype=np.float64)
        mean_loss = float(np.nanmean(arr)) if np.isfinite(arr).any() else float("nan")
        metrics.append(
            RoundMetrics(round=r, mean_loss=mean_loss, dispersion=_dispersion(learners))
        )
    return metrics
