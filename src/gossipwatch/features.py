"""Detection statistics extracted from protocol runs.

Two families, both averaged over K repeated instances of the same scenario:

temporal: xi_ij = (1/Kd) sum_k 1.(x_j^k(T) - x_j^k(0)), the net displacement
of neighbor j over a run.  Trustworthy agents drift from their initials to
the consensus point; an attacker barely moves.

spatial: per-instance accumulated deviations from the closed-neighborhood
average, phibar_ij^k = sum_t (x_j^k(t) - xbar_i^k(t)), and their
self-referenced variant phi_ij^k = sum_t (x_j^k(t) - x_i^k(t)) - phibar_ii^k.
The scalar inputs chi_ij = (1/Kd) sum_k 1.phibar_ij^k feed the neural
detectors.

Every statistic here is a linear function of per-agent run sufficient
statistics, the states at t = 0 and t = T and the time sum over t = 0..T,
stacked over the K instances as (K, n, d) arrays of protocol.BatchStats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gossipwatch.topology import Graph

TEMPORAL = "temporal"
SPATIAL = "spatial"


@dataclass(frozen=True)
class NeighborScores:
    """Per-neighbor scalar statistics of one monitoring agent, aligned with
    the ascending neighbor id order, plus the agent's own (self) value."""

    agent: int
    neighbor_ids: tuple[int, ...]
    values: np.ndarray
    self_value: float
    kind: str
    K: int
    d: int


@dataclass(frozen=True)
class FeatureVector:
    """One fixed-width detector input of M slots.

    slot_ids maps each slot to its source agent; padded marks slots filled
    with the monitor's self value when the neighborhood is smaller than M.
    Padded slots sit after the real ones; real slots keep ascending id order.
    """

    agent: int
    slot_ids: tuple[int, ...]
    values: np.ndarray
    padded: np.ndarray
    kind: str
    K: int
    d: int
    self_value: float

    @property
    def M(self) -> int:
        return self.values.shape[0]


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


def _closed_neighborhood(graph: Graph, agent: int) -> np.ndarray:
    return np.sort(np.append(graph.neighbors[agent], agent))


def temporal_from_endpoints(
    first: np.ndarray, last: np.ndarray, graph: Graph, agent: int
) -> NeighborScores:
    """Temporal scores from stacked (K, n, d) endpoint states."""
    K, _, d = first.shape
    per_agent = (last - first).sum(axis=(0, 2)) / (K * d)
    nbrs = graph.neighbors[agent]
    return NeighborScores(
        agent=agent,
        neighbor_ids=tuple(int(v) for v in nbrs),
        values=per_agent[nbrs].copy(),
        self_value=float(per_agent[agent]),
        kind=TEMPORAL,
        K=K,
        d=d,
    )


def spatial_from_sums(sums: np.ndarray, graph: Graph, agent: int) -> NeighborScores:
    """Spatial scores chi_ij from stacked (K, n, d) run time-sums."""
    K, _, d = sums.shape
    members = _closed_neighborhood(graph, agent)
    center = sums[:, members, :].mean(axis=1)  # (K, d) time-sum of xbar_i
    nbrs = graph.neighbors[agent]
    dev = sums[:, nbrs, :] - center[:, None, :]  # (K, nn, d) phibar_ij
    values = dev.sum(axis=(0, 2)) / (K * d)
    self_dev = sums[:, agent, :] - center  # (K, d) phibar_ii
    return NeighborScores(
        agent=agent,
        neighbor_ids=tuple(int(v) for v in nbrs),
        values=values,
        self_value=float(self_dev.sum() / (K * d)),
        kind=SPATIAL,
        K=K,
        d=d,
    )


def sd_aggregates(sums: np.ndarray, graph: Graph, agent: int) -> SdScoreFeatures:
    """Per-instance spatial deviation vectors for detection and localization,
    from stacked (K, n, d) run time-sums."""
    K, _, d = sums.shape
    members = _closed_neighborhood(graph, agent)
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


def tailor_inputs(scores: NeighborScores, M: int) -> list[FeatureVector]:
    """Fit per-neighbor scores to detectors with a fixed input width M.

    A neighborhood of exactly M yields one group.  Smaller neighborhoods pad
    the tail with the monitor's self value (flagged in ``padded``).  Larger
    ones slide a width-M window by M, with the last window right-aligned so
    every neighbor lands in at least one group.
    """
    if M < 1:
        raise ValueError(f"input width M must be >= 1, got {M}")
    nn = len(scores.neighbor_ids)
    ids = np.asarray(scores.neighbor_ids, dtype=np.int64)
    groups = []
    if nn <= M:
        pad = M - nn
        values = np.concatenate([scores.values, np.full(pad, scores.self_value)])
        slot_ids = tuple(int(v) for v in ids) + (scores.agent,) * pad
        padded = np.zeros(M, dtype=bool)
        padded[nn:] = True
        groups.append((slot_ids, values, padded))
    else:
        n_groups = -(-nn // M)
        starts = [g * M for g in range(n_groups - 1)] + [nn - M]
        for s in starts:
            values = scores.values[s : s + M].copy()
            slot_ids = tuple(int(v) for v in ids[s : s + M])
            groups.append((slot_ids, values, np.zeros(M, dtype=bool)))
    return [
        FeatureVector(
            agent=scores.agent,
            slot_ids=slot_ids,
            values=values,
            padded=padded,
            kind=scores.kind,
            K=scores.K,
            d=scores.d,
            self_value=scores.self_value,
        )
        for slot_ids, values, padded in groups
    ]
