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

import numpy as np

from gossipwatch.topology import Graph

TEMPORAL = "temporal"
SPATIAL = "spatial"


def temporal_from_endpoints(
    first: np.ndarray, last: np.ndarray, graph: Graph, agent: int
) -> tuple[np.ndarray, float]:
    """Temporal scores xi_ij from stacked (K, n, d) endpoint states: the
    neighbor values in ascending id order and the monitor's own value."""
    K, _, d = first.shape
    per_agent = (last - first).sum(axis=(0, 2)) / (K * d)
    return per_agent[graph.neighbors[agent]], float(per_agent[agent])


def spatial_from_sums(sums: np.ndarray, graph: Graph, agent: int) -> tuple[np.ndarray, float]:
    """Spatial scores chi_ij from stacked (K, n, d) run time-sums: the
    neighbor values in ascending id order and the monitor's own value."""
    K, _, d = sums.shape
    members = np.sort(np.append(graph.neighbors[agent], agent))
    center = sums[:, members, :].mean(axis=1)  # (K, d) time-sum of xbar_i
    nbrs = graph.neighbors[agent]
    dev = sums[:, nbrs, :] - center[:, None, :]  # (K, nn, d) phibar_ij
    self_dev = sums[:, agent, :] - center  # (K, d) phibar_ii
    return dev.sum(axis=(0, 2)) / (K * d), float(self_dev.sum() / (K * d))


def tailor_inputs(nn: int, M: int) -> np.ndarray:
    """Slot layout of a detector with a fixed input width M over a monitor
    with nn neighbors: a (groups, M) index into [neighbor scores..., self
    value], so index nn marks a padded slot.

    A neighborhood of exactly M yields one group.  Smaller neighborhoods pad
    the tail with the monitor's self value.  Larger ones slide a width-M
    window by M, with the last window right-aligned so every neighbor lands
    in at least one group.
    """
    if M < 1:
        raise ValueError(f"input width M must be >= 1, got {M}")
    if nn <= M:
        return np.minimum(np.arange(M), nn)[None, :]
    starts = [*range(0, nn - M, M), nn - M]
    return np.array(starts)[:, None] + np.arange(M)
