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
stacked over a dataset chunk's rows and their K instances as (R, K, n, d)
arrays of protocol.BatchStats.
"""

from __future__ import annotations

import numpy as np

from gossipwatch.topology import Graph

TEMPORAL = "temporal"
SPATIAL = "spatial"


def temporal_scores(first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Temporal scores xi of every row from the rows' stacked (R, K, n, d)
    endpoint states: an (R, n) array whose row r holds the value of each
    neighbor of row r's monitor, and the monitor's own, at the agent's id."""
    _, K, _, d = first.shape
    return (last - first).sum(axis=(1, 3)) / (K * d)


def spatial_scores(sums: np.ndarray, graph: Graph, agent: int) -> tuple[np.ndarray, np.ndarray]:
    """Spatial scores chi_ij of rows monitored by ``agent``, from their
    stacked (G, K, n, d) run time-sums: the (G, nn) neighbor values in
    ascending id order and the (G,) monitor's own values."""
    _, K, _, d = sums.shape
    nbrs = graph.neighbors[agent]
    # As in the per-row reference: numpy sums a member-major gather member by
    # member, but one instance's gather at d = 1 is one run, summed pairwise.
    members = sums[:, :, np.sort(np.append(nbrs, agent)), :]
    center = (np.ascontiguousarray(members) if K * d == 1 else members).mean(axis=2)
    dev = sums[:, :, nbrs, :] - center[:, :, None, :]  # (G, K, nn, d) phibar_ij
    self_dev = sums[:, :, agent, :] - center  # (G, K, d) phibar_ii
    return dev.sum(axis=(1, 3)) / (K * d), self_dev.sum(axis=(1, 2)) / (K * d)


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
