"""Reference implementations that only the tests use.

Per-instance spatial aggregates and the score statistics over them, the
pair-averaging matrix of one gossip step, and the rates of a thresholded
detector.  The package computes the same quantities by other routes (row
statistics over tailored slots, the expected transition matrix, the exact
ROC sweep); the tests check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gossipwatch.evaluation import _validate_scores_labels
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
