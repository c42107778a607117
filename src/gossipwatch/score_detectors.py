"""Score detectors built directly on the temporal and spatial scores.

Each detector reduces per-neighbor scores to a decision statistic; the ROC
sweep in evaluation thresholds it.  Orientation is explicit: greater-is-H1
statistics flag an attack when the score exceeds the threshold,
smaller-is-H1 when it falls below.
"""

from __future__ import annotations

import numpy as np

GREATER_IS_H1 = "greater-is-H1"
SMALLER_IS_H1 = "smaller-is-H1"


def td_detection_score(xi_values: np.ndarray) -> float:
    """Mean absolute deviation of neighbor displacements from their mean."""
    xi = np.asarray(xi_values, dtype=np.float64)
    if xi.size == 0:
        raise ValueError("need at least one neighbor score")
    return float(np.abs(xi - xi.mean()).mean())


# Row-level scoring over tailored feature vectors, for dataset evaluation.
# Slots carry xi (temporal rows) or chi (spatial rows); padded slots repeat
# the monitor's self value and are excluded where the statistic is a
# neighbor aggregate.


def td_row_detection(values: np.ndarray, padded: np.ndarray) -> float:
    return td_detection_score(np.asarray(values)[~np.asarray(padded, dtype=bool)])


def td_row_localization(values: np.ndarray) -> np.ndarray:
    return np.abs(np.asarray(values, dtype=np.float64))


def sd_row_detection(values: np.ndarray, padded: np.ndarray) -> float:
    v = np.asarray(values, dtype=np.float64)[~np.asarray(padded, dtype=bool)]
    if v.size == 0:
        raise ValueError("need at least one neighbor score")
    return float((v * v).mean())


def sd_row_localization(values: np.ndarray, self_value: float) -> np.ndarray:
    # chi_ij - 2 chi_ii equals the scalar of phi_ij = S_j - 2 S_i + center,
    # so localization needs only the row slots and the self score.
    v = np.asarray(values, dtype=np.float64) - 2.0 * self_value
    return v * v
