"""Score detectors and ROC analysis of detectors over labeled datasets.

The score detectors reduce each row's slots (xi on temporal rows, chi on
spatial rows) to a decision statistic over a whole dataset at once.  Curves
are exact threshold sweeps: one operating point per distinct score (ties
grouped), prefixed with the flag-nothing point, so the trapezoid area
equals the Mann-Whitney statistic with ties counted one half.  Detector
orientation is explicit: greater-is-H1 statistics flag an attack when the
score exceeds the threshold, smaller-is-H1 when it falls below; both share
one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gossipwatch.datagen import EVENT_H0, LabeledDataset, write_csv
from gossipwatch.neural import Mlp, forward

GREATER_IS_H1 = "greater-is-H1"
SMALLER_IS_H1 = "smaller-is-H1"


@dataclass(frozen=True)
class RocCurve:
    """Operating points from flag-nothing to flag-everything.

    thresholds[k] realizes point k under the orientation the curve was
    swept with, with +/- infinity sentinels at the ends; interior entries
    are midpoints between adjacent distinct scores.
    """

    p_f: np.ndarray
    p_d: np.ndarray
    thresholds: np.ndarray
    n_pos: int
    n_neg: int
    auc: float


def _validate_scores_labels(scores, labels):
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be equal-length 1-D arrays")
    if not np.isfinite(scores).all():
        raise ValueError("scores contain NaN or infinity")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    labels = labels.astype(np.int64)
    n_pos = int(labels.sum())
    n_neg = int(labels.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValueError(
            f"need both classes to sweep a curve, got {n_pos} positives "
            f"and {n_neg} negatives"
        )
    return scores, labels, n_pos, n_neg


def roc_curve(scores, labels, orientation: str = GREATER_IS_H1) -> RocCurve:
    """Exact ROC curve of a scalar score against binary labels."""
    scores, labels, n_pos, n_neg = _validate_scores_labels(scores, labels)
    if orientation == GREATER_IS_H1:
        s = scores
    elif orientation == SMALLER_IS_H1:
        s = -scores
    else:
        raise ValueError(f"unknown orientation: {orientation!r}")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    y_sorted = labels[order]
    # Close each tie group at its last index.
    last_in_group = np.flatnonzero(np.append(np.diff(s_sorted) != 0, True))
    tp = np.concatenate([[0], np.cumsum(y_sorted)[last_in_group]])
    fp = np.concatenate([[0], np.cumsum(1 - y_sorted)[last_in_group]])
    p_d = tp / n_pos
    p_f = fp / n_neg
    distinct = s_sorted[last_in_group]
    mids = (distinct[:-1] + distinct[1:]) / 2.0
    thr = np.concatenate([[np.inf], mids, [-np.inf]])
    if orientation == SMALLER_IS_H1:
        thr = -thr
    auc = float(((p_f[1:] - p_f[:-1]) * (p_d[1:] + p_d[:-1])).sum() / 2.0)
    return RocCurve(
        p_f=p_f,
        p_d=p_d,
        thresholds=thr,
        n_pos=n_pos,
        n_neg=n_neg,
        auc=auc,
    )


@dataclass(frozen=True)
class Detector:
    """A named scoring rule over dataset rows.

    row_scores maps a dataset to per-row scores: shape (R,) for detection
    datasets, (R, M) per slot for localization datasets (padded slots are
    ignored downstream).
    """

    name: str
    task: str  # "nd" | "nl"
    kind: str  # dataset kind consumed: "temporal" | "spatial"
    orientation: str
    row_scores: Callable[[LabeledDataset], np.ndarray]


def _over_unpadded(stat: Callable[[np.ndarray], np.ndarray]):
    """Row scores of ``stat``, a reduction along axis 1, over each row's
    unpadded slots (padded slots repeat the monitor's self value).  Rows with
    k unpadded slots reduce together as one (rows, k) array, so each row sums
    in the order of a reduction of its k values alone: numpy's pairwise sum
    groups by position, and zeros at padded slots would regroup it."""

    def row_scores(ds: LabeledDataset) -> np.ndarray:
        keep = ~ds.padded
        counts = keep.sum(axis=1)
        if (counts == 0).any():
            raise ValueError("need at least one neighbor score")
        out = np.empty(ds.n_rows)
        for k in np.unique(counts):
            rows = np.flatnonzero(counts == k)
            out[rows] = stat(ds.inputs[rows][keep[rows]].reshape(rows.size, k))
        return out

    return row_scores


# (method, task) -> (feature kind, orientation, row scores) of the closed-form
# detectors.  td: the mean absolute deviation of the neighbor displacements
# xi, and |xi| per slot.  sd: the mean square of the neighbor deviations chi,
# and (chi_ij - 2 chi_ii)^2 per slot, the square of phi_ij = S_j - 2 S_i +
# center, so localization needs only the row slots and the self score.
_SCORE_DETECTORS = {
    ("td", "nd"): ("temporal", GREATER_IS_H1, _over_unpadded(
        lambda v: np.abs(v - v.mean(axis=1, keepdims=True)).mean(axis=1))),
    ("td", "nl"): ("temporal", SMALLER_IS_H1, lambda ds: np.abs(ds.inputs)),
    ("sd", "nd"): ("spatial", GREATER_IS_H1, _over_unpadded(lambda v: (v * v).mean(axis=1))),
    ("sd", "nl"): ("spatial", GREATER_IS_H1,
                   lambda ds: (ds.inputs - 2.0 * ds.self_values[:, None]) ** 2),
}


def make_score_detector(method: str, task: str) -> Detector:
    """Closed-form detectors on the score features ("td" or "sd")."""
    if task not in ("nd", "nl"):
        raise ValueError(f"task must be 'nd' or 'nl', got {task!r}")
    if (method, task) not in _SCORE_DETECTORS:
        raise ValueError(f"unknown score method {method!r}")
    return Detector(method, task, *_SCORE_DETECTORS[method, task])


def make_nn_detector(model: Mlp, task: str, kind: str, name: str) -> Detector:
    """Detector wrapping a trained network applied to the raw row inputs."""

    def fn(ds: LabeledDataset) -> np.ndarray:
        out = forward(model, ds.inputs)
        return out[:, 0] if task == "nd" else out

    return Detector(name, task, kind, GREATER_IS_H1, fn)


def _merge_groups(keys: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Column-wise max of the rows of ``values`` per distinct row of
    ``keys``, in ascending key order."""
    order = np.lexsort(keys.T[::-1])
    k = keys[order]
    new = np.flatnonzero(np.concatenate([[True], (np.diff(k, axis=0) != 0).any(axis=1)]))
    return np.maximum.reduceat(values[order], new)


def evaluate_detector(
    detector: Detector, dataset: LabeledDataset, oracle_nd: bool = True
) -> tuple[RocCurve, dict]:
    """Sweep a detector over a labeled dataset.

    Detection: one score per sample; when tailoring split a sample into
    several groups, the sample score is the most suspicious group score.
    Localization: scores pool over (sample, slot agent) pairs, padded slots
    dropped, group duplicates merged by the most suspicious score; with
    ``oracle_nd`` only samples under attack enter the sweep, isolating
    localization quality from detection quality.
    """
    if detector.task != dataset.task:
        raise ValueError(f"{detector.name} expects task {detector.task}, dataset is {dataset.task}")
    if detector.kind != dataset.kind:
        raise ValueError(f"{detector.name} expects {detector.kind} rows, dataset is {dataset.kind}")
    raw = np.asarray(detector.row_scores(dataset), dtype=np.float64)
    sign = 1.0 if detector.orientation == GREATER_IS_H1 else -1.0
    if dataset.task == "nd":
        if raw.shape != (dataset.n_rows,):
            raise ValueError("detection scores must be one per row")
        keys, vals, labs = dataset.sample_ids[:, None], raw, dataset.labels
    else:
        if raw.shape != (dataset.n_rows, dataset.M):
            raise ValueError("localization scores must be one per row slot")
        rows, slots = np.nonzero(~dataset.padded)
        if oracle_nd:
            keep = (dataset.events != EVENT_H0)[rows]
            rows, slots = rows[keep], slots[keep]
        keys = np.stack(
            [dataset.sample_ids[rows], dataset.slot_agents[rows, slots]], axis=1
        )
        vals, labs = raw[rows, slots], dataset.labels[rows, slots]
    # The score and the label of each group, merged by one sort of its keys.
    merged = _merge_groups(keys, np.stack([sign * vals, labs], axis=1))
    curve = roc_curve(sign * merged[:, 0], merged[:, 1], detector.orientation)
    summary = {
        "detector": detector.name,
        "task": dataset.task,
        "kind": dataset.kind,
        "K": dataset.K,
        "d": dataset.d,
        "auc": curve.auc,
        "n_pos": curve.n_pos,
        "n_neg": curve.n_neg,
    }
    return curve, summary


def roc_to_csv(curve: RocCurve, path) -> None:
    write_csv(path, ["threshold", "p_f", "p_d"], [curve.thresholds, curve.p_f, curve.p_d])


def auc_table_to_csv(summaries: list[dict], path, extra_cols: tuple[str, ...] = ()) -> None:
    cols = ["detector", "task", "kind", "K", "d", "auc", "n_pos", "n_neg", *extra_cols]
    write_csv(path, cols, [[s.get(c, "") for s in summaries] for c in cols])
