"""ROC analysis of detectors over labeled datasets.

Curves are exact threshold sweeps: one operating point per distinct score
(ties grouped), prefixed with the flag-nothing point, so the trapezoid area
equals the Mann-Whitney statistic with ties counted one half.  Detector
orientation is explicit and normalized internally, letting greater-is-H1
and smaller-is-H1 statistics share one code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from gossipwatch.datagen import LabeledDataset
from gossipwatch.neural import Mlp, forward
from gossipwatch.score_detectors import (
    GREATER_IS_H1,
    SMALLER_IS_H1,
    sd_row_detection,
    sd_row_localization,
    td_row_detection,
    td_row_localization,
)


@dataclass(frozen=True)
class RocCurve:
    """Operating points from flag-nothing to flag-everything.

    thresholds[k] realizes point k under the curve's orientation, with
    +/- infinity sentinels at the ends; interior entries are midpoints
    between adjacent distinct scores.
    """

    p_f: np.ndarray
    p_d: np.ndarray
    thresholds: np.ndarray
    orientation: str
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
        orientation=orientation,
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


def make_score_detector(method: str, task: str) -> Detector:
    """Closed-form detectors on the score features ("td" or "sd")."""
    if task not in ("nd", "nl"):
        raise ValueError(f"task must be 'nd' or 'nl', got {task!r}")
    if method == "td":
        if task == "nd":
            fn = lambda ds: np.array(
                [td_row_detection(v, p) for v, p in zip(ds.inputs, ds.padded)]
            )
            return Detector("td", "nd", "temporal", GREATER_IS_H1, fn)
        return Detector(
            "td", "nl", "temporal", SMALLER_IS_H1, lambda ds: td_row_localization(ds.inputs)
        )
    if method == "sd":
        if task == "nd":
            fn = lambda ds: np.array(
                [sd_row_detection(v, p) for v, p in zip(ds.inputs, ds.padded)]
            )
            return Detector("sd", "nd", "spatial", GREATER_IS_H1, fn)
        fn = lambda ds: np.stack(
            [sd_row_localization(v, sv) for v, sv in zip(ds.inputs, ds.self_values)]
        )
        return Detector("sd", "nl", "spatial", GREATER_IS_H1, fn)
    raise ValueError(f"unknown score method {method!r}")


def make_nn_detector(model: Mlp, task: str, kind: str, name: str) -> Detector:
    """Detector wrapping a trained network applied to the raw row inputs."""

    def fn(ds: LabeledDataset) -> np.ndarray:
        out = forward(model, ds.inputs)
        return out[:, 0] if task == "nd" else out

    return Detector(name, task, kind, GREATER_IS_H1, fn)


def _merge_groups(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Max of ``values`` per distinct row of ``keys`` (ids stay sorted)."""
    order = np.lexsort(keys.T[::-1])
    k, v = keys[order], values[order]
    new = np.flatnonzero(np.concatenate([[True], (np.diff(k, axis=0) != 0).any(axis=1)]))
    merged = np.maximum.reduceat(v, new)
    return k[new], merged


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
        keys = dataset.sample_ids[:, None]
        kept, merged = _merge_groups(keys, sign * raw)
        label_by_sample = {}
        for sid, lab in zip(dataset.sample_ids, dataset.labels):
            label_by_sample[int(sid)] = int(lab)
        labels = np.array([label_by_sample[int(sid)] for sid in kept[:, 0]])
        scores = sign * merged
    else:
        if raw.shape != (dataset.n_rows, dataset.M):
            raise ValueError("localization scores must be one per row slot")
        rows, slots = np.nonzero(~dataset.padded)
        if oracle_nd:
            under_attack = np.array([e != "h0" for e in dataset.events])
            keep = under_attack[rows]
            rows, slots = rows[keep], slots[keep]
        keys = np.stack(
            [dataset.sample_ids[rows], dataset.slot_agents[rows, slots]], axis=1
        )
        vals = sign * raw[rows, slots]
        labs = dataset.labels[rows, slots]
        kept, merged = _merge_groups(keys, vals)
        _, merged_labs = _merge_groups(keys, labs.astype(np.float64))
        scores = sign * merged
        labels = (merged_labs > 0).astype(np.int64)
    curve = roc_curve(scores, labels, detector.orientation)
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
    with open(path, "w") as fh:
        fh.write("threshold,p_f,p_d\n")
        for thr, pf, pd_ in zip(curve.thresholds, curve.p_f, curve.p_d):
            fh.write(f"{repr(float(thr))},{repr(float(pf))},{repr(float(pd_))}\n")


def auc_table_to_csv(summaries: list[dict], path, extra_cols: tuple[str, ...] = ()) -> None:
    cols = ["detector", "task", "kind", "K", "d", "auc", "n_pos", "n_neg", *extra_cols]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for s in summaries:
            fh.write(
                ",".join(
                    repr(float(s[c])) if c == "auc" else str(s.get(c, "")) for c in cols
                )
                + "\n"
            )
