"""ROC machinery against hand-computed curves and a brute-force rank statistic,
and the score detectors against their per-row references."""

from dataclasses import replace

import numpy as np
import pytest

from gossipwatch.datagen import EVENT_H0, EVENT_NEXT, LabeledDataset
from gossipwatch.evaluation import (
    GREATER_IS_H1,
    SMALLER_IS_H1,
    Detector,
    auc_table_to_csv,
    evaluate_detector,
    make_nn_detector,
    make_score_detector,
    roc_curve,
    roc_to_csv,
)
from gossipwatch.neural import init_mlp
from oracles import (
    rates_at_threshold,
    sd_row_detection,
    sd_row_localization,
    td_row_detection,
    td_row_localization,
)


def _mw_brute(scores, labels):
    """Mann-Whitney statistic by direct pair counting, ties worth one half."""
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (pos.size * neg.size)


def test_rates_at_threshold_hand_cases():
    scores = np.array([0.9, 0.8, 0.3, 0.1])
    labels = np.array([1, 0, 1, 0])
    # threshold 0.5: flags the two largest scores, one of each class
    p_d, p_f = rates_at_threshold(scores, labels, 0.5)
    assert (p_d, p_f) == (0.5, 0.5)
    p_d, p_f = rates_at_threshold(scores, labels, 1.0)
    assert (p_d, p_f) == (0.0, 0.0)
    p_d, p_f = rates_at_threshold(scores, labels, -1.0)
    assert (p_d, p_f) == (1.0, 1.0)
    # smaller-is-H1 flips the flagged side
    p_d, p_f = rates_at_threshold(scores, labels, 0.5, SMALLER_IS_H1)
    assert (p_d, p_f) == (0.5, 0.5)
    with pytest.raises(ValueError):
        rates_at_threshold(scores, labels, 0.5, orientation="mystery")


def test_roc_curve_hand_staircase():
    scores = np.array([0.9, 0.8, 0.3, 0.1])
    labels = np.array([1, 0, 1, 0])
    curve = roc_curve(scores, labels)
    assert np.array_equal(curve.p_f, np.array([0.0, 0.0, 0.5, 0.5, 1.0]))
    assert np.array_equal(curve.p_d, np.array([0.0, 0.5, 0.5, 1.0, 1.0]))
    assert curve.auc == pytest.approx(0.75, abs=1e-15)
    assert curve.thresholds[0] == np.inf and curve.thresholds[-1] == -np.inf
    # interior thresholds realize their operating points
    for thr, pf, pd_ in zip(curve.thresholds[1:-1], curve.p_f[1:-1], curve.p_d[1:-1]):
        got_d, got_f = rates_at_threshold(scores, labels, thr)
        assert (got_d, got_f) == (pd_, pf)


def test_roc_perfect_and_constant_scores():
    labels = np.array([0, 0, 1, 1])
    perfect = roc_curve(np.array([0.1, 0.2, 0.8, 0.9]), labels)
    assert perfect.auc == 1.0
    # constant scores: a single tie group, straight diagonal, exact half
    flat = roc_curve(np.zeros(4), labels)
    assert flat.auc == 0.5
    assert np.array_equal(flat.p_f, np.array([0.0, 1.0]))


def test_roc_random_scores_near_half():
    rng = np.random.default_rng(0)
    scores = rng.normal(size=10000)
    labels = rng.integers(0, 2, size=10000)
    assert abs(roc_curve(scores, labels).auc - 0.5) < 0.02


def test_auc_equals_brute_force_rank_statistic_with_ties():
    rng = np.random.default_rng(1)
    for trial in range(5):
        n = int(rng.integers(20, 120))
        scores = rng.integers(0, 7, size=n).astype(float)  # heavy ties
        labels = np.zeros(n, dtype=np.int64)
        labels[: max(1, n // 3)] = 1
        rng.shuffle(labels)
        if labels.sum() in (0, n):
            continue
        curve = roc_curve(scores, labels)
        assert curve.auc == pytest.approx(_mw_brute(scores, labels), abs=1e-12)


def test_orientation_negation_gives_the_same_curve():
    rng = np.random.default_rng(2)
    scores = rng.normal(size=200)
    labels = (rng.random(200) < 0.4).astype(np.int64)
    a = roc_curve(scores, labels, GREATER_IS_H1)
    b = roc_curve(-scores, labels, SMALLER_IS_H1)
    assert np.array_equal(a.p_f, b.p_f)
    assert np.array_equal(a.p_d, b.p_d)
    assert a.auc == b.auc


def test_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        roc_curve(np.array([1.0, 2.0]), np.array([1, 1]))  # one class only
    with pytest.raises(ValueError):
        roc_curve(np.array([np.nan, 2.0]), np.array([0, 1]))
    with pytest.raises(ValueError):
        roc_curve(np.array([1.0, 2.0]), np.array([0, 2]))
    with pytest.raises(ValueError):
        roc_curve(np.array([[1.0], [2.0]]), np.array([[0], [1]]))
    with pytest.raises(ValueError):
        roc_curve(np.array([1.0, 2.0]), np.array([0, 1]), orientation="both")


def _nd_dataset(inputs, labels, sample_ids, groups=None, events=None):
    R, M = inputs.shape
    return LabeledDataset(
        task="nd",
        kind="temporal",
        inputs=inputs,
        padded=np.zeros((R, M), dtype=bool),
        self_values=np.zeros(R),
        labels=np.asarray(labels, dtype=np.int64),
        events=np.array(events or [EVENT_NEXT if l else EVENT_H0 for l in labels]),
        monitors=np.zeros(R, dtype=np.int64),
        sample_ids=np.asarray(sample_ids, dtype=np.int64),
        groups=np.zeros(R, dtype=np.int64) if groups is None else np.asarray(groups),
        slot_agents=np.tile(np.arange(M), (R, 1)),
        K=1,
        d=1,
    )


def test_detection_merges_groups_by_most_suspicious_score():
    """Two rows of the same sample collapse to one operating unit scored by
    the larger row score."""
    inputs = np.array([[0.1, 0.1], [0.9, 0.9], [0.4, 0.4], [0.2, 0.2]])
    ds = _nd_dataset(
        inputs,
        labels=[1, 1, 0, 0],
        sample_ids=[0, 0, 1, 2],
        groups=[0, 1, 0, 0],
        events=[EVENT_NEXT, EVENT_NEXT, EVENT_H0, EVENT_H0],
    )
    det = Detector(
        name="first-slot",
        task="nd",
        kind="temporal",
        orientation=GREATER_IS_H1,
        row_scores=lambda d: d.inputs[:, 0],
    )
    curve, summary = evaluate_detector(det, ds)
    # one positive sample at score 0.9, negatives at 0.4 and 0.2
    assert summary["n_pos"] == 1 and summary["n_neg"] == 2
    assert curve.auc == 1.0

    # smaller-is-H1 merges by the most suspicious (smallest) score
    det_small = Detector(
        name="first-slot-small",
        task="nd",
        kind="temporal",
        orientation=SMALLER_IS_H1,
        row_scores=lambda d: d.inputs[:, 0],
    )
    curve, _ = evaluate_detector(det_small, ds)
    # positive sample scores min(0.1, 0.9) = 0.1, below both negatives
    assert curve.auc == 1.0


def _nl_dataset():
    """Two samples, M = 2; sample 1 carries a padded slot and sample 0 is
    clean (h0), so oracle mode must drop it."""
    inputs = np.array([[0.3, 0.2], [0.9, 0.5]])
    labels = np.array([[0, 0], [1, 0]])
    padded = np.array([[False, False], [False, True]])
    return LabeledDataset(
        task="nl",
        kind="spatial",
        inputs=inputs,
        padded=padded,
        self_values=np.zeros(2),
        labels=labels,
        events=np.array([EVENT_H0, EVENT_NEXT]),
        monitors=np.zeros(2, dtype=np.int64),
        sample_ids=np.array([0, 1]),
        groups=np.zeros(2, dtype=np.int64),
        slot_agents=np.array([[5, 6], [7, 8]]),
        K=1,
        d=1,
    )


def test_localization_pools_slots_and_honors_oracle_mode():
    ds = _nl_dataset()
    det = Detector(
        name="raw-slots",
        task="nl",
        kind="spatial",
        orientation=GREATER_IS_H1,
        row_scores=lambda d: d.inputs,
    )
    # oracle mode: only the attacked sample's live slot enters -> one class
    with pytest.raises(ValueError):
        evaluate_detector(det, ds, oracle_nd=True)
    curve, summary = evaluate_detector(det, ds, oracle_nd=False)
    # pooled units: (s0, a5)=0.3 lab 0, (s0, a6)=0.2 lab 0, (s1, a7)=0.9 lab 1
    # the padded (s1, a8) slot never enters
    assert summary["n_pos"] == 1 and summary["n_neg"] == 2
    assert curve.auc == 1.0


def test_task_and_kind_mismatches_are_rejected():
    ds = _nl_dataset()
    nd_det = make_score_detector("sd", "nd")
    with pytest.raises(ValueError):
        evaluate_detector(nd_det, ds)
    td_nl = make_score_detector("td", "nl")
    with pytest.raises(ValueError):
        evaluate_detector(td_nl, ds)  # temporal detector, spatial rows
    with pytest.raises(ValueError):
        make_score_detector("td", "both")
    with pytest.raises(ValueError):
        make_score_detector("zd", "nd")


def test_score_detector_orientations():
    assert make_score_detector("td", "nd").orientation == GREATER_IS_H1
    assert make_score_detector("td", "nl").orientation == SMALLER_IS_H1
    assert make_score_detector("sd", "nd").orientation == GREATER_IS_H1
    assert make_score_detector("sd", "nl").orientation == GREATER_IS_H1


# Per-row references of the four score detectors: (method, task) -> the
# row scores of a dataset, one reference call per row.
_ROW_ORACLES = {
    ("td", "nd"): lambda ds: np.array(
        [td_row_detection(v, p) for v, p in zip(ds.inputs, ds.padded)]),
    ("td", "nl"): lambda ds: np.stack([td_row_localization(v) for v in ds.inputs]),
    ("sd", "nd"): lambda ds: np.array(
        [sd_row_detection(v, p) for v, p in zip(ds.inputs, ds.padded)]),
    ("sd", "nl"): lambda ds: np.stack(
        [sd_row_localization(v, s) for v, s in zip(ds.inputs, ds.self_values)]),
}


def _padded_rows(M, rows=300, seed=0):
    """Rows of width M, values of either sign with magnitudes from 1e-8 to
    1e3, a random share of padded slots per row and at least one unpadded
    slot.  Row 0's unpadded slots are all -0.0, so they sum to -0.0, where
    zeros at its padded slots would sum to +0.0."""
    rng = np.random.default_rng([seed, M])
    inputs = rng.choice([-1.0, 1.0], size=(rows, M)) * 10.0 ** rng.uniform(-8, 3, (rows, M))
    padded = rng.random((rows, M)) < rng.random((rows, 1))
    padded[np.arange(rows), rng.integers(M, size=rows)] = False
    padded[0] = np.arange(M) % 2 == 1
    inputs[0, ~padded[0]] = -0.0
    ds = _nd_dataset(inputs, labels=np.zeros(rows), sample_ids=np.arange(rows))
    return replace(ds, padded=padded, self_values=rng.uniform(-1e3, 1e3, rows))


@pytest.mark.parametrize("M", [4, 8, 13, 33])
@pytest.mark.parametrize("method, task", sorted(_ROW_ORACLES))
def test_score_detectors_match_the_per_row_references_bit_for_bit(M, method, task):
    ds = _padded_rows(M)
    scores = make_score_detector(method, task).row_scores(ds)
    expected = _ROW_ORACLES[method, task](ds)
    assert scores.dtype == expected.dtype and scores.shape == expected.shape
    assert scores.tobytes() == expected.tobytes()


@pytest.mark.parametrize("method", ["td", "sd"])
def test_a_row_without_an_unpadded_slot_is_rejected(method):
    ds = _padded_rows(8)
    ds.padded[5] = True
    with pytest.raises(ValueError, match="need at least one neighbor score"):
        make_score_detector(method, "nd").row_scores(ds)


def test_nn_detector_scores_raw_inputs():
    """The network sees the stored row inputs unchanged: one score per row
    for detection, one per slot for localization."""
    from gossipwatch.neural import forward

    ds = _nd_dataset(
        np.array([[2.0, 4.0], [6.0, 8.0]]), labels=[0, 1], sample_ids=[0, 1]
    )
    nd = init_mlp([2, 4, 1], seed=0)
    scores = make_nn_detector(nd, "nd", "temporal", "tdnn").row_scores(ds)
    assert scores.shape == (2,)
    assert np.array_equal(scores, forward(nd, ds.inputs)[:, 0])
    nl = init_mlp([2, 4, 2], seed=0)
    scores = make_nn_detector(nl, "nl", "temporal", "tdnn").row_scores(ds)
    assert np.array_equal(scores, forward(nl, ds.inputs))


def test_csv_writers(tmp_path):
    curve = roc_curve(np.array([0.9, 0.1]), np.array([1, 0]))
    roc_path = tmp_path / "roc.csv"
    roc_to_csv(curve, roc_path)
    lines = roc_path.read_text().splitlines()
    assert lines[0] == "threshold,p_f,p_d"
    assert len(lines) == 1 + curve.p_f.size
    assert lines[1].startswith("inf,0.0,0.0")

    table_path = tmp_path / "aucs.csv"
    auc_table_to_csv(
        [
            {"detector": "td", "task": "nd", "kind": "temporal", "K": 5, "d": 2,
             "auc": 0.875, "n_pos": 10, "n_neg": 10, "scenario": "S1"}
        ],
        table_path,
        extra_cols=("scenario",),
    )
    lines = table_path.read_text().splitlines()
    assert lines[0] == "detector,task,kind,K,d,auc,n_pos,n_neg,scenario"
    assert lines[1] == "td,nd,temporal,5,2,0.875,10,10,S1"
