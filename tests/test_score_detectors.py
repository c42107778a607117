"""Score-based detection and localization statistics on hand values."""

import numpy as np
import pytest

from gossipwatch.features import SdScoreFeatures, sd_aggregates, spatial_from_sums, tailor_inputs
from gossipwatch.score_detectors import (
    sd_detection_score,
    sd_localization_scores,
    sd_row_detection,
    sd_row_localization,
    td_detection_score,
    td_localization_scores,
    td_row_detection,
    td_row_localization,
)
from gossipwatch.topology import manhattan_grid


def _sd(chi, loc=None, self_det=None):
    chi = np.asarray(chi, dtype=np.float64)
    loc = chi if loc is None else np.asarray(loc, dtype=np.float64)
    return SdScoreFeatures(
        agent=0,
        neighbor_ids=tuple(range(1, chi.size + 1)),
        detection=chi[None, :, None],
        localization=loc[None, :, None],
        self_detection=np.array([[0.0 if self_det is None else self_det]]),
        K=1,
        d=1,
    )


def test_td_detection_score_is_mean_absolute_deviation():
    xi = np.array([0.5, 0.1, 0.3, 0.1])
    # mean 0.25, deviations 0.25/0.15/0.05/0.15 -> MAD 0.15
    assert td_detection_score(xi) == pytest.approx(0.15, abs=1e-15)
    assert td_detection_score(np.array([2.0, 2.0])) == 0.0
    with pytest.raises(ValueError):
        td_detection_score(np.array([]))


def test_td_row_detection_ignores_padded_slots():
    values = np.array([0.5, 0.1, 0.3, 0.1, 7.0])
    padded = np.array([False, False, False, False, True])
    assert td_row_detection(values, padded) == pytest.approx(0.15, abs=1e-15)
    # with no padding the outlier slot moves the statistic
    assert td_row_detection(values, np.zeros(5, bool)) != pytest.approx(0.15, abs=1e-3)


def test_td_localization_is_absolute_value():
    xi = np.array([-0.4, 0.0, 2.5])
    assert np.array_equal(td_localization_scores(xi), np.array([0.4, 0.0, 2.5]))
    assert np.array_equal(td_row_localization(xi), np.array([0.4, 0.0, 2.5]))


def test_sd_detection_score_hand_values():
    # mean of squares = (1 + 4 + 4) / 3 = 3
    assert sd_detection_score(_sd([1.0, -2.0, 2.0])) == pytest.approx(3.0, abs=1e-15)


def test_sd_row_detection_ignores_padded_slots():
    values = np.array([1.0, -2.0, 2.0, 100.0])
    padded = np.array([False, False, False, True])
    assert sd_row_detection(values, padded) == pytest.approx(3.0, abs=1e-15)
    with pytest.raises(ValueError):
        sd_row_detection(values, np.ones(4, bool))


def test_sd_localization_hand_values():
    sd = _sd([9.0, 9.0], loc=[1.0, -2.0], self_det=3.0)
    assert np.allclose(sd_localization_scores(sd), np.array([1.0, 4.0]))
    # include_self appends (-phibar_ii)^2
    assert np.allclose(
        sd_localization_scores(sd, include_self=True), np.array([1.0, 4.0, 9.0])
    )
    # row form: (chi_ij - 2 chi_ii)^2
    assert np.allclose(
        sd_row_localization(np.array([1.0, -1.0]), 0.5), np.array([0.0, 4.0])
    )


def test_row_localization_matches_aggregate_route():
    """sd_row_localization over tailored slots equals the per-instance
    aggregate statistic when both are computed from the same run sums."""
    graph = manhattan_grid(3, 3)
    sums = np.random.default_rng(7).normal(size=(5, 3, 9, 2)).sum(axis=0)  # (K, n, d)
    agent = 4
    direct = sd_localization_scores(sd_aggregates(sums, graph, agent))
    scores = spatial_from_sums(sums, graph, agent)
    fv = tailor_inputs(scores, M=len(scores.neighbor_ids))[0]
    row = sd_row_localization(fv.values, fv.self_value)
    assert np.abs(row - direct).max() < 1e-12
