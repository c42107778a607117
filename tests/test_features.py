"""Feature extraction against independent loop-based summation oracles."""

import numpy as np
import pytest

from gossipwatch.features import (
    NeighborScores,
    sd_aggregates,
    spatial_from_sums,
    tailor_inputs,
    temporal_from_endpoints,
)
from gossipwatch.topology import Graph, manhattan_grid


def _random_runs(rng, K, n, d, T):
    """(K, T+1, n, d) state histories of K runs."""
    return rng.normal(size=(K, T + 1, n, d))


def _temporal(runs, graph, agent):
    return temporal_from_endpoints(runs[:, 0], runs[:, -1], graph, agent)


def _spatial(runs, graph, agent):
    return spatial_from_sums(runs.sum(axis=1), graph, agent)


def _brute_temporal(runs, graph, agent):
    """xi_ij by explicit loops over instances and dimensions."""
    K, d = runs.shape[0], runs.shape[3]
    out = []
    for j in graph.neighbors_of(agent):
        total = 0.0
        for states in runs:
            for dim in range(d):
                total += states[-1, j, dim] - states[0, j, dim]
        out.append(total / (K * d))
    return np.array(out)


def _brute_spatial(runs, graph, agent):
    """chi_ij by explicit loops over t, instances, and dimensions."""
    K, d = runs.shape[0], runs.shape[3]
    members = sorted([agent] + [int(v) for v in graph.neighbors_of(agent)])
    out = []
    for j in graph.neighbors_of(agent):
        total = 0.0
        for states in runs:
            for t in range(states.shape[0]):
                center = states[t, members, :].mean(axis=0)
                for dim in range(d):
                    total += states[t, j, dim] - center[dim]
        out.append(total / (K * d))
    return np.array(out)


def _brute_localization(runs, graph, agent):
    """phi_ij = sum_t (x_j - x_i) - phibar_ii, per instance and neighbor."""
    K, d = runs.shape[0], runs.shape[3]
    members = sorted([agent] + [int(v) for v in graph.neighbors_of(agent)])
    nbrs = list(graph.neighbors_of(agent))
    out = np.zeros((K, len(nbrs), d))
    for k, states in enumerate(runs):
        phibar_ii = np.zeros(d)
        for t in range(states.shape[0]):
            center = states[t, members, :].mean(axis=0)
            phibar_ii += states[t, agent, :] - center
        for a, j in enumerate(nbrs):
            for t in range(states.shape[0]):
                out[k, a] += states[t, j, :] - states[t, agent, :]
            out[k, a] -= phibar_ii
    return out


def test_temporal_from_endpoints_matches_brute_force():
    graph = manhattan_grid(3, 3)
    runs = _random_runs(np.random.default_rng(0), K=3, n=9, d=2, T=5)
    for agent in (0, 4, 8):
        scores = _temporal(runs, graph, agent)
        assert np.abs(scores.values - _brute_temporal(runs, graph, agent)).max() < 1e-12
        assert scores.neighbor_ids == tuple(int(v) for v in graph.neighbors_of(agent))


def test_spatial_from_sums_matches_brute_force():
    graph = manhattan_grid(3, 3)
    runs = _random_runs(np.random.default_rng(1), K=2, n=9, d=3, T=4)
    for agent in (0, 5):
        scores = _spatial(runs, graph, agent)
        assert np.abs(scores.values - _brute_spatial(runs, graph, agent)).max() < 1e-12


def test_sd_aggregates_localization_identity():
    graph = manhattan_grid(3, 3)
    runs = _random_runs(np.random.default_rng(2), K=2, n=9, d=2, T=6)
    agg = sd_aggregates(runs.sum(axis=1), graph, 4)
    brute = _brute_localization(runs, graph, 4)
    assert np.abs(agg.localization - brute).max() < 1e-10
    # detection aggregate reduces to the spatial scores
    chi = agg.detection.sum(axis=(0, 2)) / (agg.K * agg.d)
    assert np.abs(chi - _spatial(runs, graph, 4).values).max() < 1e-12


def test_hand_trace_temporal_and_spatial():
    """Three agents on a path, T = 2, K = 2, d = 1, states written by hand."""
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    s0 = np.array([[[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]], [[4.0], [2.0], [0.0]]])
    s1 = np.array([[[1.0], [0.0], [2.0]], [[2.0], [2.0], [2.0]], [[0.0], [1.0], [2.0]]])
    runs = np.stack([s0, s1])

    # monitor 1 sees neighbors 0 and 2; xi averages both endpoint gaps
    xi = _temporal(runs, path, 1)
    assert xi.values[0] == pytest.approx((4.0 - 0.0 + 0.0 - 1.0) / 2, abs=1e-15)
    assert xi.values[1] == pytest.approx((0.0 - 2.0 + 2.0 - 2.0) / 2, abs=1e-15)

    chi = _spatial(runs, path, 1)
    # closed neighborhood of 1 is everyone; centers are the row means
    expected = []
    for j in (0, 2):
        total = 0.0
        for states in (s0, s1):
            for t in range(3):
                total += states[t, j, 0] - states[t, :, 0].mean()
        expected.append(total / 2)
    assert np.abs(chi.values - np.array(expected)).max() < 1e-12


def _scores(nn, agent=99):
    return NeighborScores(
        agent=agent,
        neighbor_ids=tuple(range(nn)),
        values=np.arange(nn, dtype=np.float64),
        self_value=-1.0,
        kind="temporal",
        K=1,
        d=1,
    )


def test_tailor_pads_small_neighborhoods():
    groups = tailor_inputs(_scores(3), M=5)
    assert len(groups) == 1
    fv = groups[0]
    assert fv.slot_ids == (0, 1, 2, 99, 99)
    assert np.array_equal(fv.values, np.array([0.0, 1.0, 2.0, -1.0, -1.0]))
    assert fv.padded.tolist() == [False, False, False, True, True]


def test_tailor_exact_width():
    fv = tailor_inputs(_scores(4), M=4)[0]
    assert fv.slot_ids == (0, 1, 2, 3)
    assert not fv.padded.any()


def test_tailor_windows_last_right_aligned():
    groups = tailor_inputs(_scores(6), M=4)
    assert [g.slot_ids for g in groups] == [(0, 1, 2, 3), (2, 3, 4, 5)]
    assert all(not g.padded.any() for g in groups)
    groups = tailor_inputs(_scores(9), M=4)
    assert [g.slot_ids for g in groups] == [(0, 1, 2, 3), (4, 5, 6, 7), (5, 6, 7, 8)]
    covered = set()
    for g in groups:
        covered |= set(g.slot_ids)
    assert covered == set(range(9))


def test_tailor_rejects_bad_width():
    with pytest.raises(ValueError):
        tailor_inputs(_scores(3), M=0)
