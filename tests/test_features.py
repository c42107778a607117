"""Feature extraction against independent loop-based summation oracles."""

import numpy as np
import pytest

from gossipwatch.features import spatial_scores, tailor_inputs, temporal_scores
from gossipwatch.topology import Graph, manhattan_grid, remove_edge, small_world
from oracles import sd_aggregates, spatial_from_sums, temporal_from_endpoints


def _random_runs(rng, K, n, d, T):
    """(K, T+1, n, d) state histories of K runs."""
    return rng.normal(size=(K, T + 1, n, d))


def _temporal(runs, graph, agent):
    """Neighbor values of the temporal scores."""
    return temporal_from_endpoints(runs[:, 0], runs[:, -1], graph, agent)[0]


def _spatial(runs, graph, agent):
    """Neighbor values of the spatial scores."""
    return spatial_from_sums(runs.sum(axis=1), graph, agent)[0]


def _brute_temporal(runs, graph, agent):
    """xi_ij by explicit loops over instances and dimensions."""
    K, d = runs.shape[0], runs.shape[3]
    out = []
    for j in graph.neighbors[agent]:
        total = 0.0
        for states in runs:
            for dim in range(d):
                total += states[-1, j, dim] - states[0, j, dim]
        out.append(total / (K * d))
    return np.array(out)


def _brute_spatial(runs, graph, agent):
    """chi_ij by explicit loops over t, instances, and dimensions."""
    K, d = runs.shape[0], runs.shape[3]
    members = sorted([agent] + [int(v) for v in graph.neighbors[agent]])
    out = []
    for j in graph.neighbors[agent]:
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
    members = sorted([agent] + [int(v) for v in graph.neighbors[agent]])
    nbrs = list(graph.neighbors[agent])
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
        values = _temporal(runs, graph, agent)
        assert np.abs(values - _brute_temporal(runs, graph, agent)).max() < 1e-12
        assert values.shape == (len(graph.neighbors[agent]),)


def test_spatial_from_sums_matches_brute_force():
    graph = manhattan_grid(3, 3)
    runs = _random_runs(np.random.default_rng(1), K=2, n=9, d=3, T=4)
    for agent in (0, 5):
        values = _spatial(runs, graph, agent)
        assert np.abs(values - _brute_spatial(runs, graph, agent)).max() < 1e-12


def test_sd_aggregates_localization_identity():
    graph = manhattan_grid(3, 3)
    runs = _random_runs(np.random.default_rng(2), K=2, n=9, d=2, T=6)
    agg = sd_aggregates(runs.sum(axis=1), graph, 4)
    brute = _brute_localization(runs, graph, 4)
    assert np.abs(agg.localization - brute).max() < 1e-10
    # detection aggregate reduces to the spatial scores
    chi = agg.detection.sum(axis=(0, 2)) / (agg.K * agg.d)
    assert np.abs(chi - _spatial(runs, graph, 4)).max() < 1e-12


@pytest.mark.parametrize(
    "graph",
    [manhattan_grid(3, 3), small_world(20, 8, 0.2, np.random.default_rng(5)),
     remove_edge(remove_edge(manhattan_grid(3, 3), 2, 5), 2, 8)],
    ids=["torus", "small_world", "cut_torus"],
)
@pytest.mark.parametrize("d", [1, 2])
def test_chunk_scores_match_per_row_oracles_bitwise(graph, d):
    """The chunk scores of every row equal the per-row oracles bit for bit
    at K = 5, 2 and 1, whatever the other rows of the chunk: rows spread over
    every monitor, a monitor watched by one row, neighborhoods of mixed
    sizes (the cut torus), and closed neighborhoods of 8 or more agents
    (the small world), which numpy sums pairwise at K = d = 1."""
    rng = np.random.default_rng(d)
    R, K = 3 * graph.n + 1, 5
    first, last, sums = (rng.normal(size=(R, K, graph.n, d)) * 1e3 for _ in range(3))
    monitors = np.append(np.arange(R - 1) % graph.n, 0)
    monitors[monitors == 1] = 0  # leaves agent 1 out and agent 0 with many rows
    monitors[R // 2] = 1  # agent 1 watched by one row
    for k in (5, 2, 1):
        temporal = temporal_scores(first[:, :k], last[:, :k])
        for r, agent in enumerate(monitors.tolist()):
            values, own = temporal_from_endpoints(first[r, :k], last[r, :k], graph, agent)
            assert np.array_equal(temporal[r, graph.neighbors[agent]], values)
            assert temporal[r, agent] == own
        for agent in np.unique(monitors).tolist():
            rows = np.flatnonzero(monitors == agent)
            values, own = spatial_scores(sums[rows, :k], graph, agent)
            for g, r in enumerate(rows):
                ref_values, ref_own = spatial_from_sums(sums[r, :k], graph, agent)
                assert np.array_equal(values[g], ref_values), (k, agent, r)
                assert own[g] == ref_own, (k, agent, r)


def test_hand_trace_temporal_and_spatial():
    """Three agents on a path, T = 2, K = 2, d = 1, states written by hand."""
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    s0 = np.array([[[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]], [[4.0], [2.0], [0.0]]])
    s1 = np.array([[[1.0], [0.0], [2.0]], [[2.0], [2.0], [2.0]], [[0.0], [1.0], [2.0]]])
    runs = np.stack([s0, s1])

    # monitor 1 sees neighbors 0 and 2; xi averages both endpoint gaps
    xi = _temporal(runs, path, 1)
    assert xi[0] == pytest.approx((4.0 - 0.0 + 0.0 - 1.0) / 2, abs=1e-15)
    assert xi[1] == pytest.approx((0.0 - 2.0 + 2.0 - 2.0) / 2, abs=1e-15)

    chi = _spatial(runs, path, 1)
    # closed neighborhood of 1 is everyone; centers are the row means
    expected = []
    for j in (0, 2):
        total = 0.0
        for states in (s0, s1):
            for t in range(3):
                total += states[t, j, 0] - states[t, :, 0].mean()
        expected.append(total / 2)
    assert np.abs(chi - np.array(expected)).max() < 1e-12


def _tailored(nn, M, agent=99):
    """Slot agents, inputs and pad flags of each group for a monitor 99
    with neighbors 0..nn-1 scoring 0..nn-1 and a self score of -1."""
    index = tailor_inputs(nn, M)
    agents = np.append(np.arange(nn), agent)[index]
    values = np.append(np.arange(nn, dtype=np.float64), -1.0)[index]
    return [tuple(int(a) for a in row) for row in agents], values, index == nn


def test_tailor_pads_small_neighborhoods():
    slot_ids, values, padded = _tailored(3, M=5)
    assert slot_ids == [(0, 1, 2, 99, 99)]
    assert np.array_equal(values[0], np.array([0.0, 1.0, 2.0, -1.0, -1.0]))
    assert padded[0].tolist() == [False, False, False, True, True]


def test_tailor_exact_width():
    slot_ids, _, padded = _tailored(4, M=4)
    assert slot_ids == [(0, 1, 2, 3)]
    assert not padded.any()


def test_tailor_windows_last_right_aligned():
    slot_ids, _, padded = _tailored(6, M=4)
    assert slot_ids == [(0, 1, 2, 3), (2, 3, 4, 5)]
    assert not padded.any()
    slot_ids, _, padded = _tailored(9, M=4)
    assert slot_ids == [(0, 1, 2, 3), (4, 5, 6, 7), (5, 6, 7, 8)]
    assert not padded.any()
    covered = set()
    for g in slot_ids:
        covered |= set(g)
    assert covered == set(range(9))


def test_tailor_rejects_bad_width():
    with pytest.raises(ValueError):
        tailor_inputs(3, M=0)
