"""Graph construction, transition matrix facts, and attacker masks."""

import numpy as np
import pytest

from gossipwatch.topology import (
    Graph,
    attacker_mask,
    expected_transition_matrix,
    induced_subgraph,
    manhattan_grid,
    remove_edge,
    second_largest_eigenvalue,
    small_world,
    subset_connected,
)
from oracles import pair_averaging_matrix


def test_torus_3x3_neighborhoods():
    g = manhattan_grid(3, 3)
    assert g.n == 9
    assert list(g.neighbors[0]) == [1, 2, 3, 6]
    assert list(g.neighbors[2]) == [0, 1, 5, 8]
    assert all(len(g.neighbors[v]) == 4 for v in range(9))
    assert len(g.edges) == 9 * 4 // 2


def test_expected_transition_matrix_closed_form():
    g = manhattan_grid(3, 3)
    E = expected_transition_matrix(g)
    assert np.allclose(np.diag(E), 8.0 / 9.0, atol=1e-12, rtol=0)
    assert np.allclose(E, E.T, atol=1e-12, rtol=0)
    assert np.allclose(E.sum(axis=0), 1.0, atol=1e-12, rtol=0)
    assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12, rtol=0)
    for i in range(9):
        for j in range(9):
            if i == j:
                continue
            expected = 1.0 / 36.0 if j in set(int(v) for v in g.neighbors[i]) else 0.0
            assert abs(E[i, j] - expected) < 1e-12


def test_expected_transition_matrix_is_mean_of_sampled_steps():
    g = manhattan_grid(3, 3)
    E = expected_transition_matrix(g)
    rng = np.random.default_rng(7)
    total = np.zeros((9, 9))
    draws = 20000
    for _ in range(draws):
        i = int(rng.integers(9))
        nbrs = g.neighbors[i]
        j = int(nbrs[int(rng.random() * len(nbrs))])
        total += pair_averaging_matrix(9, i, j)
    assert np.abs(total / draws - E).max() < 0.01


def test_second_largest_eigenvalue_torus():
    E = expected_transition_matrix(manhattan_grid(3, 3))
    assert abs(second_largest_eigenvalue(E) - 33.0 / 36.0) < 1e-12


def test_remove_edge_drops_both_directions():
    g = manhattan_grid(3, 3)
    cut = remove_edge(g, 2, 5)
    assert 5 not in set(int(v) for v in cut.neighbors[2])
    assert 2 not in set(int(v) for v in cut.neighbors[5])
    assert len(cut.edges) == len(g.edges) - 1
    # original untouched
    assert 5 in set(int(v) for v in g.neighbors[2])


def test_remove_edge_rejects_missing_and_disconnecting_cuts():
    g = manhattan_grid(3, 3)
    with pytest.raises(ValueError):
        remove_edge(g, 0, 4)  # not an edge of the torus
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        remove_edge(path, 0, 1)


def test_induced_subgraph_relabels():
    g = manhattan_grid(3, 3)
    sub = induced_subgraph(g, [v for v in range(9) if v != 1])
    assert sub.n == 8
    # old agent 0 keeps neighbors 2, 3, 6 which map to new ids 1, 2, 5
    assert list(sub.neighbors[0]) == [1, 2, 5]
    assert subset_connected(sub, range(8))


def test_attacker_mask_validation():
    g = manhattan_grid(3, 3)
    flags = attacker_mask(g, [1, 4])
    assert list(np.flatnonzero(flags)) == [1, 4]
    assert flags.sum() == 2
    with pytest.raises(ValueError):
        attacker_mask(g, [9])
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        attacker_mask(path, [1])  # trustworthy {0, 2} would disconnect


def test_small_world_shape_and_determinism():
    g = small_world(20, 8, 0.2, np.random.default_rng(5))
    assert g.n == 20
    assert sum(len(g.neighbors[v]) for v in range(20)) == 20 * 8
    assert subset_connected(g, range(20))
    again = small_world(20, 8, 0.2, np.random.default_rng(5))
    assert set(g.edges) == set(again.edges)
    rewired = small_world(20, 8, 0.2, np.random.default_rng(6))
    assert set(g.edges) != set(rewired.edges)


def test_small_world_zero_rewire_is_ring_lattice():
    g = small_world(10, 4, 0.0, np.random.default_rng(0))
    for v in range(10):
        expected = sorted(((v + off) % 10) for off in (-2, -1, 1, 2))
        assert sorted(int(u) for u in g.neighbors[v]) == expected
