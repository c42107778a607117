"""Communication graphs for asynchronous gossip: torus and small-world
constructions, pair sampling, expected mixing matrix, edge surgery."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph on agents 0..n-1.

    Immutable after construction.  ``edges`` is the canonical sorted list of
    (i, j) pairs with i < j.  Derived lookups (neighbor arrays, degrees, the
    neighbor-choice matrix) are built once and shared.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    kind: str = "custom"
    params: dict = field(default_factory=dict, compare=False, repr=False)
    neighbors: tuple = field(init=False, compare=False, repr=False)
    degrees: np.ndarray = field(init=False, compare=False, repr=False)
    nbr_table: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"graph needs at least 2 agents, got n={self.n}")
        adj = [[] for _ in range(self.n)]
        seen = set()
        for i, j in self.edges:
            if not (0 <= i < self.n and 0 <= j < self.n):
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            if i == j:
                raise ValueError(f"self-loop ({i}, {j}) not allowed")
            if i > j:
                raise ValueError(f"edge ({i}, {j}) not canonical (need i < j)")
            if (i, j) in seen:
                raise ValueError(f"duplicate edge ({i}, {j})")
            seen.add((i, j))
            adj[i].append(j)
            adj[j].append(i)
        nbrs = tuple(np.array(sorted(a), dtype=np.int64) for a in adj)
        degs = np.array([len(a) for a in nbrs], dtype=np.int64)
        if degs.min() == 0:
            raise ValueError("graph has an isolated agent")
        # Padded neighbor table for vectorized neighbor draws.
        table = np.zeros((self.n, int(degs.max())), dtype=np.int64)
        for i, a in enumerate(nbrs):
            table[i, : len(a)] = a
        object.__setattr__(self, "neighbors", nbrs)
        object.__setattr__(self, "degrees", degs)
        object.__setattr__(self, "nbr_table", table)
        if not _connected(self.n, nbrs):
            raise ValueError("graph is not connected")

    @classmethod
    def from_edges(cls, n, edges, kind="custom", params=None):
        canon = tuple(sorted((min(i, j), max(i, j)) for i, j in edges))
        return cls(n=n, edges=canon, kind=kind, params=dict(params or {}))

    def neighbors_of(self, i: int) -> np.ndarray:
        return self.neighbors[i]

    def max_degree(self) -> int:
        return int(self.degrees.max())

    def choice_probabilities(self) -> np.ndarray:
        """Row-stochastic neighbor-choice matrix: P[i, j] = 1/deg(i) on edges."""
        P = np.zeros((self.n, self.n))
        for i, a in enumerate(self.neighbors):
            P[i, a] = 1.0 / len(a)
        return P

def _connected(n, nbrs, keep=None) -> bool:
    """BFS connectivity over the agents in ``keep`` (all agents if None)."""
    if keep is None:
        keep = range(n)
    keep = set(int(v) for v in keep)
    if not keep:
        return False
    start = next(iter(keep))
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for v in frontier:
            for w in nbrs[v]:
                w = int(w)
                if w in keep and w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen == keep


def subset_connected(graph: Graph, keep) -> bool:
    """Whether the agents in ``keep`` induce a connected subgraph."""
    return _connected(graph.n, graph.neighbors, keep=keep)


def manhattan_grid(rows: int, cols: int, wrap: bool = True) -> Graph:
    """Grid of rows x cols agents, row-major ids, 4-neighbor connectivity.

    With ``wrap`` (the default) the grid closes into a torus and every agent
    has degree exactly 4; rows and cols must then be at least 3 so the wrap
    edges do not collapse into duplicates.
    """
    if wrap:
        if rows < 3 or cols < 3:
            raise ValueError(f"torus needs rows, cols >= 3, got {rows}x{cols}")
    else:
        if rows < 2 or cols < 2:
            raise ValueError(f"grid needs rows, cols >= 2, got {rows}x{cols}")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if wrap or c + 1 < cols:
                j = r * cols + (c + 1) % cols
                edges.add((min(i, j), max(i, j)))
            if wrap or r + 1 < rows:
                j = ((r + 1) % rows) * cols + c
                edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(
        rows * cols, edges, kind="manhattan", params={"rows": rows, "cols": cols, "wrap": wrap}
    )


def small_world(
    n: int,
    mean_degree: int,
    rewire_prob: float,
    rng: np.random.Generator,
    max_retries: int = 100,
) -> Graph:
    """Watts-Strogatz small world: ring lattice with random rewiring.

    Starts from the even-degree ring lattice (each agent tied to its
    mean_degree/2 nearest neighbors on each side), then rewires each
    clockwise lattice edge with probability ``rewire_prob`` to a uniformly
    chosen non-neighbor.  Rebuilds from scratch if the result is
    disconnected, up to ``max_retries`` attempts.
    """
    k = mean_degree
    if k % 2 != 0 or k < 2:
        raise ValueError(f"mean_degree must be even and >= 2, got {k}")
    if k >= n:
        raise ValueError(f"mean_degree {k} must be < n = {n}")
    if not (0.0 <= rewire_prob <= 1.0):
        raise ValueError(f"rewire_prob must be in [0, 1], got {rewire_prob}")
    for attempt in range(max_retries):
        adj = [set() for _ in range(n)]
        for u in range(n):
            for s in range(1, k // 2 + 1):
                v = (u + s) % n
                adj[u].add(v)
                adj[v].add(u)
        for s in range(1, k // 2 + 1):
            for u in range(n):
                v = (u + s) % n
                if rng.random() >= rewire_prob:
                    continue
                if len(adj[u]) >= n - 1:
                    continue  # no legal target left
                w = int(rng.integers(n))
                while w == u or w in adj[u]:
                    w = int(rng.integers(n))
                adj[u].discard(v)
                adj[v].discard(u)
                adj[u].add(w)
                adj[w].add(u)
        edges = set()
        for u in range(n):
            for v in adj[u]:
                edges.add((min(u, v), max(u, v)))
        nbrs = tuple(np.array(sorted(a), dtype=np.int64) for a in adj)
        if all(len(a) > 0 for a in adj) and _connected(n, nbrs):
            return Graph.from_edges(
                n,
                edges,
                kind="small-world",
                params={"n": n, "mean_degree": k, "rewire_prob": rewire_prob},
            )
    raise ValueError(
        f"small_world failed to produce a connected graph in {max_retries} attempts"
    )


def draw_pair_sequence(
    graph: Graph, T: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Pre-draw T gossip pairs in one pass: i uniform over agents, j uniform
    over N(i).

    Consumes exactly two generator calls (T waking agents, then T uniform
    neighbor picks), a frozen stream layout.
    """
    i_seq = rng.integers(0, graph.n, size=T)
    u_seq = rng.random(T)
    slots = (u_seq * graph.degrees[i_seq]).astype(np.int64)
    j_seq = graph.nbr_table[i_seq, slots]
    return i_seq, j_seq


def expected_transition_matrix(graph: Graph) -> np.ndarray:
    """Mean one-step averaging matrix E[A] of the asynchronous gossip chain.

    E[A] = I - (Sigma - P - P^T) / (2n) with Sigma = diag(row + column sums
    of the neighbor-choice matrix P).  Symmetric and doubly stochastic.
    """
    n = graph.n
    P = graph.choice_probabilities()
    sigma = P.sum(axis=1) + P.sum(axis=0)
    E = (P + P.T) / (2.0 * n)
    E[np.diag_indices(n)] += 1.0 - sigma / (2.0 * n)
    return E


def second_largest_eigenvalue(matrix: np.ndarray) -> float:
    """Second largest eigenvalue (by value) of a symmetric matrix."""
    vals = np.linalg.eigvalsh(matrix)
    return float(vals[-2])


def remove_edge(graph: Graph, i: int, j: int, mask: "AttackerMask | None" = None) -> Graph:
    """Return a copy of ``graph`` without edge (i, j).

    Rejects edges that are absent and refuses to disconnect the graph.  When
    an attacker mask is supplied and the cut disconnects the trustworthy
    subgraph, a warning is issued (the protocol still runs but consensus
    among trustworthy agents is no longer guaranteed).
    """
    e = (min(i, j), max(i, j))
    if e not in set(graph.edges):
        raise ValueError(f"edge {e} not present")
    edges = tuple(x for x in graph.edges if x != e)
    params = dict(graph.params)
    params["cut_edges"] = list(params.get("cut_edges", [])) + [list(e)]
    cut = Graph.from_edges(graph.n, edges, kind=graph.kind, params=params)
    if mask is not None and mask.ids.size:
        keep = [v for v in range(cut.n) if not mask.flags[v]]
        if not _connected(cut.n, cut.neighbors, keep=keep):
            warnings.warn(
                f"removing edge {e} disconnects the trustworthy subgraph",
                RuntimeWarning,
                stacklevel=2,
            )
    return cut


def induced_subgraph(graph: Graph, keep_ids) -> tuple[Graph, list[int]]:
    """Subgraph on ``keep_ids`` relabeled to 0..m-1; returns (graph, old ids)."""
    keep = sorted(int(v) for v in keep_ids)
    pos = {v: idx for idx, v in enumerate(keep)}
    edges = [
        (pos[i], pos[j]) for i, j in graph.edges if i in pos and j in pos
    ]
    sub = Graph.from_edges(len(keep), edges, kind=graph.kind + "-sub", params={"parent_ids": keep})
    return sub, keep


@dataclass(frozen=True)
class AttackerMask:
    """Boolean attacker membership over agents; trustworthy = not flagged."""

    flags: np.ndarray

    @property
    def ids(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    @property
    def m(self) -> int:
        return int(self.flags.sum())


def attacker_mask(
    graph: Graph, ids, require_trustworthy_connected: bool = True
) -> AttackerMask:
    """Build an attacker mask over ``graph`` from the given agent ids.

    By default enforces that the trustworthy agents still induce a connected
    subgraph, the standing assumption for consensus results and detector
    training data.
    """
    flags = np.zeros(graph.n, dtype=bool)
    for v in ids:
        v = int(v)
        if not (0 <= v < graph.n):
            raise ValueError(f"attacker id {v} out of range")
        flags[v] = True
    if flags.all():
        raise ValueError("at least one trustworthy agent required")
    if require_trustworthy_connected:
        keep = [v for v in range(graph.n) if not flags[v]]
        if not _connected(graph.n, graph.neighbors, keep=keep):
            raise ValueError(
                f"attackers {sorted(int(v) for v in ids)} disconnect the trustworthy subgraph"
            )
    return AttackerMask(flags=flags)
