"""Asynchronous gossip distributed projected subgradient protocol with
optional insider data injection.

One iteration wakes a uniformly random agent i, which pulls a uniformly
random neighbor j.  Trustworthy pair members average their states and take a
projected subgradient step on their own local least-squares objective;
attacker members re-emit a fixed target plus decaying noise.  Everything is
driven by caller-owned numpy generators so runs are reproducible.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from gossipwatch.topology import Graph, draw_pair_sequence


@dataclass(frozen=True)
class LeastSquaresProblem:
    """Local objectives f_i(x) = |theta_i . x - phi_i|^2 with a shared
    planted solution, so the global optimum value is zero."""

    theta: np.ndarray  # (n, d)
    phi: np.ndarray  # (n,)
    x_star: np.ndarray  # (d,) planted generator of phi

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]


def generate_problem(n: int, d: int, rng: np.random.Generator) -> LeastSquaresProblem:
    """Draw theta ~ U[0.5, 2.5]^(n x d), x* ~ U[0, 1]^d, phi = theta x*."""
    theta = rng.uniform(0.5, 2.5, size=(n, d))
    x_star = rng.uniform(0.0, 1.0, size=d)
    phi = theta @ x_star
    return LeastSquaresProblem(theta=theta, phi=phi, x_star=x_star)


def global_objective(problem: LeastSquaresProblem, x: np.ndarray) -> float:
    r = problem.theta @ x - problem.phi
    return float((r * r).mean())


def optimal_value(problem: LeastSquaresProblem) -> tuple[np.ndarray, float]:
    """Minimizer and minimum of the global objective via least squares.

    Returns the minimum-norm minimizer.  Warns when theta is rank deficient,
    in which case the minimizer is one point on a flat optimal manifold.
    """
    x_hat, _, rank, _ = np.linalg.lstsq(problem.theta, problem.phi, rcond=None)
    if rank < problem.d:
        warnings.warn(
            f"theta has rank {rank} < d = {problem.d}; optimal set is a manifold, "
            "reporting the minimum-norm point",
            RuntimeWarning,
            stacklevel=2,
        )
    return x_hat, global_objective(problem, x_hat)


@dataclass(frozen=True)
class Stepsize:
    """Stepsize schedule gamma(t) for t = 1, 2, ...

    family "harmonic": gamma(t) = c0 / (c1 + t), the divergent-sum
    square-summable choice used in all default experiments.  family
    "constant": gamma(t) = c0, admitted for fixed-point tests (c0 = 0 turns
    the protocol into pure pairwise averaging).
    """

    family: str = "harmonic"
    c0: float = 1.0
    c1: float = 10.0

    def __post_init__(self):
        if self.family == "harmonic":
            if self.c0 <= 0 or self.c1 < 0:
                raise ValueError("harmonic stepsize needs c0 > 0 and c1 >= 0")
        elif self.family == "constant":
            if self.c0 < 0:
                raise ValueError("constant stepsize needs c0 >= 0")
        else:
            raise ValueError(f"unknown stepsize family: {self.family!r}")

    def schedule(self, T: int) -> np.ndarray:
        """gamma(1..T) as an array (index t-1)."""
        if self.family == "harmonic":
            return self.c0 / (self.c1 + np.arange(1, T + 1, dtype=np.float64))
        return np.full(T, self.c0, dtype=np.float64)


@dataclass(frozen=True)
class ProtocolConfig:
    d: int = 2
    T: int = 2000
    stepsize: Stepsize = field(default_factory=Stepsize)
    box_lo: float = -10.0
    box_hi: float = 10.0
    init_low: float = 0.0  # trustworthy initial states ~ U[init_low, init_high]^d
    init_high: float = 1.0

    def __post_init__(self):
        if self.d < 1 or self.T < 1:
            raise ValueError(f"need d, T >= 1, got d={self.d}, T={self.T}")
        if not self.box_lo < self.box_hi:
            raise ValueError(f"box requires lo < hi, got [{self.box_lo}, {self.box_hi}]")
        if not self.init_low <= self.init_high:
            raise ValueError("init_low must be <= init_high")


@dataclass
class BatchStats:
    """Sufficient statistics of a batch of instances: states at t = 0 and
    t = T plus the running sum over t = 0..T, from which the detection
    features are linear functions.  Optional checkpoint snapshots."""

    first: np.ndarray  # (B, n, d)
    last: np.ndarray  # (B, n, d)
    sums: np.ndarray  # (B, n, d)
    checkpoints: dict = field(default_factory=dict)  # t -> (B, n, d)


def _draw_instance_randomness(graph, config, flags, rng):
    """All protocol randomness of one instance, in frozen stream order:
    trustworthy initials, attacker initial noise, the pair sequence, then one
    noise row per attacker pair-membership event (t ascending, waking member
    before pulled member).  Each instance of run_batch draws through here,
    so an instance's states depend only on its own generator, not on the
    batch it runs in."""
    beta = rng.uniform(config.init_low, config.init_high, size=(graph.n, config.d))
    m = int(flags.sum())
    init_noise = rng.uniform(-1.0, 1.0, size=(m, config.d)) if m else None
    i_seq, j_seq = draw_pair_sequence(graph, config.T, rng)
    att_i = flags[i_seq]
    att_j = flags[j_seq]
    n_events = int(att_i.sum()) + int(att_j.sum())
    event_noise = rng.uniform(-1.0, 1.0, size=(n_events, config.d)) if n_events else None
    return beta, init_noise, i_seq, j_seq, att_i, att_j, event_noise


def run_batch(
    graph: Graph,
    flags: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
    alphas: np.ndarray | None,
    lambda_hat: float | None,
    config: ProtocolConfig,
    rngs: list[np.random.Generator],
    checkpoints: tuple[int, ...] = (),
) -> BatchStats:
    """Vectorized runner for B instances on a shared graph.

    flags is (B, n) attacker membership, thetas (B, n, d), phis (B, n),
    alphas (B, d) (ignored for rows without attackers; may be None when no
    row has any).  rngs holds one generator per instance, consumed in the
    order of _draw_instance_randomness.  checkpoints lists iterations t
    whose full (B, n, d) states are kept; range(T + 1) records whole
    trajectories.

    Only the two agents of the sampled pair change state at an iteration.
    Trustworthy members move to the projected subgradient step from the pair
    average of the pre-iteration states; attacker members re-emit
    alpha + lambda_hat^t U[-1, 1]^d.
    """
    B = len(rngs)
    n, d, T = graph.n, config.d, config.T
    if flags.shape != (B, n) or thetas.shape != (B, n, d) or phis.shape != (B, n):
        raise ValueError("batch array shapes are inconsistent")
    any_attack = bool(flags.any())
    if any_attack and (alphas is None or lambda_hat is None):
        raise ValueError("attackers present but alphas/lambda_hat missing")

    i_seq = np.empty((B, T), dtype=np.int64)
    j_seq = np.empty((B, T), dtype=np.int64)
    att_i = np.zeros((B, T), dtype=bool)
    att_j = np.zeros((B, T), dtype=bool)
    event_rows = []
    x = np.empty((B, n, d))
    for b, rng in enumerate(rngs):
        beta, init_noise, isq, jsq, ai, aj, ev = _draw_instance_randomness(
            graph, config, flags[b], rng
        )
        i_seq[b], j_seq[b] = isq, jsq
        att_i[b], att_j[b] = ai, aj
        event_rows.append(ev)
        x[b] = beta
        ids = np.flatnonzero(flags[b])
        if ids.size:
            x[b, ids] = alphas[b] + 1.0 * init_noise

    if any_attack:
        powers = lambda_hat ** np.arange(T + 1, dtype=np.float64)
        max_ev = max(ev.shape[0] if ev is not None else 0 for ev in event_rows)
        noise = np.zeros((B, max(max_ev, 1), d))
        for b, ev in enumerate(event_rows):
            if ev is not None:
                noise[b, : ev.shape[0]] = ev
        # Row index of each membership event, cumulative in (t, i-then-j) order.
        inter = np.stack([att_i, att_j], axis=2).reshape(B, 2 * T)
        idx = (np.cumsum(inter, axis=1) - 1).reshape(B, T, 2)
        idx_i, idx_j = np.maximum(idx[:, :, 0], 0), np.maximum(idx[:, :, 1], 0)

    sched = config.stepsize.schedule(T)
    lo, hi = config.box_lo, config.box_hi
    aB = np.arange(B)
    S = x.copy()
    first = x.copy()
    snaps = {}
    want = set(int(c) for c in checkpoints)
    if 0 in want:
        snaps[0] = x.copy()
    for t in range(1, T + 1):
        i = i_seq[:, t - 1]
        j = j_seq[:, t - 1]
        xbar = 0.5 * (x[aB, i] + x[aB, j])
        gam = sched[t - 1]
        for member, att_m, idx_m in (
            (i, att_i, idx_i if any_attack else None),
            (j, att_j, idx_j if any_attack else None),
        ):
            th = thetas[aB, member]
            resid = (th * xbar).sum(axis=-1) - phis[aB, member]
            upd = np.clip(xbar - gam * (2.0 * th * resid[:, None]), lo, hi)
            if any_attack:
                rows = noise[aB, idx_m[:, t - 1]]
                att_vals = alphas + powers[t] * rows
                upd = np.where(att_m[:, t - 1][:, None], att_vals, upd)
            x[aB, member] = upd
        S += x
        if t in want:
            snaps[t] = x.copy()
    return BatchStats(first=first, last=x, sums=S, checkpoints=snaps)


def pair_averaging_matrix(n: int, i: int, j: int) -> np.ndarray:
    """One-step state-averaging matrix of the pair (i, j): rows i and j both
    become (e_i + e_j)/2, all other rows stay identity."""
    A = np.eye(n)
    A[i, i] = A[j, j] = 0.5
    A[i, j] = A[j, i] = 0.5
    return A
