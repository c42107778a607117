"""Reference implementations that only the tests use.

Per-instance spatial aggregates and the score statistics over them, the
score detector statistics of one dataset row, the pair-averaging matrix of
one gossip step, the rates of a thresholded detector, the per-layer
training path (one gradient array per layer and per bias, one row gather
per SGD step, a gossip merge through a decoded model), the problem draw and
the gossip iteration in numpy, which write out the frozen stream order of
every instance's draws, and the temporal and spatial scores of one dataset
row.  The package computes the same quantities by other routes (row
statistics over tailored slots reduced for a whole dataset at once, the
expected transition matrix, the exact ROC sweep, one flat gradient and
in-place merges, the compiled draws and gossip loop, scores over a whole
chunk's arrays); the tests check one against the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from gossipwatch.evaluation import GREATER_IS_H1, SMALLER_IS_H1, _validate_scores_labels
from gossipwatch.neural import Mlp, mlp_from_blob, params_to_blob
from gossipwatch.protocol import BatchStats, LeastSquaresProblem
from gossipwatch.topology import Graph


@dataclass(frozen=True)
class SdScoreFeatures:
    """Spatial aggregates of one monitoring agent over K instances.

    detection[k, a] = phibar_ij^k and localization[k, a] = phi_ij^k for the
    a-th neighbor (ascending ids); self_detection[k] = phibar_ii^k.
    """

    agent: int
    neighbor_ids: tuple[int, ...]
    detection: np.ndarray  # (K, nn, d)
    localization: np.ndarray  # (K, nn, d)
    self_detection: np.ndarray  # (K, d)
    K: int
    d: int


def sd_aggregates(sums: np.ndarray, graph: Graph, agent: int) -> SdScoreFeatures:
    """Per-instance spatial deviation vectors for detection and localization,
    from stacked (K, n, d) run time-sums."""
    K, _, d = sums.shape
    members = np.sort(np.append(graph.neighbors[agent], agent))
    center = sums[:, members, :].mean(axis=1)
    nbrs = graph.neighbors[agent]
    detection = sums[:, nbrs, :] - center[:, None, :]
    self_detection = sums[:, agent, :] - center
    # phi_ij = sum_t(x_j - x_i) - phibar_ii = S_j - 2 S_i + center
    localization = sums[:, nbrs, :] - 2.0 * sums[:, agent, None, :] + center[:, None, :]
    return SdScoreFeatures(
        agent=agent,
        neighbor_ids=tuple(int(v) for v in nbrs),
        detection=detection,
        localization=localization,
        self_detection=self_detection,
        K=K,
        d=d,
    )


def sd_detection_score(sd: SdScoreFeatures) -> float:
    """Mean of squared per-neighbor scalar spatial deviations."""
    scal = sd.detection.sum(axis=(0, 2)) / (sd.K * sd.d)
    return float((scal * scal).mean())


def sd_localization_scores(sd: SdScoreFeatures, include_self: bool = False) -> np.ndarray:
    """Squared scalar self-referenced deviations per neighbor.

    With include_self a final entry for j = i is appended, using
    phi_ii = -phibar_ii.
    """
    scal = sd.localization.sum(axis=(0, 2)) / (sd.K * sd.d)
    z = scal * scal
    if include_self:
        s = -sd.self_detection.sum() / (sd.K * sd.d)
        z = np.append(z, s * s)
    return z


# Per-row score detector statistics over one row's slots, the references
# for the whole-dataset reductions of evaluation.make_score_detector.  Slots
# carry xi (temporal rows) or chi (spatial rows); padded slots repeat the
# monitor's self value and are excluded where the statistic is a neighbor
# aggregate.


def td_detection_score(xi_values: np.ndarray) -> float:
    """Mean absolute deviation of neighbor displacements from their mean."""
    xi = np.asarray(xi_values, dtype=np.float64)
    if xi.size == 0:
        raise ValueError("need at least one neighbor score")
    return float(np.abs(xi - xi.mean()).mean())


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
    v = np.asarray(values, dtype=np.float64) - 2.0 * self_value
    return v * v


def pair_averaging_matrix(n: int, i: int, j: int) -> np.ndarray:
    """One-step state-averaging matrix of the pair (i, j): rows i and j both
    become (e_i + e_j)/2, all other rows stay identity."""
    A = np.eye(n)
    A[i, i] = A[j, j] = 0.5
    A[i, j] = A[j, i] = 0.5
    return A


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


# --- per-layer training path ------------------------------------------------


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _forward_cached(mlp: Mlp, X: np.ndarray) -> list[np.ndarray]:
    acts = [X]
    a = X
    last = len(mlp.weights) - 1
    for h, (W, b) in enumerate(zip(mlp.weights, mlp.biases)):
        z = a @ W.T + b
        a = _sigmoid(z) if h == last else np.maximum(z, 0.0)
        acts.append(a)
    return acts


def _bce(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    pc = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc))


def loss_and_grad(mlp: Mlp, X, Y, mask=None):
    """Mean BCE over the batch and its gradient as per-layer lists
    (dWs, dbs)."""
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    Y = np.asarray(Y, dtype=np.float64).reshape(X.shape[0], -1)
    B, out = Y.shape
    if mask is None:
        w = np.full_like(Y, 1.0 / out)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(Y.shape)
        valid = mask.sum(axis=1, keepdims=True)
        if (valid == 0).any():
            raise ValueError("every row needs at least one unmasked output slot")
        w = mask / valid
    acts = _forward_cached(mlp, X)
    p = acts[-1]
    loss = float((w * _bce(p, Y)).sum() / B)
    delta = w * (p - Y) / B
    dWs = [np.empty(0)] * len(mlp.weights)
    dbs = [np.empty(0)] * len(mlp.biases)
    for h in range(len(mlp.weights) - 1, -1, -1):
        dWs[h] = delta.T @ acts[h]
        dbs[h] = delta.sum(axis=0)
        if h > 0:
            delta = (delta @ mlp.weights[h]) * (acts[h] > 0)
    return loss, dWs, dbs


def sgd_step(mlp: Mlp, X, Y, eta: float, mask=None) -> float:
    """One gradient step, updating each layer's weights and biases apart."""
    loss, dWs, dbs = loss_and_grad(mlp, X, Y, mask)
    for W, b, dW, db in zip(mlp.weights, mlp.biases, dWs, dbs):
        W -= eta * dW
        b -= eta * db
    return loss


def train(mlp: Mlp, X, Y, config, rng, mask=None) -> list[float]:
    """config.epochs shuffled epochs that gather each batch's rows apart."""
    losses = []
    for _ in range(config.epochs):
        B = X.shape[0]
        perm = rng.permutation(B)
        total = 0.0
        for s in range(0, B, config.batch_size):
            idx = perm[s : s + config.batch_size]
            loss = sgd_step(
                mlp, X[idx], Y[idx], config.eta, None if mask is None else mask[idx]
            )
            total += loss * idx.size
        losses.append(total / B)
    return losses


def gossip_act(lr, graph: Graph, rng: np.random.Generator):
    """One learner's turn of gossip training: decode the inbox into a model,
    merge it into a new parameter vector, then step and pick a recipient."""
    if lr.inbox is not None:
        received = mlp_from_blob(lr.model.sizes, lr.inbox)
        lr.model = Mlp(lr.model.sizes, (1.0 - lr.mu) * lr.model.params + lr.mu * received.params)
        lr.inbox = None
    rows = lr.X.shape[0]
    if rows:
        take = min(lr.config.batch_size, rows)
        idx = rng.choice(rows, size=take, replace=False)
        loss = sgd_step(
            lr.model, lr.X[idx], lr.Y[idx], lr.config.eta,
            None if lr.mask is None else lr.mask[idx],
        )
    else:
        loss = float("nan")
    nbrs = graph.neighbors[lr.agent]
    recipient = int(nbrs[int(rng.random() * len(nbrs))])
    return recipient, params_to_blob(lr.model), loss


# --- numpy gossip iteration -------------------------------------------------


@dataclass(frozen=True)
class PlantedProblem(LeastSquaresProblem):
    """A problem with the planted solution that generated its phi."""

    x_star: np.ndarray  # (d,)


def generate_problem(n: int, d: int, rng: np.random.Generator) -> PlantedProblem:
    """protocol.draw_problems for one clean instance, in numpy: theta ~
    U[0.5, 2.5]^(n x d), then x* ~ U[0, 1]^d, and phi = theta x*."""
    theta = rng.uniform(0.5, 2.5, size=(n, d))
    x_star = rng.uniform(0.0, 1.0, size=d)
    return PlantedProblem(theta=theta, phi=theta @ x_star, x_star=x_star)



def draw_pair_sequence(graph: Graph, T: int, rng: np.random.Generator):
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


def _draw_instance_randomness(graph, config, flags, rng):
    """All protocol randomness of one instance, in frozen stream order:
    trustworthy initials, attacker initial noise, the pair sequence, then one
    noise row per attacker pair-membership event (t ascending, waking member
    before pulled member).  Each instance draws through here, so its states
    depend only on its own generator, not on the batch it runs in."""
    beta = rng.uniform(config.init_low, config.init_high, size=(graph.n, config.d))
    m = int(flags.sum())
    init_noise = rng.uniform(-1.0, 1.0, size=(m, config.d)) if m else None
    i_seq, j_seq = draw_pair_sequence(graph, config.T, rng)
    n_events = int(flags[i_seq].sum()) + int(flags[j_seq].sum())
    if n_events:
        event_noise = rng.uniform(-1.0, 1.0, size=(n_events, config.d))
    else:
        event_noise = np.empty((0, config.d))
    return beta, init_noise, i_seq, j_seq, event_noise


def pcg64_row(rng: np.random.Generator) -> np.ndarray:
    """The (6,) uint64 states row of a PCG64 generator, laid out as
    protocol.seed_states lays it out."""
    state = rng.bit_generator.state
    assert state["bit_generator"] == "PCG64"
    words = [state["state"]["state"], state["state"]["inc"]]
    mask = (1 << 64) - 1
    return np.array(
        [w for v in words for w in (v >> 64, v & mask)]
        + [state["has_uint32"], state["uinteger"]],
        np.uint64,
    )


def numpy_run_batch(
    graph, flags, thetas, phis, alphas, lambda_hat, config, rngs, checkpoints=()
) -> BatchStats:
    """protocol.run_batch in numpy: the draws of _draw_instance_randomness
    per instance, then _numpy_loop over the whole batch.  The same arguments,
    except that rngs are numpy generators, not PCG64 states rows; the same
    BatchStats and bits, and each generator left in the state that run_batch
    leaves its row in (compare with pcg64_row)."""
    B = len(rngs)
    n, d, T = graph.n, config.d, config.T
    flags = np.ascontiguousarray(flags, dtype=np.uint8)
    if flags.any():
        alphas = np.ascontiguousarray(alphas, dtype=np.float64)
        powers = lambda_hat ** np.arange(T + 1, dtype=np.float64)
    else:
        alphas, powers = np.zeros((B, d)), np.zeros(T + 1)
    times = sorted({int(c) for c in checkpoints if 0 <= int(c) <= T})
    snap_of = np.full(T + 1, -1, dtype=np.int64)
    snap_of[times] = np.arange(len(times))
    snaps = np.empty((len(times), B, n, d))

    i_seq = np.empty((B, T), dtype=np.int64)
    j_seq = np.empty((B, T), dtype=np.int64)
    event_rows = []
    x = np.empty((B, n, d))
    for b, rng in enumerate(rngs):
        beta, init_noise, i_seq[b], j_seq[b], ev = _draw_instance_randomness(
            graph, config, flags[b], rng
        )
        event_rows.append(ev)
        x[b] = beta
        ids = np.flatnonzero(flags[b])
        if ids.size:
            x[b, ids] = alphas[b] + 1.0 * init_noise
    # Instance b's noise rows are noise[start[b]:start[b + 1]].
    start = np.zeros(B + 1, dtype=np.int64)
    np.cumsum([ev.shape[0] for ev in event_rows], out=start[1:])
    noise = np.concatenate(event_rows + [np.zeros((1, d))])
    first = x.copy()
    sums = x.copy()
    _numpy_loop(
        x, sums, i_seq, j_seq, flags, np.asarray(thetas, dtype=np.float64),
        np.asarray(phis, dtype=np.float64), alphas, powers, noise, start,
        config.stepsize.schedule(T), float(config.box_lo), float(config.box_hi), snap_of, snaps,
    )
    return BatchStats(
        first=first, last=x, sums=sums, checkpoints={t: snaps[k] for k, t in enumerate(times)}
    )


def _numpy_loop(
    x, sums, i_seq, j_seq, flags, thetas, phis, alphas, powers, noise, start, sched,
    lo, hi, snap_of, snaps,
):
    """The reference loop the compiled loop must match bit for bit,
    vectorized over the batch.  x holds the (B, n, d) states at t = 0 and
    receives them at t = T; sums holds x and receives the sum over
    t = 0..T.  Instance b's attack-noise rows are noise[start[b]:start[b + 1]],
    one per attacker pair-membership event in (t, waking-then-pulled) order.
    snap_of[t] is the slot of iteration t in snaps, or -1."""
    B, T = i_seq.shape
    aB = np.arange(B)
    att_i = flags[aB[:, None], i_seq].astype(bool)
    att_j = flags[aB[:, None], j_seq].astype(bool)
    # Row index of each membership event, cumulative in (t, i-then-j) order.
    inter = np.stack([att_i, att_j], axis=2).reshape(B, 2 * T)
    idx = (start[:B, None] + np.cumsum(inter, axis=1) - 1).reshape(B, T, 2)
    idx_i, idx_j = np.maximum(idx[:, :, 0], 0), np.maximum(idx[:, :, 1], 0)
    any_event = bool(inter.any())
    if snap_of[0] >= 0:
        snaps[snap_of[0]] = x
    for t in range(1, T + 1):
        i = i_seq[:, t - 1]
        j = j_seq[:, t - 1]
        xbar = 0.5 * (x[aB, i] + x[aB, j])
        gam = sched[t - 1]
        for member, att_m, idx_m in ((i, att_i, idx_i), (j, att_j, idx_j)):
            th = thetas[aB, member]
            resid = (th * xbar).sum(axis=-1) - phis[aB, member]
            upd = np.clip(xbar - gam * (2.0 * th * resid[:, None]), lo, hi)
            if any_event:
                att_vals = alphas + powers[t] * noise[idx_m[:, t - 1]]
                upd = np.where(att_m[:, t - 1][:, None], att_vals, upd)
            x[aB, member] = upd
        sums += x
        if snap_of[t] >= 0:
            snaps[snap_of[t]] = x


# --- per-row features -------------------------------------------------------


def temporal_from_endpoints(
    first: np.ndarray, last: np.ndarray, graph: Graph, agent: int
) -> tuple[np.ndarray, float]:
    """Temporal scores xi_ij of one row from stacked (K, n, d) endpoint
    states: the neighbor values in ascending id order and the monitor's own
    value."""
    K, _, d = first.shape
    per_agent = (last - first).sum(axis=(0, 2)) / (K * d)
    return per_agent[graph.neighbors[agent]], float(per_agent[agent])


def spatial_from_sums(sums: np.ndarray, graph: Graph, agent: int) -> tuple[np.ndarray, float]:
    """Spatial scores chi_ij of one row from stacked (K, n, d) run
    time-sums: the neighbor values in ascending id order and the monitor's
    own value."""
    K, _, d = sums.shape
    members = np.sort(np.append(graph.neighbors[agent], agent))
    center = sums[:, members, :].mean(axis=1)  # (K, d) time-sum of xbar_i
    nbrs = graph.neighbors[agent]
    dev = sums[:, nbrs, :] - center[:, None, :]  # (K, nn, d) phibar_ij
    self_dev = sums[:, agent, :] - center  # (K, d) phibar_ii
    return dev.sum(axis=(0, 2)) / (K * d), float(self_dev.sum() / (K * d))
