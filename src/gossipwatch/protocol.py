"""Asynchronous gossip distributed projected subgradient protocol with
optional insider data injection.

One iteration wakes a uniformly random agent i, which pulls a uniformly
random neighbor j.  Trustworthy pair members average their states and take a
projected subgradient step on their own local least-squares objective;
attacker members re-emit a fixed target plus decaying noise.  Everything is
driven by caller-owned numpy generators so runs are reproducible.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import tempfile
import warnings
from dataclasses import dataclass, field
from pathlib import Path

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
    n_events = int(flags[i_seq].sum()) + int(flags[j_seq].sum())
    if n_events:
        event_noise = rng.uniform(-1.0, 1.0, size=(n_events, config.d))
    else:
        event_noise = np.empty((0, config.d))
    return beta, init_noise, i_seq, j_seq, event_noise


# The bitgen_t pointer in the "BitGenerator" capsule of a numpy bit generator.
_bitgen = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi)
)


_CC = ("cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")


@functools.cache
def _compiled_loop():
    """The C gossip loop of _gossip_loop.c, or None when it cannot be built
    or loaded here; then run_batch uses the numpy loop and warns once.

    The library is built on first use into $XDG_CACHE_HOME/gossipwatch
    (~/.cache/gossipwatch when that is unset or relative), named by the SHA-256 of the source and
    the compiler command, and moved into place by an atomic rename so that
    concurrent first uses do not collide."""
    source = Path(__file__).with_name("_gossip_loop.c")
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()
        xdg = os.environ.get("XDG_CACHE_HOME", "")
        cache = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "gossipwatch"
        lib = cache / f"gossip_loop-{key[:16]}.so"
        if not lib.exists():
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = os.path.join(tmp, lib.name)
                subprocess.run(
                    [*_CC, "-o", built, str(source)], check=True, capture_output=True
                )
                os.replace(built, lib)
        loop = ctypes.CDLL(str(lib)).gossip_loop
    except (OSError, RuntimeError, subprocess.CalledProcessError) as err:
        if isinstance(err, subprocess.CalledProcessError):
            err = err.stderr.decode(errors="replace").strip()
        warnings.warn(
            f"cannot build or load the C gossip loop, using the numpy loop: {err}",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    i64, f64 = ctypes.c_int64, ctypes.c_double

    def arr(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    loop.restype = ctypes.c_int
    loop.argtypes = [
        i64, i64, i64, i64, i64, arr(np.uintp),
        arr(np.float64), arr(np.float64), arr(np.float64), arr(np.uint8),
        arr(np.int64), arr(np.int64), i64,
        arr(np.float64), arr(np.float64), arr(np.float64), arr(np.float64), arr(np.float64),
        f64, f64, f64, f64, arr(np.int64), arr(np.float64),
    ]
    return loop


# The fewest pair updates (about 2 ms of one thread) worth a thread of its
# own: waking an idle CPU for a smaller share costs more than it saves.
_THREAD_WORK = 1 << 16


def _kernel_threads(gens: np.ndarray, T: int) -> int:
    """Threads for one compiled run_batch call of T iterations over the
    bitgen_t pointers gens: one per _THREAD_WORK pair updates, up to one per
    instance and per CPU this process may run on.  One when two instances
    share a bit generator, whose draws then form one sequential stream."""
    if len(np.unique(gens)) < len(gens):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(len(gens), cpus, len(gens) * T // _THREAD_WORK))


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
    order of _draw_instance_randomness and left in the state that order
    leaves.  checkpoints lists iterations t whose full (B, n, d) states are
    kept; range(T + 1) records whole trajectories.

    Only the two agents of the sampled pair change state at an iteration.
    Trustworthy members move to the projected subgradient step from the pair
    average of the pre-iteration states; attacker members re-emit
    alpha + lambda_hat^t U[-1, 1]^d.  The compiled loop of _gossip_loop.c
    draws each instance's randomness itself, through its generator's C
    interface (numpy's bitgen_t) and without the generator's lock, so it is
    not thread-safe against another user of the same generator.  A batch
    of enough work is stepped on as many threads as there are CPUs this
    process may run on, each extra thread bound to its own CPU (one thread
    when two instances share a generator); the output does not depend on
    that count.  Where no C compiler works, the draws are made in
    numpy and the iterations run serially in the bitwise-equal numpy loop.
    """
    B = len(rngs)
    n, d, T = graph.n, config.d, config.T
    if flags.shape != (B, n) or thetas.shape != (B, n, d) or phis.shape != (B, n):
        raise ValueError("batch array shapes are inconsistent")
    if flags.any():
        if alphas is None or lambda_hat is None:
            raise ValueError("attackers present but alphas/lambda_hat missing")
        alphas = np.ascontiguousarray(alphas, dtype=np.float64)
        if alphas.shape != (B, d):
            raise ValueError(f"alphas must be (B, d) = {(B, d)}, got {alphas.shape}")
        powers = lambda_hat ** np.arange(T + 1, dtype=np.float64)
    else:
        alphas, powers = np.zeros((B, d)), np.zeros(T + 1)

    flags = np.ascontiguousarray(flags, dtype=np.uint8)
    thetas = np.ascontiguousarray(thetas, dtype=np.float64)
    phis = np.ascontiguousarray(phis, dtype=np.float64)
    times = sorted({int(c) for c in checkpoints if 0 <= int(c) <= T})
    snap_of = np.full(T + 1, -1, dtype=np.int64)
    snap_of[times] = np.arange(len(times))
    snaps = np.empty((len(times), B, n, d))
    sched = config.stepsize.schedule(T)
    loop = _compiled_loop()
    if loop is None:
        first, last, sums = _numpy_run(
            graph, config, flags, thetas, phis, alphas, powers, rngs, sched, snap_of, snaps
        )
    else:
        first, last, sums = (np.empty((B, n, d)) for _ in range(3))
        gens = np.array(
            [_bitgen(rng.bit_generator.capsule, b"BitGenerator") for rng in rngs],
            dtype=np.uintp,
        )
        status = loop(
            _kernel_threads(gens, T), B, n, d, T, gens, first, last, sums, flags,
            graph.degrees, graph.nbr_table, graph.nbr_table.shape[1],
            thetas, phis, alphas, powers, sched,
            float(config.init_low), float(config.init_high),
            float(config.box_lo), float(config.box_hi), snap_of, snaps,
        )
        if status != 0:
            raise MemoryError("gossip loop could not allocate its work buffer")
    return BatchStats(
        first=first, last=last, sums=sums, checkpoints={t: snaps[k] for k, t in enumerate(times)}
    )


def _numpy_run(graph, config, flags, thetas, phis, alphas, powers, rngs, sched, snap_of, snaps):
    """run_batch without a compiler: the draws of _draw_instance_randomness
    per instance, then _numpy_loop.  Returns the first, last and summed
    states."""
    B = len(rngs)
    n, d, T = graph.n, config.d, config.T
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
        x, sums, i_seq, j_seq, flags, thetas, phis, alphas, powers, noise, start, sched,
        float(config.box_lo), float(config.box_hi), snap_of, snaps,
    )
    return first, x, sums


def _numpy_loop(
    x, sums, i_seq, j_seq, flags, thetas, phis, alphas, powers, noise, start, sched,
    lo, hi, snap_of, snaps,
):
    """The reference loop the C loop must match bit for bit, vectorized over
    the batch.  x holds the (B, n, d) states at t = 0 and receives them at
    t = T; sums holds x and receives the sum over t = 0..T.  Instance b's
    attack-noise rows are noise[start[b]:start[b + 1]], one per attacker
    pair-membership event in (t, waking-then-pulled) order.  snap_of[t] is
    the slot of iteration t in snaps, or -1."""
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
