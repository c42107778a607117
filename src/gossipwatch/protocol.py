"""Asynchronous gossip distributed projected subgradient protocol with
optional insider data injection.

One iteration wakes a uniformly random agent i, which pulls a uniformly
random neighbor j.  Trustworthy pair members average their states and take a
projected subgradient step on their own local least-squares objective;
attacker members re-emit a fixed target plus decaying noise.  Every
instance draws from its own numpy PCG64 generator, held as one row of a
states array that the caller seeds from SeedSequence entropy, so runs are
reproducible.
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

from gossipwatch.topology import Graph


@dataclass(frozen=True)
class LeastSquaresProblem:
    """Local objectives f_i(x) = |theta_i . x - phi_i|^2 with a shared
    planted solution, so the global optimum value is zero."""

    theta: np.ndarray  # (n, d)
    phi: np.ndarray  # (n,)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @property
    def d(self) -> int:
        return self.theta.shape[1]


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


# -ffp-contract=off keeps every product and sum rounded as numpy rounds it;
# no flag that reassociates, fuses or targets this host's CPU may join it,
# since the bits and the portable cache key depend on the flags.
_CC = ("cc", "-O3", "-ffp-contract=off", "-shared", "-fPIC")


@functools.cache
def _compiled_loop():
    """The library of _gossip_loop.c, its entries bound with ctypes.

    The library is built on first use into $XDG_CACHE_HOME/gossipwatch
    (~/.cache/gossipwatch when that is unset or relative), named by the SHA-256 of the source and
    the compiler command, and moved into place by an atomic rename so that
    concurrent first uses do not collide.  Where it cannot be built or
    loaded, a RuntimeError names the compiler command and the compiler's
    stderr or the OSError (no compiler on PATH, say)."""
    source = Path(__file__).with_name("_gossip_loop.c")
    command = " ".join([*_CC, str(source)])
    try:
        key = hashlib.sha256(source.read_bytes() + " ".join(_CC).encode()).hexdigest()
        xdg = os.environ.get("XDG_CACHE_HOME", "")
        cache = (Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache") / "gossipwatch"
        so = cache / f"gossip_loop-{key[:16]}.so"
        if not so.exists():
            cache.mkdir(parents=True, exist_ok=True)
            with tempfile.TemporaryDirectory(dir=cache) as tmp:
                built = os.path.join(tmp, so.name)
                subprocess.run(
                    [*_CC, "-o", built, str(source)], check=True, capture_output=True
                )
                os.replace(built, so)
        lib = ctypes.CDLL(str(so))
    except (OSError, subprocess.CalledProcessError) as err:
        detail = err
        if isinstance(err, subprocess.CalledProcessError):
            detail = err.stderr.decode(errors="replace").strip()
        raise RuntimeError(
            f"cannot build or load the C gossip loop with `{command}`: {detail}"
        ) from err
    i64, f64 = ctypes.c_int64, ctypes.c_double

    def arr(dtype):
        return np.ctypeslib.ndpointer(dtype, flags="C_CONTIGUOUS")

    lib.seed_states.restype = None
    lib.seed_states.argtypes = [i64, i64, arr(np.uint32), arr(np.uint64)]
    lib.gossip_loop.restype = ctypes.c_int
    lib.gossip_loop.argtypes = [
        i64, i64, i64, i64, arr(np.uint64),
        arr(np.float64), arr(np.float64), arr(np.float64), arr(np.uint8),
        arr(np.int64), arr(np.int64), i64,
        arr(np.float64), arr(np.float64), arr(np.float64), arr(np.float64), arr(np.float64),
        f64, f64, f64, f64, arr(np.int64), arr(np.float64),
    ]
    lib.draw_problems.restype = None
    lib.draw_problems.argtypes = [
        i64, i64, i64, arr(np.uint64), arr(np.uint8),
        arr(np.float64), arr(np.float64), arr(np.float64),
    ]
    # neural's step passes raw addresses, bound once per fit.
    ptr = ctypes.c_void_p
    lib.net_forward.restype = None
    lib.net_forward.argtypes = [ptr, ptr, ptr, i64, i64]
    lib.net_output.restype = None
    lib.net_output.argtypes = [ptr, i64, i64]
    lib.net_backward.restype = i64
    lib.net_backward.argtypes = [ptr, ptr, ptr, i64, ptr, ptr, i64, f64]
    return lib


def _words(value) -> list[int]:
    """numpy's coercion of a seed value to 32-bit words: a non-negative int
    as its little-endian words (0 as [0]), a sequence as its items' words
    one after another."""
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if value < 0:
            raise ValueError(f"seed values must be non-negative, got {value}")
        words = [value & 0xFFFFFFFF]
        while value := value >> 32:
            words.append(value & 0xFFFFFFFF)
        return words
    return [w for item in value for w in _words(item)]


def entropy_words(entropy, spawn_key=()) -> list[int]:
    """The words SeedSequence(entropy, spawn_key=spawn_key) hashes: the run
    entropy's, zero-padded to the pool's 4 words when the spawn key is not
    empty, then the spawn key's.  Child k of a fresh SeedSequence, from its
    spawn(), has the spawn key (*spawn_key, k)."""
    run = _words(entropy)
    if spawn_key:
        run += [0] * (4 - len(run))
    return run + _words(spawn_key)


def seed_states(words) -> np.ndarray:
    """(N, 6) uint64 PCG64 states, row b that of PCG64(SeedSequence(...))
    for the entropy words of row b of words (N, E), each from
    entropy_words: state high and low, increment high and low, has_uint32
    and uinteger, the layout the compiled entries step in place.  Seeded in
    C, bit for bit as numpy seeds it."""
    words = np.ascontiguousarray(words, dtype=np.uint32)
    if words.ndim != 2 or words.shape[1] < 1:
        raise ValueError(f"words must be (N, E) with E >= 1, got {words.shape}")
    states = np.empty((words.shape[0], 6), np.uint64)
    _compiled_loop().seed_states(*words.shape, words, states)
    return states


def _check_states(rngs) -> int:
    """The instance count of a states array from seed_states, which the
    compiled entries advance in place."""
    if not (
        isinstance(rngs, np.ndarray) and rngs.dtype == np.uint64 and rngs.ndim == 2
        and rngs.shape[1] == 6 and rngs.flags.c_contiguous and rngs.flags.writeable
    ):
        raise TypeError("rngs must be a writable C-contiguous (B, 6) uint64 array "
                        "of PCG64 states from seed_states")
    return rngs.shape[0]


def draw_problems(n: int, d: int, attacked: np.ndarray, rngs: np.ndarray):
    """Each instance's problem and injection target, drawn from its PCG64
    states row in C in the frozen stream order: theta ~ U[0.5, 2.5]^(n x d),
    x* ~ U[0, 1]^d, then, where attacked[b], alpha ~ U[-0.5, 0.5]^d, as
    Generator.uniform draws them.  rngs (B, 6), from seed_states, is
    advanced in place, to the state those draws leave numpy's generator in.
    Returns thetas (B, n, d), phis (B, n) and alphas (B, d), zero where not
    attacked; phi = theta x* is one batched matmul, which rounds as each
    instance's theta @ x_star."""
    B = _check_states(rngs)
    attacked = np.ascontiguousarray(attacked, dtype=np.uint8)
    if attacked.shape != (B,):
        raise ValueError(f"attacked must be (B,) = {(B,)}, got {attacked.shape}")
    thetas, x_stars, alphas = np.empty((B, n, d)), np.empty((B, d)), np.zeros((B, d))
    _compiled_loop().draw_problems(B, n, d, rngs, attacked, thetas, x_stars, alphas)
    return thetas, np.matmul(thetas, x_stars[..., None])[..., 0], alphas


def run_batch(
    graph: Graph,
    flags: np.ndarray,
    thetas: np.ndarray,
    phis: np.ndarray,
    alphas: np.ndarray | None,
    lambda_hat: float | None,
    config: ProtocolConfig,
    rngs: np.ndarray,
    checkpoints: tuple[int, ...] = (),
) -> BatchStats:
    """Runner for B instances on a shared graph, in the compiled loop of
    _gossip_loop.c.

    flags is (B, n) attacker membership, thetas (B, n, d), phis (B, n),
    alphas (B, d) (ignored for rows without attackers; may be None when no
    row has any).  rngs (B, 6) holds each instance's PCG64 generator as a
    states row from seed_states (or as draw_problems left it); the loop
    draws from it in the frozen stream order that the numpy reference in
    tests/oracles.py writes out, and advances it in place to the state that
    order leaves numpy's generator in.  checkpoints lists
    iterations t whose full (B, n, d) states are kept; range(T + 1) records
    whole trajectories.

    Only the two agents of the sampled pair change state at an iteration.
    Trustworthy members move to the projected subgradient step from the pair
    average of the pre-iteration states; attacker members re-emit
    alpha + lambda_hat^t U[-1, 1]^d.  The instances run one after another
    on the calling thread; an instance touches only its own states row, so
    its output does not depend on the batch it runs in.  Raises
    RuntimeError where the loop cannot be built (see _compiled_loop).
    """
    B = _check_states(rngs)
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
    first, last, sums = (np.empty((B, n, d)) for _ in range(3))
    status = _compiled_loop().gossip_loop(
        B, n, d, T, rngs, first, last, sums, flags,
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

