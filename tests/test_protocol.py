"""Protocol kernel: problems, stepsizes, run_batch behaviour, and bitwise
parity of the compiled loop with the numpy reference of tests/oracles.py and
a pure-Python reference stepper."""

import ctypes
import itertools
import re
import subprocess
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from oracles import generate_problem, numpy_run_batch, pcg64_row

from gossipwatch import cli, datagen, protocol
from gossipwatch.protocol import (
    BatchStats,
    ProtocolConfig,
    Stepsize,
    draw_problems,
    entropy_words,
    global_objective,
    optimal_value,
    run_batch,
    seed_states,
)
from gossipwatch.topology import (
    attacker_mask,
    expected_transition_matrix,
    manhattan_grid,
    second_largest_eigenvalue,
    small_world,
)


# SeedSequence(entropy, spawn_key=key) of instance b, for each entropy
# shape the package seeds from: a single word (default_rng(b)), a master of
# 2^32 or more with a row key (a dataset row seed), a master of 2^64 or
# more, list entropy [master, seed, key] (experiments._rng), and a spawn key
# that takes the words past 8.
ENTROPIES = {
    "word": lambda b: (b, ()),
    "master-2^32": lambda b: (2**32 + 3, (0, 1, b)),
    "master-2^64": lambda b: (2**64 + 7 * b, ()),
    "list": lambda b: ([11, b, 2], ()),
    "long-key": lambda b: (5, (0, 1, b, 3, 2**33)),
}


def _drawn_by(bit_generator):
    """Entropy of instance b drawn at random by a numpy generator of the
    given kind: a 128-bit master and a spawn key of two 64-bit values, each
    with its top bit set, so every instance hashes 8 words."""

    def entropy(b):
        source = np.random.Generator(bit_generator(b))
        top = source.integers(2**63, 2**64, size=3, dtype=np.uint64, endpoint=False)
        low = int(source.integers(2**64, dtype=np.uint64))
        return (int(top[0]) << 64) | low, (int(top[1]), int(top[2]))

    return entropy


# Random entropy drawn by each kind of numpy bit generator.  The kernel
# steps PCG64 only; the kind names where its instances' seeds came from.
DRAWN = {
    bit_generator.__name__: _drawn_by(bit_generator)
    for bit_generator in (np.random.PCG64, np.random.Philox, np.random.MT19937)
}
SEEDS = {**ENTROPIES, **DRAWN}


def _states(seeds):
    """seed_states of default_rng(s) for each s, an int or a SeedSequence."""
    seqs = [np.random.SeedSequence(s) if isinstance(s, int) else s for s in seeds]
    return seed_states([entropy_words(ss.entropy, ss.spawn_key) for ss in seqs])


def _seeded(shape, B):
    """B instances of an entropy shape: their states from seed_states and
    the numpy generators of the same seeds, PCG64(SeedSequence(...))."""
    seqs = [np.random.SeedSequence(e, spawn_key=key) for e, key in map(SEEDS[shape], range(B))]
    return _states(seqs), [np.random.default_rng(ss) for ss in seqs]


def _generators(runner, seeds):
    """What runner takes for the seeds: run_batch PCG64 states, its numpy
    reference generators."""
    if runner is numpy_run_batch:
        return [np.random.default_rng(s) for s in seeds]
    return _states(seeds)


def _assert_same_generators(states, rngs):
    for b, rng in enumerate(rngs):
        assert np.array_equal(states[b], pcg64_row(rng)), b


def _run(
    graph, problems, config, seeds, flags=None, alphas=None, lam=None, runner=run_batch,
    **kwargs,
):
    """runner (run_batch or its numpy reference) over the given problems,
    one generator per seed."""
    B = len(problems)
    if flags is None:
        flags = np.zeros((B, graph.n), dtype=bool)
    return runner(
        graph, flags, np.stack([p.theta for p in problems]),
        np.stack([p.phi for p in problems]), alphas, lam, config,
        _generators(runner, seeds), **kwargs,
    )


def _trajectory(stats, b, T):
    """(T+1, n, d) states of instance b from a run with every checkpoint."""
    return np.stack([stats.checkpoints[t][b] for t in range(T + 1)])


def test_harmonic_stepsize_values():
    gamma = Stepsize().schedule(5)
    for t in range(1, 6):
        assert gamma[t - 1] == 1.0 / (10.0 + t)
    assert np.array_equal(gamma, 1.0 / (10.0 + np.arange(1, 6)))
    flat = Stepsize(family="constant", c0=0.25).schedule(999)
    assert flat.shape == (999,) and np.all(flat == 0.25)


def test_stepsize_rejects_unknown_family():
    with pytest.raises(ValueError):
        Stepsize(family="geometric")


def test_protocol_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(d=0)
    with pytest.raises(ValueError):
        ProtocolConfig(T=0)
    with pytest.raises(ValueError):
        ProtocolConfig(box_lo=1.0, box_hi=-1.0)


def test_generate_problem_laws():
    rng = np.random.default_rng(3)
    p = generate_problem(50, 3, rng)
    assert p.theta.shape == (50, 3) and p.phi.shape == (50,)
    assert p.theta.min() >= 0.5 and p.theta.max() <= 2.5
    assert p.x_star.min() >= 0.0 and p.x_star.max() <= 1.0
    assert np.allclose(p.phi, p.theta @ p.x_star)


@pytest.mark.parametrize("entropy", list(SEEDS))
def test_seed_states_match_numpy_seeding(entropy):
    """seed_states gives each row the state of PCG64(SeedSequence(...)) for
    the entropy words of entropy_words, before any draw."""
    states, rngs = _seeded(entropy, 6)
    _assert_same_generators(states, rngs)


def test_entropy_words_follow_numpy_coercion():
    assert entropy_words(0) == [0]
    assert entropy_words(2**32 + 3) == [3, 1]
    assert entropy_words([7, 0, 2**64]) == [7, 0, 0, 0, 1]
    assert entropy_words(7, (1, 2)) == [7, 0, 0, 0, 1, 2]
    assert entropy_words(2**130, (1,)) == [0, 0, 0, 0, 4, 1]
    with pytest.raises(ValueError, match="non-negative"):
        entropy_words(-1)


def test_spawned_children_seed_as_numpy_spawns_them():
    """Child k of a fresh SeedSequence has the seed's entropy words with k
    appended to its spawn key, for a plain and a keyed seed."""
    for ss in (np.random.SeedSequence(2**40 + 3), np.random.SeedSequence(9, spawn_key=(1, 2))):
        words = [entropy_words(ss.entropy, (*ss.spawn_key, k)) for k in range(4)]
        _assert_same_generators(seed_states(words), np.random.default_rng(ss).spawn(4))


def test_inline_pcg64_draws_match_numpy_draws(tmp_path):
    """1,000 draws of _gossip_loop.c's next_uint32 and next_double, mixed at
    random so that the buffered upper half of a 64-bit output is taken after
    doubles as well as after 32-bit draws, equal those of numpy's PCG64 C
    interface, and leave its state.  A harness that includes the source
    compiles with the package's flags."""
    source = Path(protocol.__file__).with_name("_gossip_loop.c")
    harness = tmp_path / "harness.c"
    harness.write_text(
        f'#include "{source}"\n'
        "void mixed_draws(uint64_t *row, const uint8_t *kinds, int64_t N, double *out)\n"
        "{\n"
        "    pcg64_t g = load_pcg64(row);\n"
        "    for (int64_t i = 0; i < N; i++)\n"
        "        out[i] = kinds[i] ? (double)next_uint32(&g) : next_double(&g);\n"
        "    store_pcg64(row, &g);\n"
        "}\n"
    )
    lib_path = tmp_path / "harness.so"
    subprocess.run([*protocol._CC, "-o", str(lib_path), str(harness)], check=True)
    lib = ctypes.CDLL(str(lib_path))
    lib.mixed_draws.restype = None
    lib.mixed_draws.argtypes = [
        np.ctypeslib.ndpointer(np.uint64, flags="C_CONTIGUOUS"),
        np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS"), ctypes.c_int64,
        np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS"),
    ]
    kinds = (np.random.default_rng(1).random(1000) < 0.5).astype(np.uint8)
    states, rngs = _seeded("master-2^32", 1)
    out = np.empty(1000)
    lib.mixed_draws(states[0], kinds, 1000, out)
    bits = rngs[0].bit_generator.ctypes
    expected = [
        float(bits.next_uint32(bits.state)) if kind else bits.next_double(bits.state)
        for kind in kinds
    ]
    assert np.array_equal(out, expected)
    _assert_same_generators(states, rngs)


def test_chunk_states_are_the_spawned_children_of_each_row(monkeypatch):
    """The states a dataset chunk seeds for its K instances per row are those
    of the spawn(K) children of each row's default_rng(row seed)."""
    seeded = []

    def keep(words):
        states = seed_states(words)
        seeded.append(states.copy())
        return states

    monkeypatch.setattr(datagen, "seed_states", keep)
    scenario = datagen.scenario_from_tag("S0", manhattan_grid(3, 3), T=20)
    seeds = [datagen._row_seed(2**33 + 1, "test", 2, r) for r in range(4)]
    datagen._batch_samples(scenario, seeds, (1, 3))
    children = [c for ss in seeds for c in np.random.default_rng(ss).spawn(3)]
    (states,) = seeded
    _assert_same_generators(states, children)


@pytest.mark.parametrize("entropy", list(SEEDS))
@pytest.mark.parametrize("n, d", [(9, 2), (20, 1), (50, 7)])
def test_compiled_problem_draws_match_numpy_draws(entropy, n, d):
    """draw_problems returns, for attacked and clean instances alike, the
    bits of generate_problem followed, where attacked, by the target draw
    uniform(-0.5, 0.5, d), and leaves every states row where those draws
    leave numpy's generator; its batched phi equals each instance's
    theta @ x_star."""
    B = 7
    attacked = np.arange(B) % 3 == 1
    states, rngs = _seeded(entropy, B)
    thetas, phis, alphas = draw_problems(n, d, attacked, states)
    for b, rng in enumerate(rngs):
        problem = generate_problem(n, d, rng)
        assert np.array_equal(thetas[b], problem.theta)
        assert np.array_equal(phis[b], problem.phi)
        assert np.array_equal(phis[b], problem.theta @ problem.x_star)
        target = rng.uniform(-0.5, 0.5, d) if attacked[b] else np.zeros(d)
        assert np.array_equal(alphas[b], target)
    _assert_same_generators(states, rngs)


def test_compiled_entries_take_only_pcg64_states():
    """A list of numpy generators, or a states array of another dtype or
    shape, is refused before the C call."""
    graph = manhattan_grid(3, 3)
    flags, thetas, phis = np.zeros((2, 9), bool), np.ones((2, 9, 2)), np.zeros((2, 9))
    for bad in ([np.random.default_rng(0)] * 2, np.zeros((2, 6), np.int64),
                np.zeros((2, 5), np.uint64), np.zeros((6, 2), np.uint64).T):
        with pytest.raises(TypeError, match="PCG64 states"):
            draw_problems(9, 2, np.zeros(2), bad)
        with pytest.raises(TypeError, match="PCG64 states"):
            run_batch(graph, flags, thetas, phis, None, None, ProtocolConfig(T=5), bad)


def test_optimal_value_matches_normal_equations():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = generate_problem(9, 2, rng)
        x_hat, f_star = optimal_value(p)
        normal = np.linalg.solve(p.theta.T @ p.theta, p.theta.T @ p.phi)
        assert np.allclose(x_hat, normal, atol=1e-9)
        assert f_star <= 1e-18  # zero residual by construction
        assert abs(global_objective(p, x_hat) - f_star) < 1e-12


def test_subgradient_matches_finite_differences():
    """A one-iteration run moves each pair member from the pair average by
    gamma times the gradient of its local objective."""
    graph = manhattan_grid(3, 3)
    rng = np.random.default_rng(4)
    problems = [generate_problem(9, 3, rng) for _ in range(6)]
    gam = 0.01
    config = ProtocolConfig(d=3, T=1, stepsize=Stepsize(family="constant", c0=gam))
    stats = _run(graph, problems, config, range(6), checkpoints=(0,))
    for b, p in enumerate(problems):
        x0, x1 = stats.checkpoints[0][b], stats.last[b]
        pair = np.flatnonzero(np.abs(x1 - x0).sum(axis=1))
        assert pair.size == 2
        xbar = 0.5 * (x0[pair[0]] + x0[pair[1]])
        for v in pair:
            g = (xbar - x1[v]) / gam
            fv = lambda z: ((p.theta[v] * z).sum() - p.phi[v]) ** 2
            for k in range(3):
                e = np.zeros(3)
                e[k] = 1e-6
                fd = (fv(xbar + e) - fv(xbar - e)) / 2e-6
                assert abs(g[k] - fd) < 1e-5


def test_run_batch_checkpoint_support():
    graph = manhattan_grid(3, 3)
    problems = [generate_problem(9, 2, np.random.default_rng(s)) for s in range(3)]
    config = ProtocolConfig(d=2, T=60)
    stats = _run(graph, problems, config, (1, 2, 3), checkpoints=range(61))
    assert sorted(stats.checkpoints) == list(range(61))
    nbr_sets = [set(int(v) for v in graph.neighbors[i]) for i in range(9)]
    for b in range(3):
        states = _trajectory(stats, b, 60)
        assert states.shape == (61, 9, 2)
        for t in range(1, 61):
            changed = np.flatnonzero(np.abs(states[t] - states[t - 1]).sum(axis=1))
            assert changed.size <= 2
            if changed.size == 2:
                assert int(changed[1]) in nbr_sets[int(changed[0])]


def test_batch_sums_match_checkpoints():
    graph = manhattan_grid(3, 3)
    problems = [generate_problem(9, 2, np.random.default_rng(30))]
    config = ProtocolConfig(d=2, T=40)
    stats = _run(graph, problems, config, (31,), checkpoints=range(41))
    states = _trajectory(stats, 0, 40)
    assert np.array_equal(stats.first[0], states[0])
    assert np.array_equal(stats.last[0], states[-1])
    assert np.allclose(stats.sums[0], states.sum(axis=0), rtol=1e-12)


def test_run_batch_respects_box():
    graph = manhattan_grid(3, 3)
    problem = generate_problem(9, 2, np.random.default_rng(5))
    config = ProtocolConfig(
        d=2, T=200, stepsize=Stepsize(family="constant", c0=50.0), box_lo=-1.5, box_hi=1.5,
    )
    stats = _run(graph, [problem], config, (6,), checkpoints=range(201))
    states = _trajectory(stats, 0, 200)
    assert states.min() >= -1.5 and states.max() <= 1.5


def test_run_batch_determinism():
    graph = manhattan_grid(3, 3)
    problem = generate_problem(9, 2, np.random.default_rng(7))
    config = ProtocolConfig(d=2, T=100)
    a = _run(graph, [problem] * 2, config, (8, 9))
    b = _run(graph, [problem] * 2, config, (8, 9))
    alone = _run(graph, [problem], config, (9,))
    assert np.array_equal(a.last, b.last) and np.array_equal(a.sums, b.sums)
    assert not np.array_equal(a.last[0], a.last[1])
    # an instance does not depend on the batch it runs in
    assert np.array_equal(alone.last[0], a.last[1])
    assert np.array_equal(alone.sums[0], a.sums[1])


def test_pure_averaging_keeps_mean_and_contracts_range():
    graph = manhattan_grid(3, 3)
    problem = generate_problem(9, 1, np.random.default_rng(2))
    config = ProtocolConfig(d=1, T=400, stepsize=Stepsize(family="constant", c0=0.0))
    states = _trajectory(_run(graph, [problem], config, (3,), checkpoints=range(401)), 0, 400)
    means = states.mean(axis=1)
    assert np.allclose(means, means[0], atol=1e-12)
    ranges = states.max(axis=1) - states.min(axis=1)
    assert np.all(np.diff(ranges[:, 0]) <= 1e-15)
    assert ranges[-1, 0] < 0.05 * ranges[0, 0]


def test_attacker_reemission_stays_near_alpha():
    graph = manhattan_grid(3, 3)
    flags = attacker_mask(graph, [4])[None]
    problem = generate_problem(9, 2, np.random.default_rng(10))
    lam = second_largest_eigenvalue(expected_transition_matrix(graph))
    alpha = np.array([0.3, -0.2])
    config = ProtocolConfig(d=2, T=300)
    stats = _run(
        graph, [problem], config, (11,), flags=flags, alphas=alpha[None], lam=lam,
        checkpoints=range(301),
    )
    states = _trajectory(stats, 0, 300)
    for t in range(1, 301):
        if not np.array_equal(states[t, 4], states[t - 1, 4]):
            gap = np.abs(states[t, 4] - alpha).max()
            assert gap <= lam**t + 1e-12


def _reference_run(graph, flags, theta, phi, alpha, lam, config, rng):
    """Pure-Python stepper of one instance; returns its (T+1, n, d) states.

    Draws the instance's randomness in the kernel's frozen stream order, then
    steps the DPS iteration one coordinate at a time in plain floats.
    """
    n, d, T = graph.n, config.d, config.T
    x = rng.uniform(config.init_low, config.init_high, size=(n, d)).tolist()
    attackers = [v for v in range(n) if flags[v]]
    for v, row in zip(attackers, rng.uniform(-1.0, 1.0, size=(len(attackers), d)).tolist()):
        x[v] = [alpha[c] + 1.0 * row[c] for c in range(d)]
    wake = rng.integers(0, n, size=T).tolist()
    nbrs = [graph.neighbors[i].tolist() for i in wake]
    pull = [a[int(u * len(a))] for a, u in zip(nbrs, rng.random(T).tolist())]
    events = sum(int(flags[i]) + int(flags[j]) for i, j in zip(wake, pull))
    noise = iter(rng.uniform(-1.0, 1.0, size=(events, d)).tolist())
    gammas = config.stepsize.schedule(T).tolist()
    # numpy's vectorized power can differ from scalar pow in the last bit, so
    # the noise decay factors are taken from it, as the kernel does
    decay = (lam ** np.arange(T + 1, dtype=np.float64)).tolist()
    states = [[row[:] for row in x]]
    for t in range(1, T + 1):
        i, j, gam = wake[t - 1], pull[t - 1], gammas[t - 1]
        xbar = [0.5 * (x[i][c] + x[j][c]) for c in range(d)]
        for v in (i, j):
            if flags[v]:
                row = next(noise)
                x[v] = [alpha[c] + decay[t] * row[c] for c in range(d)]
                continue
            resid = 0.0
            for c in range(d):
                resid += theta[v][c] * xbar[c]
            resid -= phi[v]
            step = [xbar[c] - gam * (2.0 * theta[v][c] * resid) for c in range(d)]
            x[v] = [min(max(s, config.box_lo), config.box_hi) for s in step]
        states.append([row[:] for row in x])
    return np.array(states)


def test_serial_and_batch_runners_agree_bitwise():
    """run_batch equals the serial reference stepper bit for bit: first and
    last states, time sums and every checkpoint, clean and attacked; so does
    the numpy reference loop."""
    _check_against_reference(run_batch)
    _check_against_reference(numpy_run_batch)


def _check_against_reference(runner):
    # An odd T leaves a buffered 32-bit half of the pair draws in the
    # generator when the neighbor draws begin.
    graphs = (manhattan_grid(3, 3), small_world(20, 8, 0.2, np.random.default_rng(5)))
    B = 3
    for graph, T in itertools.product(graphs, (150, 151)):
        lam = second_largest_eigenvalue(expected_transition_matrix(graph))
        attacked = np.zeros((B, graph.n), dtype=bool)
        attacked[1, 4] = True
        attacked[2, [0, graph.n - 1]] = True
        for d in (1, 2, 3):
            config = ProtocolConfig(d=d, T=T)
            prng = np.random.default_rng(20 + d)
            problems = [generate_problem(graph.n, d, prng) for _ in range(B)]
            alphas = prng.uniform(-0.5, 0.5, size=(B, d))
            for flags in (np.zeros_like(attacked), attacked):
                any_attack = bool(flags.any())
                seeds = [np.random.SeedSequence(100 + b) for b in range(B)]
                stats = _run(
                    graph, problems, config, seeds, flags=flags,
                    alphas=alphas if any_attack else None, lam=lam if any_attack else None,
                    runner=runner, checkpoints=range(T + 1),
                )
                for b in range(B):
                    ref = _reference_run(
                        graph, flags[b], problems[b].theta.tolist(), problems[b].phi.tolist(),
                        alphas[b].tolist(), lam, config, np.random.default_rng(seeds[b]),
                    )
                    assert np.array_equal(stats.first[b], ref[0])
                    assert np.array_equal(stats.last[b], ref[-1])
                    total = ref[0].copy()
                    for t in range(1, T + 1):
                        total += ref[t]
                    assert np.array_equal(stats.sums[b], total)
                    assert np.array_equal(_trajectory(stats, b, T), ref)


def _attacked_torus_batch(B, T):
    """run_batch arguments of an attacked batch on the 3x3 torus: agent 4
    attacks in every other instance, agents 0 and 8 in every third."""
    graph = manhattan_grid(3, 3)
    rng = np.random.default_rng(40)
    flags = np.zeros((B, graph.n), dtype=bool)
    flags[::2, 4] = True
    flags[::3, [0, 8]] = True
    problems = [generate_problem(graph.n, 2, rng) for _ in range(B)]
    return (
        graph, flags, np.stack([p.theta for p in problems]), np.stack([p.phi for p in problems]),
        rng.uniform(-0.5, 0.5, size=(B, 2)),
        second_largest_eigenvalue(expected_transition_matrix(graph)),
        ProtocolConfig(d=2, T=T),
    )


def _run_seeded(args, checkpoints=(), runner=run_batch):
    B = len(args[1])
    return runner(*args, _generators(runner, range(B)), checkpoints=checkpoints)


def _assert_same(a, b):
    for name in ("first", "last", "sums"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.checkpoints.keys() == b.checkpoints.keys()
    for t in a.checkpoints:
        assert np.array_equal(a.checkpoints[t], b.checkpoints[t]), t


@pytest.fixture
def fresh_loader():
    """Forget the loaded loop before and after the test, so that the test
    builds anew and later tests load the real library again."""
    protocol._compiled_loop.cache_clear()
    yield
    protocol._compiled_loop.cache_clear()


def test_compiled_and_numpy_loops_agree_bitwise_at_datagen_size():
    args = _attacked_torus_batch(256, 2000)
    compiled = _run_seeded(args, checkpoints=(0, 1, 999, 2000))
    reference = _run_seeded(args, checkpoints=(0, 1, 999, 2000), runner=numpy_run_batch)
    _assert_same(compiled, reference)


@pytest.mark.parametrize("entropy", list(ENTROPIES))
@pytest.mark.parametrize("T", [300, 301])
def test_compiled_draws_match_numpy_draws_for_any_entropy(entropy, T):
    """The compiled loop steps each instance's PCG64 itself; it returns the
    numpy reference's bits and leaves every states row where the numpy
    reference leaves its generator (an odd T leaves a buffered 32-bit
    half)."""
    _check_draws_against_numpy(entropy, T)


@pytest.mark.parametrize("bit_generator", list(DRAWN))
@pytest.mark.parametrize("T", [300, 301])
def test_compiled_draws_match_numpy_draws_for_any_bit_generator(bit_generator, T):
    """As for any entropy shape, so for seeds drawn at random by a numpy
    generator of any kind: the compiled loop returns the numpy reference's
    bits and leaves every states row where the reference leaves its
    generator."""
    _check_draws_against_numpy(bit_generator, T)


def _check_draws_against_numpy(seeds, T):
    args = _attacked_torus_batch(12, T)
    states, rngs = _seeded(seeds, 12)
    compiled = run_batch(*args, states, checkpoints=(0, 7, T))
    reference = numpy_run_batch(*args, rngs, checkpoints=(0, 7, T))
    _assert_same(compiled, reference)
    _assert_same_generators(states, rngs)


@pytest.mark.parametrize("entropy", list(SEEDS))
@pytest.mark.parametrize("B, T", [(1, 300), (1, 301), (5, 300), (5, 301), (5, 20000)])
def test_compiled_output_does_not_depend_on_the_thread_count(entropy, B, T):
    """Every instance reads and writes only its own states row and its own
    slices, and starts afresh in the work buffer that the instance before
    it used, so its bits do not depend on the batch it runs in, nor on how
    the instances are split over threads or processes: one call of B
    instances returns each instance's bits, and leaves its states row, as
    B calls of one instance each do."""
    args = _attacked_torus_batch(B, T)
    graph, flags, thetas, phis, alphas, lam, config = args
    states, _ = _seeded(entropy, B)
    batch = run_batch(*args, states, checkpoints=(0, 7, T))
    alone_states, _ = _seeded(entropy, B)
    for b in range(B):
        one = slice(b, b + 1)
        alone = run_batch(graph, flags[one], thetas[one], phis[one], alphas[one], lam, config,
                          alone_states[one], checkpoints=(0, 7, T))
        _assert_same(alone, BatchStats(
            batch.first[one], batch.last[one], batch.sums[one],
            {t: snaps[one] for t, snaps in batch.checkpoints.items()},
        ))
    assert np.array_equal(states, alone_states)


def test_compiled_run_batch_allocates_no_per_step_arrays():
    """The compiled path keeps no (B, T) pair or noise arrays, which at
    B = 256, T = 2000 would take 8 MB for the pairs alone."""
    args = _attacked_torus_batch(256, 2000)
    rngs = _states(range(256))
    tracemalloc.start()
    try:
        stats = run_batch(*args, rngs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert stats.last.shape == (256, 9, 2)
    assert peak < 1_000_000, peak


# A gen-data run of one short simulation batch.
TINY_GEN_DATA = ["gen-data", "--set", "T=60", "--set", "K=1", "--set", "scale=0.002",
                 "--set", 'tasks=["nd"]']


@pytest.mark.parametrize(
    "cc, says",
    [(("gossipwatch-no-such-cc", *protocol._CC[1:]), "gossipwatch-no-such-cc"),
     ((*protocol._CC, "--gossipwatch-no-such-option"), "error")],
    ids=["missing", "failing"],
)
def test_failed_build_names_the_compiler_and_leaves_nothing(
    tmp_path, monkeypatch, capsys, fresh_loader, cc, says
):
    """A compiler that is missing or fails makes run_batch raise, naming the
    compiler command and the OSError or the compiler's stderr, and makes
    gen-data exit 2 before its --out exists."""
    cache, out = tmp_path / "cache", tmp_path / "out"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(protocol, "_CC", cc)
    command = re.escape(" ".join(cc))
    with pytest.raises(RuntimeError, match=f"`{command} .*_gossip_loop.c`: .*{says}"):
        _run_seeded(_attacked_torus_batch(8, 300))
    argv = [*TINY_GEN_DATA, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"error: cannot build or load the C gossip loop with `{' '.join(cc)} " in (
        capsys.readouterr().err
    )
    assert not out.exists()
    assert not list(cache.rglob("*.so"))


def test_loop_library_is_cached_outside_the_run_output(tmp_path, monkeypatch, fresh_loader):
    cache, out = tmp_path / "cache", tmp_path / "out"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    argv = [*TINY_GEN_DATA, "--out", str(out)]
    assert cli.main(argv) == 0
    assert [p.name for p in out.iterdir() if not p.name.endswith((".csv", ".json"))] == []
    built = list((cache / "gossipwatch").iterdir())
    assert len(built) == 1 and built[0].suffix == ".so"
