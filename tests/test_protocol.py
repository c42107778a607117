"""Protocol kernel: problems, stepsizes, run_batch behaviour, and bitwise
parity of the compiled loop with the numpy reference of tests/oracles.py and
a pure-Python reference stepper."""

import itertools
import re
import tracemalloc

import numpy as np
import pytest
from oracles import generate_problem, numpy_run_batch

from gossipwatch import cli, protocol
from gossipwatch.protocol import (
    ProtocolConfig,
    Stepsize,
    draw_problems,
    global_objective,
    optimal_value,
    run_batch,
)
from gossipwatch.topology import (
    attacker_mask,
    expected_transition_matrix,
    manhattan_grid,
    second_largest_eigenvalue,
    small_world,
)


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
        [np.random.default_rng(s) for s in seeds], **kwargs,
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


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("n, d", [(9, 2), (20, 1), (50, 7)])
def test_compiled_problem_draws_match_numpy_draws(bit_generator, n, d):
    """draw_problems returns, for attacked and clean instances alike, the
    bits of generate_problem followed, where attacked, by the target draw
    uniform(-0.5, 0.5, d), and leaves every generator in the state those
    draws leave it in; its batched phi equals each instance's theta @ x_star."""
    B = 7
    attacked = np.arange(B) % 3 == 1

    def rngs():
        return [np.random.Generator(bit_generator(np.random.SeedSequence(b))) for b in range(B)]

    compiled = rngs()
    thetas, phis, alphas = draw_problems(n, d, attacked, compiled)
    for b, rng in enumerate(rngs()):
        problem = generate_problem(n, d, rng)
        assert np.array_equal(thetas[b], problem.theta)
        assert np.array_equal(phis[b], problem.phi)
        assert np.array_equal(phis[b], problem.theta @ problem.x_star)
        target = rng.uniform(-0.5, 0.5, d) if attacked[b] else np.zeros(d)
        assert np.array_equal(alphas[b], target)
        assert _same_state(compiled[b].bit_generator.state, rng.bit_generator.state)


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
    return runner(
        *args, [np.random.default_rng(np.random.SeedSequence(b)) for b in range(B)],
        checkpoints=checkpoints,
    )


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


def _same_state(a, b):
    """Equality of two bit_generator.state values, which may hold arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("T", [300, 301])
def test_compiled_draws_match_numpy_draws_for_any_bit_generator(bit_generator, T):
    """The compiled loop draws through each generator's C interface; it
    returns the numpy reference's bits and leaves every generator in the
    state the numpy reference leaves it in."""
    args = _attacked_torus_batch(12, T)

    def run(runner):
        rngs = [np.random.Generator(bit_generator(np.random.SeedSequence(b))) for b in range(12)]
        return runner(*args, rngs, checkpoints=(0, 7, T)), [r.bit_generator.state for r in rngs]

    compiled, compiled_states = run(run_batch)
    reference, reference_states = run(numpy_run_batch)
    _assert_same(compiled, reference)
    for a, b in zip(compiled_states, reference_states):
        assert _same_state(a, b), (a, b)


@pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.Philox, np.random.MT19937])
@pytest.mark.parametrize("B, T", [(1, 300), (1, 301), (5, 300), (5, 301), (5, 20000)])
def test_compiled_output_does_not_depend_on_the_thread_count(monkeypatch, bit_generator, B, T):
    """Every instance reads only its own generator and writes only its own
    slices, so 1, 2, 3 and B + 1 kernel threads return the same bits and
    leave every generator in the same state.  At T = 20000 an instance
    outlasts a thread's start, so the threads overlap in time."""
    args = _attacked_torus_batch(B, T)

    def run(threads):
        monkeypatch.setattr(protocol, "_kernel_threads", lambda gens, T: threads)
        rngs = [np.random.Generator(bit_generator(np.random.SeedSequence(b))) for b in range(B)]
        return run_batch(*args, rngs, checkpoints=(0, 7, T)), [r.bit_generator.state for r in rngs]

    serial, serial_states = run(1)
    for threads in (2, 3, B + 1):
        stats, states = run(threads)
        _assert_same(serial, stats)
        for a, b in zip(serial_states, states):
            assert _same_state(a, b), threads


def test_shared_generator_runs_on_one_thread(monkeypatch):
    """Instances that share one generator draw from one sequential stream:
    the kernel then runs them on one thread even where two CPUs are free,
    and returns the one-thread and numpy-reference bits.  A batch too small
    to give each thread _THREAD_WORK pair updates also runs on one."""
    B, T = 16, protocol._THREAD_WORK // 8
    args = _attacked_torus_batch(B, T)
    monkeypatch.setattr(protocol.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    gens = np.arange(1, B + 1, dtype=np.uintp)
    assert protocol._kernel_threads(gens, T) == 2
    assert protocol._kernel_threads(gens, T // 2 - 1) == 1
    gens[2] = gens[0]
    assert protocol._kernel_threads(gens, T) == 1

    def run(runner=run_batch):
        rng = np.random.default_rng(9)
        return runner(*args, [rng] * B, checkpoints=(0, T)), rng.bit_generator.state

    shared, shared_state = run()
    monkeypatch.setattr(protocol, "_kernel_threads", lambda gens, T: 1)
    serial, serial_state = run()
    reference, reference_state = run(numpy_run_batch)
    for stats, state in ((serial, serial_state), (reference, reference_state)):
        _assert_same(shared, stats)
        assert _same_state(shared_state, state)


def test_compiled_run_batch_allocates_no_per_step_arrays():
    """The compiled path keeps no (B, T) pair or noise arrays, which at
    B = 256, T = 2000 would take 8 MB for the pairs alone."""
    args = _attacked_torus_batch(256, 2000)
    rngs = [np.random.default_rng(np.random.SeedSequence(b)) for b in range(256)]
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
