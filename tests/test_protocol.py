"""Protocol kernel: problems, stepsizes, run_batch behaviour, and bitwise
parity with a pure-Python reference stepper."""

import numpy as np
import pytest

from gossipwatch.protocol import (
    AttackConfig,
    ProtocolConfig,
    Stepsize,
    generate_problem,
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


def _run(graph, problems, config, seeds, flags=None, alphas=None, lam=None, **kwargs):
    """run_batch over the given problems, one generator per seed."""
    B = len(problems)
    if flags is None:
        flags = np.zeros((B, graph.n), dtype=bool)
    return run_batch(
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
    nbr_sets = [set(int(v) for v in graph.neighbors_of(i)) for i in range(9)]
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
    flags = attacker_mask(graph, [4]).flags[None]
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


def test_attack_config_rejects_bad_decay():
    with pytest.raises(ValueError):
        AttackConfig(alpha=np.zeros(2), lambda_hat=1.0)


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
    nbrs = [graph.neighbors_of(i).tolist() for i in wake]
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
    last states, time sums and every checkpoint, clean and attacked."""
    graphs = (manhattan_grid(3, 3), small_world(20, 8, 0.2, np.random.default_rng(5)))
    T, B = 150, 3
    for graph in graphs:
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
                    checkpoints=range(T + 1),
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
