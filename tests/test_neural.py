"""MLP correctness: init, forward, analytic gradients, training, serialization."""

import numpy as np
import pytest

from gossipwatch.neural import (
    Mlp,
    TrainConfig,
    forward,
    init_mlp,
    load_model,
    loss_and_grad,
    mlp_from_blob,
    params_to_blob,
    save_model,
    sgd_step,
    train,
)


def test_parameter_count_matches_layer_arithmetic():
    mlp = init_mlp([4, 200, 100, 50, 1], seed=0)
    expect = (4 * 200 + 200) + (200 * 100 + 100) + (100 * 50 + 50) + (50 * 1 + 1)
    assert expect == 26201
    assert mlp.n_params() == expect


def test_init_glorot_bounds_and_zero_biases():
    sizes = [3, 7, 2]
    mlp = init_mlp(sizes, seed=5)
    for W, b, fan_in, fan_out in zip(mlp.weights, mlp.biases, sizes[:-1], sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        assert np.abs(W).max() <= limit
        assert W.shape == (fan_out, fan_in)
        assert np.all(b == 0.0)
    # same seed reproduces, different seed does not
    again = init_mlp(sizes, seed=5)
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, again.weights))
    other = init_mlp(sizes, seed=6)
    assert not np.array_equal(mlp.weights[0], other.weights[0])
    with pytest.raises(ValueError):
        init_mlp([4], seed=0)


def test_forward_is_finite_and_bounded_at_extremes():
    mlp = init_mlp([4, 8, 2], seed=1)
    for scale in (0.0, 1.0, 1e3, -1e3):
        out = forward(mlp, np.full(4, scale))
        assert np.all(np.isfinite(out))
        assert np.all((out >= 0.0) & (out <= 1.0))
    batch = forward(mlp, np.full((5, 4), 1e6))
    assert batch.shape == (5, 2) and np.all(np.isfinite(batch))


def _numeric_grad(mlp, X, Y, mask, h=1e-6):
    dWs = [np.zeros_like(W) for W in mlp.weights]
    dbs = [np.zeros_like(b) for b in mlp.biases]
    rng = np.random.default_rng(99)

    def loss():
        return loss_and_grad(mlp, X, Y, mask)[0]

    probes = []
    for layer, W in enumerate(mlp.weights):
        for _ in range(8):
            i, j = rng.integers(W.shape[0]), rng.integers(W.shape[1])
            orig = W[i, j]
            W[i, j] = orig + h
            up = loss()
            W[i, j] = orig - h
            dn = loss()
            W[i, j] = orig
            probes.append(("W", layer, (i, j), (up - dn) / (2 * h)))
    for layer, b in enumerate(mlp.biases):
        for _ in range(4):
            i = rng.integers(b.shape[0])
            orig = b[i]
            b[i] = orig + h
            up = loss()
            b[i] = orig - h
            dn = loss()
            b[i] = orig
            probes.append(("b", layer, i, (up - dn) / (2 * h)))
    return probes


@pytest.mark.parametrize("masked", [False, True])
def test_analytic_gradient_matches_central_differences(masked):
    rng = np.random.default_rng(3)
    mlp = init_mlp([3, 4, 2], seed=2)
    X = rng.normal(size=(6, 3))
    Y = rng.integers(0, 2, size=(6, 2)).astype(float)
    mask = None
    if masked:
        mask = rng.integers(0, 2, size=(6, 2)).astype(float)
        mask[:, 0] = 1.0  # every row keeps at least one live slot
    _, dWs, dbs = loss_and_grad(mlp, X, Y, mask)
    for kind, layer, idx, numeric in _numeric_grad(mlp, X, Y, mask):
        analytic = dWs[layer][idx] if kind == "W" else dbs[layer][idx]
        assert abs(analytic - numeric) <= 1e-7 + 1e-5 * abs(numeric), (
            f"{kind}[{layer}]{idx}: analytic {analytic} vs numeric {numeric}"
        )


def test_masked_rows_need_a_live_slot():
    mlp = init_mlp([2, 3, 2], seed=0)
    X = np.zeros((2, 2))
    Y = np.zeros((2, 2))
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        loss_and_grad(mlp, X, Y, mask)


def test_masked_slots_do_not_influence_loss_or_gradient():
    rng = np.random.default_rng(8)
    mlp = init_mlp([3, 5, 2], seed=4)
    X = rng.normal(size=(4, 3))
    Y = rng.integers(0, 2, size=(4, 2)).astype(float)
    mask = np.ones((4, 2))
    mask[:, 1] = 0.0
    base = loss_and_grad(mlp, X, Y, mask)
    Y2 = Y.copy()
    Y2[:, 1] = 1.0 - Y2[:, 1]  # flip only the masked slot labels
    flipped = loss_and_grad(mlp, X, Y2, mask)
    assert base[0] == pytest.approx(flipped[0], abs=1e-15)
    for a, b in zip(base[1], flipped[1]):
        assert np.array_equal(a, b)


def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(10)
    X = rng.normal(size=(64, 4))
    Y = (X[:, :1].sum(axis=1, keepdims=True) > 0).astype(float)
    cfg = TrainConfig(eta=0.05, batch_size=16, epochs=5)

    mlp = init_mlp([4, 8, 1], seed=3)
    losses = train(mlp, X, Y, cfg, rng=np.random.default_rng(0))
    assert len(losses) == 5
    assert losses[4] < losses[0]

    mlp2 = init_mlp([4, 8, 1], seed=3)
    losses2 = train(mlp2, X, Y, cfg, rng=np.random.default_rng(0))
    assert losses == losses2
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, mlp2.weights))


def test_toy_separable_problem_is_learned():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 2))
    Y = (X[:, 0] + X[:, 1] > 0).astype(float)[:, None]
    mlp = init_mlp([2, 16, 1], seed=1)
    train(mlp, X, Y, TrainConfig(eta=0.5, batch_size=32, epochs=60), rng=rng)
    acc = (((forward(mlp, X)[:, 0] > 0.5)) == (Y[:, 0] > 0.5)).mean()
    assert acc >= 0.99


def test_sgd_step_returns_pre_update_loss():
    mlp = init_mlp([2, 3, 1], seed=0)
    X = np.array([[1.0, -1.0]])
    Y = np.array([[1.0]])
    before = loss_and_grad(mlp, X, Y)[0]
    reported = sgd_step(mlp, X, Y, eta=0.1)
    assert reported == pytest.approx(before, abs=1e-15)
    after = loss_and_grad(mlp, X, Y)[0]
    assert after < before


def test_blob_roundtrip_is_bitwise():
    mlp = init_mlp([5, 7, 2], seed=9)
    back = mlp_from_blob(mlp.sizes, params_to_blob(mlp))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.biases, back.biases))
    with pytest.raises(ValueError):
        mlp_from_blob([5, 7, 3], params_to_blob(mlp))


def test_save_load_roundtrip_with_meta(tmp_path):
    mlp = init_mlp([4, 6, 2], seed=13)
    path = tmp_path / "model.json"
    save_model(mlp, path, meta={"task": "nd", "K": 5})
    back, meta = load_model(path)
    assert meta == {"task": "nd", "K": 5}
    assert back.sizes == mlp.sizes
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, back.weights))
    x = np.random.default_rng(0).normal(size=4)
    assert np.array_equal(forward(mlp, x), forward(back, x))
