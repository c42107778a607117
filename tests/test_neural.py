"""MLP correctness: init, forward, analytic gradients, training, serialization."""

import json
import pickle

import numpy as np
import oracles
import pytest

from gossipwatch.neural import (
    Mlp,
    Step,
    TrainConfig,
    forward,
    init_mlp,
    load_model,
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
        return oracles.flat_loss_and_grad(mlp, X, Y, mask)[0]

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
    grad = Mlp(mlp.sizes, oracles.flat_loss_and_grad(mlp, X, Y, mask)[1])
    for kind, layer, idx, numeric in _numeric_grad(mlp, X, Y, mask):
        analytic = grad.weights[layer][idx] if kind == "W" else grad.biases[layer][idx]
        assert abs(analytic - numeric) <= 1e-7 + 1e-5 * abs(numeric), (
            f"{kind}[{layer}]{idx}: analytic {analytic} vs numeric {numeric}"
        )


def test_masked_rows_need_a_live_slot():
    mlp = init_mlp([2, 3, 2], seed=0)
    X = np.zeros((2, 2))
    Y = np.zeros((2, 2))
    mask = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(ValueError):
        oracles.flat_loss_and_grad(mlp, X, Y, mask)
    start = mlp.params.copy()
    with pytest.raises(ValueError, match="unmasked output slot"):
        sgd_step(Step(mlp.sizes, 2, training=True), mlp, X, Y, eta=0.1, mask=mask)
    with pytest.raises(ValueError, match="unmasked output slot"):
        train(mlp, X, Y, TrainConfig(batch_size=2, epochs=1), np.random.default_rng(0), mask)
    assert np.array_equal(mlp.params, start)


def test_masked_slots_do_not_influence_loss_or_gradient():
    rng = np.random.default_rng(8)
    mlp = init_mlp([3, 5, 2], seed=4)
    X = rng.normal(size=(4, 3))
    Y = rng.integers(0, 2, size=(4, 2)).astype(float)
    mask = np.ones((4, 2))
    mask[:, 1] = 0.0
    base = oracles.flat_loss_and_grad(mlp, X, Y, mask)
    Y2 = Y.copy()
    Y2[:, 1] = 1.0 - Y2[:, 1]  # flip only the masked slot labels
    flipped = oracles.flat_loss_and_grad(mlp, X, Y2, mask)
    assert base[0] == pytest.approx(flipped[0], abs=1e-15)
    assert np.array_equal(base[1], flipped[1])


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


def _labeled(rows: int, out: int, masked: bool, nan_row: bool):
    rng = np.random.default_rng(21)
    X = rng.normal(size=(rows, 4))
    Y = rng.integers(0, 2, size=(rows, out)).astype(float)
    mask = None
    if masked:
        mask = rng.integers(0, 2, size=(rows, out)).astype(float)
        mask[np.arange(rows), rng.integers(0, out, size=rows)] = 1.0
    if nan_row:
        X[rows // 2] = np.nan
    return X, Y, mask


def _same_bits(a, b) -> bool:
    """NaN in the same places, every other value with the same bytes.  (A
    NaN's sign is not part of the contract: the reference sigmoid takes exp
    of z where the package takes it of -|z|.)"""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


# (output width, masked, rows, batch size, NaN input row)
BITWISE_CASES = {
    "nd": (1, False, 256, 32, False),
    "nl-masked": (4, True, 256, 32, False),
    "partial-batch": (1, False, 250, 32, False),
    "last-batch-of-1": (1, False, 257, 32, False),
    "last-batch-of-7-masked": (4, True, 263, 32, False),
    "batch-size-1": (1, False, 40, 1, False),
    "batch-size-1-masked": (4, True, 40, 1, False),
    "nan-row": (1, False, 64, 32, True),
    "nan-row-masked": (4, True, 64, 7, True),
}


@pytest.mark.parametrize(
    "out, masked, rows, batch, nan_row", BITWISE_CASES.values(), ids=BITWISE_CASES.keys()
)
def test_train_matches_per_layer_oracle_bitwise(out, masked, rows, batch, nan_row):
    """The compiled step, with one gather per epoch, gives the bytes of the
    numpy per-layer gradients and updates with one gather per step, on the
    detector network's own layer shapes: full and short last batches,
    single-row batches, and a NaN input row, which numpy's maximum and
    minimum carry through.  Inputs whose rows lie further apart than a row
    train to the same bytes as their contiguous copy."""
    X, Y, mask = _labeled(rows, out, masked, nan_row)
    cfg = TrainConfig(eta=0.05, batch_size=batch, epochs=3)
    ref = init_mlp([4, 200, 100, 50, out], seed=5)
    with np.errstate(invalid="ignore"):
        expect = oracles.train(ref, X, Y, cfg, np.random.default_rng(6), mask)
    for inputs in (X, np.pad(X, ((0, 0), (1, 1)))[:, 1:5]):
        got = init_mlp([4, 200, 100, 50, out], seed=5)
        with np.errstate(invalid="ignore"):
            losses = train(got, inputs, Y, cfg, np.random.default_rng(6), mask)
        assert _same_bits(got.params, ref.params)
        assert _same_bits(losses, expect)
        assert np.isnan(losses).any() == nan_row


@pytest.mark.parametrize(
    "out, masked, rows, batch, nan_row", BITWISE_CASES.values(), ids=BITWISE_CASES.keys()
)
def test_sgd_step_matches_per_layer_oracle_bitwise(out, masked, rows, batch, nan_row):
    """One step after another on the case's consecutive batches, the last
    one short where the rows do not fill it, all through one step bound for
    the batch size."""
    X, Y, mask = _labeled(rows, out, masked, nan_row)
    got, ref = (init_mlp([4, 200, 100, 50, out], seed=7) for _ in range(2))
    step = Step(got.sizes, batch, training=True)
    for s in range(0, rows, batch):
        rows_ = slice(s, s + batch)
        m = None if mask is None else mask[rows_]
        with np.errstate(invalid="ignore"):
            loss = sgd_step(step, got, X[rows_], Y[rows_], 0.05, m)
            expect = oracles.sgd_step(ref, X[rows_], Y[rows_], 0.05, m)
        assert _same_bits(loss, expect)
        assert _same_bits(got.params, ref.params)
    # single rows whose columns are not adjacent in memory
    for row in (np.asfortranarray(X)[:1], np.ascontiguousarray(X.T).T[-1:]):
        with np.errstate(invalid="ignore"):
            loss = sgd_step(step, got, row, Y[:1], 0.05, None if mask is None else mask[:1])
            expect = oracles.sgd_step(ref, row, Y[:1], 0.05, None if mask is None else mask[:1])
        assert _same_bits(loss, expect)
        assert _same_bits(got.params, ref.params)


@pytest.mark.parametrize("rows", [1, 2, 31, 32, 1800])
@pytest.mark.parametrize("out", [1, 4])
def test_forward_matches_numpy_forward_bitwise(rows, out):
    """forward on whole test sets, single rows, a strided view of the
    inputs and inputs in Fortran order, whose columns are not adjacent in
    memory (whole, one row of them, and a column of the transposed inputs),
    gives the numpy forward pass's bytes."""
    rng = np.random.default_rng([rows, out])
    mlp = init_mlp([4, 200, 100, 50, out], seed=rng)
    X = rng.normal(size=(rows, 6))[:, 1:5]
    expect = oracles._forward_cached(mlp, X)[-1]
    assert forward(mlp, X).tobytes() == expect.tobytes()
    assert forward(mlp, np.ascontiguousarray(X)).tobytes() == expect.tobytes()
    assert forward(mlp, np.asfortranarray(X)).tobytes() == expect.tobytes()
    first = oracles._forward_cached(mlp, X[:1])[-1][0].tobytes()
    for row in (X[0], np.asfortranarray(X)[0], np.ascontiguousarray(X.T)[:, 0]):
        assert forward(mlp, row).tobytes() == first
        assert oracles._forward_cached(mlp, row[None])[-1][0].tobytes() == first


def test_forward_and_sgd_step_leave_caller_arrays_alone():
    rng = np.random.default_rng(22)
    mlp = init_mlp([4, 16, 8, 3], seed=2)
    X = rng.normal(size=(10, 4))
    Y = rng.integers(0, 2, size=(10, 3)).astype(float)
    mask = np.ones((10, 3))
    mask[:, 2] = 0.0
    kept = [a.copy() for a in (X, Y, mask)]
    forward(mlp, X)
    forward(mlp, X[0])
    step = Step(mlp.sizes, 10, training=True)
    sgd_step(step, mlp, X, Y, eta=0.1, mask=mask)
    sgd_step(step, mlp, X, Y, eta=0.1)
    train(mlp, X, Y, TrainConfig(batch_size=4, epochs=2), np.random.default_rng(0), mask)
    for a, b in zip((X, Y, mask), kept):
        assert np.array_equal(a, b)


def test_sgd_step_returns_pre_update_loss():
    mlp = init_mlp([2, 3, 1], seed=0)
    X = np.array([[1.0, -1.0]])
    Y = np.array([[1.0]])
    before = oracles.flat_loss_and_grad(mlp, X, Y)[0]
    reported = sgd_step(Step(mlp.sizes, 1, training=True), mlp, X, Y, eta=0.1)
    assert reported == pytest.approx(before, abs=1e-15)
    after = oracles.flat_loss_and_grad(mlp, X, Y)[0]
    assert after < before


def test_blob_roundtrip_is_bitwise(tmp_path):
    mlp = init_mlp([5, 7, 2], seed=9)
    back = mlp_from_blob(mlp.sizes, params_to_blob(mlp))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.weights, back.weights))
    assert all(np.array_equal(a, b) for a, b in zip(mlp.biases, back.biases))
    with pytest.raises(ValueError):
        mlp_from_blob([5, 7, 3], params_to_blob(mlp))

    # the layers are views of the one parameter vector, which is the blob
    for m in (mlp, back):
        assert all(np.shares_memory(W, m.params) for W in m.weights)
        assert all(np.shares_memory(b, m.params) for b in m.biases)
        assert params_to_blob(m) == m.params.tobytes()

    # decoded and loaded models own writable parameters that SGD moves
    save_model(mlp, tmp_path / "model.json")
    X, Y = np.ones((3, 5)), np.ones((3, 2))
    for m in (back, load_model(tmp_path / "model.json")[0]):
        assert m.params.flags.writeable
        start = m.params.copy()
        sgd_step(Step(m.sizes, 3, training=True), m, X, Y, eta=0.1)
        assert not np.array_equal(m.params, start)


def test_a_pickled_network_loads_with_views_of_its_parameters():
    """A network pickles as its sizes and parameters, so the loaded one's
    weights and biases are views of its own parameters again, as a network
    that a fan-out worker sends back must be for SGD to move its layers."""
    mlp = init_mlp([5, 7, 3], seed=4)
    back = pickle.loads(pickle.dumps(mlp, protocol=pickle.HIGHEST_PROTOCOL))
    assert back.sizes == mlp.sizes and np.array_equal(back.params, mlp.params)
    assert all(np.shares_memory(W, back.params) for W in back.weights)
    assert all(np.shares_memory(b, back.params) for b in back.biases)
    back.params[:] = 0.0
    assert not any(W.any() for W in back.weights) and not any(b.any() for b in back.biases)


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


def test_load_model_errors_name_the_file_and_field(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_mlp([4, 6, 1], seed=1), path)
    header = path.read_bytes()
    bin_path = tmp_path / "model.json.bin"
    body = bin_path.read_bytes()

    path.write_text("{sizes: [4, 6, 1]}")
    with pytest.raises(ValueError, match=r"model\.json:1: column 2: not a JSON model header"):
        load_model(path)
    path.write_text(json.dumps({"family": "one-attacker", "artifacts": []}))
    with pytest.raises(ValueError, match=r"model\.json: field 'sizes': missing"):
        load_model(path)
    path.write_text(json.dumps({"sizes": "4,6,1", "blob": "model.json.bin"}))
    with pytest.raises(ValueError, match=r"model\.json: field 'sizes'"):
        load_model(path)

    path.write_bytes(header)
    bin_path.write_bytes(body[:-3])
    with pytest.raises(ValueError, match=r"model\.json\.bin: field 'blob' of .*bytes"):
        load_model(path)
    bin_path.write_bytes(body[:-8])
    with pytest.raises(ValueError, match=r"model\.json\.bin: field 'blob' of .*need"):
        load_model(path)
    bin_path.unlink()
    with pytest.raises(ValueError, match=r"model\.json\.bin: field 'blob' of .*not found"):
        load_model(path)


@pytest.mark.parametrize("field, value, what", [
    ("hidden_activation", "tanh", "must be 'relu', got 'tanh'"),
    ("output_activation", "softmax", "must be 'sigmoid', got 'softmax'"),
    ("output_activation", None, "must be 'sigmoid', got None"),
    ("params", 3, "must be 37, got 3"),
    ("params", 37.0, "must be 37, got 37.0"),
    ("params", "37", "must be 37, got '37'"),
    ("hidden_activation", KeyError, "missing from the model header"),
    ("params", KeyError, "missing from the model header"),
    ("sizes", [True, 6, 1], "not a list of layer widths: [True, 6, 1]"),
    ("meta", "K", "not an object: 'K'"),
])
def test_load_model_requires_the_networks_header_fields(tmp_path, field, value, what):
    """The header names the network the step runs: integer layer widths,
    ReLU hidden layers, a sigmoid output and the parameter count of its
    layer sizes; any other value, or none, names the file and the field."""
    path = tmp_path / "model.json"
    save_model(init_mlp([4, 6, 1], seed=1), path)
    header = json.loads(path.read_text())
    if value is KeyError:
        del header[field]
    else:
        header[field] = value
    path.write_text(json.dumps(header))
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == f"{path}: field {field!r}: {what}"


@pytest.mark.parametrize("at, value", [(0, np.nan), (36, np.inf), (7, -np.inf)])
def test_load_model_refuses_a_weight_that_is_not_finite(tmp_path, at, value):
    """A NaN or infinite parameter in the blob names the blob, its header's
    field and the parameter."""
    path = tmp_path / "model.json"
    save_model(init_mlp([4, 6, 1], seed=1), path)
    blob = tmp_path / "model.json.bin"
    params = np.frombuffer(blob.read_bytes(), "<f8").copy()
    params[at] = value
    blob.write_bytes(params.tobytes())
    with pytest.raises(ValueError) as err:
        load_model(path)
    assert str(err.value) == (
        f"{blob}: field 'blob' of {path}: parameter {at} is not finite: {float(value)!r}"
    )
