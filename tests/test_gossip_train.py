"""Collaborative gossip training: merging, delivery timing, telemetry."""

import numpy as np
import oracles
import pytest

from gossipwatch import gossip_train
from gossipwatch.experiments import write_telemetry
from gossipwatch.gossip_train import (
    LearnerState,
    merge_model,
    run_gossip_training,
)
from gossipwatch.neural import Mlp, Step, init_mlp, params_to_blob, sgd_step
from gossipwatch.topology import Graph

# The run-level settings of every run below, unless a test says otherwise.
RUN = {"eta": 0.05, "batch_size": 4, "mu": 0.5}


def _four_cycle():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def _learner(agent, rows=8, seed=None, sizes=(3, 4, 1), masked=False):
    rng = np.random.default_rng(100 + agent if seed is None else seed)
    out = sizes[-1]
    mask = None
    if masked:
        mask = rng.integers(0, 2, size=(rows, out)).astype(float)
        mask[np.arange(rows), rng.integers(0, out, size=rows)] = 1.0
    return LearnerState(
        agent=agent,
        model=init_mlp(sizes, seed=rng),
        X=rng.normal(size=(rows, sizes[0])),
        Y=rng.integers(0, 2, size=(rows, out)).astype(float),
        mask=mask,
    )


def _merged(own, received, mu):
    """own merged with the parameter vector ``received`` into a new model."""
    out = Mlp(own.sizes, own.params.copy())
    merge_model(out, received, mu)
    return out


def test_merge_model_endpoints_and_midpoint():
    a = init_mlp([2, 3, 1], seed=0)
    b = init_mlp([2, 3, 1], seed=1)
    keep = _merged(a, b.params, mu=0.0)
    take = _merged(a, b.params, mu=1.0)
    half = _merged(a, b.params, mu=0.5)
    for wa, wb, wk, wt, wh in zip(a.weights, b.weights, keep.weights, take.weights, half.weights):
        assert np.array_equal(wk, wa)
        assert np.array_equal(wt, wb)
        assert np.allclose(wh, 0.5 * (wa + wb), atol=1e-15)
    # in place, with the bits of (1 - mu) own + mu received
    mu = 0.3
    assert np.array_equal(_merged(a, b.params, mu).params, (1.0 - mu) * a.params + mu * b.params)
    params = a.params
    merge_model(a, b.params, mu)
    assert a.params is params


def test_merge_model_rejects_mismatch_and_bad_mu():
    a = init_mlp([2, 3, 1], seed=0)
    with pytest.raises(ValueError):
        merge_model(a, init_mlp([2, 4, 1], seed=0).params, mu=0.5)
    with pytest.raises(ValueError):
        merge_model(a, init_mlp([2, 3, 1], seed=1).params, mu=1.5)
    with pytest.raises(ValueError):
        LearnerState(agent=0, model=a, X=np.zeros((2, 2)), Y=np.zeros((3, 1)))


def test_sync_round_delivers_after_everyone_acts():
    """On a 2-agent line both send to each other, but neither message is
    merged within the round it was sent: inboxes fill only at the barrier."""
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    before = [Mlp(lr.model.sizes, lr.model.params.copy()) for lr in learners]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0), **RUN)
    assert learners[0].inbox is not None and learners[1].inbox is not None
    # each agent took exactly one local step from its pre-round model:
    # no merge happened because inboxes started empty
    for lr, b4 in zip(learners, before):
        assert not np.array_equal(lr.model.weights[0], b4.weights[0])
    # the staged payloads are the post-step parameters of the sender
    assert np.array_equal(learners[0].inbox, learners[1].model.params)
    assert np.array_equal(learners[1].inbox, learners[0].model.params)

    # next round: agent 0 merges agent 1's payload before stepping
    payload = learners[0].inbox
    merged = _merged(learners[0].model, payload, RUN["mu"])
    run_gossip_training(learners, graph, 1, np.random.default_rng(1), **RUN)
    assert learners[0].inbox is None or not np.array_equal(learners[0].inbox, payload)
    # model moved from the merged point, not the raw pre-merge one
    assert not np.array_equal(learners[0].model.weights[0], merged.weights[0])


def test_merging_leaves_the_staged_payload_and_the_sender_alone():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0), **RUN)
    payload = learners[0].inbox
    sent, sender = payload.copy(), learners[1].model.params.copy()
    step = Step((2, 2, 1), RUN["batch_size"], training=True)
    gossip_train._act(learners[0], graph, np.random.default_rng(1), step, **RUN)
    assert learners[0].inbox is None
    assert np.array_equal(learners[1].model.params, sender)
    assert np.array_equal(payload, sent)
    # the payload is a copy: the sender's next step does not reach it
    gossip_train._act(learners[1], graph, np.random.default_rng(2), step, **RUN)
    assert not np.array_equal(learners[1].model.params, sender)
    assert np.array_equal(payload, sent)


def _oracle_run(monkeypatch, mode, batch, **learner):
    """The params and round metrics of 12 rounds on the four-cycle, then of
    the same rounds with the oracle's turn, which decodes each message into
    a model, merges into a new vector and steps layer by layer in numpy."""
    graph = _four_cycle()

    def run():
        learners = [_learner(a, **learner) for a in range(4)]
        metrics = run_gossip_training(
            learners, graph, 12, np.random.default_rng(3), **{**RUN, "batch_size": batch},
            mode=mode,
        )
        return [lr.model.params for lr in learners], metrics

    got = run()
    monkeypatch.setattr(gossip_train, "_act", oracles.gossip_act)
    return got, run()


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_training_matches_decoded_model_merge_oracle_bitwise(mode, monkeypatch):
    """In-place merges of the message bytes and the compiled step give the
    params and telemetry of the oracle's decoded-model merges and numpy
    steps."""
    got, expect = _oracle_run(monkeypatch, mode, 8, rows=40, sizes=(4, 200, 100, 50, 1))
    assert all(np.array_equal(a, b) for a, b in zip(got[0], expect[0]))
    assert got[1] == expect[1]


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_masked_training_on_short_shards_matches_the_oracle_bitwise(mode, monkeypatch):
    """The same on localization learners: masked output slots, and shards of
    5 rows, smaller than the batch of 8."""
    got, expect = _oracle_run(
        monkeypatch, mode, 8, rows=5, sizes=(4, 200, 100, 50, 4), masked=True
    )
    assert all(np.array_equal(a, b) for a, b in zip(got[0], expect[0]))
    assert got[1] == expect[1]


def test_learner_order_is_enforced():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(1, sizes=(2, 2, 1)), _learner(0, sizes=(2, 2, 1))]
    with pytest.raises(ValueError):
        run_gossip_training(learners, graph, 1, np.random.default_rng(0), **RUN)
    with pytest.raises(ValueError):
        run_gossip_training(learners[:1], graph, 1, np.random.default_rng(0), **RUN)


def test_empty_shards_still_mix_models():
    """Agents with no data produce nan losses but keep merging, so the
    parameter dispersion contracts toward consensus."""
    graph = _four_cycle()
    learners = [
        LearnerState(
            agent=a,
            model=init_mlp([2, 3, 1], seed=a),
            X=np.zeros((0, 2)),
            Y=np.zeros((0, 1)),
        )
        for a in range(4)
    ]
    metrics = run_gossip_training(learners, graph, 40, np.random.default_rng(0), **RUN)
    assert all(np.isnan(m.mean_loss) for m in metrics)
    assert metrics[-1].dispersion < 0.05 * metrics[0].dispersion
    assert [m.round for m in metrics] == list(range(40))


def test_mean_loss_skips_starved_agents():
    graph = Graph.from_edges(2, [(0, 1)])
    fed = _learner(0, sizes=(2, 2, 1))
    starved = LearnerState(
        agent=1, model=init_mlp((2, 2, 1), seed=7), X=np.zeros((0, 2)), Y=np.zeros((0, 1))
    )
    metrics = run_gossip_training([fed, starved], graph, 3, np.random.default_rng(4), **RUN)
    assert all(np.isfinite(m.mean_loss) for m in metrics)


def test_async_mode_wakes_one_agent_per_tick():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    before = [Mlp(lr.model.sizes, lr.model.params.copy()) for lr in learners]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0), **RUN, mode="async")
    changed = [
        not np.array_equal(lr.model.weights[0], b4.weights[0])
        for lr, b4 in zip(learners, before)
    ]
    assert sum(changed) == 1
    # the waker's payload was delivered immediately
    waker = changed.index(True)
    assert np.array_equal(learners[1 - waker].inbox, learners[waker].model.params)
    with pytest.raises(ValueError):
        run_gossip_training(learners, graph, 1, np.random.default_rng(0), **RUN, mode="turbo")


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_dispersion_is_the_stacked_parameter_spread(mode):
    graph = _four_cycle()
    learners = [_learner(a, sizes=(3, 4, 1)) for a in range(4)]
    rng = np.random.default_rng(5)
    for _ in range(6):
        (metrics,) = run_gossip_training(learners, graph, 1, rng, **RUN, mode=mode)
        flat = np.stack([lr.model.params for lr in learners])
        assert metrics.dispersion == float((flat.max(axis=0) - flat.min(axis=0)).max())


def test_training_run_is_reproducible():
    graph = _four_cycle()

    def run():
        learners = [_learner(a, sizes=(3, 4, 1)) for a in range(4)]
        metrics = run_gossip_training(learners, graph, 12, np.random.default_rng(3), **RUN)
        return learners, metrics

    la, ma = run()
    lb, mb = run()
    assert ma == mb
    for x, y in zip(la, lb):
        assert params_to_blob(x.model) == params_to_blob(y.model)


def test_metrics_csv_format(tmp_path):
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    metrics = run_gossip_training(learners, graph, 2, np.random.default_rng(0), **RUN)
    path = tmp_path / "telemetry.csv"
    write_telemetry(path, metrics)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,mean_loss,dispersion"
    assert len(lines) == 3
    got = [float(v) for v in lines[1].split(",")]
    assert got[0] == 0.0
    assert got[1] == pytest.approx(metrics[0].mean_loss)
    assert got[2] == pytest.approx(metrics[0].dispersion)


def test_a_run_binds_one_step_sized_by_its_largest_batch(monkeypatch):
    """Every learner's steps share one Step, bound at the start of the run
    with room for min(batch_size, largest shard) rows: a batch size of 10**6
    over 8-row shards binds buffers for 8."""
    bound = []

    def spy(*args, **kwargs):
        bound.append(Step(*args, **kwargs))
        return bound[-1]

    monkeypatch.setattr(gossip_train, "Step", spy)
    graph = _four_cycle()
    for batch, cap in ((4, 4), (10**6, 8)):
        learners = [_learner(a, rows=8 - a) for a in range(4)]
        run_gossip_training(
            learners, graph, 5, np.random.default_rng(0), **{**RUN, "batch_size": batch}
        )
        assert [(s.cap, s.sizes, s.training) for s in bound] == [(cap, (3, 4, 1), True)]
        bound.clear()


def test_sgd_step_rejects_a_batch_larger_than_its_step():
    """More rows than the step's cap, or a step bound for other layer sizes
    or for the forward pass only, would overrun the step's buffers: a
    ValueError before the compiled call, with the parameters unchanged."""
    mlp = init_mlp((3, 4, 1), seed=0)
    X, Y = np.ones((5, 3)), np.ones((5, 1))
    start = mlp.params.copy()
    for step in (
        Step((3, 4, 1), 4, training=True),
        Step((3, 5, 1), 8, training=True),
        Step((3, 4, 1), 8, training=False),
    ):
        with pytest.raises(ValueError, match="a batch of 5 rows for layer sizes"):
            sgd_step(step, mlp, X, Y, 0.1)
        assert np.array_equal(mlp.params, start)
    sgd_step(Step((3, 4, 1), 5, training=True), mlp, X, Y, 0.1)
    assert not np.array_equal(mlp.params, start)


@pytest.mark.parametrize("bad", [{"mu": 1.5}, {"mu": -0.1}, {"eta": 0.0}, {"batch_size": 0}])
def test_bad_run_settings_fail_before_the_first_step(bad, monkeypatch):
    calls = []
    monkeypatch.setattr(gossip_train, "sgd_step", lambda *args: calls.append(args))
    learners = [_learner(a) for a in range(4)]
    start = [lr.model.params.copy() for lr in learners]
    with pytest.raises(ValueError, match="merge weight mu"):
        run_gossip_training(learners, _four_cycle(), 3, np.random.default_rng(0), **{**RUN, **bad})
    assert not calls
    assert all(np.array_equal(lr.model.params, p) for lr, p in zip(learners, start))
