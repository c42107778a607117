"""Collaborative gossip training: merging, delivery timing, telemetry."""

import numpy as np
import oracles
import pytest

from gossipwatch import gossip_train
from gossipwatch.gossip_train import (
    LearnerState,
    merge_model,
    metrics_to_csv,
    run_gossip_training,
)
from gossipwatch.neural import Mlp, TrainConfig, init_mlp, mlp_from_blob, params_to_blob
from gossipwatch.topology import Graph


def _four_cycle():
    return Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def _learner(agent, rows=8, seed=None, mu=0.5, sizes=(3, 4, 1), batch=4, masked=False):
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
        mu=mu,
        config=TrainConfig(eta=0.05, batch_size=batch, epochs=1),
    )


def _merged(own, received, mu):
    out = Mlp(own.sizes, own.params.copy())
    merge_model(out, received.params, mu)
    return out


def test_merge_model_endpoints_and_midpoint():
    a = init_mlp([2, 3, 1], seed=0)
    b = init_mlp([2, 3, 1], seed=1)
    keep = _merged(a, b, mu=0.0)
    take = _merged(a, b, mu=1.0)
    half = _merged(a, b, mu=0.5)
    for wa, wb, wk, wt, wh in zip(a.weights, b.weights, keep.weights, take.weights, half.weights):
        assert np.array_equal(wk, wa)
        assert np.array_equal(wt, wb)
        assert np.allclose(wh, 0.5 * (wa + wb), atol=1e-15)
    # in place, with the bits of (1 - mu) own + mu received
    mu = 0.3
    assert np.array_equal(_merged(a, b, mu).params, (1.0 - mu) * a.params + mu * b.params)
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
        LearnerState(
            agent=0, model=a, X=np.zeros((1, 2)), Y=np.zeros((1, 1)), mu=-0.1
        )
    with pytest.raises(ValueError):
        LearnerState(agent=0, model=a, X=np.zeros((2, 2)), Y=np.zeros((3, 1)))


def test_sync_round_delivers_after_everyone_acts():
    """On a 2-agent line both send to each other, but neither message is
    merged within the round it was sent: inboxes fill only at the barrier."""
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    before = [Mlp(lr.model.sizes, lr.model.params.copy()) for lr in learners]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0))
    assert learners[0].inbox is not None and learners[1].inbox is not None
    # each agent took exactly one local step from its pre-round model:
    # no merge happened because inboxes started empty
    for lr, b4 in zip(learners, before):
        assert not np.array_equal(lr.model.weights[0], b4.weights[0])
    # the staged payloads are the post-step parameters of the sender
    assert learners[0].inbox == params_to_blob(learners[1].model)
    assert learners[1].inbox == params_to_blob(learners[0].model)

    # next round: agent 0 merges agent 1's payload before stepping
    payload = learners[0].inbox
    merged = _merged(
        learners[0].model, mlp_from_blob(learners[0].model.sizes, payload), learners[0].mu
    )
    run_gossip_training(learners, graph, 1, np.random.default_rng(1))
    assert learners[0].inbox is None or learners[0].inbox != payload
    # model moved from the merged point, not the raw pre-merge one
    assert not np.array_equal(learners[0].model.weights[0], merged.weights[0])


def test_merging_leaves_the_staged_payload_and_the_sender_alone():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0))
    payload = learners[0].inbox
    sent, sender = bytes(payload), learners[1].model.params.copy()
    gossip_train._act(learners[0], graph, np.random.default_rng(1))
    assert learners[0].inbox is None
    assert np.array_equal(learners[1].model.params, sender)
    assert payload == params_to_blob(learners[1].model)
    # the payload is a copy: the sender's next step does not reach it
    gossip_train._act(learners[1], graph, np.random.default_rng(2))
    assert payload == sent


def _oracle_run(monkeypatch, mode, **learner):
    """The params and round metrics of 12 rounds on the four-cycle, then of
    the same rounds with the oracle's turn, which decodes each message into
    a model, merges into a new vector and steps layer by layer in numpy."""
    graph = _four_cycle()

    def run():
        learners = [_learner(a, **learner) for a in range(4)]
        metrics = run_gossip_training(learners, graph, 12, np.random.default_rng(3), mode=mode)
        return [lr.model.params for lr in learners], metrics

    got = run()
    monkeypatch.setattr(gossip_train, "_act", oracles.gossip_act)
    return got, run()


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_training_matches_decoded_model_merge_oracle_bitwise(mode, monkeypatch):
    """In-place merges of the message bytes and the compiled step give the
    params and telemetry of the oracle's decoded-model merges and numpy
    steps."""
    got, expect = _oracle_run(monkeypatch, mode, rows=40, sizes=(4, 200, 100, 50, 1), batch=8)
    assert all(np.array_equal(a, b) for a, b in zip(got[0], expect[0]))
    assert got[1] == expect[1]


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_masked_training_on_short_shards_matches_the_oracle_bitwise(mode, monkeypatch):
    """The same on localization learners: masked output slots, and shards of
    5 rows, smaller than the batch of 8."""
    got, expect = _oracle_run(
        monkeypatch, mode, rows=5, sizes=(4, 200, 100, 50, 4), batch=8, masked=True
    )
    assert all(np.array_equal(a, b) for a, b in zip(got[0], expect[0]))
    assert got[1] == expect[1]


def test_learner_order_is_enforced():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(1, sizes=(2, 2, 1)), _learner(0, sizes=(2, 2, 1))]
    with pytest.raises(ValueError):
        run_gossip_training(learners, graph, 1, np.random.default_rng(0))
    with pytest.raises(ValueError):
        run_gossip_training(learners[:1], graph, 1, np.random.default_rng(0))


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
            mu=0.5,
        )
        for a in range(4)
    ]
    metrics = run_gossip_training(learners, graph, 40, np.random.default_rng(0))
    assert all(np.isnan(m.mean_loss) for m in metrics)
    assert metrics[-1].dispersion < 0.05 * metrics[0].dispersion
    assert [m.round for m in metrics] == list(range(40))


def test_mean_loss_skips_starved_agents():
    graph = Graph.from_edges(2, [(0, 1)])
    fed = _learner(0, sizes=(2, 2, 1))
    starved = LearnerState(
        agent=1, model=init_mlp((2, 2, 1), seed=7), X=np.zeros((0, 2)), Y=np.zeros((0, 1))
    )
    metrics = run_gossip_training([fed, starved], graph, 3, np.random.default_rng(4))
    assert all(np.isfinite(m.mean_loss) for m in metrics)


def test_async_mode_wakes_one_agent_per_tick():
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    before = [Mlp(lr.model.sizes, lr.model.params.copy()) for lr in learners]
    run_gossip_training(learners, graph, 1, np.random.default_rng(0), mode="async")
    changed = [
        not np.array_equal(lr.model.weights[0], b4.weights[0])
        for lr, b4 in zip(learners, before)
    ]
    assert sum(changed) == 1
    # the waker's payload was delivered immediately
    waker = changed.index(True)
    assert learners[1 - waker].inbox == params_to_blob(learners[waker].model)
    with pytest.raises(ValueError):
        run_gossip_training(learners, graph, 1, np.random.default_rng(0), mode="turbo")


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_dispersion_is_the_stacked_parameter_spread(mode):
    graph = _four_cycle()
    learners = [_learner(a, sizes=(3, 4, 1)) for a in range(4)]
    rng = np.random.default_rng(5)
    for _ in range(6):
        (metrics,) = run_gossip_training(learners, graph, 1, rng, mode=mode)
        flat = np.stack([lr.model.params for lr in learners])
        assert metrics.dispersion == float((flat.max(axis=0) - flat.min(axis=0)).max())


def test_training_run_is_reproducible():
    graph = _four_cycle()

    def run():
        learners = [_learner(a, sizes=(3, 4, 1)) for a in range(4)]
        metrics = run_gossip_training(learners, graph, 12, np.random.default_rng(3))
        return learners, metrics

    la, ma = run()
    lb, mb = run()
    assert ma == mb
    for x, y in zip(la, lb):
        assert params_to_blob(x.model) == params_to_blob(y.model)


def test_metrics_csv_format(tmp_path):
    graph = Graph.from_edges(2, [(0, 1)])
    learners = [_learner(0, sizes=(2, 2, 1)), _learner(1, sizes=(2, 2, 1))]
    metrics = run_gossip_training(learners, graph, 2, np.random.default_rng(0))
    path = tmp_path / "telemetry.csv"
    metrics_to_csv(metrics, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "round,mean_loss,dispersion"
    assert len(lines) == 3
    got = [float(v) for v in lines[1].split(",")]
    assert got[0] == 0.0
    assert got[1] == pytest.approx(metrics[0].mean_loss)
    assert got[2] == pytest.approx(metrics[0].dispersion)
