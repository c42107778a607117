"""Dataset generation: scenarios, budgets, placement, sharding, CSV round trips."""

import hashlib
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import oracles
import pytest
from oracles import pcg64_row, place_attackers

from gossipwatch import cli, datagen, experiments, fanout, protocol
from gossipwatch.datagen import (
    BETA_LAWS,
    Budget,
    EVENT_FAR,
    EVENT_H0,
    EVENT_NEXT,
    LabeledDataset,
    Scenario,
    ShardPolicy,
    _batch_samples,
    build_dataset,
    build_datasets,
    read_dataset_csv,
    scenario_from_tag,
    shard_for_gossip,
    subset_rows,
    training_arrays,
    write_dataset_csv,
)
from gossipwatch.topology import Graph, manhattan_grid, small_world


def _torus():
    return manhattan_grid(3, 3)


def _scenario(**kwargs):
    defaults = dict(graph=_torus(), m=1, c=1, d=1, T=50)
    defaults.update(kwargs)
    return Scenario(**defaults)


def _tiny_budget():
    return Budget(nd_train_per_event=3, nd_test_per_event=2, nl_train=3, nl_test=2)


def test_scenario_validation():
    with pytest.raises(ValueError):
        _scenario(m=1, c=2)
    with pytest.raises(ValueError):
        _scenario(m=2, attackers=(1,))
    with pytest.raises(ValueError, match="distinct"):
        _scenario(m=3, attackers=(3, 3, 7))
    with pytest.raises(ValueError):
        _scenario(monitor=0, monitor_pool=(1, 2))
    with pytest.raises(ValueError):
        _scenario(monitor_pool=())
    with pytest.raises(ValueError):
        scenario_from_tag("S9", _torus())


def test_scenario_tags_carry_beta_laws():
    assert BETA_LAWS["S0"] == (0.0, 1.0)
    assert BETA_LAWS["S4"] == (-0.2, 0.8)
    s = scenario_from_tag("S3", _torus())
    assert s.beta_law == (0.2, 1.2)
    assert s.input_width() == 4  # torus max degree


def test_budget_scaling():
    full = Budget.full()
    assert (full.nd_train_per_event, full.nd_test_per_event) == (10000, 6000)
    assert (full.nl_train, full.nl_test) == (10000, 6000)
    desk = Budget.desk(0.1)
    assert (desk.nd_train_per_event, desk.nd_test_per_event) == (1000, 600)
    assert (desk.nl_train, desk.nl_test) == (1000, 600)
    assert Budget.desk(1e-9).nd_train_per_event == 1  # floor at one row
    with pytest.raises(ValueError):
        Budget.desk(0.0)
    with pytest.raises(ValueError):
        Budget.desk(1.5)


def test_place_attackers_respects_adjacency_counts():
    rng = np.random.default_rng(0)
    graph = _torus()
    for m, c in [(1, 1), (2, 1), (3, 2), (2, 0)]:
        scn = _scenario(m=m, c=c)
        for _ in range(20):
            ids = place_attackers(scn, monitor=4, rng=rng)
            assert len(ids) == m
            near = set(int(v) for v in graph.neighbors[4])
            assert sum(1 for a in ids if a in near) == c
            assert 4 not in ids
            assert ids == tuple(sorted(ids))


def test_place_attackers_with_given_pools_draws_the_same():
    scn = _scenario(m=3, c=2)
    pools = oracles.placement_pools(scn.graph, 4)
    for seed in range(10):
        rng, own = np.random.default_rng(seed), np.random.default_rng(seed)
        assert place_attackers(scn, 4, rng, pools=pools) == place_attackers(scn, 4, own)
        assert rng.bit_generator.state == own.bit_generator.state


def test_place_attackers_rejects_infeasible_requests():
    with pytest.raises(ValueError):
        place_attackers(_scenario(m=5, c=5), 4, np.random.default_rng(0))
    # 9-agent torus: only 4 agents sit outside a closed neighborhood
    with pytest.raises(ValueError):
        place_attackers(_scenario(m=6, c=1), 4, np.random.default_rng(0))
    # on a 3-path, removing the middle agent disconnects the trustworthy part
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    scn = Scenario(graph=path, m=1, c=1, d=1, T=10)
    with pytest.raises(ValueError, match="placement"):
        place_attackers(scn, 0, np.random.default_rng(0))


def _rows_both_ways(scenario, rows=24):
    """datagen._draw_rows on the row seeds of rows rows, and the oracles'
    monitor draw and placement with numpy's generator on the same seeds:
    for each, the monitors, the attacker masks and the row generators'
    final states, or the message of the ValueError it raised."""
    seeds = [oracles.row_seed(5, "train", 1, r) for r in range(rows)]
    states = protocol.seed_states(
        [protocol.entropy_words(ss.entropy, ss.spawn_key) for ss in seeds]
    )
    try:
        monitors, attacked = datagen._draw_rows(scenario, states)
        compiled = (monitors.tolist(), attacked.tolist(), states.tolist())
    except ValueError as err:
        compiled = str(err)
    monitors, attacked, ends = [], np.zeros((rows, scenario.graph.n), bool), []
    try:
        for r, ss in enumerate(seeds):
            rng = np.random.default_rng(ss)
            monitors.append(monitor := oracles.draw_monitor(scenario, rng))
            if scenario.attackers is not None:
                ids = scenario.attackers
                if monitor in ids:
                    raise ValueError(f"monitor {monitor} cannot be an attacker")
            else:
                ids = place_attackers(scenario, monitor, rng)
            attacked[r, list(ids)] = True
            ends.append(pcg64_row(rng).tolist())
        oracle = (monitors, attacked.tolist(), ends)
    except ValueError as err:
        oracle = str(err)
    return compiled, oracle


_MONITORS = {"fixed": dict(monitor=4), "pool": dict(monitor_pool=(0, 4, 7)),
             "pool-of-one": dict(monitor_pool=(3,)), "drawn": {}}


@pytest.mark.parametrize("monitor", list(_MONITORS))
@pytest.mark.parametrize("m, c", [(m, c) for m in range(5) for c in range(m + 1)] + [(8, 4)])
def test_draw_rows_equals_the_numpy_draws(monitor, m, c):
    """The monitors, attacker masks and final row generator states of the
    compiled draws are the oracles' on the 3x3 torus, bit for bit, and a
    request without a placement fails with their message: with c = 4 the
    monitor is cut off unless all 8 other agents attack, so (4, 4) exhausts
    its tries."""
    compiled, oracle = _rows_both_ways(_scenario(m=m, c=c, **_MONITORS[monitor]))
    assert compiled == oracle
    assert isinstance(oracle, str) == ((m, c) == (4, 4))
    if (m, c) == (4, 4):
        assert oracle.startswith("no connected-trustworthy placement found for m=4, c=4")


def test_draw_rows_rejects_placements_as_the_oracle_does(monkeypatch):
    """Where some placements cut the trustworthy agents apart, the compiled
    draws reject the same tries as the oracle, which rejects some."""
    checks, real = [], oracles.subset_connected

    def counted(graph, keep):
        checks.append(keep)
        return real(graph, keep)

    monkeypatch.setattr(oracles, "subset_connected", counted)
    compiled, oracle = _rows_both_ways(_scenario(m=5, c=3), rows=40)
    assert compiled == oracle and len(checks) > 40


@pytest.mark.parametrize("m, c, message", [
    (5, 5, "c=5 exceeds monitor degree 4"),
    (6, 1, "m-c=5 attackers do not fit outside the neighborhood"),
])
def test_draw_rows_fails_infeasible_requests_as_the_oracle_does(m, c, message):
    compiled, oracle = _rows_both_ways(_scenario(m=m, c=c))
    assert compiled == oracle == message


@pytest.mark.parametrize("pool", [(0, 9), (-1,)])
def test_draw_rows_rejects_a_monitor_outside_the_graph(pool):
    """The C draws index the neighbor table by the monitor: an id outside
    the graph fails before the call."""
    states = protocol.seed_states([[1, 2]])
    with pytest.raises(ValueError, match=r"monitor ids must lie in \[0, 9\)"):
        datagen._draw_rows(_scenario(monitor_pool=pool), states)


@pytest.mark.parametrize("scenario", [
    dict(m=3, c=1, monitor_pool=(0, 2, 3, 4)),
    dict(m=3, c=1),
    dict(m=3, c=2),
    dict(m=3, c=1, attackers=(1, 5, 9), monitor_pool=(0, 2, 3, 4)),
    dict(m=3, c=1, attackers=(1, 5, 9)),
], ids=["pool", "drawn", "drawn-c-is-a-degree", "fixed-attackers",
        "fixed-attackers-monitor-drawn"])
def test_draw_rows_equals_the_numpy_draws_on_a_small_world(scenario):
    """On a small world the degrees (2 to 6 here) differ, so the neighbor
    order and the pools differ per monitor; a monitor of degree c is cut
    off, fixed attackers are set as given, and a drawn monitor that is one
    of them fails, each as in the oracle."""
    world = small_world(30, 4, 0.2, np.random.default_rng(3))
    compiled, oracle = _rows_both_ways(Scenario(graph=world, d=1, T=10, **scenario), rows=40)
    assert compiled == oracle
    assert isinstance(oracle, str) == (
        "monitor_pool" not in scenario and ("attackers" in scenario or scenario["c"] == 2)
    )


@pytest.mark.parametrize("m", [204, 205])
def test_draw_rows_takes_numpys_tail_shuffle_for_large_pools(m):
    """A pool above 10,000 agents from which more than a 50th is drawn is a
    shuffled tail of arange in numpy, not Floyd's algorithm: 204 attackers
    on the 101x101 torus draw 203 of the 10,196 agents outside the
    monitor's neighborhood by Floyd, 205 draw 204 by the tail shuffle."""
    big = Scenario(graph=manhattan_grid(101, 101), m=m, c=1, d=1, T=10)
    compiled, oracle = _rows_both_ways(big, rows=3)
    assert not isinstance(oracle, str) and compiled == oracle


def _sample(scn, seed):
    """The dataset columns of one row seed, monitored at agent 4, and the
    attackers its instances were simulated with."""
    simulated = []

    def spy(graph, flags, *args, **kwargs):
        simulated.append(tuple(int(a) for a in np.flatnonzero(flags[0])))
        return protocol.run_batch(graph, flags, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "run_batch", spy)
        words = np.array([protocol.entropy_words(seed)], np.uint32)
        cols = _batch_samples(replace(scn, monitor=4), words, (1,))
    return cols[1], simulated[0]


def test_batch_samples_sum_only_each_monitors_closed_neighborhood(monkeypatch):
    """A chunk asks run_batch for the time sums of each row's monitor and its
    neighbors alone, for each of the row's K instances: the only sums that
    the spatial scores read."""
    masks, run_batch = [], datagen.run_batch

    def spy(*args, summed=None, **kwargs):
        masks.append(summed)
        return run_batch(*args, summed=summed, **kwargs)

    monkeypatch.setattr(datagen, "run_batch", spy)
    scn, K = _scenario(), 3
    words = np.array([protocol.entropy_words(s) for s in range(8)], np.uint32)
    cols = _batch_samples(scn, words, (K,))[K]
    monitors = np.empty(8, np.int64)
    monitors[cols["sample"]] = cols["monitors"]
    closed = np.zeros((8, scn.graph.n), bool)
    for r, m in enumerate(monitors):
        closed[r, [m, *scn.graph.neighbors[m]]] = True
    assert len(set(monitors.tolist())) > 1
    assert np.array_equal(masks[0], np.repeat(closed, K, axis=0))


def test_batch_samples_labels_and_determinism():
    scn = _scenario()
    (s1, att1), (s2, att2) = _sample(scn, 5), _sample(scn, 5)
    assert s1["nd"][0] == 1 and s1["events"][0] == EVENT_NEXT
    assert att1 == att2 and s1["monitors"][0] == 4
    assert np.array_equal(s1["temporal"][0], s2["temporal"][0])
    assert np.array_equal(s1["spatial"][0], s2["spatial"][0])

    clean, none = _sample(_scenario(m=0, c=0), 5)
    assert clean["nd"][0] == 0 and clean["events"][0] == EVENT_H0 and none == ()

    loc, att = _sample(scn, 6)
    hot = loc["nl"][0]
    marked = {int(a) for a, h in zip(loc["slot_agents"][0], hot) if h}
    assert marked <= set(att) and marked  # flags only true attackers


def test_batch_samples_rejects_bad_requests():
    with pytest.raises(ValueError, match="cannot be an attacker"):
        _sample(_scenario(attackers=(4,)), 0)
    with pytest.raises(ValueError):
        _sample(_scenario(m=5, c=5), 0)  # more neighbor attackers than neighbors


def test_far_from_event_avoids_the_neighborhood():
    s, att = _sample(_scenario(m=1, c=0), 7)
    assert s["events"][0] == EVENT_FAR
    near = set(int(v) for v in _torus().neighbors[4])
    assert not (set(att) & near)


def test_build_dataset_counts_and_ids():
    data = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=0)
    assert set(data) == {"nd_temporal", "nd_spatial", "nl_temporal", "nl_spatial"}
    nd = data["nd_temporal"]
    # torus neighborhoods all have width M = 4, so one group per sample
    assert nd.train.n_rows == 3 * 3 and nd.test.n_rows == 3 * 2
    assert np.array_equal(nd.train.sample_ids, np.arange(9))
    assert sorted(set(nd.train.events)) == sorted([EVENT_H0, EVENT_NEXT, EVENT_FAR])
    assert np.array_equal(
        np.array(nd.train.events) == EVENT_H0, nd.train.labels == 0
    )
    nl = data["nl_spatial"]
    assert nl.train.n_rows == 3 and nl.test.n_rows == 2
    assert set(nl.train.events) == {EVENT_NEXT}
    assert nl.train.labels.shape == (3, 4)
    # m = 1, c = 1: the lone attacker is a neighbor, so exactly one hot slot
    assert np.array_equal(nl.train.labels.sum(axis=1), np.ones(3))
    assert not nl.train.padded[nl.train.labels == 1].any()
    assert data["nd_spatial"].train.kind == "spatial"


def test_build_dataset_is_chunk_invariant_and_deterministic():
    scn = _scenario()
    budget = _tiny_budget()
    a = build_dataset(scn, 1, budget, master_seed=3, chunk=256)
    b = build_dataset(scn, 1, budget, master_seed=3, chunk=3)
    c = build_dataset(scn, 1, budget, master_seed=4, chunk=256)
    for key in a:
        for split in ("train", "test"):
            da, db = getattr(a[key], split), getattr(b[key], split)
            assert np.array_equal(da.inputs, db.inputs)
            assert np.array_equal(da.labels, db.labels)
            assert np.array_equal(da.monitors, db.monitors)
    assert not np.array_equal(a["nd_temporal"].train.inputs,
                              c["nd_temporal"].train.inputs)


def _assert_same_datasets(got, want):
    assert list(got) == list(want)
    for key in want:
        for split in ("train", "test"):
            g, w = getattr(got[key], split), getattr(want[key], split)
            for name, value in vars(w).items():
                if isinstance(value, np.ndarray):
                    assert np.array_equal(getattr(g, name), value), (key, split, name)
                else:
                    assert getattr(g, name) == value, (key, split, name)


@pytest.mark.parametrize("chunk", [3, 256])
@pytest.mark.parametrize("attacked", [True, False])
def test_build_datasets_equals_separate_builds_per_K(attacked, chunk):
    """One shared build serves every K with the rows of a separate build."""
    scn = _scenario(T=30) if attacked else _scenario(m=0, c=0, T=30)
    tasks = ("nd", "nl") if attacked else ("nd",)
    budget = Budget(4, 2, 3, 2)
    shared = build_datasets(scn, (5, 2, 1), budget, 7, tasks=tasks, chunk=chunk)
    assert list(shared) == [5, 2, 1]
    for K in (5, 2, 1):
        alone = build_dataset(scn, K, budget, 7, tasks=tasks, chunk=chunk)
        _assert_same_datasets(shared[K], alone)


def test_build_datasets_simulates_only_the_largest_K(monkeypatch):
    """The shared build makes the K=5 build's run_batch calls, no more."""
    calls, run_batch = [], datagen.run_batch

    def counting(*args, **kwargs):
        calls.append(len(args[7]))  # instances in the batch: one rng each
        return run_batch(*args, **kwargs)

    monkeypatch.setattr(datagen, "run_batch", counting)
    scn, budget = _scenario(T=20), Budget(3, 2, 2, 1)
    build_datasets(scn, (5, 2, 1), budget, 0, chunk=2)
    shared = list(calls)
    calls.clear()
    build_dataset(scn, 5, budget, 0, chunk=2)
    assert shared == calls and len(calls) > 1


def _use_cpus(monkeypatch, k):
    """fan_out sees k CPUs: this process's own, each taken again where
    there are fewer, so that k workers start on any machine."""
    cpus = fanout.usable_cpus()
    monkeypatch.setattr(fanout, "usable_cpus", lambda: (cpus * k)[:k])


def _fan_out_everything(monkeypatch):
    """Every build of this test fans its chunks out to two forked workers,
    whatever its work and however many CPUs the machine has."""
    monkeypatch.setattr(datagen, "_FAN_OUT_WORK", 0)
    _use_cpus(monkeypatch, 2)


@pytest.mark.parametrize("chunk", [3, 256])
@pytest.mark.parametrize("attacked", [True, False])
def test_build_datasets_fanned_out_equals_the_in_process_build(monkeypatch, attacked, chunk):
    """Chunks run on forked workers give the in-process build's arrays,
    dtype, shape and bytes, at every K."""
    scn = _scenario(T=30) if attacked else _scenario(m=0, c=0, T=30)
    tasks = ("nd", "nl") if attacked else ("nd",)
    budget = Budget(4, 2, 3, 2)
    _use_cpus(monkeypatch, 1)
    alone = build_datasets(scn, (5, 2, 1), budget, 7, tasks=tasks, chunk=chunk)
    _fan_out_everything(monkeypatch)
    here, chunk_columns = os.getpid(), datagen._chunk_columns

    def in_a_worker(*args):
        assert os.getpid() != here
        return chunk_columns(*args)

    monkeypatch.setattr(datagen, "_chunk_columns", in_a_worker)
    fanned = build_datasets(scn, (5, 2, 1), budget, 7, tasks=tasks, chunk=chunk)
    assert list(fanned) == list(alone) == [5, 2, 1]
    for K in alone:
        assert list(fanned[K]) == list(alone[K])
        for key in alone[K]:
            for split in ("train", "test"):
                got, want = getattr(fanned[K][key], split), getattr(alone[K][key], split)
                for name, value in vars(want).items():
                    other = getattr(got, name)
                    if isinstance(value, np.ndarray):
                        assert (other.dtype, other.shape) == (value.dtype, value.shape), name
                        assert other.tobytes() == value.tobytes(), (K, key, split, name)
                    else:
                        assert other == value, (K, key, split, name)
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no worker is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def _gen_data(**fields):
    return ["gen-data", *(f"--set={key}={value}" for key, value in fields.items())]


@pytest.mark.parametrize("argv, builds", [
    (_gen_data(K=2, d=2, T=100, scale=0.002), [(2, (2,), False)]),
    (_gen_data(scenario="S0", m=1, c=1, K=5, d=2, T=2000, scale=0.0256,
               tasks='["nd","nl"]', events='["h0","next-to","far-from"]'), [(2, (5,), True)]),
    (_gen_data(K=1, d=2, T=200, scale=0.1), [(2, (1,), True)]),
    (["experiment", "one-attacker", "--set", "scale=0.01"],
     [(2, (5, 2, 1), True), (1, (2,), True)]),
], ids=["warm-up", "build-torus", "fit-eval-inputs", "one-attacker"])
def test_which_builds_fan_out(tmp_path, monkeypatch, argv, builds):
    """The (d, Ks, fork) of each build's fan_out call for the build shapes
    of the benchmark: its warm-up gen-data stays in this process, while the
    torus build, the fit-eval input build and both one-attacker builds at
    scale 0.01 fan out.  The chunks return no rows and no network is fit,
    so only the fork decision runs."""
    seen = []

    def record(jobs, fork):
        scenario, Ks = jobs[0].args[:2]
        seen.append((scenario.d, Ks, fork))
        return [{k: datagen._no_rows(scenario.input_width()) for k in Ks} for _ in jobs]

    monkeypatch.setattr(datagen, "fan_out", record)
    monkeypatch.setattr(experiments, "_fit_and_test", lambda *args: [])
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert seen == builds


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity here")
def test_a_fanned_out_job_runs_on_one_cpu(monkeypatch):
    """Each worker binds itself to its own CPU of this process's set (the
    same one where the set has fewer CPUs than workers), so a fan_out in it
    runs in-process; this process keeps its own set."""
    usable_cpus, mine = fanout.usable_cpus, os.sched_getaffinity(0)
    both = multiprocessing.get_context("fork").Barrier(2)  # one job per worker

    def job():
        both.wait(timeout=30)
        return len(usable_cpus()), os.sched_getaffinity(0), os.getpid()

    _use_cpus(monkeypatch, 2)
    seen = fanout.fan_out([job, job], fork=True)
    assert [cpus for cpus, _, _ in seen] == [1, 1]
    assert all(len(cpus) == 1 and cpus <= mine for _, cpus, _ in seen)
    assert len({pid for _, _, pid in seen} | {os.getpid()}) == 3
    assert len(set().union(*(cpus for _, cpus, _ in seen))) == min(2, len(mine))
    assert os.sched_getaffinity(0) == mine
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no worker is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_a_worker_that_dies_fails_the_fan_out_and_leaves_no_worker(monkeypatch):
    _use_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="fan-out worker exited unexpectedly"):
        fanout.fan_out([lambda: os._exit(3), lambda: 1], fork=True)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_failing_chunk_fails_the_build_and_leaves_no_worker(
    tmp_path, monkeypatch, capsys, cpus
):
    """A chunk that raises, in this process or in a forked worker, fails
    build_datasets with its own exception type and message, and gen-data
    with exit code 2 before --out exists; no worker process is left."""

    def fail(*args, **kwargs):
        raise ValueError("no placement today")

    _fan_out_everything(monkeypatch)
    _use_cpus(monkeypatch, cpus)
    monkeypatch.setattr(datagen, "_draw_rows", fail)  # forked workers inherit it
    with pytest.raises(ValueError) as err:
        build_datasets(_scenario(), (2, 1), _tiny_budget(), 0)
    assert type(err.value) is ValueError and str(err.value) == "no placement today"
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no worker is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)
    out = tmp_path / "out"
    argv = ["gen-data", "--set", "T=20", "--set", "scale=0.002", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "error: no placement today" in capsys.readouterr().err
    assert not out.exists()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no worker is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)


def test_build_datasets_rejects_bad_tasks_and_Ks():
    scn, budget = _scenario(), _tiny_budget()
    with pytest.raises(ValueError, match="'detect'.*'nd', 'nl'"):
        build_datasets(scn, (1,), budget, 0, tasks=("nd", "detect"))
    with pytest.raises(ValueError, match="task 'nd' is listed twice"):
        build_datasets(scn, (1,), budget, 0, tasks=("nd", "nd"))
    with pytest.raises(ValueError, match="one or more Ks"):
        build_datasets(scn, (), budget, 0)
    with pytest.raises(ValueError, match=r"each >= 1, got \[2, 0\]"):
        build_datasets(scn, (2, 0), budget, 0)
    merged = build_datasets(scn, (1, 1), Budget(1, 1, 1, 1), 0, tasks=("nd",))
    assert list(merged) == [1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(datagen, "run_batch", None)  # bad events fail before any simulation
        with pytest.raises(ValueError, match="one or more events"):
            build_datasets(scn, (1,), budget, 0, events=())
        with pytest.raises(ValueError, match="unknown event 'near'.*'h0', 'next-to', 'far-from'"):
            build_datasets(scn, (1,), budget, 0, events=("h0", "near"))
        with pytest.raises(ValueError, match="event 'h0' is listed twice"):
            build_datasets(scn, (1,), budget, 0, events=("h0", "h0", "next-to"))


def test_budget_prefix_rows_are_stable():
    """Growing a budget extends each event block without changing the rows
    already present, because every row owns its seed."""
    scn = _scenario()
    small = build_dataset(scn, 1, Budget(2, 1, 2, 1), master_seed=9, tasks=("nd",))
    big = build_dataset(scn, 1, Budget(5, 1, 2, 1), master_seed=9, tasks=("nd",))
    for event in (EVENT_H0, EVENT_NEXT, EVENT_FAR):
        s = small["nd_temporal"].train
        b = big["nd_temporal"].train
        s_rows = s.inputs[np.array(s.events) == event]
        b_rows = b.inputs[np.array(b.events) == event]
        assert np.array_equal(s_rows, b_rows[: len(s_rows)])


def test_monitor_pool_and_fixed_attackers():
    pool = build_dataset(
        _scenario(monitor_pool=(2, 3)), 1, Budget(4, 1, 1, 1), master_seed=1, tasks=("nd",)
    )["nd_temporal"].train
    assert set(int(v) for v in pool.monitors) <= {2, 3}

    fixed = build_dataset(
        _scenario(attackers=(5,), monitor=4, c=1),
        1,
        Budget(2, 1, 2, 1),
        master_seed=1,
        tasks=("nl",),
    )["nl_temporal"].train
    assert np.all(fixed.monitors == 4)
    hot = fixed.labels == 1
    assert np.array_equal(np.unique(fixed.slot_agents[hot]), np.array([5]))


def test_h0_only_scenarios():
    clean = _scenario(m=0, c=0)
    with pytest.raises(ValueError):
        build_dataset(clean, 1, _tiny_budget(), master_seed=0)
    data = build_dataset(clean, 1, Budget(2, 1, 1, 1), master_seed=0, tasks=("nd",))
    assert set(data["nd_temporal"].train.events) == {EVENT_H0}


def test_shard_policy_validation():
    with pytest.raises(ValueError):
        ShardPolicy(kind="chunky", agents=(0, 1))
    with pytest.raises(ValueError):
        ShardPolicy(kind="uniform", agents=(0, 0))
    with pytest.raises(ValueError):
        ShardPolicy(kind="uniform", agents=())
    with pytest.raises(ValueError):
        ShardPolicy(kind="starved", agents=(0, 1), starved_agent=5)
    with pytest.raises(ValueError):
        ShardPolicy(kind="starved", agents=(0, 1), starved_agent=0, starved_fraction=1.0)
    with pytest.raises(ValueError):
        ShardPolicy(kind="by-position", agents=(0, 1))


def _fake_dataset(events):
    R = len(events)
    return LabeledDataset(
        task="nd",
        kind="temporal",
        inputs=np.zeros((R, 2)),
        padded=np.zeros((R, 2), dtype=bool),
        self_values=np.zeros(R),
        labels=np.zeros(R, dtype=np.int64),
        events=np.array(events),
        monitors=np.zeros(R, dtype=np.int64),
        sample_ids=np.arange(R),
        groups=np.zeros(R, dtype=np.int64),
        slot_agents=np.zeros((R, 2), dtype=np.int64),
        K=1,
        d=1,
    )


def test_uniform_sharding_partitions_rows():
    ds = _fake_dataset([EVENT_H0] * 10)
    shards = shard_for_gossip(ds, ShardPolicy(kind="uniform", agents=(0, 1, 2), seed=4))
    merged = np.concatenate(list(shards.values()))
    assert np.array_equal(np.sort(merged), np.arange(10))
    sizes = sorted(len(v) for v in shards.values())
    assert sizes == [3, 3, 4]
    again = shard_for_gossip(ds, ShardPolicy(kind="uniform", agents=(0, 1, 2), seed=4))
    assert all(np.array_equal(shards[a], again[a]) for a in shards)


def test_starved_sharding_scopes_the_shortage():
    events = [EVENT_NEXT] * 50 + [EVENT_H0] * 40
    ds = _fake_dataset(events)
    policy = ShardPolicy(
        kind="starved",
        agents=(0, 1, 2, 3),
        starved_agent=1,
        starved_fraction=0.02,
        starved_events=(EVENT_NEXT,),
        seed=0,
    )
    shards = shard_for_gossip(ds, policy)
    merged = np.concatenate(list(shards.values()))
    assert np.array_equal(np.sort(merged), np.arange(90))
    scarce = shards[1][shards[1] < 50]
    assert scarce.size == round(0.02 * 50)  # one next-to row
    plentiful_share = shards[1][shards[1] >= 50]
    assert plentiful_share.size == 10  # fair share of the 40 h0 rows
    for a in (0, 2, 3):
        assert (shards[a] >= 50).sum() == 10


def test_starved_sharding_defaults_to_all_rows():
    ds = _fake_dataset([EVENT_H0] * 100)
    policy = ShardPolicy(
        kind="starved", agents=(0, 1), starved_agent=0, starved_fraction=0.1, seed=1
    )
    shards = shard_for_gossip(ds, policy)
    assert shards[0].size == 10 and shards[1].size == 90


def test_by_position_sharding_routes_by_event():
    events = [EVENT_H0] * 6 + [EVENT_NEXT] * 4
    ds = _fake_dataset(events)
    policy = ShardPolicy(
        kind="by-position",
        agents=(0, 1, 2),
        position_groups={EVENT_H0: (0, 1, 2), EVENT_NEXT: (2,)},
        seed=0,
    )
    shards = shard_for_gossip(ds, policy)
    assert np.array_equal(np.sort(np.concatenate(list(shards.values()))), np.arange(10))
    assert np.all(shards[0] < 6) and np.all(shards[1] < 6)
    assert (shards[2] >= 6).sum() == 4

    with pytest.raises(ValueError, match="no agent group"):
        shard_for_gossip(
            ds,
            ShardPolicy(
                kind="by-position", agents=(0, 1), position_groups={EVENT_H0: (0,)}
            ),
        )


def test_training_arrays_shapes():
    data = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=2)
    nd = data["nd_temporal"].train
    X, Y, mask = training_arrays(nd)
    assert X.shape == (9, 4) and Y.shape == (9, 1) and mask is None
    X, Y, _ = training_arrays(nd, rows=np.array([0, 2]))
    assert X.shape == (2, 4)
    nl = data["nl_spatial"].train
    X, Y, mask = training_arrays(nl)
    assert Y.shape == (3, 4) and mask.shape == (3, 4)
    assert np.array_equal(mask, (~nl.padded).astype(float))


def test_subset_rows_bool_and_index_agree():
    ds = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=2)["nd_temporal"].train
    hit = np.array(ds.events) == EVENT_NEXT
    by_bool = subset_rows(ds, hit)
    by_idx = subset_rows(ds, np.flatnonzero(hit))
    assert by_bool.n_rows == hit.sum()
    assert np.array_equal(by_bool.inputs, by_idx.inputs)
    assert np.array_equal(by_bool.events, by_idx.events)
    assert np.array_equal(by_bool.sample_ids, by_idx.sample_ids)


@pytest.mark.parametrize("key", ["nd_temporal", "nl_spatial"])
def test_csv_roundtrip_is_bitwise(tmp_path, key):
    ds = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=6)[key].train
    path = tmp_path / "rows.csv"
    write_dataset_csv(ds, path)
    back = read_dataset_csv(path, ds.task, ds.kind, ds.K, ds.d)
    assert np.array_equal(back.inputs, ds.inputs)
    assert np.array_equal(back.self_values, ds.self_values)
    assert np.array_equal(back.labels, ds.labels)
    assert np.array_equal(back.padded, ds.padded)
    assert np.array_equal(back.slot_agents, ds.slot_agents)
    assert np.array_equal(back.events, ds.events)
    assert np.array_equal(back.sample_ids, ds.sample_ids)
    assert np.array_equal(back.groups, ds.groups)
    assert (back.task, back.kind, back.K, back.d) == (ds.task, ds.kind, ds.K, ds.d)


def test_csv_roundtrip_keeps_column_dtypes_without_rows(tmp_path):
    ds = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=6)["nd_temporal"].train
    empty = subset_rows(ds, np.zeros(ds.n_rows, dtype=bool))
    path = tmp_path / "empty.csv"
    write_dataset_csv(empty, path)
    back = read_dataset_csv(path, ds.task, ds.kind, ds.K, ds.d)
    assert back.n_rows == 0 and back.M == ds.M
    for name, value in vars(ds).items():
        if isinstance(value, np.ndarray):
            assert getattr(back, name).dtype.kind == value.dtype.kind, name


# SHA-256 of the CSVs of build_dataset(_scenario(), 1, _tiny_budget(), 6),
# as the row-by-row writer that preceded the column-wise one wrote them.
_CSV_DIGESTS = {
    "nd_spatial_train": "c9e1258dc25b31aebe7ac03b31241574bf7736704bda995c09f7707eab152078",
    "nd_spatial_test": "0ad5e1f7138193e1c90cbb026b9fa183de445a9ce49dd0da432616d4a7b1c327",
    "nd_temporal_train": "37ef86fcc670b6e5f8a128e263613e38eee4f05d9b73cddf6605849c891a234a",
    "nd_temporal_test": "6df2621ed8221bd170e728f428c674735c45b1efaa60b8eeb7e47f184934f6c2",
    "nl_spatial_train": "198cb3bf31f337270212363bb7d2a55a17af8c7e86e6f1068a2fe5250e3bf018",
    "nl_spatial_test": "dff085bc81c1e32a5855803a0222c4c1321e5e7ab57484666c7727e6e62e0477",
    "nl_temporal_train": "216f241dfd17671cea212a43a8b36e15a25668aaf6dd751606d04a51c645080b",
    "nl_temporal_test": "2318020395fa5c4c254e21658c19fab568ffd2313cb655f35f2eb5546842c871",
}


@pytest.mark.parametrize("block", [4096, 2])
def test_csv_bytes_are_pinned(tmp_path, monkeypatch, block):
    """write_dataset_csv writes the pinned bytes, whatever its block size."""
    monkeypatch.setattr(datagen, "_CSV_BLOCK", block)
    data = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=6)
    got = {}
    for key, pair in data.items():
        for split in ("train", "test"):
            path = tmp_path / f"{key}_{split}.csv"
            write_dataset_csv(getattr(pair, split), path)
            got[f"{key}_{split}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == _CSV_DIGESTS


def test_write_csv_of_no_rows_writes_only_the_header(tmp_path):
    path = tmp_path / "empty.csv"
    datagen.write_csv(path, ["t", "loss", "event"], [np.arange(0), [], np.array([], dtype=str)])
    assert path.read_text() == "t,loss,event\n"


def test_write_csv_formats_floats_by_repr_and_the_rest_by_str(tmp_path):
    """A float column's cells read back to the same floats, its odd values
    among them; int and string columns are written as str writes them."""
    floats = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 0.1, 1.0, 1e16])
    ints = np.array([0, -1, 7, 2**62, -(2**63), 3, 10, 11])
    strs = ["h0", "next-to", "far-from", "", "a b", "x", "y", "z"]
    path = tmp_path / "table.csv"
    datagen.write_csv(path, ["f", "i", "s"], [floats, ints, strs])
    assert path.read_text().splitlines() == [
        "f,i,s",
        "nan,0,h0",
        "inf,-1,next-to",
        "-inf,7,far-from",
        "-0.0,4611686018427387904,",
        "5e-324,-9223372036854775808,a b",
        "0.1,3,x",
        "1.0,10,y",
        "1e+16,11,z",
    ]
    back = np.array([float(line.split(",")[0]) for line in path.read_text().splitlines()[1:]])
    assert back.tobytes() == floats.tobytes()


def test_write_csv_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """A table of int, string and float columns, five rows, written in
    blocks of 2 (the last one short) and of 4,096 rows."""
    rng = np.random.default_rng(8)
    columns = [np.arange(5), ["a", "bb", "", "d", "e"], rng.standard_normal(5),
               rng.integers(-9, 9, 5), rng.uniform(size=5) * 1e-300]
    written = []
    for block in (2, 4096):
        monkeypatch.setattr(datagen, "_CSV_BLOCK", block)
        path = tmp_path / f"block{block}.csv"
        datagen.write_csv(path, ["i", "s", "x", "j", "y"], columns)
        written.append(path.read_bytes())
    assert written[0] == written[1] and written[0].count(b"\n") == 6


@pytest.mark.parametrize("rows", [0, 1])
def test_csv_roundtrip_of_zero_and_one_rows_is_bitwise(tmp_path, rows):
    for key in ("nd_temporal", "nl_spatial"):
        ds = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=6)[key].train
        ds = subset_rows(ds, np.arange(rows))
        path = tmp_path / f"{key}.csv"
        write_dataset_csv(ds, path)
        assert _columns(read_dataset_csv(path, ds.task, ds.kind, ds.K, ds.d)) == _columns(ds)


def _columns(ds):
    """Every field of a dataset, its arrays as kind, shape and bytes (the
    events as strings, whose width is that of the longest)."""
    return {
        name: v.tolist() if name == "events" else
        (v.dtype.kind, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
        for name, v in vars(ds).items()
    }


def _written_csv(tmp_path, key="nd_temporal"):
    ds = build_dataset(_scenario(), 1, _tiny_budget(), master_seed=6)[key].train
    path = tmp_path / f"{key}.csv"
    write_dataset_csv(ds, path)
    return ds, path


def _rewrite(path, lines, name="bad.csv"):
    bad = path.parent / name
    bad.write_text("\n".join(lines) + "\n")
    return bad


def test_read_dataset_csv_rejects_malformed_rows(tmp_path):
    ds, path = _written_csv(tmp_path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")

    def cell(row, column, value):
        parts = lines[row].split(",")
        parts[header.index(column)] = value
        return lines[:row] + [",".join(parts)] + lines[row + 1 :]

    cases = [
        (lines[:3] + [lines[3].rsplit(",", 2)[0]] + lines[4:], 4, "'src_2': missing"),
        (lines[:3] + [lines[3] + ",7"] + lines[4:], 4, f"{len(header) + 1}: the row has"),
        (cell(2, "slot_1", "abc"), 3, "'slot_1': not a number: 'abc'"),
        (cell(5, "monitor", "4.5"), 6, "'monitor': not a number"),
        (cell(1, "pad_0", "yes"), 2, "'pad_0': not a number"),
    ]
    for k, (bad_lines, line, what) in enumerate(cases):
        bad = _rewrite(path, bad_lines, f"bad{k}.csv")
        with pytest.raises(ValueError) as err:
            read_dataset_csv(bad, ds.task, ds.kind, ds.K, ds.d)
        assert str(err.value).startswith(f"{bad}:{line}: column {what}"), str(err.value)


@pytest.mark.parametrize("column, cell, parsed", [
    ("monitor", "1_0", False), ("slot_0", "1_0", False), ("sample", "\uff11", False),
    ("slot_1", "\uff11", False), ("grp", "1.0", False), ("monitor", "4#", False),
    ("slot_2", "0.5#x", False), ("src_3", "3#", False), ("src_0", " 1", True),
    ("pad_0", "+1", True), ("slot_3", " +1.5", True),
    ("sample", "99999999999999999999", False),
])
def test_read_dataset_csv_reads_odd_cells_as_the_row_validator(
    tmp_path, column, cell, parsed
):
    """np.loadtxt alone reads the cells: a cell it takes is read to the
    value that int() or float() gives it, and a file with a cell it refuses
    fails, naming the line and the column of that cell, with the same call
    per cell.  A '#' is a cell's own character, not the start of a comment
    that would cut the last cell short."""
    ds, path = _written_csv(tmp_path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    parts = lines[2].split(",")
    parts[header.index(column)] = cell
    odd = _rewrite(path, lines[:2] + [",".join(parts)] + lines[3:])
    if not parsed:
        with pytest.raises(ValueError) as err:
            read_dataset_csv(odd, ds.task, ds.kind, ds.K, ds.d)
        # a decimal integer beyond the int64 range, or no number of its column's type
        what = "not an int64" if cell.isascii() and cell.isdigit() else "not a number"
        assert str(err.value) == f"{odd}:3: column {column!r}: {what}: {cell!r}"
        return
    read = read_dataset_csv(odd, ds.task, ds.kind, ds.K, ds.d)
    if column.startswith("slot_"):
        got = read.inputs[1, int(column[5:])]
    else:
        got = {"self_value": read.self_values[1], "src_0": read.slot_agents[1, 0],
               "pad_0": read.padded[1, 0]}[column]
    want = float(cell) if column.startswith(("slot_", "self")) else int(cell)
    assert got == want


@pytest.mark.parametrize("column", ["self_value", "slot_0", "slot_3"])
@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_read_dataset_csv_names_non_finite_float_cells(tmp_path, column, cell):
    """A float cell that parses to NaN or an infinity names the file, its
    line, counting the blank lines that reading skips, and its column."""
    ds, path = _written_csv(tmp_path)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    parts = lines[3].split(",")
    parts[header.index(column)] = cell
    odd = _rewrite(path, lines[:2] + ["", ""] + lines[2:3] + [",".join(parts)] + lines[4:])
    with pytest.raises(ValueError) as err:
        read_dataset_csv(odd, ds.task, ds.kind, ds.K, ds.d)
    assert str(err.value) == f"{odd}:6: column {column!r}: not finite: {cell!r}"


EVENTS_NAMED = "not one of h0, next-to, far-from"


@pytest.mark.parametrize("key, column, cell, what", [
    ("nd_temporal", "sample", "-5", "negative"),
    ("nd_temporal", "grp", "-1", "negative"),
    ("nd_temporal", "monitor", "-3", "negative"),
    ("nd_temporal", "src_1", "-1", "negative"),
    ("nd_temporal", "pad_0", "7", "not 0 or 1"),
    ("nd_temporal", "pad_3", "-1", "not 0 or 1"),
    ("nd_temporal", "label", "2", "not 0 or 1"),
    ("nl_spatial", "label_1", "-1", "not 0 or 1"),
    ("nl_spatial", "src_0", "-2", "negative"),
    ("nd_temporal", "event", "abc", EVENTS_NAMED),
    ("nd_temporal", "event", "", EVENTS_NAMED),
    ("nl_spatial", "event", "nl-next-to", EVENTS_NAMED),
])
def test_read_dataset_csv_names_int_and_event_cells_outside_their_domain(
    tmp_path, key, column, cell, what
):
    """sample, grp, monitor and src cells are >= 0, pad and label cells 0 or
    1, and an event h0, next-to or far-from; any other cell names the file,
    its line, counting the blank lines that reading skips, and its column."""
    ds, path = _written_csv(tmp_path, key)
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    parts = lines[3].split(",")
    parts[header.index(column)] = cell
    odd = _rewrite(path, lines[:2] + ["", ""] + lines[2:3] + [",".join(parts)] + lines[4:])
    with pytest.raises(ValueError) as err:
        read_dataset_csv(odd, ds.task, ds.kind, ds.K, ds.d)
    assert str(err.value) == f"{odd}:6: column {column!r}: {what}: {cell!r}"


def test_read_dataset_csv_rejects_headers_of_another_task(tmp_path):
    nd, nd_path = _written_csv(tmp_path, "nd_temporal")
    with pytest.raises(ValueError, match=r"nd_temporal\.csv:1: column 'label_0'"):
        read_dataset_csv(nd_path, "nl", nd.kind, nd.K, nd.d)
    nl, nl_path = _written_csv(tmp_path, "nl_spatial")
    with pytest.raises(ValueError, match=r"nl_spatial\.csv:1: column 'label'"):
        read_dataset_csv(nl_path, "nd", nl.kind, nl.K, nl.d)

    lines = nd_path.read_text().splitlines()
    drop = lines[0].split(",").index("pad_3")
    bad = _rewrite(nd_path, [",".join(v for i, v in enumerate(line.split(",")) if i != drop)
                             for line in lines])
    with pytest.raises(ValueError, match=r"bad\.csv:1: column 'pad_3': missing"):
        read_dataset_csv(bad, nd.task, nd.kind, nd.K, nd.d)
