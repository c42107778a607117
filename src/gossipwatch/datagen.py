"""Labeled dataset generation for detector training and evaluation.

A sample is one monitored agent's tailored feature vector(s), computed from
K fresh protocol instances of a scenario; K is an argument of the build, not
part of the scenario.  Attack scenarios re-randomize the attacker placement,
problem instance, and injection target per sample, subject to the
scenario's (m, c) constraints: m attackers total, exactly c of them
adjacent to the monitored agent.  Every sample owns a seed derived
from (master seed, split, event, row index), so datasets are reproducible
row by row and independent of batching.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

from gossipwatch.fanout import fan_out
from gossipwatch.features import SPATIAL, TEMPORAL, spatial_scores, tailor_inputs, temporal_scores
from gossipwatch.protocol import (
    ProtocolConfig,
    _check_states,
    _compiled_loop,
    draw_problems,
    entropy_words,
    run_batch,
    seed_states,
)
from gossipwatch.topology import (
    Graph,
    attacker_mask,
    expected_transition_matrix,
    second_largest_eigenvalue,
)

# Initial-state laws of the named scenarios: trustworthy agents start at
# beta ~ U[low, high]^d.  S0 matches the planted-solution law U[0, 1].
BETA_LAWS = {
    "S0": (0.0, 1.0),
    "S1": (0.2, 0.8),
    "S2": (-0.2, 1.2),
    "S3": (0.2, 1.2),
    "S4": (-0.2, 0.8),
}

EVENT_H0 = "h0"
EVENT_NEXT = "next-to"
EVENT_FAR = "far-from"
EVENTS = (EVENT_H0, EVENT_NEXT, EVENT_FAR)  # the events a dataset row can have

_SPLIT_CODES = {"train": 0, "test": 1}
_EVENT_CODES = {EVENT_H0: 0, EVENT_NEXT: 1, EVENT_FAR: 2, "nl-" + EVENT_NEXT: 3}

# Placements _draw_rows draws for a row before it gives up.
PLACEMENT_TRIES = 100

# The cost of build_datasets in pair updates of one CPU, each about 14 ns at
# d = 2 and 13 ns at d = 1 on the 3x3 torus, summing the monitor's closed
# neighborhood only (one thread of a 2-vCPU x86-64 host): a row's
# monitor draw, placement, seeding and features cost about _ROW_WORK, and
# each of its instances its T pair updates plus _INSTANCE_WORK for its
# seeding and problem draw.  A build of _FAN_OUT_WORK (about 35 ms) or more
# runs its chunks on forked workers.  Below it the workers' start-up, about
# 10 ms each, and the pickled columns they send back are a share of the
# build that the other CPUs are not shown to win back.  On that host a
# chunk spends 3-7 us a row outside run_batch at K = 1 to 5 (200 to 500
# pair updates, its instances' seeding and problem draws included), and an
# instance about 1.2 us beyond its pair updates (about 85).
# The constants keep the values they were first given: no benchmark build
# lies between the warm-up gen-data (about 280,000) and _FAN_OUT_WORK, so
# no paired run could show a gain from moving them; tests/test_datagen.py
# pins which benchmark builds fan out.
_ROW_WORK = 1000
_INSTANCE_WORK = 500
_FAN_OUT_WORK = 2_500_000


@dataclass(frozen=True)
class Scenario:
    """Everything that defines one sampling distribution of labeled rows,
    except K, the protocol runs per row, which each build takes.  Attackers
    inject toward a target drawn from U[-0.5, 0.5]^d per instance, with noise
    decaying at the graph's mixing value."""

    graph: Graph
    m: int = 1  # attackers in H1 events
    c: int = 1  # attackers adjacent to the monitor in next-to events
    beta_law: tuple[float, float] = BETA_LAWS["S1"]
    d: int = 2
    T: int = 2000
    M: int | None = None  # detector input width; graph max degree if None
    monitor: int | None = None  # fixed monitored agent, or drawn per sample
    monitor_pool: tuple[int, ...] | None = None  # candidates when drawn
    attackers: tuple[int, ...] | None = None  # fixed placement, or drawn

    def __post_init__(self):
        if self.m < 0 or self.c < 0 or self.c > self.m:
            raise ValueError(f"need 0 <= c <= m, got m={self.m}, c={self.c}")
        if self.attackers is not None and len(set(self.attackers)) != len(self.attackers):
            raise ValueError(f"fixed attackers must be distinct, got {self.attackers}")
        if self.attackers is not None and len(self.attackers) != self.m:
            raise ValueError("fixed attacker list must have m entries")
        if self.monitor is not None and self.monitor_pool is not None:
            raise ValueError("set monitor or monitor_pool, not both")
        if self.monitor_pool is not None and not self.monitor_pool:
            raise ValueError("monitor_pool must be non-empty when given")

    def input_width(self) -> int:
        return self.M if self.M is not None else self.graph.max_degree()

    def noise_decay(self) -> float:
        return second_largest_eigenvalue(expected_transition_matrix(self.graph))

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            d=self.d,
            T=self.T,
            init_low=self.beta_law[0],
            init_high=self.beta_law[1],
        )


def scenario_from_tag(tag: str, graph: Graph, **kwargs) -> Scenario:
    """Scenario with the beta law of a named tag (S0..S4)."""
    if tag not in BETA_LAWS:
        raise ValueError(f"unknown scenario tag {tag!r}; known: {sorted(BETA_LAWS)}")
    return Scenario(graph=graph, beta_law=BETA_LAWS[tag], **kwargs)


@dataclass(frozen=True)
class Budget:
    """Row budgets, per event for detection, total for localization."""

    nd_train_per_event: int = 10000
    nd_test_per_event: int = 6000
    nl_train: int = 10000
    nl_test: int = 6000

    @classmethod
    def full(cls) -> "Budget":
        return cls()

    @classmethod
    def desk(cls, scale: float = 0.1) -> "Budget":
        if not 0 < scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {scale}")
        f = cls.full()
        return cls(
            nd_train_per_event=max(1, round(f.nd_train_per_event * scale)),
            nd_test_per_event=max(1, round(f.nd_test_per_event * scale)),
            nl_train=max(1, round(f.nl_train * scale)),
            nl_test=max(1, round(f.nl_test * scale)),
        )


@dataclass
class LabeledDataset:
    task: str  # "nd" | "nl"
    kind: str  # "temporal" | "spatial"
    inputs: np.ndarray  # (R, M)
    padded: np.ndarray  # (R, M) bool
    self_values: np.ndarray  # (R,)
    labels: np.ndarray  # nd: (R,) int; nl: (R, M) int
    events: np.ndarray  # (R,) str
    monitors: np.ndarray  # (R,)
    sample_ids: np.ndarray  # (R,) groups of one sample share an id
    groups: np.ndarray  # (R,) group index within the sample
    slot_agents: np.ndarray  # (R, M) source agent of each slot
    K: int
    d: int

    @property
    def n_rows(self) -> int:
        return self.inputs.shape[0]

    @property
    def M(self) -> int:
        return self.inputs.shape[1]


@dataclass
class DatasetPair:
    train: LabeledDataset
    test: LabeledDataset


def _resolve_event(scenario: Scenario, event: str) -> Scenario:
    if event == EVENT_H0:
        return replace(scenario, m=0, c=0, attackers=None)
    if event == EVENT_NEXT:
        return scenario
    if event == EVENT_FAR:
        return replace(scenario, c=0, attackers=None)
    raise ValueError(f"unknown event {event!r}; known: 'h0', 'next-to', 'far-from'")


def _draw_rows(scenario: Scenario, rngs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's monitored agent (R,) and attacker mask (R, n, bool) from
    its generator, a states row of rngs (R, 6) from seed_states, advanced
    in place.  The monitor is the fixed one, or drawn from the pool or from
    every agent; where the scenario does not fix its attackers, up to
    PLACEMENT_TRIES placements of m, c of them next to the monitor, are
    drawn until the trustworthy agents are connected.  The draws run in C
    (draw_rows in _gossip_loop.c), as place_attackers in tests/oracles.py
    makes them with numpy's generator."""
    graph, m, c = scenario.graph, scenario.m, scenario.c
    if scenario.monitor is not None:
        pool = (scenario.monitor,)
    else:
        pool = scenario.monitor_pool if scenario.monitor_pool is not None else range(graph.n)
    pool = np.array(pool, dtype=np.int64)
    if not ((pool >= 0) & (pool < graph.n)).all():
        raise ValueError(f"monitor ids must lie in [0, {graph.n}), got {pool.tolist()}")
    fixed = scenario.attackers is not None
    R = _check_states(rngs)
    monitors, attacked = np.empty(R, np.int64), np.zeros((R, graph.n), bool)
    reason = np.zeros(1, np.int64)
    failed = _compiled_loop().draw_rows(
        R, graph.n, rngs, graph.degrees, graph.nbr_table, graph.nbr_table.shape[1],
        pool, len(pool), 0 if fixed else m, c, PLACEMENT_TRIES, monitors, attacked, reason,
    )
    if failed == -2:
        raise MemoryError("draw_rows could not allocate its work buffers")
    if failed >= 0:
        monitor = int(monitors[failed])
        raise ValueError({
            1: f"c={c} exceeds monitor degree {graph.degrees[monitor]}",
            2: f"m-c={m - c} attackers do not fit outside the neighborhood",
            3: f"no connected-trustworthy placement found for m={m}, c={c} "
               f"at monitor {monitor} in {PLACEMENT_TRIES} tries",
        }[int(reason[0])])
    if fixed:
        attacked[:] = attacker_mask(graph, scenario.attackers)
        hit = attacked[np.arange(R), monitors]
        if hit.any():
            raise ValueError(f"monitor {monitors[hit.argmax()]} cannot be an attacker")
    return monitors, attacked


def _batch_samples(
    scenario: Scenario, words: np.ndarray, Ks: tuple[int, ...]
) -> dict[int, dict[str, np.ndarray]]:
    """The dataset rows of one sample per row of ``words`` for each K in
    ``Ks``, from one vectorized run_batch call of max(Ks) instances per row.
    Row r's words (R, E) are the entropy words (protocol.entropy_words) of
    its seed, a SeedSequence that has not spawned.

    Each K maps to column arrays with one entry per tailored group: the
    sample's row in ``words`` ("sample"), "groups", "monitors", "events",
    the detection label "nd", the per-slot localization labels "nl",
    "padded", "slot_agents", and per feature kind the inputs (TEMPORAL,
    SPATIAL) and the monitor's self value (kind + "_self").  Only the inputs
    and self values differ between Ks.

    Stream use per row, frozen for reproducibility: the monitor draw and
    attacker placement from the row generator, default_rng(seed)
    (_draw_rows), then per instance k the PCG64 of child k of the seed's
    spawn(K), covering the problem draw and the injection target
    (protocol.draw_problems) and the protocol run.  Both are seeded in C
    (protocol.seed_states), the children from the row's words with k
    appended to its spawn key, so no generator object is made.  A row
    depends only on its own seed, not on the other rows of the batch;
    spawning is prefix-stable, so its sample at K = k is the one of its
    first k instances.
    """
    graph = scenario.graph
    n, d, K = graph.n, scenario.d, max(Ks)
    R, E = words.shape
    children = np.empty((R * K, E + 1), np.uint32)
    children[:, :E] = np.repeat(words, K, axis=0)
    children[:, E] = np.tile(np.arange(K, dtype=np.uint32), R)
    rngs = seed_states(children)
    monitors, attacked = _draw_rows(scenario, seed_states(words))
    hit = attacked.any(axis=1)
    flags = np.repeat(attacked, K, axis=0)
    thetas, phis, alphas = draw_problems(n, d, np.repeat(hit, K), rngs)
    lam = scenario.noise_decay() if scenario.m else None
    # spatial_scores reads the sums of the monitor and its neighbors only.
    adjacent = graph.choice_probabilities() > 0
    closed = np.repeat(adjacent[monitors] | (np.arange(n) == monitors[:, None]), K, axis=0)
    stats = run_batch(
        graph, flags, thetas, phis, alphas, lam, scenario.protocol_config(), rngs, summed=closed
    )
    first, last, sums = (a.reshape(R, K, n, d) for a in (stats.first, stats.last, stats.sums))

    # Each output row's slot agents, from the slot layouts of the monitors.
    M = scenario.input_width()
    present = np.unique(monitors)
    layouts = [np.append(graph.neighbors[m], m)[tailor_inputs(graph.degrees[m], M)]
               for m in present.tolist()]
    sizes = np.array([len(a) for a in layouts])
    at = np.searchsorted(present, monitors)  # each row's monitor among those present
    counts = sizes[at]
    sample = np.repeat(np.arange(R), counts)
    groups = np.arange(len(sample)) - (np.cumsum(counts) - counts)[sample]
    slot_agents = np.concatenate(layouts)[(np.cumsum(sizes) - sizes)[at][sample] + groups]
    padded = slot_agents == monitors[sample, None]
    near = (attacked & adjacent[monitors]).any(axis=1)
    events = np.where(hit, np.where(near, EVENT_NEXT, EVENT_FAR), EVENT_H0)
    common = {
        "sample": sample,
        "groups": groups,
        "monitors": monitors[sample],
        "events": events[sample],
        "nd": hit[sample].astype(np.int64),
        "nl": (attacked[sample[:, None], slot_agents] & ~padded).astype(np.int64),
        "padded": padded,
        "slot_agents": slot_agents,
    }
    out = {}
    for k in Ks:
        # (R, n) score tables: row r holds the scores of its monitor's
        # neighbors at their ids and the monitor's own score at its id.
        temporal = temporal_scores(first[:, :k], last[:, :k])
        spatial = np.full((R, n), np.nan)
        for m in present.tolist():
            rows = np.flatnonzero(monitors == m)
            spatial[rows[:, None], graph.neighbors[m]], spatial[rows, m] = spatial_scores(
                sums[rows, :k], graph, m
            )
        out[k] = cols = dict(common)
        for kind, scores in ((TEMPORAL, temporal), (SPATIAL, spatial)):
            cols[kind] = scores[sample[:, None], slot_agents]
            cols[kind + "_self"] = scores[sample, common["monitors"]]
    return out


def _no_rows(M: int) -> dict[str, np.ndarray]:
    """Zero-row columns of _batch_samples' dtypes and width, so that a split
    without rows keeps them."""
    ints, slots = np.zeros(0, np.int64), np.zeros((0, M), np.int64)
    return {
        "sample": ints, "groups": ints, "monitors": ints, "events": np.zeros(0, str),
        "nd": ints, "nl": slots, "padded": slots == 1, "slot_agents": slots,
        TEMPORAL: np.zeros((0, M)), SPATIAL: np.zeros((0, M)),
        TEMPORAL + "_self": np.zeros(0), SPATIAL + "_self": np.zeros(0),
    }


def _dataset(blocks, task: str, kind: str, K: int, d: int) -> LabeledDataset:
    """One (task, kind) dataset from the column blocks of its chunks."""

    def col(name):
        return np.concatenate([block[name] for block in blocks])

    return LabeledDataset(
        task=task,
        kind=kind,
        inputs=col(kind),
        padded=col("padded"),
        self_values=col(kind + "_self"),
        labels=col(task),
        events=col("events"),
        monitors=col("monitors"),
        sample_ids=col("sample"),
        groups=col("groups"),
        slot_agents=col("slot_agents"),
        K=K,
        d=d,
    )


def _chunk_columns(scenario: Scenario, Ks, master_seed: int, task: str, split: str,
                   event: str, rows: range) -> dict[int, dict[str, np.ndarray]]:
    """_batch_samples of one chunk of build_datasets: the given rows of one
    (task, split, event) block, row r from the seed
    SeedSequence(master_seed, spawn_key=(split code, event code, r))."""
    code = _EVENT_CODES[("nl-" + event) if task == "nl" else event]
    words = np.tile(
        np.array(entropy_words(master_seed, (_SPLIT_CODES[split], code, 0)), np.uint32),
        (len(rows), 1),
    )
    words[:, -1] = rows  # the row index, the spawn key's last word
    return _batch_samples(_resolve_event(scenario, event), words, Ks)


def build_datasets(
    scenario: Scenario,
    Ks: tuple[int, ...] | list[int],
    budget: Budget,
    master_seed: int,
    tasks: tuple[str, ...] = ("nd", "nl"),
    events: tuple[str, ...] = EVENTS,
    chunk: int = 256,
) -> dict[int, dict[str, DatasetPair]]:
    """Build train and test datasets of the scenario family for every K in
    ``Ks``, each as a separate build at that K would, from one simulation.

    Detection rows mix the requested events with equal per-event budgets;
    localization rows are all next-to attacks.  Each K maps to datasets
    keyed "nd_temporal", "nd_spatial", "nl_temporal", "nl_spatial" (subset
    per ``tasks``).  Each row derives from its own seed, so results do not
    depend on ``chunk``, nor on whether the chunks run in this process or,
    for a build of _FAN_OUT_WORK or more, on forked workers (fanout.fan_out).
    """
    for at, task in enumerate(tasks):
        if task not in ("nd", "nl"):
            raise ValueError(f"unknown task {task!r}; known: 'nd', 'nl'")
        if task in tasks[:at]:
            raise ValueError(f"task {task!r} is listed twice")
    Ks = tuple(dict.fromkeys(Ks))
    if not Ks or min(Ks) < 1:
        raise ValueError(f"need one or more Ks, each >= 1, got {list(Ks)}")
    if "nd" in tasks and not events:
        raise ValueError("detection datasets need one or more events")
    for at, event in enumerate(events):
        _resolve_event(scenario, event)  # rejects an unknown event
        if event in events[:at]:
            raise ValueError(f"event {event!r} is listed twice")
    if scenario.m == 0 and "nl" in tasks:
        raise ValueError("localization datasets need an attack scenario (m >= 1)")
    if scenario.m == 0:
        events = (EVENT_H0,)
    runs = []  # (task, split, event, rows) of every block of rows, in block order
    if "nd" in tasks:
        for event in events:
            runs.append(("nd", "train", event, budget.nd_train_per_event))
            runs.append(("nd", "test", event, budget.nd_test_per_event))
    if "nl" in tasks:
        runs.append(("nl", "train", EVENT_NEXT, budget.nl_train))
        runs.append(("nl", "test", EVENT_NEXT, budget.nl_test))
    chunks = [
        (task, split, event, range(at, min(at + chunk, count)))
        for task, split, event, count in runs
        for at in range(0, count, chunk)
    ]
    row_work = max(Ks) * (scenario.T + _INSTANCE_WORK) + _ROW_WORK
    columns = fan_out([
        functools.partial(_chunk_columns, scenario, Ks, master_seed, task, split, event, r)
        for task, split, event, r in chunks
    ], fork=sum(len(r) for *_, r in chunks) * row_work >= _FAN_OUT_WORK)

    M = scenario.input_width()
    splits = ("train", "test")
    blocks = {(k, task, split): [_no_rows(M)] for k in Ks for task in tasks for split in splits}
    next_id = {(task, split): 0 for task in tasks for split in splits}
    for (task, split, _, r), by_K in zip(chunks, columns):
        for k, cols in by_K.items():
            cols["sample"] = cols["sample"] + next_id[(task, split)]
            blocks[(k, task, split)].append(cols)
        next_id[(task, split)] += len(r)
    result: dict[int, dict[str, DatasetPair]] = {k: {} for k in Ks}
    for k in Ks:
        for task in tasks:
            train, test = (blocks.pop((k, task, split)) for split in splits)
            for kind in (TEMPORAL, SPATIAL):
                result[k][f"{task}_{kind}"] = DatasetPair(
                    train=_dataset(train, task, kind, k, scenario.d),
                    test=_dataset(test, task, kind, k, scenario.d),
                )
    return result


def build_dataset(
    scenario: Scenario,
    K: int,
    budget: Budget,
    master_seed: int,
    tasks: tuple[str, ...] = ("nd", "nl"),
    events: tuple[str, ...] = EVENTS,
    chunk: int = 256,
) -> dict[str, DatasetPair]:
    """build_datasets at one K."""
    return build_datasets(scenario, (K,), budget, master_seed, tasks, events, chunk)[K]


@dataclass(frozen=True)
class ShardPolicy:
    """How dataset rows split into per-agent shards for gossip training.

    kind "uniform": near-equal random split over ``agents``.
    kind "starved": ``starved_agent`` gets a ``starved_fraction`` share of
    the rows tagged with ``starved_events`` (all rows if None); the rest of
    those rows split uniformly over the other agents, and rows outside
    ``starved_events`` split uniformly over everyone.
    kind "by-position": rows split by event tag; ``position_groups`` maps
    each tag present in the dataset to the agents sharing those rows.
    """

    kind: str
    agents: tuple[int, ...]
    starved_agent: int | None = None
    starved_fraction: float = 0.02
    starved_events: tuple[str, ...] | None = None
    position_groups: dict | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("uniform", "starved", "by-position"):
            raise ValueError(f"unknown shard policy kind {self.kind!r}")
        if len(set(self.agents)) != len(self.agents) or not self.agents:
            raise ValueError("agents must be a non-empty list of distinct ids")
        if self.kind == "starved":
            if self.starved_agent not in self.agents:
                raise ValueError("starved_agent must be one of agents")
            if not 0.0 < self.starved_fraction < 1.0:
                raise ValueError("starved_fraction must be in (0, 1)")
        if self.kind == "by-position" and not self.position_groups:
            raise ValueError("by-position policy needs position_groups")


def _deal(indices: np.ndarray, agents, rng) -> dict[int, list]:
    shuffled = indices[rng.permutation(indices.size)]
    parts = np.array_split(shuffled, len(agents))
    return {a: list(p) for a, p in zip(agents, parts)}


def shard_for_gossip(dataset: LabeledDataset, policy: ShardPolicy) -> dict[int, np.ndarray]:
    """Partition dataset rows into per-agent shards.  Every row lands in
    exactly one shard; shard draws are fixed by the policy seed."""
    rng = np.random.default_rng(policy.seed)
    R = dataset.n_rows
    idx = np.arange(R)
    out: dict[int, list] = {a: [] for a in policy.agents}
    if policy.kind == "uniform":
        out = _deal(idx, policy.agents, rng)
    elif policy.kind == "starved":
        if policy.starved_events is None:
            scarce = idx
            plentiful = np.empty(0, dtype=np.int64)
        else:
            hit = np.isin(dataset.events, policy.starved_events)
            scarce, plentiful = idx[hit], idx[~hit]
        take = round(policy.starved_fraction * scarce.size)
        shuffled = scarce[rng.permutation(scarce.size)]
        out = {policy.starved_agent: list(shuffled[:take])}
        rest = [a for a in policy.agents if a != policy.starved_agent]
        out.update(_deal(np.sort(shuffled[take:]), rest, rng))
        if plentiful.size:
            for a, rows in _deal(plentiful, policy.agents, rng).items():
                out.setdefault(a, []).extend(rows)
    else:
        for tag in np.unique(dataset.events).tolist():
            if tag not in policy.position_groups:
                raise ValueError(f"no agent group for rows tagged {tag!r}")
            group = tuple(policy.position_groups[tag])
            if not group:
                raise ValueError(f"empty agent group for tag {tag!r}")
            dealt = _deal(np.flatnonzero(dataset.events == tag), group, rng)
            for a, rows in dealt.items():
                out.setdefault(a, []).extend(rows)
    return {a: np.sort(np.array(rows, dtype=np.int64)) for a, rows in out.items()}


def training_arrays(dataset: LabeledDataset, rows: np.ndarray | None = None):
    """(X, Y, mask) arrays for network training; mask is None for detection
    and the non-padded slot indicator for localization."""
    sel = slice(None) if rows is None else rows
    X = dataset.inputs[sel]
    if dataset.task == "nd":
        return X, dataset.labels[sel].reshape(-1, 1).astype(np.float64), None
    Y = dataset.labels[sel].astype(np.float64)
    mask = (~dataset.padded[sel]).astype(np.float64)
    return X, Y, mask


def subset_rows(dataset: LabeledDataset, rows: np.ndarray) -> LabeledDataset:
    """Dataset restricted to the given row indices or boolean row mask (e.g.
    one event family)."""
    rows = np.asarray(rows)
    per_row = ("inputs", "padded", "self_values", "labels", "events", "monitors", "sample_ids",
               "groups", "slot_agents")
    return replace(dataset, **{name: getattr(dataset, name)[rows] for name in per_row})


# Rows write_csv formats at a time, which bounds the strings it holds.
_CSV_BLOCK = 4096


def write_csv(path, header, columns) -> None:
    """Write a table of equal-length columns under ``header``: the cells of
    a float column by repr, which reads back to the same float, and those of
    every other column by str.  The one place that formats a CSV cell."""
    columns = [np.asarray(c) for c in columns]
    rows = len(columns[0])
    if len(columns) != len(header) or any(len(c) != rows for c in columns):
        raise ValueError(f"need {len(header)} columns of {rows} rows")
    fmts = [repr if c.dtype.kind == "f" else str for c in columns]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for at in range(0, rows, _CSV_BLOCK):
            cells = [map(f, c[at : at + _CSV_BLOCK].tolist()) for f, c in zip(fmts, columns)]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    """One row per tailored group, written by write_csv."""
    M, R = dataset.M, dataset.n_rows
    label_cols = ["label"] if dataset.task == "nd" else [f"label_{s}" for s in range(M)]
    cols = (
        ["sample", "grp", "monitor", "event"]
        + label_cols
        + ["self_value"]
        + [f"slot_{s}" for s in range(M)]
        + [f"pad_{s}" for s in range(M)]
        + [f"src_{s}" for s in range(M)]
    )
    write_csv(path, cols, [
        dataset.sample_ids, dataset.groups, dataset.monitors, dataset.events,
        *dataset.labels.reshape(R, len(label_cols)).T, dataset.self_values, *dataset.inputs.T,
        *dataset.padded.T.astype(np.int64), *dataset.slot_agents.T,
    ])


def _load(rows: list, dtype, at: list) -> np.ndarray:
    """The cells of columns ``at`` of ``rows`` as ``dtype``, by np.loadtxt:
    the one reader of a dataset CSV's numeric cells.  comments=None, since
    by default a cell would be cut at a '#'."""
    return np.loadtxt(rows, dtype, delimiter=",", comments=None, usecols=at, ndmin=2)


def _takes(row: str, dtype, at: list) -> bool:
    """Whether _load takes the cells of columns ``at`` of ``row``."""
    try:
        _load([row], dtype, at)
    except ValueError:
        return False
    return True


def _loaded_rows(header: list, lines: list, int_at: list, float_at: list, event_at: int):
    """The int cells, float cells and events of the non-blank lines; a
    ValueError where a row is ragged or _load does not take a cell."""
    rows = [line.rstrip("\n") for line in lines if line.strip()]
    if not rows:
        return [], [], []
    if any(row.count(",") != len(header) - 1 for row in rows):
        raise ValueError("a ragged row")
    return _load(rows, np.int64, int_at), _load(rows, np.float64, float_at), [
        row.split(",", event_at + 1)[event_at] for row in rows
    ]


def _locate_fault(path, header: list, lines: list, int_at: list, float_at: list):
    """Raise the ValueError naming the file, the line and the column of the
    first ragged row, or of the first cell that _load does not take, with
    the same _load call on one line at a time; for a file that _loaded_rows
    refused.  An int cell that is a number outside the int64 range is not an
    int64, any other refused cell not a number."""
    for no, line in enumerate(lines, 2):
        if not line.strip():
            continue
        row = line.rstrip("\n")
        parts = row.split(",")
        if len(parts) < len(header):
            raise ValueError(
                f"{path}:{no}: column {header[len(parts)]!r}: missing, the row has "
                f"{len(parts)} of {len(header)} fields"
            )
        if len(parts) > len(header):
            raise ValueError(
                f"{path}:{no}: column {len(header) + 1}: the row has {len(parts)} "
                f"fields, the header {len(header)}"
            )
        for dtype, at in ((np.int64, int_at), (np.float64, float_at)):
            if _takes(row, dtype, at):
                continue
            i = next(i for i in at if not _takes(row, dtype, [i]))
            big = dtype is np.int64 and _takes(row, np.float64, [i]) and (
                abs(_load([row], np.float64, [i])[0, 0]) >= 2.0**63
            )
            what = "not an int64" if big else "not a number"
            raise ValueError(f"{path}:{no}: column {header[i]!r}: {what}: {parts[i]!r}")
    raise ValueError(f"{path}: np.loadtxt refused the file at no line")


def _refuse_cells(path, lines: list, bad: np.ndarray, names: list, at: list, what: list):
    """Raise the ValueError naming the file, the line and the column of the
    first True cell of ``bad`` (rows x columns, of the non-blank lines), in
    file order: the column is names[i], at field at[i] of its line, and
    what[i] says what is wrong with it.  Blank lines count as lines."""
    hits = np.argwhere(bad)
    if hits.size:
        row, i = hits[0]
        no = [no for no, line in enumerate(lines, 2) if line.strip()][row]
        cell = lines[no - 2].rstrip("\n").split(",")[at[i]]
        raise ValueError(f"{path}:{no}: column {names[i]!r}: {what[i]}: {cell!r}")


def read_dataset_csv(
    path, task: str, kind: str, K: int, d: int, n: int | None = None
) -> LabeledDataset:
    """Read a file written by write_dataset_csv.

    A header that lacks a column of the task or disagrees on the slot, pad
    and src counts, a ragged row, a non-numeric cell, a float cell that is
    not finite, a negative sample, grp, monitor or src cell, a monitor or
    src cell of n or more (an agent id outside the graph of n agents, where
    n is given), a pad or label cell other than 0 or 1 and an event other
    than h0, next-to and far-from each raise a ValueError naming the file,
    the line and the column.  The numeric cells are read by np.loadtxt
    alone; where it refuses a file, _locate_fault checks it again line by
    line with the same call to name the cell at fault.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        lines = fh.readlines()
    widths = {p: sum(c.startswith(p) for c in header) for p in ("slot_", "pad_", "src_")}
    M = max(widths.values())
    for prefix, width in widths.items():
        if width < M:
            counts = ", ".join(f"{w} {p}" for p, w in widths.items())
            raise ValueError(
                f"{path}:1: column '{prefix}{width}': missing, the header has {counts} columns"
            )
    slots = range(M)
    label_cols = ["label"] if task == "nd" else [f"label_{s}" for s in slots]
    int_cols = ["sample", "grp", "monitor", *label_cols]
    int_cols += [f"pad_{s}" for s in slots] + [f"src_{s}" for s in slots]
    float_cols = ["self_value"] + [f"slot_{s}" for s in slots]
    col = {c: i for i, c in enumerate(header)}
    for name in ["event", *int_cols, *float_cols]:
        if name not in col:
            raise ValueError(f"{path}:1: column {name!r}: missing from the {task} header")
    int_at = [col[c] for c in int_cols]
    float_at = [col[c] for c in float_cols]
    try:
        ints, floats, events = _loaded_rows(header, lines, int_at, float_at, col["event"])
    except ValueError:
        _locate_fault(path, header, lines, int_at, float_at)
    events = np.array(events, dtype=str)
    ints = np.array(ints, dtype=np.int64).reshape(len(events), len(int_cols))
    floats = np.array(floats, dtype=np.float64).reshape(len(events), len(float_cols))
    _refuse_cells(path, lines, ~np.isfinite(floats), float_cols, float_at,
                  ["not finite"] * len(float_cols))
    binary = np.array([c in label_cols or c.startswith("pad_") for c in int_cols])
    _refuse_cells(path, lines, (ints < 0) | (binary & (ints > 1)), int_cols, int_at,
                  ["not 0 or 1" if b else "negative" for b in binary])
    if n is not None:
        agent = np.array([c == "monitor" or c.startswith("src_") for c in int_cols])
        _refuse_cells(path, lines, agent & (ints >= n), int_cols, int_at,
                      [f"not an agent id in [0, {n})"] * len(int_cols))
    _refuse_cells(path, lines, ~np.isin(events, EVENTS)[:, None], ["event"], [col["event"]],
                  [f"not one of {', '.join(EVENTS)}"])
    at = 3 + len(label_cols)
    labels = ints[:, 3] if task == "nd" else ints[:, 3:at]
    padded, slot_agents = ints[:, at : at + M] == 1, ints[:, at + M :]
    selfs, inputs = floats[:, 0], floats[:, 1:]
    return LabeledDataset(
        task=task,
        kind=kind,
        inputs=inputs.copy(),
        padded=padded,
        self_values=selfs.copy(),
        labels=labels.copy(),
        events=events,
        monitors=ints[:, 2].copy(),
        sample_ids=ints[:, 0].copy(),
        groups=ints[:, 1].copy(),
        slot_agents=slot_agents.copy(),
        K=K,
        d=d,
    )
