"""Labeled dataset generation for detector training and evaluation.

A sample is one monitored agent's tailored feature vector(s), computed from
K fresh protocol instances of a scenario.  Attack scenarios re-randomize
the attacker placement, problem instance, and injection target per sample,
subject to the scenario's (m, c) constraints: m attackers total, exactly c
of them adjacent to the monitored agent.  Every sample owns a seed derived
from (master seed, split, event, row index), so datasets are reproducible
row by row and independent of batching.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from gossipwatch.features import (
    SPATIAL,
    TEMPORAL,
    FeatureVector,
    spatial_from_sums,
    tailor_inputs,
    temporal_from_endpoints,
)
from gossipwatch.protocol import ProtocolConfig, Stepsize, generate_problem, run_batch
from gossipwatch.topology import (
    Graph,
    attacker_mask,
    expected_transition_matrix,
    second_largest_eigenvalue,
    subset_connected,
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

_SPLIT_CODES = {"train": 0, "test": 1}
_EVENT_CODES = {EVENT_H0: 0, EVENT_NEXT: 1, EVENT_FAR: 2, "nl-" + EVENT_NEXT: 3}


@dataclass(frozen=True)
class Scenario:
    """Everything that defines one sampling distribution of labeled rows."""

    graph: Graph
    m: int = 1  # attackers in H1 events
    c: int = 1  # attackers adjacent to the monitor in next-to events
    beta_law: tuple[float, float] = BETA_LAWS["S1"]
    alpha_law: tuple[float, float] = (-0.5, 0.5)
    K: int = 2
    d: int = 2
    T: int = 2000
    M: int | None = None  # detector input width; graph max degree if None
    monitor: int | None = None  # fixed monitored agent, or drawn per sample
    monitor_pool: tuple[int, ...] | None = None  # candidates when drawn
    attackers: tuple[int, ...] | None = None  # fixed placement, or drawn
    stepsize: Stepsize = field(default_factory=Stepsize)
    box: tuple[float, float] = (-10.0, 10.0)
    lambda_hat: float | None = None  # noise decay; graph mixing value if None

    def __post_init__(self):
        if self.m < 0 or self.c < 0 or self.c > self.m:
            raise ValueError(f"need 0 <= c <= m, got m={self.m}, c={self.c}")
        if self.K < 1:
            raise ValueError(f"need K >= 1, got {self.K}")
        if self.attackers is not None and len(self.attackers) != self.m:
            raise ValueError("fixed attacker list must have m entries")
        if self.monitor is not None and self.monitor_pool is not None:
            raise ValueError("set monitor or monitor_pool, not both")
        if self.monitor_pool is not None and not self.monitor_pool:
            raise ValueError("monitor_pool must be non-empty when given")

    def input_width(self) -> int:
        return self.M if self.M is not None else self.graph.max_degree()

    def noise_decay(self) -> float:
        if self.lambda_hat is not None:
            return self.lambda_hat
        return second_largest_eigenvalue(expected_transition_matrix(self.graph))

    def protocol_config(self) -> ProtocolConfig:
        return ProtocolConfig(
            d=self.d,
            T=self.T,
            stepsize=self.stepsize,
            box_lo=self.box[0],
            box_hi=self.box[1],
            init_low=self.beta_law[0],
            init_high=self.beta_law[1],
        )

    def fingerprint(self) -> dict:
        return {
            "graph": {"kind": self.graph.kind, "n": self.graph.n, "params": self.graph.params},
            "m": self.m,
            "c": self.c,
            "beta_law": list(self.beta_law),
            "alpha_law": list(self.alpha_law),
            "K": self.K,
            "d": self.d,
            "T": self.T,
            "M": self.input_width(),
            "monitor": self.monitor,
            "monitor_pool": None if self.monitor_pool is None else list(self.monitor_pool),
            "attackers": None if self.attackers is None else list(self.attackers),
            "stepsize": [self.stepsize.family, self.stepsize.c0, self.stepsize.c1],
            "box": list(self.box),
        }


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
class Sample:
    """One monitored agent's features from K instances, both feature kinds."""

    temporal: list[FeatureVector]
    spatial: list[FeatureVector]
    nd_label: int
    nl_labels: list[np.ndarray]  # per group, multi-hot over slots
    monitor: int
    attackers: tuple[int, ...]
    event: str


@dataclass
class LabeledDataset:
    task: str  # "nd" | "nl"
    kind: str  # "temporal" | "spatial"
    inputs: np.ndarray  # (R, M)
    padded: np.ndarray  # (R, M) bool
    self_values: np.ndarray  # (R,)
    labels: np.ndarray  # nd: (R,) int; nl: (R, M) int
    events: list[str]
    monitors: np.ndarray  # (R,)
    sample_ids: np.ndarray  # (R,) groups of one sample share an id
    groups: np.ndarray  # (R,) group index within the sample
    slot_agents: np.ndarray  # (R, M) source agent of each slot
    K: int
    d: int
    meta: dict = field(default_factory=dict)

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


def _placement_pools(graph: Graph, monitor: int):
    nbrs = graph.neighbors[monitor]
    outside = np.setdiff1d(np.arange(graph.n), np.append(nbrs, monitor))
    return nbrs, outside


def place_attackers(
    scenario: Scenario, monitor: int, rng: np.random.Generator, max_tries: int = 100
) -> tuple[int, ...]:
    """Draw m attacker ids with exactly c adjacent to the monitor, keeping
    the trustworthy subgraph connected.  Rejection-samples placements."""
    graph, m, c = scenario.graph, scenario.m, scenario.c
    if m == 0:
        return ()
    nbrs, outside = _placement_pools(graph, monitor)
    if c > len(nbrs):
        raise ValueError(f"c={c} exceeds monitor degree {len(nbrs)}")
    if m - c > len(outside):
        raise ValueError(f"m-c={m - c} attackers do not fit outside the neighborhood")
    for _ in range(max_tries):
        near = rng.choice(nbrs, size=c, replace=False) if c else np.empty(0, np.int64)
        far = (
            rng.choice(outside, size=m - c, replace=False)
            if m - c
            else np.empty(0, np.int64)
        )
        ids = np.sort(np.concatenate([near, far]).astype(np.int64))
        keep = [v for v in range(graph.n) if v not in set(int(x) for x in ids)]
        if subset_connected(graph, keep):
            return tuple(int(v) for v in ids)
    raise ValueError(
        f"no connected-trustworthy placement found for m={m}, c={c} "
        f"at monitor {monitor} in {max_tries} tries"
    )


def _resolve_event(scenario: Scenario, event: str) -> Scenario:
    if event == EVENT_H0:
        return replace(scenario, m=0, c=0, attackers=None)
    if event == EVENT_NEXT:
        return scenario
    if event == EVENT_FAR:
        return replace(scenario, c=0, attackers=None)
    raise ValueError(f"unknown event {event!r}")


def _draw_monitor(scenario: Scenario, rng: np.random.Generator) -> int:
    if scenario.monitor is not None:
        return scenario.monitor
    if scenario.monitor_pool is not None:
        return int(scenario.monitor_pool[rng.integers(len(scenario.monitor_pool))])
    return int(rng.integers(scenario.graph.n))


def _assemble_sample(scenario, monitor, ids, t_scores, s_scores) -> Sample:
    M = scenario.input_width()
    temporal = tailor_inputs(t_scores, M)
    spatial = tailor_inputs(s_scores, M)
    att = set(ids)
    nl_labels = []
    for fv in temporal:
        hot = np.array(
            [1 if (sid in att and not pad) else 0 for sid, pad in zip(fv.slot_ids, fv.padded)],
            dtype=np.int64,
        )
        nl_labels.append(hot)
    if ids:
        event = EVENT_NEXT if att & set(int(v) for v in scenario.graph.neighbors[monitor]) else EVENT_FAR
    else:
        event = EVENT_H0
    return Sample(
        temporal=temporal,
        spatial=spatial,
        nd_label=int(bool(ids)),
        nl_labels=nl_labels,
        monitor=monitor,
        attackers=tuple(int(v) for v in ids),
        event=event,
    )


def _row_seed(master_seed: int, split: str, event_code: int, row: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        master_seed, spawn_key=(_SPLIT_CODES[split], event_code, row)
    )


class _Collector:
    """Accumulates per-group rows for one (task, kind) dataset."""

    def __init__(self, task, kind, M):
        self.task, self.kind, self.M = task, kind, M
        self.inputs, self.padded, self.selfs = [], [], []
        self.labels, self.events, self.monitors = [], [], []
        self.sample_ids, self.groups, self.slot_agents = [], [], []

    def add(self, sample_id: int, sample: Sample):
        fvs = sample.temporal if self.kind == TEMPORAL else sample.spatial
        for g, fv in enumerate(fvs):
            self.inputs.append(fv.values)
            self.padded.append(fv.padded)
            self.selfs.append(fv.self_value)
            if self.task == "nd":
                self.labels.append(sample.nd_label)
            else:
                self.labels.append(sample.nl_labels[g])
            self.events.append(sample.event)
            self.monitors.append(sample.monitor)
            self.sample_ids.append(sample_id)
            self.groups.append(g)
            self.slot_agents.append(fv.slot_ids)

    def build(self, K, d, meta) -> LabeledDataset:
        R = len(self.inputs)
        labels = np.array(self.labels, dtype=np.int64)
        if self.task == "nl":
            labels = labels.reshape(R, self.M)
        return LabeledDataset(
            task=self.task,
            kind=self.kind,
            inputs=np.array(self.inputs).reshape(R, self.M),
            padded=np.array(self.padded, dtype=bool).reshape(R, self.M),
            self_values=np.array(self.selfs, dtype=np.float64),
            labels=labels,
            events=list(self.events),
            monitors=np.array(self.monitors, dtype=np.int64),
            sample_ids=np.array(self.sample_ids, dtype=np.int64),
            groups=np.array(self.groups, dtype=np.int64),
            slot_agents=np.array(self.slot_agents, dtype=np.int64).reshape(R, self.M),
            K=K,
            d=d,
            meta=dict(meta),
        )


def _batch_samples(scenario: Scenario, seeds: list[np.random.SeedSequence]) -> list[Sample]:
    """One labeled sample per seed, all K instances of every row in one
    vectorized run_batch call.

    Stream use per row, frozen for reproducibility: the monitor draw and
    attacker placement from the row generator, then one spawned child
    generator per instance covering the problem draw, the injection target
    and the protocol run.  A row depends only on its own seed, not on the
    other rows of the batch.
    """
    graph = scenario.graph
    n, d, K = graph.n, scenario.d, scenario.K
    config = scenario.protocol_config()
    R = len(seeds)
    monitors, id_lists = [], []
    flags = np.zeros((R * K, n), dtype=bool)
    thetas = np.empty((R * K, n, d))
    phis = np.empty((R * K, n))
    alphas = np.zeros((R * K, d))
    rngs = []
    any_attack = scenario.m > 0
    lam = scenario.noise_decay() if any_attack else None
    if scenario.attackers is not None:
        attacker_mask(graph, scenario.attackers)  # validate once
    for r, ss in enumerate(seeds):
        rng = np.random.default_rng(ss)
        monitor = _draw_monitor(scenario, rng)
        if scenario.attackers is not None:
            ids = scenario.attackers
            if monitor in ids:
                raise ValueError(f"monitor {monitor} cannot be an attacker")
        elif scenario.m:
            ids = place_attackers(scenario, monitor, rng)
        else:
            ids = ()
        monitors.append(monitor)
        id_lists.append(ids)
        for k, child in enumerate(rng.spawn(K)):
            b = r * K + k
            problem = generate_problem(n, d, child)
            thetas[b], phis[b] = problem.theta, problem.phi
            if ids:
                alphas[b] = child.uniform(scenario.alpha_law[0], scenario.alpha_law[1], d)
                flags[b, list(ids)] = True
            rngs.append(child)
    stats = run_batch(
        graph, flags, thetas, phis, alphas if any_attack else None, lam, config, rngs
    )
    first = stats.first.reshape(R, K, n, d)
    last = stats.last.reshape(R, K, n, d)
    sums = stats.sums.reshape(R, K, n, d)
    out = []
    for r in range(R):
        t_scores = temporal_from_endpoints(first[r], last[r], graph, monitors[r])
        s_scores = spatial_from_sums(sums[r], graph, monitors[r])
        out.append(_assemble_sample(scenario, monitors[r], id_lists[r], t_scores, s_scores))
    return out


def build_dataset(
    scenario: Scenario,
    budget: Budget,
    master_seed: int,
    tasks: tuple[str, ...] = ("nd", "nl"),
    events: tuple[str, ...] = (EVENT_H0, EVENT_NEXT, EVENT_FAR),
    chunk: int = 256,
) -> dict[str, DatasetPair]:
    """Build train and test datasets for the scenario family.

    Detection rows mix the requested events with equal per-event budgets;
    localization rows are all next-to attacks.  Returns datasets keyed
    "nd_temporal", "nd_spatial", "nl_temporal", "nl_spatial" (subset per
    ``tasks``).  Each row derives from its own seed, so results do not
    depend on ``chunk``.
    """
    if scenario.m == 0 and "nl" in tasks:
        raise ValueError("localization datasets need an attack scenario (m >= 1)")
    if scenario.m == 0:
        events = (EVENT_H0,)
    M = scenario.input_width()
    meta = {
        "scenario": scenario.fingerprint(),
        "master_seed": master_seed,
        "budget": {
            "nd_train_per_event": budget.nd_train_per_event,
            "nd_test_per_event": budget.nd_test_per_event,
            "nl_train": budget.nl_train,
            "nl_test": budget.nl_test,
        },
        "events": list(events),
    }
    result: dict[str, DatasetPair] = {}
    collectors: dict[tuple[str, str, str], _Collector] = {}
    for task in tasks:
        for kind in (TEMPORAL, SPATIAL):
            for split in ("train", "test"):
                collectors[(task, kind, split)] = _Collector(task, kind, M)

    next_id = {(task, split): 0 for task in tasks for split in ("train", "test")}

    def _run(task, split, event, count):
        scn = _resolve_event(scenario, event)
        code = _EVENT_CODES[("nl-" + event) if task == "nl" else event]
        base = next_id[(task, split)]
        next_id[(task, split)] = base + count
        for at in range(0, count, chunk):
            rows = range(at, min(at + chunk, count))
            seeds = [_row_seed(master_seed, split, code, r) for r in rows]
            for r, sample in zip(rows, _batch_samples(scn, seeds)):
                for kind in (TEMPORAL, SPATIAL):
                    collectors[(task, kind, split)].add(base + r, sample)

    if "nd" in tasks:
        for event in events:
            _run("nd", "train", event, budget.nd_train_per_event)
            _run("nd", "test", event, budget.nd_test_per_event)
    if "nl" in tasks:
        _run("nl", "train", EVENT_NEXT, budget.nl_train)
        _run("nl", "test", EVENT_NEXT, budget.nl_test)
    for task in tasks:
        for kind in (TEMPORAL, SPATIAL):
            result[f"{task}_{kind}"] = DatasetPair(
                train=collectors[(task, kind, "train")].build(scenario.K, scenario.d, meta),
                test=collectors[(task, kind, "test")].build(scenario.K, scenario.d, meta),
            )
    return result


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
            hit = np.isin(np.array(dataset.events), policy.starved_events)
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
        events = np.array(dataset.events)
        for tag in sorted(set(dataset.events)):
            if tag not in policy.position_groups:
                raise ValueError(f"no agent group for rows tagged {tag!r}")
            group = tuple(policy.position_groups[tag])
            if not group:
                raise ValueError(f"empty agent group for tag {tag!r}")
            dealt = _deal(np.flatnonzero(events == tag), group, rng)
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
    """Dataset restricted to the given row indices (e.g. one event family)."""
    rows = np.asarray(rows)
    if rows.dtype == bool:
        rows = np.flatnonzero(rows)
    return LabeledDataset(
        task=dataset.task,
        kind=dataset.kind,
        inputs=dataset.inputs[rows],
        padded=dataset.padded[rows],
        self_values=dataset.self_values[rows],
        labels=dataset.labels[rows],
        events=[dataset.events[int(r)] for r in rows],
        monitors=dataset.monitors[rows],
        sample_ids=dataset.sample_ids[rows],
        groups=dataset.groups[rows],
        slot_agents=dataset.slot_agents[rows],
        K=dataset.K,
        d=dataset.d,
        meta=dict(dataset.meta),
    )


def write_dataset_csv(dataset: LabeledDataset, path) -> None:
    """One row per tailored group.  Floats use repr for exact round-trip."""
    M = dataset.M
    label_cols = ["label"] if dataset.task == "nd" else [f"label_{s}" for s in range(M)]
    cols = (
        ["sample", "grp", "monitor", "event"]
        + label_cols
        + ["self_value"]
        + [f"slot_{s}" for s in range(M)]
        + [f"pad_{s}" for s in range(M)]
        + [f"src_{s}" for s in range(M)]
    )
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in range(dataset.n_rows):
            row = [
                str(int(dataset.sample_ids[r])),
                str(int(dataset.groups[r])),
                str(int(dataset.monitors[r])),
                dataset.events[r],
            ]
            if dataset.task == "nd":
                row.append(str(int(dataset.labels[r])))
            else:
                row += [str(int(v)) for v in dataset.labels[r]]
            row.append(repr(float(dataset.self_values[r])))
            row += [repr(float(v)) for v in dataset.inputs[r]]
            row += [str(int(v)) for v in dataset.padded[r]]
            row += [str(int(v)) for v in dataset.slot_agents[r]]
            fh.write(",".join(row) + "\n")


def _parses(conv, cell: str) -> bool:
    try:
        conv(cell)
    except ValueError:
        return False
    return True


def read_dataset_csv(path, task: str, kind: str, K: int, d: int, meta=None) -> LabeledDataset:
    """Read a file written by write_dataset_csv.

    A header that lacks a column of the task or disagrees on the slot, pad
    and src counts, a ragged row and a non-numeric cell each raise a
    ValueError naming the file, the line and the column.
    """
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = [(no, line.rstrip("\n").split(",")) for no, line in enumerate(fh, 2) if line.strip()]
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
    ints, floats, events = [], [], []
    for no, parts in rows:
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
        try:
            ints.append([int(parts[i]) for i in int_at])
            floats.append([float(parts[i]) for i in float_at])
        except ValueError:
            i = next(
                i for conv, at in ((int, int_at), (float, float_at))
                for i in at if not _parses(conv, parts[i])
            )
            raise ValueError(
                f"{path}:{no}: column {header[i]!r}: not a number: {parts[i]!r}"
            ) from None
        events.append(parts[col["event"]])
    ints = np.array(ints, dtype=np.int64).reshape(len(rows), len(int_cols))
    floats = np.array(floats, dtype=np.float64).reshape(len(rows), len(float_cols))
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
        meta=dict(meta or {}),
    )
