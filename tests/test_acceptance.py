"""Acceptance suite: one test per shipping criterion, heaviest inputs cached.

Each test asserts a single quantitative property of the full pipeline at
desk scale (one tenth of the full row budgets) or an exact oracle identity.
Session fixtures build the shared datasets and experiment runs once.
"""

import numpy as np
import pytest

from gossipwatch.datagen import (
    Budget,
    build_dataset,
    scenario_from_tag,
    training_arrays,
)
from gossipwatch.evaluation import (
    evaluate_detector,
    make_nn_detector,
    make_score_detector,
    roc_curve,
)
from gossipwatch.experiments import run_family
from gossipwatch.neural import Mlp, TrainConfig, init_mlp, train
from gossipwatch.topology import Graph, expected_transition_matrix, manhattan_grid
from oracles import (
    flat_loss_and_grad,
    pair_averaging_matrix,
    sd_aggregates,
    sd_detection_score,
    sd_localization_scores,
    td_detection_score,
    td_row_localization,
    temporal_from_endpoints,
)

HIDDEN = (200, 100, 50)
TRAIN = TrainConfig(eta=0.01, batch_size=32, epochs=30)


# --- shared runs -------------------------------------------------------------


@pytest.fixture(scope="session")
def acc_root(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="session")
def converge_report(acc_root):
    """Default convergence experiment: 10 seeds, T = 2000, one row each."""
    out = acc_root / "converge"
    run_family("converge", out)
    lines = (out / "report.csv").read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


def _fit(dataset, out, tags):
    X, Y, mask = training_arrays(dataset)
    mlp = init_mlp([dataset.M, *HIDDEN, out], seed=np.random.default_rng(list(tags)))
    train(mlp, X, Y, TRAIN, rng=np.random.default_rng(list(tags) + [1]), mask=mask)
    return mlp


def _one_attacker_seed_aucs(graph, s):
    """Detector AUCs for one master seed of the single-attacker scenario."""

    scn = scenario_from_tag("S0", graph, m=1, c=1, d=2)
    d5 = build_dataset(scn, 5, Budget(1000, 600, 0, 0), s, tasks=("nd",))
    d2 = build_dataset(scn, 2, Budget(0, 600, 1000, 600), s)
    d1 = build_dataset(scn, 1, Budget(0, 600, 0, 0), s, tasks=("nd",))
    td = make_score_detector("td", "nd")
    sd = make_score_detector("sd", "nd")
    out = {
        "td5": evaluate_detector(td, d5["nd_temporal"].test)[1]["auc"],
        "td2": evaluate_detector(td, d2["nd_temporal"].test)[1]["auc"],
        "td1": evaluate_detector(td, d1["nd_temporal"].test)[1]["auc"],
        "sd2": evaluate_detector(sd, d2["nd_spatial"].test)[1]["auc"],
    }
    tdnn = _fit(d5["nd_temporal"].train, 1, (s, 61))
    out["tdnn5"] = evaluate_detector(
        make_nn_detector(tdnn, "nd", "temporal", "tdnn"), d5["nd_temporal"].test
    )[1]["auc"]
    nl_train = d2["nl_spatial"].train
    sdnn = _fit(nl_train, nl_train.M, (s, 63))
    out["sdnn_nl2"] = evaluate_detector(
        make_nn_detector(sdnn, "nl", "spatial", "sdnn"), d2["nl_spatial"].test
    )[1]["auc"]
    return out


@pytest.fixture(scope="session")
def one_attacker_medians():
    """Median detector AUCs over master seeds 0..4 at desk-scale budgets."""
    graph = manhattan_grid(3, 3)
    per_seed = [_one_attacker_seed_aucs(graph, s) for s in range(5)]
    return {key: float(np.median([a[key] for a in per_seed])) for key in per_seed[0]}


@pytest.fixture(scope="session")
def gossip_reports(acc_root):
    """Collaborative-training experiment runs for master seeds 0..4."""
    dirs = {}
    for s in range(5):
        out = acc_root / f"gossip_seed{s}"
        run_family("gossip-learning", out, {"master_seed": s})
        dirs[s] = out
    return dirs


def _csv_rows(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@pytest.fixture(scope="session")
def tailor_aucs(acc_root):
    out = acc_root / "degree_tailor"
    run_family("degree-tailor", out)
    return _csv_rows(out / "aucs.csv")


@pytest.fixture(scope="session")
def mismatch_aucs(acc_root):
    out = acc_root / "mismatch"
    run_family(
        "mismatch", out, {"test_scenarios": ["S0", "S1", "S2"], "spatial_Ks": [2]}
    )
    return _csv_rows(out / "aucs.csv")


# --- criteria ----------------------------------------------------------------


def test_01_dps_convergence(converge_report):
    """Attacker-free runs reach the least-squares optimum and consensus."""
    f_gap = float(np.median(converge_report[:, 1]))
    spread = float(np.median(converge_report[:, 2]))
    assert f_gap <= 1e-2, f"median final objective gap {f_gap:.6f} > 1e-2"
    assert spread <= 0.05, f"median final max disagreement {spread:.6f} > 0.05"


def test_02_attack_steering(converge_report):
    """A single attacker steers every trustworthy agent to its target."""
    dist = float(np.median(converge_report[:, 3]))
    assert dist <= 0.05, (
        f"median of max trustworthy distance to the attack target at T = 2000 "
        f"is {dist:.4f} > 0.05; the steering limit is asymptotic and the "
        f"harmonic stepsize still injects O(stepsize) drift at this horizon"
    )


def test_03_expected_transition_matrix():
    """Closed-form mean gossip matrix matches a 1e5-draw empirical mean."""
    graph = manhattan_grid(3, 3)
    expected = expected_transition_matrix(graph)
    ones = np.ones(graph.n)
    assert np.abs(expected @ ones - ones).max() < 1e-12
    assert np.abs(expected.T @ ones - ones).max() < 1e-12

    rng = np.random.default_rng(0)
    n_draws = 100000
    wakers = rng.integers(0, graph.n, n_draws)
    nbrs = np.stack([graph.neighbors[i] for i in range(graph.n)])  # all degree 4
    partners = nbrs[wakers, rng.integers(0, nbrs.shape[1], n_draws)]
    counts = np.zeros((graph.n, graph.n))
    np.add.at(counts, (wakers, partners), 1.0)
    empirical = np.zeros_like(expected)
    for i, j in zip(*np.nonzero(counts)):
        empirical += counts[i, j] * pair_averaging_matrix(graph.n, int(i), int(j))
    empirical /= n_draws
    gap = np.abs(empirical - expected).max()
    assert gap <= 0.005, f"entrywise gap {gap:.5f} > 0.005"


def test_04_score_detector_hand_oracles():
    """TD and SD statistics on tiny hand trajectories match brute-force sums."""
    path = Graph.from_edges(3, [(0, 1), (1, 2)])
    s0 = np.array([[[0.3], [1.0], [-2.0]], [[1.5], [0.5], [0.0]], [[2.0], [1.0], [1.0]]])
    s1 = np.array([[[1.0], [0.0], [0.5]], [[0.0], [2.0], [1.0]], [[-1.0], [0.5], [2.5]]])
    runs = np.stack([s0, s1])  # (K, T+1, n, d)
    monitor, K, d = 1, 2, 1
    nbrs = [0, 2]

    xi = []
    for j in nbrs:
        total = 0.0
        for states in (s0, s1):
            total += states[-1, j, 0] - states[0, j, 0]
        xi.append(total / (K * d))
    xi = np.array(xi)
    mad = np.abs(xi - xi.mean()).mean()

    chi = []
    phibar_ii = 0.0
    for states in (s0, s1):
        for t in range(3):
            center = states[t, :, 0].mean()  # closed neighborhood of 1 is everyone
            phibar_ii += states[t, monitor, 0] - center
    for j in nbrs:
        total = 0.0
        for states in (s0, s1):
            for t in range(3):
                total += states[t, j, 0] - states[t, :, 0].mean()
        chi.append(total / (K * d))
    chi = np.array(chi)
    phi = []
    for j in nbrs:
        total = 0.0
        for states in (s0, s1):
            for t in range(3):
                total += states[t, j, 0] - states[t, monitor, 0]
        phi.append((total - phibar_ii) / (K * d))
    phi = np.array(phi)

    values, _ = temporal_from_endpoints(runs[:, 0], runs[:, -1], path, monitor)
    assert np.abs(values - xi).max() < 1e-12
    assert abs(td_detection_score(values) - mad) < 1e-12
    assert np.abs(td_row_localization(values) - np.abs(xi)).max() < 1e-12

    agg = sd_aggregates(runs.sum(axis=1), path, monitor)
    assert abs(sd_detection_score(agg) - (chi * chi).mean()) < 1e-12
    assert np.abs(sd_localization_scores(agg) - phi * phi).max() < 1e-12


def test_05_gradient_check():
    """Backprop gradients match central differences on a deep narrow net."""
    rng = np.random.default_rng(17)
    mlp = init_mlp([4, 5, 3, 2, 1], seed=11)
    # Zero-init biases can leave preactivations exactly on the relu kink
    # (a sample that kills a whole layer feeds the next layer all zeros),
    # where two-sided differences measure the average of the two slopes.
    # Jitter the biases so the check runs at a generic point.
    jitter = np.random.default_rng(5)
    for b in mlp.biases:
        b += jitter.normal(size=b.shape) * 0.1
    X = rng.normal(size=(6, 4))
    Y = rng.integers(0, 2, size=(6, 1)).astype(float)
    grad = Mlp(mlp.sizes, flat_loss_and_grad(mlp, X, Y)[1])
    dWs, dbs = grad.weights, grad.biases

    h = 1e-6
    checked = 0
    while checked < 100:
        layer = int(rng.integers(len(mlp.weights)))
        if rng.random() < 0.8:
            i = int(rng.integers(mlp.weights[layer].shape[0]))
            j = int(rng.integers(mlp.weights[layer].shape[1]))
            param, analytic = mlp.weights[layer], dWs[layer][i, j]
            idx = (i, j)
        else:
            i = int(rng.integers(mlp.biases[layer].shape[0]))
            param, analytic = mlp.biases[layer], dbs[layer][i]
            idx = (i,)
        orig = param[idx]
        param[idx] = orig + h
        up = flat_loss_and_grad(mlp, X, Y)[0]
        param[idx] = orig - h
        dn = flat_loss_and_grad(mlp, X, Y)[0]
        param[idx] = orig
        numeric = (up - dn) / (2 * h)
        assert abs(analytic - numeric) <= 1e-7 + 1e-5 * abs(numeric), (
            f"layer {layer} index {idx}: analytic {analytic} vs numeric {numeric}"
        )
        checked += 1


def test_06_detector_ordering_desk_scale(one_attacker_medians):
    """Median AUC ordering across detectors at one tenth of the full budgets."""
    a = one_attacker_medians
    assert a["tdnn5"] >= a["td5"] + 0.02, (
        f"neural temporal detector {a['tdnn5']:.4f} does not beat the score "
        f"statistic {a['td5']:.4f} by 0.02"
    )
    assert a["sd2"] >= a["td5"] - 0.02, (
        f"spatial score at K=2 {a['sd2']:.4f} below temporal score at K=5 "
        f"{a['td5']:.4f} - 0.02"
    )
    assert a["sd2"] >= a["td2"] + 0.05, (
        f"spatial score {a['sd2']:.4f} does not beat the temporal score at the "
        f"same K {a['td2']:.4f} by 0.05"
    )
    assert a["sdnn_nl2"] >= 0.99, (
        f"neural spatial localization AUC {a['sdnn_nl2']:.4f} < 0.99"
    )
    assert a["td5"] >= a["td2"] - 0.01 and a["td2"] >= a["td1"] - 0.01, (
        f"temporal score AUC not monotone in K: "
        f"{a['td5']:.4f}, {a['td2']:.4f}, {a['td1']:.4f}"
    )


def test_07_kd_exchange_symmetry():
    """Temporal scores average over runs and dimensions symmetrically, so
    (K=2, d=1) and (K=1, d=2) perform alike under matched randomness."""
    graph = manhattan_grid(3, 3)
    td = make_score_detector("td", "nd")
    aucs = {}
    for K, d in ((2, 1), (1, 2)):
        scn = scenario_from_tag("S0", graph, m=1, c=1, d=d)
        ds = build_dataset(scn, K, Budget(0, 600, 0, 0), 0, tasks=("nd",))
        aucs[(K, d)] = evaluate_detector(td, ds["nd_temporal"].test)[1]["auc"]
    gap = abs(aucs[(2, 1)] - aucs[(1, 2)])
    assert gap <= 0.03, (
        f"AUC {aucs[(2, 1)]:.4f} at (K=2, d=1) vs {aucs[(1, 2)]:.4f} at "
        f"(K=1, d=2): gap {gap:.4f} > 0.03"
    )


def test_08_gossip_starved_agent_gains(gossip_reports):
    """An agent holding 2% of the attack rows catches up through gossip."""
    gaps = []
    for s, out in gossip_reports.items():
        rows = {r["model"]: float(r["auc"]) for r in _csv_rows(out / "case1_report.csv")}
        gaps.append(rows["collaborative"] - rows["isolated"])
    med = float(np.median(gaps))
    assert med >= 0.05, (
        f"median collaborative-minus-isolated AUC gain {med:.4f} < 0.05 "
        f"(per-seed gains: {np.round(gaps, 4).tolist()})"
    )


def test_09_gossip_position_mismatch_gains(gossip_reports):
    """Agents sharded by attacker position generalize through gossip."""
    rows = _csv_rows(gossip_reports[0] / "case2_report.csv")
    auc = {
        (r["model"], int(r["agent"]), r["test_events"]): float(r["auc"]) for r in rows
    }
    next_probe, far_probe = 0, 4
    # mismatched test events: collaboration must win outright
    assert auc[("collaborative", next_probe, "far")] >= auc[("independent", next_probe, "far")], (
        f"next-to-trained agent on far-from tests: collaborative "
        f"{auc[('collaborative', next_probe, 'far')]:.4f} < independent "
        f"{auc[('independent', next_probe, 'far')]:.4f}"
    )
    assert auc[("collaborative", far_probe, "next")] >= auc[("independent", far_probe, "next")], (
        f"far-from-trained agent on next-to tests: collaborative "
        f"{auc[('collaborative', far_probe, 'next')]:.4f} < independent "
        f"{auc[('independent', far_probe, 'next')]:.4f}"
    )
    # matched test events: collaboration costs at most 0.03
    for probe, label in ((next_probe, "next"), (far_probe, "far")):
        assert auc[("collaborative", probe, label)] >= auc[("independent", probe, label)] - 0.03, (
            f"matched {label} tests: collaborative "
            f"{auc[('collaborative', probe, label)]:.4f} more than 0.03 below "
            f"independent {auc[('independent', probe, label)]:.4f}"
        )


def test_10_degree_tailor_stability(tailor_aucs):
    """Cutting monitor edges leaves the padded spatial detector stable."""
    for task in ("nd", "nl"):
        by_p = {
            int(r["p"]): float(r["auc"])
            for r in tailor_aucs
            if r["detector"] == "sdnn" and r["task"] == task
        }
        assert set(by_p) == {0, 1, 2}
        for p in (1, 2):
            dev = abs(by_p[p] - by_p[0])
            assert dev <= 0.05, (
                f"sdnn {task} AUC moved by {dev:.4f} > 0.05 after cutting "
                f"{p} monitor edges ({by_p[0]:.4f} -> {by_p[p]:.4f})"
            )


def test_11_init_law_mismatch_ordering(mismatch_aucs):
    """Shrinking the initial-state spread helps, widening it hurts."""
    for det, K in (("tdnn", 5), ("sdnn", 2)):
        auc = {
            r["scenario"]: float(r["auc"])
            for r in mismatch_aucs
            if r["detector"] == det and r["task"] == "nd" and int(r["K"]) == K
        }
        assert set(auc) == {"S0", "S1", "S2"}
        assert auc["S1"] >= auc["S0"] - 0.02, (
            f"{det}: narrower test law S1 {auc['S1']:.4f} fell more than 0.02 "
            f"below the training law S0 {auc['S0']:.4f}"
        )
        assert auc["S0"] >= auc["S2"] - 0.02, (
            f"{det}: training law S0 {auc['S0']:.4f} fell more than 0.02 "
            f"below the wider test law S2 {auc['S2']:.4f}"
        )


def test_12_auc_mann_whitney_oracle():
    """Trapezoidal AUC equals pairwise win counting with ties worth half."""
    rng = np.random.default_rng(7)
    for _ in range(4):
        n = int(rng.integers(50, 501))
        scores = rng.integers(0, 9, size=n).astype(float)  # many ties
        labels = np.zeros(n, dtype=np.int64)
        labels[: n // 3] = 1
        rng.shuffle(labels)
        pos, neg = scores[labels == 1], scores[labels == 0]
        wins = 0.0
        for p in pos:
            wins += (p > neg).sum() + 0.5 * (p == neg).sum()
        brute = wins / (pos.size * neg.size)
        auc = roc_curve(scores, labels).auc
        assert abs(auc - brute) < 1e-12, f"AUC {auc} vs pair count {brute}"


_TINY = {
    "converge": {"seeds": 2, "T": 80},
    "one-attacker": {
        "scale": 0.002,
        "temporal_setups": [[2, 2]],
        "spatial_setups": [[1, 2]],
        "train": {"epochs": 1},
    },
    "multi-attacker": {
        "scale": 0.002,
        "combos": [[1, 1], [2, 1]],
        "train": {"epochs": 1},
    },
    "degree-tailor": {"scale": 0.002, "cuts": [[2, 5]], "train": {"epochs": 1}},
    "mismatch": {
        "scale": 0.002,
        "test_scenarios": ["S0", "S1"],
        "spatial_Ks": [2],
        "train": {"epochs": 1},
    },
    "gossip-learning": {"scale": 0.02, "rounds": 3, "train": {"epochs": 1}},
    "small-world": {"scale": 0.002, "train": {"epochs": 1}},
}


def test_13_experiment_determinism(tmp_path):
    """Every experiment family reruns to byte-identical artifacts."""
    for family, overrides in _TINY.items():
        a, b = tmp_path / family / "a", tmp_path / family / "b"
        run_family(family, a, overrides)
        run_family(family, b, overrides)
        names = sorted(p.name for p in a.iterdir())
        assert names == sorted(p.name for p in b.iterdir()), family
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes(), (
                f"{family}: {name} differs between identical runs"
            )
