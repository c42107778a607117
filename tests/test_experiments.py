"""Experiment config resolution, manifests, and run determinism."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from gossipwatch.experiments import (
    DEFAULTS,
    FAMILIES,
    ConfigError,
    apply_overrides,
    config_digest,
    resolve_config,
    run_family,
)


def test_known_families_all_have_defaults():
    """DEFAULTS holds the seven families and the four pipeline steps that
    the CLI runs as subcommands; FAMILIES, the families alone."""
    steps = {"gen-data", "train", "train-gossip", "eval-roc"}
    assert len(FAMILIES) == 7 and set(FAMILIES) == set(DEFAULTS) - steps
    assert steps < set(DEFAULTS)
    assert "converge" in FAMILIES and "gossip-learning" in FAMILIES


def test_resolve_config_copies_defaults():
    cfg = resolve_config("converge")
    assert cfg == DEFAULTS["converge"]
    cfg["seeds"] = 99
    assert DEFAULTS["converge"]["seeds"] != 99


def test_unknown_family_and_unknown_field_raise():
    with pytest.raises(ConfigError, match="unknown experiment family"):
        resolve_config("warp-drive")
    with pytest.raises(ConfigError, match="converge.seedz"):
        resolve_config("converge", {"seedz": 10})
    # nested dotted path appears in the message
    with pytest.raises(ConfigError, match="one-attacker.train.etah"):
        resolve_config("one-attacker", {"train": {"etah": 0.5}})


def test_overrides_merge_deep_without_clobbering_siblings():
    cfg = resolve_config("one-attacker", {"train": {"epochs": 2}})
    assert cfg["train"]["epochs"] == 2
    assert cfg["train"]["eta"] == DEFAULTS["one-attacker"]["train"]["eta"]
    assert cfg["scale"] == DEFAULTS["one-attacker"]["scale"]
    # non-dict leaves replace wholesale
    cfg = resolve_config("one-attacker", {"temporal_setups": [[1, 1]]})
    assert cfg["temporal_setups"] == [[1, 1]]


def test_only_desk_budget_families_cap_scale_at_one():
    for family in ("one-attacker", "gossip-learning"):
        assert resolve_config(family, {"scale": 1})["scale"] == 1
        with pytest.raises(ConfigError, match=rf"'{family}.scale' must be in \(0, 1\]"):
            resolve_config(family, {"scale": 1.5})
    for family in ("multi-attacker", "degree-tailor", "mismatch", "small-world"):
        assert resolve_config(family, {"scale": 1.5})["scale"] == 1.5


def test_apply_overrides_does_not_touch_inputs():
    base = {"a": {"b": 1}, "c": 2}
    out = apply_overrides(base, {"a": {"b": 5}}, "fam")
    assert out == {"a": {"b": 5}, "c": 2}
    assert base == {"a": {"b": 1}, "c": 2}


def test_apply_overrides_checks_json_types():
    """A value has its default's JSON type; a null default takes any type,
    but a field of DOMAINS, such as K, still has that row's type."""
    base = {"scale": 0.1, "T": 50, "full": False, "name": "m", "tasks": ["nd"], "K": None,
            "note": None}
    ok = apply_overrides(base, {"scale": 1, "K": 3, "note": "anything"}, "fam")
    assert ok["scale"] == 1 and ok["K"] == 3 and ok["note"] == "anything"
    for field, value, expected in (
        ("T", 2.5, "integer"), ("T", True, "integer"), ("full", 1, "boolean"),
        ("scale", "0.1", "number"), ("name", 3, "string"), ("tasks", "nd", "list"),
        ("tasks", None, "list"), ("K", "anything", "integer"),
    ):
        with pytest.raises(ConfigError, match=f"'fam.{field}' expects a JSON {expected}"):
            apply_overrides(base, {field: value}, "fam")


def test_training_fields_outside_their_domain_raise_with_the_field_path():
    for over, message in (
        ({"train": {"eta": 0}}, "'gossip-learning.train.eta' must be > 0, got 0"),
        ({"train": {"batch_size": 0}}, "'gossip-learning.train.batch_size' must be >= 1"),
        ({"train": {"epochs": -1}}, "'gossip-learning.train.epochs' must be >= 0"),
        ({"rounds": -3}, "'gossip-learning.rounds' must be >= 0"),
        ({"mu": 1.5}, r"'gossip-learning.mu' must be in \[0, 1\]"),
    ):
        with pytest.raises(ConfigError, match=message):
            resolve_config("gossip-learning", over)
    # the ends of each domain are in it
    edge = {"train": {"eta": 1e-9, "batch_size": 1, "epochs": 0}, "rounds": 0, "mu": 1}
    assert resolve_config("gossip-learning", edge)["mu"] == 1
    assert resolve_config("gossip-learning", {"mu": 0})["mu"] == 0


def test_every_list_field_has_a_row_of_the_entry_check():
    """Each list-valued default, of a family or of a pipeline step, has a
    row in a table of check_config, so that no list field skips the entry
    check."""
    from gossipwatch import experiments

    tables = DEFAULTS.values()
    checked = {*experiments._LIST_DOMAINS, *(row[0] for row in experiments._PAIR_DOMAINS),
               *(row[0] for row in experiments._AGENT_FIELDS)}
    lists = {key for table in tables for key, value in table.items() if isinstance(value, list)}
    assert lists and lists <= checked, sorted(lists - checked)


def test_config_digest_is_order_insensitive_and_value_sensitive():
    a = {"x": 1, "y": {"z": [1, 2]}}
    b = {"y": {"z": [1, 2]}, "x": 1}
    assert config_digest(a) == config_digest(b)
    assert config_digest(a) != config_digest({"x": 2, "y": {"z": [1, 2]}})
    assert len(config_digest(a)) == 64


_TINY_CONVERGE = {"seeds": 2, "T": 60, "trace_seed": 0}


def test_run_family_writes_manifest_and_artifacts(tmp_path):
    out = tmp_path / "run"
    manifest = run_family("converge", out, _TINY_CONVERGE)
    assert manifest["family"] == "converge"
    assert manifest["config"]["seeds"] == 2
    assert manifest["digest"] == config_digest(manifest["config"])
    on_disk = json.loads((out / "manifest.json").read_text())
    assert on_disk == manifest
    assert "manifest.json" in manifest["artifacts"]
    for name in manifest["artifacts"]:
        assert (out / name).exists(), name
    # no timestamps or absolute paths leak into the manifest
    blob = json.dumps(manifest)
    assert str(tmp_path) not in blob


def test_run_family_reruns_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_family("converge", a, _TINY_CONVERGE)
    run_family("converge", b, _TINY_CONVERGE)
    names_a = sorted(p.name for p in a.iterdir())
    assert names_a == sorted(p.name for p in b.iterdir())
    for name in names_a:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("family, overrides", [
    ("one-attacker", {"scale": 0.002, "temporal_setups": [[2, 2]], "spatial_setups": [[1, 2]]}),
    ("multi-attacker", {"scale": 0.002, "combos": [[1, 1]]}),
], ids=["one-attacker", "multi-attacker"])
def test_a_failing_fit_fails_the_family_and_leaves_no_worker(
    tmp_path, monkeypatch, capsys, cpus, family, overrides
):
    """A fit that raises, in this process on one CPU or in a forked worker
    on two, fails run_family with its own exception type and message and the
    CLI with exit code 2; no worker process is left running, and neither
    run leaves the output directory that it made."""
    from gossipwatch import cli, experiments, fanout

    def fail(*args, **kwargs):
        raise ValueError("no fit today")

    monkeypatch.setattr(experiments, "fit", fail)  # forked workers inherit it
    here = fanout.usable_cpus()  # taken again where the machine has fewer
    monkeypatch.setattr(fanout, "usable_cpus", lambda: (here * cpus)[:cpus])
    overrides = {**overrides, "train": {"epochs": 1}}
    with pytest.raises(ValueError) as err:
        run_family(family, tmp_path / "a", overrides)
    assert type(err.value) is ValueError and str(err.value) == "no fit today"
    assert not (tmp_path / "a").exists()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):  # no worker is left, not even a zombie
        os.waitpid(-1, os.WNOHANG)
    argv = ["experiment", family, "--out", str(tmp_path / "b")]
    for key, value in overrides.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    assert cli.main(argv) == 2
    assert "error: no fit today" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_sweep_without_test_conditions_still_fits_and_lists_its_networks(tmp_path):
    """mismatch with no test scenario fits and saves its six networks (K = 5
    temporal, K = 2 and 1 spatial, one per task), lists their 12 files in the
    manifest and writes an aucs.csv of its header alone."""
    out = tmp_path / "run"
    manifest = run_family(
        "mismatch", out, {"scale": 0.002, "test_scenarios": [], "train": {"epochs": 1}}
    )
    models = sorted(
        f"model_{task}_{method}_K{K}.json{blob}"
        for task in ("nd", "nl")
        for method, K in (("tdnn", 5), ("sdnn", 2), ("sdnn", 1))
        for blob in ("", ".bin")
    )
    assert manifest["artifacts"] == sorted([*models, "aucs.csv"]) + ["manifest.json"]
    assert len(manifest["artifacts"]) == 14
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["artifacts"])
    assert (out / "aucs.csv").read_text() == "detector,task,kind,K,d,auc,n_pos,n_neg,scenario\n"


def test_run_family_rejects_unknown_family(tmp_path):
    with pytest.raises(ConfigError):
        run_family("warp-drive", tmp_path / "x")


def test_converge_outputs_are_plausible(tmp_path):
    out = tmp_path / "run"
    manifest = run_family("converge", out, {"seeds": 2, "T": 400})
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "seed,f_gap,disagreement,attack_distance"
    assert len(report) == 3  # one row per seed
    traj = (out / "trajectory_clean.csv").read_text().splitlines()
    assert traj[0] == "t,f_gap,disagreement"
    assert len(traj) == 1 + 401
    rows = np.array([[float(v) for v in line.split(",")] for line in traj[1:]])
    # the optimality gap decays along the run
    assert rows[-1, 1] < 0.05 * rows[0, 1]
