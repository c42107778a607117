"""Command line driver: exit codes, artifact routing, pipeline wiring."""

import json
import os

import pytest

from gossipwatch import cli
from gossipwatch.datagen import Budget

TINY_GEN = [
    "--set", "T=60", "--set", "K=1", "--set", "scale=0.002",
    "--set", 'tasks=["nd"]', "--set", "master_seed=3",
]


def _gen(tmp_path, extra=()):
    out = tmp_path / "data"
    rc = cli.main(["gen-data", *TINY_GEN, *extra, "--out", str(out)])
    assert rc == 0
    return out


def test_unknown_subcommand_is_a_config_error(capsys):
    assert cli.main(["frobnicate"]) == 1
    assert "config error" in capsys.readouterr().err


def test_unknown_config_field_is_a_config_error(capsys):
    assert cli.main(["experiment", "converge", "--set", "seedz=2"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "converge.seedz" in err


def test_malformed_set_flag(capsys):
    assert cli.main(["gen-data", "--set", "T:60"]) == 1
    assert "KEY=VALUE" in capsys.readouterr().err


def test_missing_dataset_names_the_producer(tmp_path, capsys):
    rc = cli.main(
        ["train", "--set", f"data={tmp_path}/nope.csv", "--out", str(tmp_path / "m")]
    )
    assert rc == 2
    assert "gen-data" in capsys.readouterr().err


def test_missing_model_names_the_producer(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = cli.main(
        [
            "eval-roc",
            "--set", f"temporal_data={data}/nd_temporal_test.csv",
            "--set", 'detectors=["tdnn"]',
            "--set", f"tdnn_model={tmp_path}/ghost.json",
            "--out", str(tmp_path / "roc"),
        ]
    )
    assert rc == 2
    assert "train subcommand" in capsys.readouterr().err


def test_bad_model_files_name_the_file_and_field(tmp_path, capsys):
    data = _gen(tmp_path)

    def eval_with(model):
        return cli.main(
            [
                "eval-roc",
                "--set", f"temporal_data={data}/nd_temporal_test.csv",
                "--set", 'detectors=["tdnn"]',
                "--set", f"tdnn_model={model}",
                "--out", str(tmp_path / "roc"),
            ]
        )

    # a manifest is JSON but not a model header
    assert eval_with(data / "manifest.json") == 2
    err = capsys.readouterr().err
    assert "manifest.json: field 'sizes': missing" in err

    rc = cli.main(
        [
            "train", "--set", f"data={data}/nd_temporal_train.csv",
            "--set", "epochs=1", "--set", "name=tdnn", "--out", str(tmp_path / "m"),
        ]
    )
    assert rc == 0
    blob = tmp_path / "m" / "tdnn.json.bin"
    blob.write_bytes(blob.read_bytes()[:-5])
    assert eval_with(tmp_path / "m" / "tdnn.json") == 2
    err = capsys.readouterr().err
    assert "tdnn.json.bin: field 'blob' of" in err and "bytes" in err


def test_unknown_task_writes_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    rc = cli.main(
        ["gen-data", *TINY_GEN, "--set", 'tasks=["detect"]', "--out", str(out)]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "unknown task 'detect'" in err and "'nd', 'nl'" in err
    assert not out.exists()


def test_bad_events_write_nothing(tmp_path, capsys):
    out = tmp_path / "data"
    for events, what in (("[]", "one or more events"), ('["h0","h0","next-to"]', "twice")):
        rc = cli.main(["gen-data", *TINY_GEN, "--set", f"events={events}", "--out", str(out)])
        assert rc == 2
        assert what in capsys.readouterr().err
        assert not out.exists()


def test_malformed_config_file_names_file_and_line(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "T": 50,\n  K: 1\n}\n')
    assert cli.main(["gen-data", "--config", str(bad)]) == 1
    assert f"config error: {bad}:3: column 3: not JSON" in capsys.readouterr().err


def test_malformed_manifest_names_file_and_field(tmp_path, capsys):
    data = _gen(tmp_path)
    manifest = data / "manifest.json"
    train = ["train", "--set", f"data={data}/nd_temporal_train.csv", "--out", str(tmp_path / "m")]
    for content, what in (
        ('{"datasets": ', f"{manifest}:1: column 14: not JSON"),
        ('{"datasets": []}', f"{manifest}: field 'datasets': not an object"),
        ('{"datasets": {"nd_temporal_train.csv": 3}}',
         f"{manifest}: field 'datasets.nd_temporal_train.csv': not an object"),
        ('{"datasets": {"nd_temporal_train.csv": {"K": "1"}}}',
         f"{manifest}: field 'datasets.nd_temporal_train.csv.K': expects a JSON integer"),
        ('{"datasets": {"nd_temporal_train.csv": {"K": 0}}}',
         f"{manifest}: field 'datasets.nd_temporal_train.csv.K': must be >= 1, got 0"),
    ):
        manifest.write_text(content)
        assert cli.main(train) == 2
        assert what in capsys.readouterr().err


def test_ill_typed_dataset_field_is_a_config_error(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = cli.main(
        ["train", "--set", f"data={data}/nd_temporal_train.csv", "--set", "K=abc",
         "--out", str(tmp_path / "m")]
    )
    assert rc == 1
    assert "config error: 'train.K' expects a JSON integer, got 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "m").exists()


def test_ill_typed_set_value_is_a_config_error(tmp_path, capsys):
    out = tmp_path / "data"
    rc = cli.main(["gen-data", *TINY_GEN, "--set", "events=h0", "--out", str(out)])
    assert rc == 1
    assert "config error: 'gen-data.events' expects a JSON list, got 'h0'" in (
        capsys.readouterr().err
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [("eta=0", "'train.eta' must be > 0, got 0"),
     ("batch_size=0", "'train.batch_size' must be >= 1, got 0"),
     ("epochs=-1", "'train.epochs' must be >= 0, got -1")],
)
def test_out_of_domain_train_values_are_config_errors(tmp_path, capsys, setting, message):
    data = _gen(tmp_path)
    out = tmp_path / "m"
    rc = cli.main(["train", "--set", f"data={data}/nd_temporal_train.csv", "--set", setting,
                   "--out", str(out)])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [("mode=foo", "'train-gossip.mode' must be 'sync' or 'async', got 'foo'"),
     ("mu=1.5", "'train-gossip.mu' must be in [0, 1], got 1.5"),
     ("rounds=-3", "'train-gossip.rounds' must be >= 0, got -3"),
     ("starved_fraction=2", "'train-gossip.starved_fraction' must be in (0, 1), got 2")],
)
def test_out_of_domain_train_gossip_values_are_config_errors(tmp_path, capsys, setting, message):
    data = _gen(tmp_path)
    out = tmp_path / "g"
    rc = cli.main(["train-gossip", "--set", f"data={data}/nd_spatial_train.csv",
                   "--set", setting, "--out", str(out)])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [("T=0", "'gen-data.T' must be >= 1, got 0"),
     ("scale=-1", "'gen-data.scale' must be > 0, got -1"),
     ("K=0", "'gen-data.K' must be >= 1, got 0"),
     ("monitor=20", "'gen-data.monitor' must be an agent id in [0, 9), got 20"),
     ("monitor=[4]", "'gen-data.monitor' must be an agent id in [0, 9), got [4]"),
     ("m=7", "'gen-data.m' must be [m, c] that fits the 3x3 torus, c <= 4 and "
             "m - c <= rows * cols - 5, got [7, 1] for its next-to rows"),
     ("m=5", "'gen-data.m' must be [m, c] that fits the 3x3 torus, c <= 4 and "
             "m - c <= rows * cols - 5, got [5, 0] for its far-from rows"),
     ("c=2", "'gen-data.m' must be [m, c] with 0 <= c <= m, got [1, 2] for its next-to rows")],
)
def test_out_of_domain_gen_data_values_are_config_errors(tmp_path, capsys, setting, message):
    out = tmp_path / "data"
    rc = cli.main(["gen-data", *TINY_GEN, "--set", setting, "--out", str(out)])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, data_field",
    [("train", "data"), ("train-gossip", "data"), ("eval-roc", "temporal_data")],
)
def test_out_of_domain_dataset_sizes_are_config_errors(tmp_path, capsys, section, data_field):
    data = _gen(tmp_path)
    csv = data / "nd_temporal_train.csv"
    out = tmp_path / "o"
    run = ["--set", f"{data_field}={csv}", "--out", str(out)]
    if section == "eval-roc":
        run += ["--set", 'detectors=["td"]']
    for setting, message in (("K=0", f"'{section}.K' must be >= 1, got 0"),
                             ("d=-3", f"'{section}.d' must be >= 1, got -3")):
        assert cli.main([section, "--set", setting, *run]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, data_field",
    [("train", "data"), ("train-gossip", "data"), ("eval-roc", "temporal_data")],
)
def test_a_dataset_with_no_rows_fails_before_writing(tmp_path, capsys, section, data_field):
    """A CSV with its header and no rows is an error naming the file, not a
    division by zero, an empty sweep or untrained models."""
    csv = _gen(tmp_path) / "nd_temporal_train.csv"
    csv.write_text(csv.read_text().splitlines(keepends=True)[0])
    out = tmp_path / "o"
    run = [section, "--set", f"{data_field}={csv}", "--out", str(out)]
    if section == "eval-roc":
        run += ["--set", 'detectors=["td"]']
    capsys.readouterr()
    assert cli.main(run) == 2
    assert f"error: {csv}: no data rows" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["one-attacker", "--set", "temporal_setups=[[5, 0]]"],
      "'one-attacker.temporal_setups[0]' must be [K, d] with K, d >= 1, got [5, 0]"),
     (["one-attacker", "--set", "spatial_setups=[[2, 2], [1]]"],
      "'one-attacker.spatial_setups[1]' must be [K, d] with K, d >= 1, got [1]"),
     (["converge", "--set", "rows=0"], "'converge.rows' must be >= 3, got 0"),
     (["multi-attacker", "--set", "combos=[[1, 2]]"],
      "'multi-attacker.combos[0]' must be [m, c] with 0 <= c <= m, got [1, 2]"),
     (["multi-attacker", "--set", "combos=[[9, 1]]", "--set", "scale=0.002"],
      "'multi-attacker.combos[0]' must be [m, c] that fits the 3x3 torus, c <= 4 and "
      "m - c <= rows * cols - 5, got [9, 1]"),
     (["multi-attacker", "--set", "scale=0.00004"],
      "'multi-attacker.scale' must be > 1/12000, so that every split has a row, got 4e-05"),
     (["multi-attacker", "--set", "scale=0.00006"],
      "'multi-attacker.scale' must be > 1/12000, so that every split has a row, got 6e-05"),
     (["small-world", "--set", "scale=0.00004"],
      "'small-world.scale' must be > 1/12000, so that every split has a row, got 4e-05"),
     (["small-world", "--set", "n=2"], "'small-world.n' must be >= 3, got 2"),
     (["small-world", "--set", "mean_degree=30"],
      "'small-world.mean_degree' must be < n = 20, got 30"),
     (["small-world", "--set", "mean_degree=5"],
      "'small-world.mean_degree' must be an even integer >= 2, got 5"),
     (["small-world", "--set", "rewire_prob=1.5"],
      "'small-world.rewire_prob' must be in [0, 1], got 1.5")],
    ids=["temporal_setups", "spatial_setups", "rows", "combos", "combos_fit",
         "scale_no_train_row", "scale_no_test_row", "small_world_scale", "small_world_n",
         "small_world_mean_degree", "small_world_odd_degree", "small_world_rewire_prob"],
)
def test_out_of_domain_grid_and_list_entries_fail_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main(["experiment", *argv, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


_TAGS = "one of ['S0', 'S1', 'S2', 'S3', 'S4']"


@pytest.mark.parametrize(
    "argv, message",
    [(["multi-attacker", "--set", "temporal_K=0"],
      "'multi-attacker.temporal_K' must be >= 1, got 0"),
     (["mismatch", "--set", "spatial_Ks=[0]"], "'mismatch.spatial_Ks[0]' must be >= 1, got 0"),
     (["mismatch", "--set", 'spatial_Ks=[2, "1"]'],
      "'mismatch.spatial_Ks[1]' expects a JSON integer, got '1'"),
     (["one-attacker", "--set", "scenario=S7"],
      f"'one-attacker.scenario' must be {_TAGS}, got 'S7'"),
     (["mismatch", "--set", "train_scenario=S5"],
      f"'mismatch.train_scenario' must be {_TAGS}, got 'S5'"),
     (["mismatch", "--set", 'test_scenarios=["S9"]'],
      f"'mismatch.test_scenarios[0]' must be {_TAGS}, got 'S9'"),
     (["small-world", "--set", "M=0"], "'small-world.M' must be >= 1, got 0")],
    ids=["temporal_K", "spatial_Ks", "spatial_Ks_type", "scenario", "train_scenario",
         "test_scenarios", "M"],
)
def test_width_and_scenario_tag_fields_fail_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main(["experiment", *argv, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


_IDS = "a non-empty list of distinct agent ids"


@pytest.mark.parametrize(
    "argv, message",
    [(["small-world", "--set", "attackers=[3,3,17]"],
      f"'small-world.attackers' must be {_IDS} in [0, 20), got [3, 3, 17]"),
     (["small-world", "--set", "attackers=[3,10,25]"],
      f"'small-world.attackers' must be {_IDS} in [0, 20), got [3, 10, 25]"),
     (["degree-tailor", "--set", "monitor=20"],
      "'degree-tailor.monitor' must be an agent id in [0, 9), got 20"),
     (["gossip-learning", "--set", "excluded_agent=12"],
      "'gossip-learning.excluded_agent' must be an agent id in [0, 9), got 12"),
     (["gossip-learning", "--set", "starved_agent=8"],
      "'gossip-learning.starved_agent' must be an agent id in [0, 8), got 8"),
     (["gossip-learning", "--set", "next_group=[0,99]"],
      f"'gossip-learning.next_group' must be {_IDS} in [0, 8), got [0, 99]"),
     (["gossip-learning", "--set", "far_group=[]"],
      f"'gossip-learning.far_group' must be {_IDS} in [0, 8), got []")],
    ids=["duplicate_attacker", "attacker_off_graph", "monitor", "excluded_agent",
         "starved_agent", "next_group", "far_group"],
)
def test_agent_ids_outside_their_graph_fail_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main(["experiment", *argv, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "setting, message",
    [("starved_agent=30", "'train-gossip.starved_agent' must be an agent id in [0, 8), got 30"),
     ("position_groups=[[0,99]]",
      "'train-gossip.position_groups' expects a JSON object, got [[0, 99]]"),
     ('position_groups={"h0":[0,99]}',
      f"'train-gossip.position_groups.h0' must be {_IDS} in [0, 8), got [0, 99]"),
     ("exclude=[1,1]",
      "'train-gossip.exclude' must be a list of distinct agent ids in [0, 9), got [1, 1]"),
     ("exclude=[0,1,2,3,4,5,6,7,8]",
      "'train-gossip.exclude' must leave one or more of the 9 agents"),
     ("exclude=[1,3,5,7]",
      "'train-gossip.exclude' must leave one or more of the 9 agents, and the learners left "
      "must be two or more that are connected on the 3x3 torus, got [1, 3, 5, 7]"),
     ("exclude=[0,1,2,3,4,5,6,7]",
      "'train-gossip.exclude' must leave one or more of the 9 agents, and the learners left "
      "must be two or more that are connected on the 3x3 torus, got [0, 1, 2, 3, 4, 5, 6, 7]"),
     ("policy=foo",
      "'train-gossip.policy' must be 'uniform', 'starved' or 'by-position', got 'foo'"),
     ("policy=by-position",
      "'train-gossip.position_groups' must be set for the by-position policy")],
    ids=["starved_agent", "position_groups_list", "position_groups_id", "exclude_twice",
         "exclude_all", "exclude_disconnecting", "exclude_all_but_one", "policy",
         "by_position_without_groups"],
)
def test_train_gossip_agent_fields_fail_before_reading_or_writing(
    tmp_path, capsys, setting, message
):
    """The agent fields are checked against the grid before the dataset
    is read, so a missing dataset is not what fails."""
    out = tmp_path / "g"
    rc = cli.main(["train-gossip", "--set", f"data={tmp_path / 'missing.csv'}",
                   "--set", setting, "--out", str(out)])
    assert rc == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["gen-data", *TINY_GEN, "--set", "scale=1.5"], "'gen-data.scale' must be in (0, 1], got 1.5"),
     (["experiment", "one-attacker", "--set", "scale=2"],
      "'one-attacker.scale' must be in (0, 1], got 2"),
     (["experiment", "gossip-learning", "--set", "scale=1.01"],
      "'gossip-learning.scale' must be in (0, 1], got 1.01")],
)
def test_desk_scale_above_one_fails_before_writing(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert f"config error: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_unconfigured_inputs_are_config_errors(tmp_path, capsys):
    assert cli.main(["train", "--out", str(tmp_path / "m")]) == 1
    assert not (tmp_path / "m").exists()
    assert cli.main(["train-gossip", "--out", str(tmp_path / "g")]) == 1
    assert not (tmp_path / "g").exists()
    data = _gen(tmp_path)
    assert (
        cli.main(
            [
                "eval-roc",
                "--set", 'detectors=["sd"]',
                "--out", str(tmp_path / "roc"),
            ]
        )
        == 1
    )
    assert not (tmp_path / "roc").exists()
    assert (
        cli.main(
            [
                "eval-roc",
                "--set", f"temporal_data={data}/nd_temporal_test.csv",
                "--set", 'detectors=["zd"]',
                "--out", str(tmp_path / "roc"),
            ]
        )
        == 1
    )
    assert not (tmp_path / "roc").exists()
    assert (
        cli.main(
            [
                "eval-roc",
                "--set", f"temporal_data={data}/nd_temporal_test.csv",
                "--set", 'detectors=["td", "tdnn"]',
                "--out", str(tmp_path / "roc"),
            ]
        )
        == 1
    )
    assert not (tmp_path / "roc").exists()


def test_config_file_plus_set_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"T": 50, "K": 1, "scale": 0.002, "tasks": ["nd"]}))
    out = tmp_path / "data"
    rc = cli.main(
        ["gen-data", "--config", str(cfg), "--set", "T=60", "--out", str(out)]
    )
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["T"] == 60  # --set wins over the file
    assert manifest["config"]["K"] == 1  # file wins over the default

    missing = cli.main(["gen-data", "--config", str(tmp_path / "ghost.json")])
    assert missing == 2
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    assert cli.main(["gen-data", "--config", str(bad)]) == 1


def test_gen_data_writes_manifest_and_reruns_identically(tmp_path):
    a = _gen(tmp_path)
    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["family"] == "gen-data"
    names = set(manifest["artifacts"])
    assert {"nd_temporal_train.csv", "nd_spatial_test.csv", "manifest.json"} <= names
    meta = manifest["datasets"]["nd_temporal_test.csv"]
    assert meta["task"] == "nd" and meta["kind"] == "temporal" and meta["K"] == 1

    b = tmp_path / "again"
    rc = cli.main(["gen-data", *TINY_GEN, "--out", str(b)])
    assert rc == 0
    for name in sorted(os.listdir(a)):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_full_flag_selects_full_budgets(tmp_path, monkeypatch, capsys):
    seen = {}

    def fake_build(scenario, K, budget, master_seed, tasks=(), events=()):
        seen["budget"] = budget
        raise RuntimeError("stop before the expensive build")

    monkeypatch.setattr(cli, "build_dataset", fake_build)
    rc = cli.main(["gen-data", "--full", "--out", str(tmp_path / "d")])
    assert rc == 2
    assert seen["budget"] == Budget.full()
    rc = cli.main(["gen-data", "--out", str(tmp_path / "d")])
    assert seen["budget"] == Budget.desk(0.1)


def test_out_routing_env_var_and_flag(tmp_path, monkeypatch):
    root = tmp_path / "routed"
    monkeypatch.setenv("GOSSIPWATCH_OUT", str(root))
    rc = cli.main(["gen-data", *TINY_GEN])
    assert rc == 0
    assert (root / "gen-data" / "manifest.json").exists()
    # an explicit --out beats the environment
    override = tmp_path / "explicit"
    rc = cli.main(["gen-data", *TINY_GEN, "--out", str(override)])
    assert rc == 0
    assert (override / "manifest.json").exists()


def test_train_then_eval_pipeline(tmp_path):
    data = _gen(tmp_path)
    model_dir = tmp_path / "model"
    rc = cli.main(
        [
            "train",
            "--set", f"data={data}/nd_temporal_train.csv",
            "--set", "epochs=2", "--set", "name=tdnn",
            "--out", str(model_dir),
        ]
    )
    assert rc == 0
    assert (model_dir / "tdnn.json").exists()
    assert (model_dir / "tdnn.json.bin").exists()
    losses = (model_dir / "losses.csv").read_text().splitlines()
    assert losses[0] == "epoch,loss" and len(losses) == 3

    roc_dir = tmp_path / "roc"
    rc = cli.main(
        [
            "eval-roc",
            "--set", f"temporal_data={data}/nd_temporal_test.csv",
            "--set", f"spatial_data={data}/nd_spatial_test.csv",
            "--set", 'detectors=["td","sd","tdnn"]',
            "--set", f"tdnn_model={model_dir}/tdnn.json",
            "--out", str(roc_dir),
        ]
    )
    assert rc == 0
    table = (roc_dir / "aucs.csv").read_text().splitlines()
    assert len(table) == 4  # header + one row per detector
    assert table[0].startswith("detector,task,kind,K,d,auc")
    for det in ("td", "sd", "tdnn"):
        assert (roc_dir / f"roc_{det}.csv").exists()
        row = next(line for line in table[1:] if line.startswith(det + ","))
        auc = float(row.split(",")[5])
        assert 0.0 <= auc <= 1.0


def test_kind_mismatch_is_a_config_error(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = cli.main(
        [
            "eval-roc",
            "--set", f"temporal_data={data}/nd_spatial_test.csv",
            "--set", 'detectors=["td"]',
            "--out", str(tmp_path / "roc"),
        ]
    )
    assert rc == 1
    assert "temporal" in capsys.readouterr().err


def test_train_gossip_produces_per_agent_models(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "gossip"
    rc = cli.main(
        [
            "train-gossip",
            "--set", f"data={data}/nd_spatial_train.csv",
            "--set", "rounds=2", "--set", 'starved_events=["next-to"]',
            "--out", str(out),
        ]
    )
    assert rc == 0
    telemetry = (out / "telemetry.csv").read_text().splitlines()
    assert telemetry[0] == "round,mean_loss,dispersion" and len(telemetry) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    models = [a for a in manifest["artifacts"] if a.endswith(".json") and a != "manifest.json"]
    assert len(models) == 8  # torus minus the excluded agent
    header = json.loads((out / "model_agent0.json").read_text())
    assert header["meta"]["agent"] == 0 and "shard_rows" in header["meta"]


def test_simulate_and_experiment_subcommands(tmp_path):
    sim = tmp_path / "sim"
    rc = cli.main(
        ["simulate", "--set", "seeds=1", "--set", "T=50", "--out", str(sim)]
    )
    assert rc == 0
    assert json.loads((sim / "manifest.json").read_text())["family"] == "converge"

    exp = tmp_path / "exp"
    rc = cli.main(
        ["experiment", "converge", "--set", "seeds=1", "--set", "T=50", "--out", str(exp)]
    )
    assert rc == 0
    assert (exp / "report.csv").exists()


def test_malformed_dataset_names_file_and_line(tmp_path, capsys):
    data = _gen(tmp_path)
    path = data / "nd_temporal_train.csv"
    lines = path.read_text().splitlines()
    lines[-1] = lines[-1][: len(lines[-1]) // 2]  # truncated last row
    path.write_text("\n".join(lines) + "\n")
    rc = cli.main(["train", "--set", f"data={path}", "--out", str(tmp_path / "m")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path}:{len(lines)}: column " in err

    rc = cli.main(
        ["train", "--set", f"data={data}/nd_spatial_train.csv", "--set", "task=nl",
         "--out", str(tmp_path / "m")]
    )
    assert rc == 2
    assert f"{data}/nd_spatial_train.csv:1: column 'label_0'" in capsys.readouterr().err
