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


def test_unconfigured_inputs_are_config_errors(tmp_path, capsys):
    assert cli.main(["train", "--out", str(tmp_path / "m")]) == 1
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

    def fake_build(scenario, budget, master_seed, tasks=(), events=()):
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
