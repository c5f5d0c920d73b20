"""Command-line workflow tests: config handling, artifacts, sweeps, exit codes."""

import csv
import io
import json
import os
import shutil
import statistics
import subprocess
import sys

import numpy as np
import pytest

import cellconn
from cellconn.cli import (ExperimentConfig, GAIN_COLUMNS, SweepPoint, UsageError,
                          _gain_pct, cmd_eval, cmd_generate, cmd_train,
                          config_from_dict, eval_deployment, load_config, main,
                          sweep_points)
from cellconn.dqn import TrainConfig
from cellconn.gnn import init_params, load_model, param_arrays, save_model
from cellconn.graph import capacity_matrix
from cellconn.metrics import coverage, jain_index, sum_throughput
from cellconn.netmodel import generate_deployment, save_deployment
from cellconn.xapp import max_rsrp_graph


def write_config(tmp_path, doc, name="cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def micro_doc(**kw) -> dict:
    """A config small enough for unit tests: 2 cells, 4 UEs, a few deployments."""
    doc = {"n_cells_list": [2], "n_ues_list": [4],
           "n_train_deployments": 5, "n_eval_deployments": 3,
           "train": {"reward_kind": "throughput", "alpha": 0.0, "epsilon": 1.0,
                     "init_std": 0.3, "edge_threshold_db": 0.0}}
    doc.update(kw)
    return doc


def tree_bytes(root: str) -> dict[str, bytes]:
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in files:
            full = os.path.join(dirpath, f)
            out[os.path.relpath(full, root)] = open(full, "rb").read()
    return out


# ----------------------------------------------------------------- config ---

def test_default_config():
    cfg = load_config(None, None)
    assert cfg.n_cells_list == (6,)
    assert cfg.n_ues_list == (50,)
    assert cfg.n_train_deployments == 1000
    assert cfg.n_eval_deployments == 50
    assert cfg.seed == 0
    assert cfg.train.reward_kind == "fair"


def test_config_round_trip_and_seed_override(tmp_path):
    path = write_config(tmp_path, micro_doc(seed=5))
    cfg = load_config(path, None)
    assert cfg.seed == 5
    assert cfg.n_cells_list == (2,)
    assert cfg.train.alpha == 0.0
    assert load_config(path, 42).seed == 42  # --seed wins over the file


def test_config_nested_radio(tmp_path):
    path = write_config(tmp_path, micro_doc(radio={"tx_power_dbm": 30.0}))
    cfg = load_config(path, None)
    assert cfg.radio.tx_power_dbm == 30.0
    assert cfg.radio.carrier_ghz == 30.0  # untouched default


def test_config_rejects_unknown_keys(tmp_path):
    with pytest.raises(UsageError, match="unknown config keys"):
        load_config(write_config(tmp_path, {"cells": [2]}), None)
    with pytest.raises(UsageError, match="unknown config keys"):
        load_config(write_config(tmp_path, micro_doc(train={"alhpa": 0.1})), None)


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(UsageError):
        load_config(write_config(tmp_path, {"n_cells_list": []}), None)
    with pytest.raises(UsageError):
        load_config(write_config(tmp_path, {"n_train_deployments": 0}), None)
    with pytest.raises(UsageError):
        load_config(write_config(tmp_path, {"n_eval_deployments": 0}), None)
    with pytest.raises(UsageError):
        load_config(str(tmp_path / "missing.json"), None)
    bad = tmp_path / "bad.json"
    bad.write_text("{nope", encoding="utf-8")
    with pytest.raises(UsageError):
        load_config(str(bad), None)
    notdict = tmp_path / "arr.json"
    notdict.write_text("[1,2]", encoding="utf-8")
    with pytest.raises(UsageError):
        load_config(str(notdict), None)


def test_sweep_points_grid():
    cfg = config_from_dict({"n_cells_list": [2, 3], "n_ues_list": [4, 8]})
    pts = sweep_points(cfg)
    assert [(p.n_cells, p.n_ues) for p in pts] == [(2, 4), (2, 8), (3, 4), (3, 8)]
    assert all(p.density_cells_km2 is None for p in pts)


def test_sweep_points_density_keeps_ues_per_cell():
    cfg = config_from_dict({"n_cells_list": [6], "n_ues_list": [30],
                            "density_list": [37.0, 18.5]})
    pts = sweep_points(cfg)
    assert (pts[0].n_cells, pts[0].n_ues) == (6, 30)
    # hex area at 500 m diameter is ~0.1624 km^2: 37 cells/km^2 -> 6 cells
    assert (pts[1].n_cells, pts[1].n_ues, pts[1].density_cells_km2) == (6, 30, 37.0)
    assert (pts[2].n_cells, pts[2].n_ues, pts[2].density_cells_km2) == (3, 15, 18.5)


# --------------------------------------------------------------- generate ---

def test_generate_writes_files_and_manifest(tmp_path):
    cfg = config_from_dict(micro_doc(n_train_deployments=3, n_eval_deployments=2))
    manifest_path = cmd_generate(cfg, str(tmp_path))
    manifest = json.loads(open(manifest_path, encoding="utf-8").read())
    assert len(manifest["train"]) == 3
    for entry in manifest["train"]:
        assert os.path.isfile(os.path.join(tmp_path, entry["file"]))
    # eval regenerates its deployments from their seeds: none are written
    assert sorted(manifest) == ["hex_diameter_m", "seed", "train"]
    assert os.listdir(tmp_path / "deployments") == ["train"]


def test_generate_rerun_byte_identical(tmp_path):
    cfg = config_from_dict(micro_doc(n_train_deployments=2, n_eval_deployments=2))
    a, b = tmp_path / "a", tmp_path / "b"
    cmd_generate(cfg, str(a))
    cmd_generate(cfg, str(b))
    assert tree_bytes(str(a)) == tree_bytes(str(b))


# ------------------------------------------------------------------ train ---

def test_train_alpha_zero_saves_initial_params(tmp_path):
    cfg = config_from_dict(micro_doc())
    model_path, log_path = cmd_train(cfg, str(tmp_path))
    got = load_model(model_path)
    want = init_params(cfg.seed, cfg.train.gnn_layers, cfg.train.gnn_width,
                       cfg.train.init_std)
    for a, b in zip(param_arrays(got), param_arrays(want)):
        assert np.array_equal(a, b)
    with open(log_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.n_train_deployments
    assert set(rows[0]) == {"deployment_id", "episode", "ep_return", "u_throughput",
                            "u_coverage", "u_jain", "epsilon_used", "loss_mean"}
    for row in rows:
        float(row["ep_return"])  # parseable numbers all the way down
        assert float(row["u_jain"]) <= 1.0


def test_train_from_generated_deployment_dir(tmp_path):
    cfg = config_from_dict(micro_doc(n_train_deployments=3))
    cmd_generate(cfg, str(tmp_path / "data"))
    cfg_dir = config_from_dict(micro_doc(n_train_deployments=3,
                                         deployments_dir=str(tmp_path / "data")))
    _, log_path = cmd_train(cfg_dir, str(tmp_path / "run"))
    with open(log_path, encoding="utf-8", newline="") as fh:
        ids = [int(r["deployment_id"]) for r in csv.DictReader(fh)]
    assert ids == [cfg.seed + i for i in range(3)]


def test_train_from_deployment_dir_respects_n_train_deployments(tmp_path):
    cmd_generate(config_from_dict(micro_doc(n_train_deployments=5)),
                 str(tmp_path / "data"))
    cfg = config_from_dict(micro_doc(n_train_deployments=2,
                                     deployments_dir=str(tmp_path / "data")))
    _, log_path = cmd_train(cfg, str(tmp_path / "run"))
    with open(log_path, encoding="utf-8", newline="") as fh:
        ids = [int(r["deployment_id"]) for r in csv.DictReader(fh)]
    assert ids == [cfg.seed, cfg.seed + 1]


def test_train_missing_deployment_dir_errors(tmp_path):
    cfg = config_from_dict(micro_doc(deployments_dir=str(tmp_path / "nowhere")))
    with pytest.raises(UsageError, match="manifest"):
        cmd_train(cfg, str(tmp_path))


# ------------------------------------------------------------------- eval ---

def stub_model(tmp_path) -> str:
    """Any valid model will do: with edge threshold 0 no UE is ever reshuffled,
    so the policy graph is forced to coincide with the max-RSRP baseline."""
    path = str(tmp_path / "model.json")
    save_model(init_params(0, 2, 8, 0.3), path)
    return path


def read_report(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def test_eval_stub_policy_gains_exactly_zero(tmp_path):
    cfg = config_from_dict(micro_doc())
    report = read_report(cmd_eval(cfg, stub_model(tmp_path), str(tmp_path)))
    dep_rows = [r for r in report if r["row_type"] == "deployment"]
    agg_rows = [r for r in report if r["row_type"] == "aggregate"]
    assert len(dep_rows) == cfg.n_eval_deployments
    assert {r["stat"] for r in agg_rows} == {"median", "mean"}
    for r in dep_rows:
        for m in ("throughput", "coverage", "jain"):
            assert float(r[f"policy_{m}"]) == float(r[f"baseline_{m}"])
            assert float(r[f"gain_{m}_pct"]) == 0.0
    for r in agg_rows:
        for m in ("throughput", "coverage", "jain"):
            assert float(r[f"gain_{m}_pct"]) == 0.0
            assert int(r[f"excluded_{m}"]) == 0


def test_eval_rerun_byte_identical(tmp_path):
    cfg = config_from_dict(micro_doc())
    model = stub_model(tmp_path)
    p1 = cmd_eval(cfg, model, str(tmp_path / "r1"))
    p2 = cmd_eval(cfg, model, str(tmp_path / "r2"))
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_eval_baseline_columns_match_direct_metrics(tmp_path):
    cfg = config_from_dict(micro_doc(n_eval_deployments=2))
    report = read_report(cmd_eval(cfg, stub_model(tmp_path), str(tmp_path)))
    dep_rows = [r for r in report if r["row_type"] == "deployment"]
    for pi, point in enumerate(sweep_points(cfg)):
        for i in range(cfg.n_eval_deployments):
            dep = eval_deployment(cfg, pi, point, i)
            row = next(r for r in dep_rows
                       if int(r["deployment_seed"]) == dep.seed)
            cap = capacity_matrix(dep)
            g = max_rsrp_graph(dep, cfg.train.d_max_m)
            assert float(row["baseline_throughput"]) == sum_throughput(g, cap)
            assert float(row["baseline_coverage"]) == coverage(g, cap)
            assert float(row["baseline_jain"]) == jain_index(g)


def test_eval_aggregates_recompute_from_rows(tmp_path):
    cfg = config_from_dict(micro_doc(n_cells_list=[2, 3], n_eval_deployments=4))
    report = read_report(cmd_eval(cfg, stub_model(tmp_path), str(tmp_path)))
    for point in {(r["n_cells"], r["n_ues"]) for r in report}:
        rows = [r for r in report if (r["n_cells"], r["n_ues"]) == point]
        deps = [r for r in rows if r["row_type"] == "deployment"]
        med = next(r for r in rows if r["stat"] == "median")
        mean = next(r for r in rows if r["stat"] == "mean")
        for m in ("throughput", "coverage", "jain"):
            gains = [float(r[f"gain_{m}_pct"]) for r in deps]
            assert float(med[f"gain_{m}_pct"]) == pytest.approx(
                statistics.median(gains), rel=1e-12, abs=1e-15)
            assert float(mean[f"gain_{m}_pct"]) == pytest.approx(
                statistics.fmean(gains), rel=1e-12, abs=1e-15)


def test_eval_density_sweep_rows(tmp_path):
    cfg = config_from_dict(micro_doc(n_cells_list=[2], n_ues_list=[4],
                                     density_list=[12.3], n_eval_deployments=2))
    report = read_report(cmd_eval(cfg, stub_model(tmp_path), str(tmp_path)))
    base = [r for r in report if r["density_cells_km2"] == ""]
    dens = [r for r in report if r["density_cells_km2"] not in ("", None)]
    assert len([r for r in base if r["row_type"] == "deployment"]) == 2
    assert len([r for r in dens if r["row_type"] == "deployment"]) == 2
    assert {float(r["density_cells_km2"]) for r in dens} == {12.3}
    assert list(report[0]) == list(GAIN_COLUMNS)


def test_gain_pct_flags_zero_baseline():
    assert _gain_pct(3.0, 2.0) == pytest.approx(50.0, rel=1e-12)
    assert _gain_pct(1.0, 0.0) is None


# ------------------------------------------------------------- exit codes ---

def test_main_usage_errors_exit_1(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path / "missing.json")]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["bogus-command"]) == 1
    assert main(["eval", "--out", str(tmp_path)]) == 1  # --model is required


def test_main_runtime_errors_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_doc())
    rc = main(["eval", "--config", cfg_path, "--model",
               str(tmp_path / "no-model.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_serve_eof_exits_clean(tmp_path, capsys, monkeypatch):
    model = stub_model(tmp_path)
    dep_path = str(tmp_path / "dep.json")
    save_deployment(generate_deployment(3, 2, 4), dep_path)
    req = json.dumps({"type": "handover", "ue": 0,
                      "rsrp_dbm": {"0": -60.0, "1": -61.0}})
    monkeypatch.setattr(sys, "stdin", io.StringIO(req + "\n"))
    assert main(["serve", "--model", model, "--deployment", dep_path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["ue"] == 0


def test_main_serve_bad_model_exits_2(tmp_path, capsys):
    dep_path = str(tmp_path / "dep.json")
    save_deployment(generate_deployment(3, 2, 4), dep_path)
    rc = main(["serve", "--model", str(tmp_path / "nope.json"),
               "--deployment", dep_path])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _generate_smoke(tmp_path, command: list[str], env=None) -> None:
    """Run `<command> generate` in a child process; it must exit 0 and
    write the manifest."""
    cfg_path = write_config(tmp_path, micro_doc(n_train_deployments=1,
                                                n_eval_deployments=1))
    proc = subprocess.run(
        command + ["generate", "--config", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "o" / "manifest.json")


def _child_env() -> dict[str, str]:
    """Environment whose PYTHONPATH starts with the directory this process
    imported cellconn from, so the child runs the same package whether it
    came from a source checkout or from an install."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(cellconn.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def test_console_script_generate_smoke(tmp_path):
    # `python -m cellconn` runs cellconn.cli:main, the console script's target.
    _generate_smoke(tmp_path, [sys.executable, "-m", "cellconn"], env=_child_env())


def test_module_entry_point_usage_error_exits_1():
    proc = subprocess.run([sys.executable, "-m", "cellconn", "bogus-command"],
                          capture_output=True, text=True, timeout=120,
                          env=_child_env())
    assert proc.returncode == 1
    assert "error:" in proc.stderr


@pytest.mark.skipif(shutil.which("cellconn") is None,
                    reason="cellconn console script not installed")
def test_installed_console_script_generate_smoke(tmp_path):
    _generate_smoke(tmp_path, ["cellconn"])


def test_pyproject_console_script_targets_cli_main():
    tomllib = pytest.importorskip("tomllib")
    path = os.path.join(os.path.dirname(__file__), os.pardir, "pyproject.toml")
    with open(path, "rb") as f:
        scripts = tomllib.load(f)["project"]["scripts"]
    assert scripts["cellconn"] == "cellconn.cli:main"
