"""Command-line workflow tests: config handling, artifacts, sweeps, exit codes."""

import csv
import dataclasses
import io
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

import cellconn
from cellconn import cli
from cellconn.cli import (EVAL_SEED_OFFSET, ExperimentConfig, GAIN_COLUMNS, SweepPoint,
                          UsageError, _gain_pct, cmd_eval, cmd_generate, cmd_train,
                          config_from_dict, eval_deployment, load_config, main,
                          sweep_points, train_deployment)
from cellconn.dqn import TrainConfig
from cellconn.gnn import GnnParams, init_params, load_model, save_model
from cellconn.graph import capacity_matrix
from cellconn.metrics import coverage, jain_index, sum_throughput
from cellconn.netmodel import generate_deployment, save_deployment
from cellconn.xapp import max_rsrp_graph

from conftest import mutated


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
    with pytest.raises(UsageError, match=r"unknown ExperimentConfig keys \['cells'\]"):
        load_config(write_config(tmp_path, {"cells": [2]}), None)
    with pytest.raises(UsageError, match=r"unknown TrainConfig keys \['alhpa'\]"):
        load_config(write_config(tmp_path, micro_doc(train={"alhpa": 0.1})), None)
    # training always regenerates its deployments from the seed
    path = write_config(tmp_path, micro_doc(deployments_dir=str(tmp_path)))
    with pytest.raises(UsageError, match=r"unknown ExperimentConfig keys \['deployments_dir'\]"):
        load_config(path, None)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    # cell adjacency is fixed at graph.DEFAULT_D_MAX_M
    path = write_config(tmp_path, micro_doc(train={"d_max_m": 250.0}))
    with pytest.raises(UsageError, match=r"unknown TrainConfig keys \['d_max_m'\]"):
        load_config(path, None)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1


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


def test_config_rejects_wrong_types_and_invalid_train_values(tmp_path, capsys):
    for train in ({"batch_size": "4"}, {"alpha": "0.1"}, {"batch_size": True},
                  {"grad_clip_norm": "10"}, {"epsilon": 2.0}, {"reward_kind": "best"},
                  {"buffer_size": 2, "batch_size": 4}):
        with pytest.raises(UsageError):
            load_config(write_config(tmp_path, micro_doc(train=train)), None)
    with pytest.raises(UsageError, match="seed"):
        load_config(write_config(tmp_path, micro_doc(seed="3")), None)
    # ints are valid floats, and null is a valid optional value
    cfg = load_config(write_config(tmp_path, micro_doc(
        train={"alpha": 0, "grad_clip_norm": None})), None)
    assert cfg.train.alpha == 0 and cfg.train.grad_clip_norm is None
    bad = write_config(tmp_path, micro_doc(train={"alpha": "0.1"}))
    assert main(["train", "--config", bad, "--out", str(tmp_path)]) == 1
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"radio": {"report_set_size": 0}},     # every report empty: no legal action
    {"radio": {"report_set_size": -1}},    # would drop the weakest cell
    {"n_cells_list": ["3"]},
    {"n_cells_list": [0]},
    {"n_ues_list": [4.5]},
    {"density_list": [-37.0]},
    {"density_list": [float("inf")]},
    {"train": {"gnn_layers": 0}},
    {"train": {"gnn_width": 0}},
    {"train": {"init_std": 0.0}},
    {"train": {"grad_clip_norm": -1.0}},   # would reverse every clipped update
    {"train": {"grad_clip_norm": 0.0}},
    {"train": []},                         # a section must be an object
    {"radio": []},
    {"radio": {"bandwidth_mhz": -1}},      # log10 of a negative noise bandwidth
    {"radio": {"shadow_sigma_db": -1}},    # a negative normal scale
    {"hex_diameter_m": -5},
    {"min_cell_sep_m": -1.0},
    {"train": {"alpha": float("nan")}},    # diverges on the first update
    {"train": {"gamma": float("nan")}},
    {"train": {"gamma": 1.5}},
    {"train": {"lambda_fair": float("inf")}},
    {"train": {"episodes_per_deployment": 0}},  # would save the untrained weights
    {"train": {"edge_threshold_db": float("nan")}},  # no model file could carry it
    {"train": {"lambda_fair": 10 ** 400}},  # beyond the float range: was an OverflowError
    {"train": {"edge_threshold_db": -10 ** 400}},
    {"hex_diameter_m": 10 ** 400},         # loaded, then overflowed in generate
    {"seed": -1},                          # numpy seeds only with non-negative integers
    {"train": {"buffer_size": 10 ** 400}},  # above a deque's largest maxlen: was an OverflowError
], ids=repr)
def test_config_rejects_values_the_code_cannot_use(tmp_path, doc):
    path = write_config(tmp_path, micro_doc(**doc))
    with pytest.raises(UsageError):
        load_config(path, None)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1


def test_a_non_finite_init_std_is_refused_before_any_work(tmp_path, capsys):
    # json reads Infinity; the weights drawn with it make every TD error NaN
    path = write_config(tmp_path, micro_doc(train={"init_std": math.inf}))
    assert "Infinity" in open(path, encoding="utf-8").read()
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="init_std"):
            TrainConfig(init_std=bad)
        with pytest.raises(ValueError, match="init_std"):
            init_params(0, 2, 8, bad)


def test_train_deployments_stop_short_of_the_eval_seeds(tmp_path):
    # train deployment i has seed + i, point 0's first eval deployment seed + EVAL_SEED_OFFSET
    cfg = load_config(write_config(tmp_path, micro_doc(n_train_deployments=EVAL_SEED_OFFSET)),
                      None)
    last = train_deployment(cfg, cfg.n_train_deployments - 1)
    assert last.seed < eval_deployment(cfg, 0, sweep_points(cfg)[0], 0).seed
    too_many = micro_doc(n_train_deployments=EVAL_SEED_OFFSET + 1)
    with pytest.raises(UsageError, match=str(EVAL_SEED_OFFSET)):
        load_config(write_config(tmp_path, too_many), None)


FULL_CONFIG = {**{k: list(v) if isinstance(v, tuple) else v
                  for k, v in dataclasses.asdict(ExperimentConfig()).items()},
               "density_list": [12.5],
               "train": {k: v for k, v in dataclasses.asdict(TrainConfig()).items() if k != "seed"}}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated(FULL_CONFIG))
def test_load_config_survives_any_one_mutation(tmp_path, case):
    # one hostile value, deleted key or added key: a config, or a UsageError
    # that names the file; a file cut short or not UTF-8: that UsageError
    data, is_json = case
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    try:
        load_config(str(path), None)
    except UsageError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return
    assert is_json, "a corrupt file loaded"


@pytest.mark.parametrize("data", [b'{"n_cells_list": [2],', b"\xff{}"], ids=["cut", "0xff"])
def test_a_config_that_is_not_json_exits_1_and_names_the_file(tmp_path, capsys, data):
    path = tmp_path / "cfg.json"
    path.write_bytes(data)
    assert main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 1
    assert f"error: {path}: " in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_config_rejects_train_seed(tmp_path, capsys):
    # the top-level seed drives training; a train.seed would be overwritten
    path = write_config(tmp_path, micro_doc(seed=1, train={"seed": 5}))
    with pytest.raises(UsageError, match="top-level \"seed\""):
        load_config(path, None)
    assert main(["train", "--config", path, "--out", str(tmp_path / "run")]) == 1
    assert "train.seed" in capsys.readouterr().err


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

def test_generate_writes_train_files_only(tmp_path):
    cfg = config_from_dict(micro_doc(n_train_deployments=3, n_eval_deployments=2))
    train_dir = cmd_generate(cfg, str(tmp_path))
    assert train_dir == os.path.join(tmp_path, "deployments", "train")
    assert sorted(os.listdir(train_dir)) == [f"dep_{cfg.seed + i}.json" for i in range(3)]
    # eval regenerates its deployments from their seeds: none are written,
    # and nothing reads a manifest
    assert os.listdir(tmp_path) == ["deployments"]
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
    for a, b in zip(got.arrays, want.arrays):
        assert np.array_equal(a, b)
    with open(log_path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.n_train_deployments
    assert set(rows[0]) == {"deployment_id", "episode", "ep_return", "u_throughput",
                            "u_coverage", "u_jain", "epsilon_used", "loss_mean"}
    for row in rows:
        float(row["ep_return"])  # parseable numbers all the way down
        assert float(row["u_jain"]) <= 1.0


def test_train_respects_n_train_deployments(tmp_path):
    cfg = config_from_dict(micro_doc(n_train_deployments=2))
    _, log_path = cmd_train(cfg, str(tmp_path / "run"))
    with open(log_path, encoding="utf-8", newline="") as fh:
        ids = [int(r["deployment_id"]) for r in csv.DictReader(fh)]
    assert ids == [cfg.seed, cfg.seed + 1]


# ------------------------------------------------------------------- eval ---

def stub_model(tmp_path) -> str:
    """Any weights will do: the model's edge threshold 0 reshuffles no UE, so
    the policy graph is forced to coincide with the max-RSRP baseline."""
    path = str(tmp_path / "model.json")
    save_model(GnnParams(2, 8, init_params(0, 2, 8, 0.3).vec, 0.0), path)
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


def test_eval_takes_the_threshold_from_the_model_not_the_config(tmp_path):
    model, _ = cmd_train(config_from_dict(micro_doc()), str(tmp_path / "run"))
    reports = []
    for threshold in (0.0, 3.0):
        train = dict(micro_doc()["train"], edge_threshold_db=threshold)
        path = cmd_eval(config_from_dict(micro_doc(train=train)), model,
                        str(tmp_path / f"eval_{threshold}"))
        reports.append(open(path, "rb").read())
    assert reports[0] == reports[1]


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
            g = max_rsrp_graph(dep)
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


def test_eval_blanks_and_excludes_zero_baselines(tmp_path, monkeypatch):
    """A zero baseline metric leaves that deployment's gain blank; both
    aggregate rows count it in ``excluded_<metric>`` and are taken over the
    other deployments only."""
    baselines = []

    def baseline(dep):
        baselines.append(max_rsrp_graph(dep))
        return baselines[-1]

    def on_baselines(metric, zeroed):
        """``metric`` on policy graphs; on baseline i, 0 when i is in
        ``zeroed``, else scaled by 1 + i / 10 so every gain differs."""
        def patched(g, *args):
            i = next((i for i, b in enumerate(baselines) if b is g), None)
            if i is None:
                return metric(g, *args)
            return 0.0 if i in zeroed else metric(g, *args) * (1.0 + i / 10)
        return patched

    n = 5
    zeroed = {"throughput": set(), "coverage": {1, 3}, "jain": set(range(n))}
    monkeypatch.setattr(cli, "max_rsrp_graph", baseline)
    monkeypatch.setattr(cli, "sum_throughput", on_baselines(sum_throughput, zeroed["throughput"]))
    monkeypatch.setattr(cli, "coverage", on_baselines(coverage, zeroed["coverage"]))
    monkeypatch.setattr(cli, "jain_index", on_baselines(jain_index, zeroed["jain"]))
    cfg = config_from_dict(micro_doc(n_eval_deployments=n))
    report = read_report(cmd_eval(cfg, stub_model(tmp_path), str(tmp_path)))
    deps = [r for r in report if r["row_type"] == "deployment"]
    aggs = {r["stat"]: r for r in report if r["row_type"] == "aggregate"}
    assert len(baselines) == len(deps) == n and set(aggs) == {"median", "mean"}
    for m, zero in zeroed.items():
        for i, r in enumerate(deps):
            assert (r[f"gain_{m}_pct"] == "") == (i in zero)
            assert (float(r[f"baseline_{m}"]) == 0.0) == (i in zero)
        kept = [float(r[f"gain_{m}_pct"]) for i, r in enumerate(deps) if i not in zero]
        assert len(set(kept)) == len(kept)
        for stat, fn in (("median", statistics.median), ("mean", statistics.fmean)):
            assert aggs[stat][f"excluded_{m}"] == str(len(zero))
            assert aggs[stat][f"gain_{m}_pct"] == (repr(fn(kept)) if kept else "")


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
    for command in ("train", "generate"):  # a negative seed is refused before any work
        assert main([command, "--seed", "-3", "--out", str(tmp_path / "run")]) == 1
        assert "seed >= 0" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_main_runtime_errors_exit_2(tmp_path, capsys):
    cfg_path = write_config(tmp_path, micro_doc())
    rc = main(["eval", "--config", cfg_path, "--model",
               str(tmp_path / "no-model.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_main_serve_malformed_endpoint_exits_1_before_reading_files(tmp_path, capsys):
    for endpoint in ("localhost", "localhost:", ":7000", "localhost:http", "127.0.0.1:65536"):
        rc = main(["serve", "--model", str(tmp_path / "no-model.json"),
                   "--deployment", str(tmp_path / "no-dep.json"), "--endpoint", endpoint])
        err = capsys.readouterr().err
        assert rc == 1, (endpoint, err)
        assert repr(endpoint) in err and "no-model" not in err


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
    write the training deployment file."""
    cfg_path = write_config(tmp_path, micro_doc(n_train_deployments=1,
                                                n_eval_deployments=1))
    proc = subprocess.run(
        command + ["generate", "--config", cfg_path, "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert os.path.isfile(tmp_path / "o" / "deployments" / "train" / "dep_0.json")


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


def test_module_entry_point_serves_tcp_clients_side_by_side_and_exits_on_sigint(tmp_path):
    model, dep = str(tmp_path / "model.json"), str(tmp_path / "dep.json")
    save_model(init_params(8, 2, 8, 0.3), model)
    save_deployment(generate_deployment(41, 2, 4), dep)
    with socket.socket() as probe:  # a port that is free now
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen([sys.executable, "-m", "cellconn", "serve", "--model", model,
                             "--deployment", dep, "--endpoint", f"127.0.0.1:{port}"],
                            stderr=subprocess.PIPE, text=True, env=_child_env())
    try:
        deadline = time.monotonic() + 60
        while True:  # wait until the service listens
            try:
                idle = socket.create_connection(("127.0.0.1", port), timeout=3)
                break
            except ConnectionRefusedError:
                assert proc.poll() is None and time.monotonic() < deadline, "never listened"
                time.sleep(0.05)
        with idle, socket.create_connection(("127.0.0.1", port), timeout=3) as second:
            second.sendall(b'{"type": "handover", "ue": 0, "rsrp_dbm": {"0": -60.0}}\n')
            assert b"assignments" in second.makefile("rb").readline()
            proc.send_signal(signal.SIGINT)  # both connections still open
            assert proc.wait(timeout=5) == 2
    finally:
        proc.kill()
        proc.communicate()


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
