"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import os
import statistics

import numpy as np
import pytest

import checks
import inputs
import run
import tracer as tracer_mod
from cellconn import dqn
from cellconn.gnn import load_model
from cellconn.netmodel import generate_deployment

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def bench_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch):
    """Shrink deployments and training calls so a whole run takes seconds."""
    monkeypatch.setitem(inputs.SERVE_SIZES, "serve-dense", (6, 20, 6, 1))
    monkeypatch.setitem(inputs.SERVE_SIZES, "serve-desk-mixed", (4, 12, 3, 2))
    monkeypatch.setattr(inputs, "DENSE_TRACE_HALF", 2)
    monkeypatch.setattr(inputs, "TRAIN_CHUNK", 3)
    monkeypatch.setitem(inputs.EDGE_TOLERANCE, "train", 2.0)


def run_once(workload: str, trace: int, seed: int = 3) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=1, trace=trace,
                              desk_rate=40.0)
    return run.run(args, ROOT)["result"]


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_printed_with_its_unit(tiny, workload, capsys):
    bench = bench_json()
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        assert run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace), "--desk-rate", "40"]) == 0
        lines = capsys.readouterr().out.splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in bench[key]]
        for m in bench[key]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert np.isfinite(got["value"])
            assert any(line.split()[:1] == [m["name"]] and line.endswith(" " + m["unit"])
                       for line in lines[:-1]), m["name"]


def test_traced_call_counts_repeat_exactly(tiny):
    for workload in ("offline-desk", "serve-desk-mixed"):
        a, b = run_once(workload, 1), run_once(workload, 1)
        calls = {k: v["value"] for k, v in a["metrics"].items() if k.endswith(".calls")}
        assert calls == {k: b["metrics"][k]["value"] for k in calls}
        assert calls["xapp.handle_event.calls" if workload != "offline-desk"
                     else "cli.cmd_eval.calls"] > 0


def _truth_and_lines():
    dep = generate_deployment(11, 6, 12)
    truth = inputs.serve_truth(dep)
    ue = 5
    valid = inputs.Line(inputs.handover_line(dep, ue), "valid", ue)
    blank = inputs.Line("", "blank")
    good = json.dumps({"ue": ue, "assignments": [{"ue": ue, "cell": truth.reports[ue][0]}]})
    return truth, [valid, blank], good


def test_dropped_or_wrong_kind_reply_counts_as_failed():
    truth, lines, good = _truth_and_lines()
    err = json.dumps({"error": "empty request line"})
    ok, kinds = checks.check_serve(lines, [[good], [err]], truth)
    assert ok == [True, True] and kinds["blank"] == 1
    cases = {
        "dropped": [[], [err]],
        "doubled": [[good, good], [err]],
        "error for a valid line": [[err], [err]],
        "decision for a malformed line": [[good], [good]],
        "reply missing entirely": [[good]],
    }
    for name, replies in cases.items():
        ok, _ = checks.check_serve(lines, replies, truth)
        assert ok.count(False) == 1, name


def test_decision_outside_the_report_fails():
    truth, lines, _ = _truth_and_lines()
    ue = lines[0].ue
    outside = next(c for c in range(truth.n_cells) if c not in truth.reports[ue])
    doc = {"ue": ue, "assignments": [{"ue": ue, "cell": outside}]}
    assert not checks.decision_ok(doc, ue, truth)
    doc["assignments"][0]["cell"] = truth.n_cells
    assert not checks.decision_ok(doc, ue, truth)


def test_offline_artifact_checks():
    log = "deployment_id,episode,ep_return,u_throughput,u_coverage,u_jain\n1,0,0.5,9.0,0.1,0.8\n"
    assert checks.trainlog_ok(log, 1)
    assert not checks.trainlog_ok(log, 2)
    assert not checks.trainlog_ok(log.replace("0.5", "nan"), 1)
    head = "row_type,n_cells,n_ues,stat,policy_throughput,baseline_throughput\n"
    dep_row = "deployment,6,30,,10.0,8.0\n"
    aggs = "".join(f"aggregate,6,30,{s},,\n" for s in ("median", "mean"))
    assert checks.gainreport_sums(head + dep_row + aggs, [(6, 30)]) == (10.0, 8.0)
    assert checks.gainreport_sums(head + dep_row + aggs, [(6, 30), (6, 50)]) is None


def test_q_evals_per_decision_is_the_mean_legal_action_count():
    params = load_model(run.MODEL)
    dep = generate_deployment(5, 4, 16)
    state = dqn.deployment_state(dep, dqn.TrainConfig())
    counts, s = [], state
    while s.unassigned:
        actions = dqn.legal_actions(s)
        counts.append(len(actions))
        cell, ue = dqn.best_action(params, s, actions)
        s = dqn.EpisodeState(graph=dqn.connect(s.graph, cell, ue),
                             unassigned=tuple(j for j in s.unassigned if j != ue),
                             candidates=s.candidates, cap=s.cap)
    assert len(counts) >= 2
    t = tracer_mod.Tracer()
    t.install()
    try:
        dqn.greedy_rollout(params, state)
    finally:
        t.uninstall()
    m = t.metrics(units=1)
    assert m["dqn.best_action.calls"] == len(counts)
    assert m["dqn.q_evals_per_decision"] == pytest.approx(statistics.fmean(counts))


def test_missing_function_is_reported_absent(monkeypatch):
    import cellconn.netmodel as netmodel
    original = netmodel.rsrp_matrix_dbm
    monkeypatch.delattr(netmodel, "rsrp_dbm")
    t = tracer_mod.Tracer()
    t.install()
    try:
        assert netmodel.rsrp_matrix_dbm is not original
        netmodel.rsrp_matrix_dbm(generate_deployment(1, 2, 3))
    finally:
        t.uninstall()
    assert netmodel.rsrp_matrix_dbm is original
    assert t.absent == ["netmodel.rsrp_dbm"]
    m = t.metrics(units=1)
    assert m["netmodel.rsrp_dbm.calls"] == 0 and m["netmodel.rsrp_matrix_dbm.calls"] == 1


def test_self_time_excludes_children():
    t = tracer_mod.Tracer()
    import cellconn.dqn as d
    params = load_model(run.MODEL)
    state = d.deployment_state(generate_deployment(5, 4, 16), d.TrainConfig())
    t.install()
    try:
        d.greedy_rollout(params, state)
    finally:
        t.uninstall()
    name = tracer_mod.NAMES.index("dqn.greedy_rollout")
    root = [i for i in range(len(t.name)) if t.name[i] == name]
    assert len(root) == 1
    total = t.end[root[0]] - t.start[root[0]]
    assert 0.0 <= t.self_s[name] < total


def test_tail_leaves_ten_samples_above():
    q, value, beyond = run.tail([float(x) for x in range(1, 101)])
    assert (q, beyond) == (90, 10) and value == pytest.approx(90.1)
    q, _, beyond = run.tail([float(x) for x in range(1, 1001)])
    assert (q, beyond) == (90, 100)
    q, _, beyond = run.tail([float(x) for x in range(1, 41)])
    assert (q, beyond) == (76, 10)
    q, _, _ = run.tail([1.0] * 12)
    assert q == 50


def test_refuses_to_run_without_the_program(tmp_path):
    with pytest.raises(run.BenchError):
        run.check_checkout(str(tmp_path))
