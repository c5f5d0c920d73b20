"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Every test prints exactly one line of the form

    ACCEPTANCE <n> <name>: PASS|FAIL (<measurements>)

before asserting, so the verdict is visible in captured output whether the
test passes or fails.  Tolerances are pinned in the assertions.

Known red: criterion 5's fairness branch.  The fairness-bonus step reward
(throughput change plus a per-cell weakest-link bonus) is maximized by
concentrating the weakest users on a single sacrificial cell; that raises
total throughput but lowers the 5th-percentile user rate and the
load-balance index, so a correctly trained policy cannot also deliver the
strictly positive coverage/fairness gains the criterion demands.  The test
states the requirement faithfully instead of weakening it; see the
assertion output for the measured numbers.
"""

import io
import itertools
import json
import math
import statistics

import numpy as np

from cellconn.cli import cmd_eval, cmd_train, config_from_dict
from cellconn.dqn import TrainConfig, deployment_state, greedy_rollout, run_episode, train
from cellconn.gnn import forward, init_params
from cellconn.graph import (UNASSIGNED, ConnectionGraph, capacity_matrix,
                            input_features)
from cellconn.metrics import (coverage, fair_bonus, jain_index, reward_fair,
                              reward_throughput, sum_throughput)
from cellconn.netmodel import generate_deployment
from cellconn.xapp import max_rsrp_graph, serve_stream

from conftest import UtilityWeights, make_graph, utility
from test_gnn import (finite_difference_check, random_instance, random_params,
                      zeros_params)


def verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


# -------------------------------------------------------------------------
def test_criterion_1_gradients_match_finite_differences():
    """Analytic score gradients vs central differences on random instances."""
    rng = np.random.default_rng(101)
    worst, total = 0.0, 0
    for _ in range(20):
        n, m = int(rng.integers(2, 7)), int(rng.integers(3, 16))
        g, cap, feats = random_instance(rng, n=n, m=m)
        p = random_params(rng, n_layers=2, width=8)
        w, checked = finite_difference_check(p, g, feats, h=1e-5, grad_floor=1e-8)
        worst = max(worst, w)
        total += checked
    ok = total > 0 and worst < 1e-4
    line = verdict(1, "analytic gradient matches finite differences", ok,
                   f"20 instances, {total} entries checked, worst rel err "
                   f"{worst:.2e}, tolerance 1e-4")
    assert ok, line


# -------------------------------------------------------------------------
def test_criterion_2_score_invariant_under_relabeling():
    """The action score must not depend on how cells or UEs are numbered."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(4):
        g, cap, _ = random_instance(rng)
        p = random_params(rng)
        base = forward(p, g, input_features(g, cap)).score
        for _ in range(50):
            cp = rng.permutation(g.n_cells)
            up = rng.permutation(g.n_ues)
            inv = np.empty(g.n_cells, dtype=np.int64)
            inv[cp] = np.arange(g.n_cells)
            assign = np.array([UNASSIGNED if g.assign[u] == UNASSIGNED
                               else inv[g.assign[u]] for u in up], dtype=np.int64)
            pg = ConnectionGraph(cell_adj=g.cell_adj[np.ix_(cp, cp)],
                                 assign=assign)
            pcap = cap[np.ix_(cp, up)]
            score = forward(p, pg, input_features(pg, pcap)).score
            worst = max(worst, abs(score - base))
    ok = worst < 1e-9
    line = verdict(2, "score invariant under node relabeling", ok,
                   f"4 instances x 50 relabelings, worst |dQ| {worst:.2e}, "
                   f"tolerance 1e-9")
    assert ok, line


# -------------------------------------------------------------------------
def test_criterion_3_metric_examples_exact():
    """Frozen hand-computed values for every pinned metric/reward example."""
    checks: list[tuple[str, float, float]] = []

    def add(name: str, got: float, want: float) -> None:
        checks.append((name, got, want))

    one_cell = make_graph(1, [0, 0])
    cap42 = np.array([[4.0, 2.0]])
    add("throughput shared cell", sum_throughput(one_cell, cap42), 3.0)
    add("throughput no assignment", sum_throughput(make_graph(1, [None, None]), cap42), 0.0)
    add("throughput two singleton cells",
        sum_throughput(make_graph(2, [0, 1]), np.array([[5.0, 9.0], [9.0, 3.0]])), 8.0)

    rates20 = np.arange(1.0, 21.0).reshape(1, 20)
    add("coverage 20 ues takes smallest",
        coverage(make_graph(1, [0] * 20), rates20 * 20.0), 1.0)
    rates40 = np.arange(1.0, 41.0).reshape(1, 40)
    add("coverage 40 ues takes 2nd smallest",
        coverage(make_graph(1, [0] * 40), rates40 * 40.0), 2.0)
    add("coverage single ue", coverage(make_graph(1, [0]), np.array([[3.3]])), 3.3)

    add("jain balanced", jain_index(make_graph(3, [0, 0, 1, 1, 2, 2])), 1.0)
    add("jain one loaded cell of three", jain_index(make_graph(3, [0, 0, 0, 0])), 1.0 / 3.0)
    add("jain loads 3-1-0-0", jain_index(make_graph(4, [0, 0, 0, 1])), 0.4)

    w_th = UtilityWeights(throughput=1.0, coverage=0.0, fairness=0.0)
    add("utility throughput-only", utility(one_cell, cap42, w_th),
        sum_throughput(one_cell, cap42))
    w_j = UtilityWeights(throughput=0.0, coverage=0.0, fairness=1.0)
    add("utility fairness-only balanced", utility(make_graph(2, [0, 1]), cap42, w_j), 1.0)
    w_all = UtilityWeights(throughput=1.0, coverage=1.0, fairness=1.0)
    add("utility all-ones hand sum", utility(one_cell, cap42, w_all), 5.0)

    empty = make_graph(1, [None])
    first = make_graph(1, [0])
    add("reward first ue", reward_throughput(empty, first, np.array([[4.0]])), 4.0)
    crowd_prev = make_graph(1, [0, None])
    crowd_next = make_graph(1, [0, 0])
    add("reward joining dilutes",
        reward_throughput(crowd_prev, crowd_next, np.array([[4.0, 2.0]])), -1.0)
    zero_join = reward_throughput(crowd_prev, crowd_next, np.array([[4.0, 0.0]]))
    add("reward zero-capacity join nonpositive", min(zero_join, 0.0), zero_join)

    add("fair reward lambda zero",
        reward_fair(crowd_prev, crowd_next, np.array([[4.0, 2.0]]), 0.0),
        reward_throughput(crowd_prev, crowd_next, np.array([[4.0, 2.0]])))
    add("fair reward single link", reward_fair(empty, first, np.array([[4.0]]), 1.0), 8.0)
    add("fair bonus min drop 4 to 1 (before)",
        fair_bonus(crowd_prev, np.array([[4.0, 1.0]]), 1.0), 4.0)
    add("fair bonus min drop 4 to 1 (after)",
        fair_bonus(crowd_next, np.array([[4.0, 1.0]]), 1.0), 1.0)

    bad = [(n, g, w) for n, g, w in checks
           if not math.isclose(g, w, rel_tol=1e-12, abs_tol=1e-12)]
    ok = not bad
    detail = (f"{len(checks)} examples exact at 1e-12" if ok
              else f"mismatches: {[(n, g, w) for n, g, w in bad]}")
    line = verdict(3, "metric and reward examples exact", ok, detail)
    assert ok, line


# -------------------------------------------------------------------------
def _kind_utility(kind: str, g: ConnectionGraph, cap: np.ndarray) -> float:
    u = sum_throughput(g, cap)
    if kind == "fair":
        u += fair_bonus(g, cap, 0.5)
    return u


def test_criterion_4_policy_near_exhaustive_optimum_on_micro_instances():
    """Two-cell / four-UE training where the true optimum is enumerable."""
    ratios = {}
    for kind in ("throughput", "fair"):
        cfg = TrainConfig(reward_kind=kind, seed=3, edge_threshold_db=float("inf"),
                          epsilon=1.0, alpha=0.001, gamma=1.0, init_std=0.3)
        params, _ = train(cfg, [generate_deployment(1000 + i, 2, 4)
                                for i in range(5000)])
        policy_u, optimum_u = [], []
        for i in range(100):
            dep = generate_deployment(90_000 + i, 2, 4)
            cap = capacity_matrix(dep)
            g = greedy_rollout(params, deployment_state(dep, cfg))
            policy_u.append(_kind_utility(kind, g, cap))
            best = -math.inf
            for assign in itertools.product(range(2), repeat=4):
                cand = ConnectionGraph(cell_adj=np.zeros((2, 2)),
                                       assign=np.array(assign, dtype=np.int64))
                best = max(best, _kind_utility(kind, cand, cap))
            optimum_u.append(best)
        ratios[kind] = statistics.median(policy_u) / statistics.median(optimum_u)
    ok = all(r >= 0.95 for r in ratios.values())
    line = verdict(4, "policy reaches 95% of exhaustive optimum", ok,
                   f"median-utility ratio: throughput {ratios['throughput']:.4f}, "
                   f"fair {ratios['fair']:.4f}, threshold 0.95")
    assert ok, line


# -------------------------------------------------------------------------
def _desk_gains(kind: str) -> dict[str, float]:
    cfg = TrainConfig(reward_kind=kind, lambda_fair=0.5, seed=3, epsilon=1.0,
                      alpha=0.001, gamma=1.0, init_std=0.3)
    params, _ = train(cfg, [generate_deployment(1000 + i, 6, 30)
                            for i in range(200)])
    gains: dict[str, list[float]] = {"throughput": [], "coverage": [], "jain": []}
    for i in range(50):
        dep = generate_deployment(1_000_000 + i, 6, 30)
        cap = capacity_matrix(dep)
        g = greedy_rollout(params, deployment_state(dep, cfg))
        b = max_rsrp_graph(dep)
        gains["throughput"].append(
            100.0 * (sum_throughput(g, cap) - sum_throughput(b, cap))
            / sum_throughput(b, cap))
        gains["coverage"].append(
            100.0 * (coverage(g, cap) - coverage(b, cap)) / coverage(b, cap))
        gains["jain"].append(
            100.0 * (jain_index(g) - jain_index(b)) / jain_index(b))
    return {m: statistics.median(v) for m, v in gains.items()}


def test_criterion_5_desk_scale_gains_over_strongest_signal_baseline():
    """200-deployment (6 cells, 30 UEs) training vs the max-signal baseline.

    Throughput branch: median throughput gain >= 0% — passes.
    Fairness branch: strictly positive median coverage and load-balance
    gains with throughput >= -2% — fails by construction (see module
    docstring): the pinned reward's optimum sacrifices exactly those two
    metrics, and every probed hyperparameter setting lands there.
    """
    fair = _desk_gains("fair")
    thr = _desk_gains("throughput")
    ok = (fair["coverage"] > 0.0 and fair["jain"] > 0.0
          and fair["throughput"] >= -2.0 and thr["throughput"] >= 0.0)
    line = verdict(
        5, "desk-scale gains over max-signal baseline", ok,
        f"fair-trained medians: throughput {fair['throughput']:+.2f}% (need >= -2), "
        f"coverage {fair['coverage']:+.2f}% (need > 0), "
        f"jain {fair['jain']:+.2f}% (need > 0); "
        f"throughput-trained median: throughput {thr['throughput']:+.2f}% (need >= 0)")
    assert ok, line


# -------------------------------------------------------------------------
def test_criterion_6_episode_return_telescopes_to_utility_difference():
    """Sum of throughput step rewards == final minus initial total rate."""
    rng = np.random.default_rng(606)
    worst = 0.0
    for i in range(100):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(4, 13))
        dep = generate_deployment(7000 + i, n, m)
        cfg = TrainConfig(reward_kind="throughput", edge_threshold_db=float("inf"))
        state = deployment_state(dep, cfg)
        u0 = sum_throughput(state.graph, state.cap)
        _, ep_return, _, final = run_episode(
            init_params(i + 1, 2, 8, 0.3), cfg, state, buffer=None,
            rng=np.random.default_rng(i), epsilon=1.0)
        diff = sum_throughput(final, state.cap) - u0
        worst = max(worst, abs(ep_return - diff) / max(1.0, abs(diff)))
    ok = worst <= 1e-12
    line = verdict(6, "episode return telescopes exactly", ok,
                   f"100 random episodes, worst relative gap {worst:.2e}, "
                   f"tolerance 1e-12")
    assert ok, line


# -------------------------------------------------------------------------
def test_criterion_7_train_and_eval_runs_are_byte_identical(tmp_path):
    """Same seeds in, byte-identical model/log/report artifacts out, twice."""
    cfg = config_from_dict({
        "n_cells_list": [2], "n_ues_list": [4],
        "n_train_deployments": 30, "n_eval_deployments": 6, "seed": 11,
        "train": {"reward_kind": "fair", "alpha": 0.001, "epsilon": 0.5,
                  "init_std": 0.3}})
    blobs = []
    for run in ("r1", "r2"):
        out = str(tmp_path / run)
        model_path, log_path = cmd_train(cfg, out)
        report_path = cmd_eval(cfg, model_path, out)
        blobs.append(tuple(open(p, "rb").read()
                           for p in (model_path, log_path, report_path)))
    same = [a == b for a, b in zip(*blobs)]
    ok = all(same)
    line = verdict(7, "training and evaluation byte-identical across runs", ok,
                   f"model/log/report identical: {same}")
    assert ok, line


# -------------------------------------------------------------------------
def test_criterion_8_service_answers_every_line_of_mixed_stream():
    """1000 interleaved valid and malformed requests, one reply per line."""
    dep = generate_deployment(88, 2, 4)
    rng = np.random.default_rng(808)
    lines = []
    for _ in range(1000):
        roll = rng.random()
        if roll < 0.55:
            ue = int(rng.integers(0, 4))
            lines.append(json.dumps({
                "type": "handover", "ue": ue,
                "rsrp_dbm": {"0": float(-60 - rng.random() * 10),
                             "1": float(-60 - rng.random() * 10)}}))
        elif roll < 0.7:
            lines.append("{broken json" + "x" * int(rng.integers(0, 5)))
        elif roll < 0.8:
            lines.append(json.dumps({"type": "handover", "ue": 99,
                                     "rsrp_dbm": {"0": -60.0}}))
        elif roll < 0.9:
            lines.append(json.dumps({"type": "noise", "ue": 1}))
        else:
            lines.append("")
    out = io.StringIO()
    handled = serve_stream(zeros_params(), dep,
                           io.StringIO("".join(l + "\n" for l in lines)), out)
    replies = out.getvalue().splitlines()
    parsed = [json.loads(r) for r in replies]
    answered = sum(1 for r in parsed if "assignments" in r)
    errored = sum(1 for r in parsed if "error" in r)
    ok = (handled == 1000 and len(replies) == 1000
          and answered + errored == 1000 and answered > 0 and errored > 0)
    line = verdict(8, "service answers every request line", ok,
                   f"1000 lines -> {len(replies)} replies "
                   f"({answered} assignments, {errored} errors), no crash")
    assert ok, line
