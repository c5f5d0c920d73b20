"""Handover service tests: subgraph extraction, event handling, baseline, wire loop."""

import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellconn.netmodel as netmodel
from cellconn.dqn import TrainConfig, train
from cellconn.gnn import GnnParams, init_params
from cellconn.graph import UNASSIGNED, UeClass, capacity_matrix, classify_ues, initial_graph
from cellconn.metrics import sum_throughput
from cellconn.netmodel import (MeasurementReport, generate_deployment,
                               measurement_report)
from cellconn.xapp import (HandoverEvent, extract_subgraph, handle_event,
                           max_rsrp_graph, serve_stream)

from conftest import deployment_with_rsrp, make_deployment, make_graph


def zeros_params(n_layers: int = 2, width: int = 4) -> GnnParams:
    w1 = [np.zeros((2 if l == 0 else width, width)) for l in range(n_layers)]
    return GnnParams(w1=w1, w2=[np.zeros_like(w) for w in w1],
                     w3=[np.zeros_like(w) for w in w1],
                     w4=np.zeros((width, width)), w5=np.zeros(width))


def event_for(dep, ue: int) -> HandoverEvent:
    return HandoverEvent(ue=ue, report=measurement_report(dep, ue))


def line_adjacency(n: int) -> np.ndarray:
    adj = np.zeros((n, n))
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = 1.0
    return adj


def report(ue: int, cells: tuple[int, ...]) -> MeasurementReport:
    return MeasurementReport(ue=ue, cells=cells,
                             rsrp_dbm=tuple(-60.0 - i for i in range(len(cells))))


# ------------------------------------------------------------- subgraphs ---

def test_subgraph_fully_connected_keeps_all_cells():
    adj = 1.0 - np.eye(4)
    g = make_graph(4, [0, 1, 2], cell_adj=adj)
    ev = HandoverEvent(ue=0, report=report(0, (2,)))
    sub = extract_subgraph(g, ev, hops=2)
    assert sub.kept_cells == (0, 1, 2, 3)
    assert sub.kept_ues == (0, 1, 2)


def test_subgraph_isolated_cell():
    g = make_graph(3, [0, 1, 1, 2, None])
    ev = HandoverEvent(ue=4, report=report(4, (1,)))
    sub = extract_subgraph(g, ev, hops=2)
    assert sub.kept_cells == (1,)
    assert sub.kept_ues == (1, 2, 4)  # cell 1's UEs plus the event UE
    # embedded assignment: both served UEs point at local cell 0, event UE free
    assert sub.graph.assign.tolist() == [0, 0, UNASSIGNED]


def test_subgraph_line_graph_bfs_depth():
    g = make_graph(4, [0, 3], cell_adj=line_adjacency(4))
    ev = HandoverEvent(ue=0, report=report(0, (0,)))
    assert extract_subgraph(g, ev, hops=1).kept_cells == (0, 1)
    assert extract_subgraph(g, ev, hops=2).kept_cells == (0, 1, 2)
    assert extract_subgraph(g, ev, hops=3).kept_cells == (0, 1, 2, 3)


def test_subgraph_monotone_in_hops(rng):
    n = 6
    adj = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            adj[i, k] = adj[k, i] = float(rng.random() < 0.4)
    g = make_graph(n, [int(rng.integers(0, n)) for _ in range(8)], cell_adj=adj)
    ev = HandoverEvent(ue=2, report=report(2, (4, 0)))
    prev: set[int] = set()
    for hops in (1, 2, 3, 4):
        kept = set(extract_subgraph(g, ev, hops).kept_cells)
        assert {4, 0} <= kept          # superset of the reported cells
        assert prev <= kept            # nondecreasing in the hop budget
        prev = kept


def test_subgraph_index_maps_round_trip():
    g = make_graph(4, [0, 0, 2, None, 2, 1], cell_adj=line_adjacency(4))
    ev = HandoverEvent(ue=3, report=report(3, (2,)))
    sub = extract_subgraph(g, ev, hops=1)
    # local index i is position i: local cells map back to the global ones
    for i, u in enumerate(sub.kept_ues):
        if sub.graph.assign[i] != UNASSIGNED:
            assert sub.kept_cells[sub.graph.assign[i]] == g.assign[u]
    assert sub.graph.n_cells == len(sub.kept_cells)
    assert sub.graph.n_ues == len(sub.kept_ues)
    # every kept UE is either the event UE or served by a kept cell
    for u in sub.kept_ues:
        assert u == ev.ue or g.assign[u] in set(sub.kept_cells)


def reference_subgraph(g, ev: HandoverEvent, hops: int):
    """Set-based BFS over cells, then the UEs served by a kept cell plus the
    event UE, with their local assignment and the kept cells' adjacency."""
    keep = set(ev.report.cells)
    frontier = set(keep)
    for _ in range(hops):
        frontier = {k for c in frontier for k in range(g.n_cells)
                    if g.cell_adj[c, k]} - keep
        keep |= frontier
    cells = sorted(keep)
    ues = sorted({u for u in range(g.n_ues) if g.assign[u] in keep} | {ev.ue})
    local = [cells.index(g.assign[u]) if g.assign[u] in keep else UNASSIGNED
             for u in ues]
    adj = [[g.cell_adj[a, b] for b in cells] for a in cells]
    return tuple(cells), tuple(ues), local, adj


def test_subgraph_matches_reference_on_random_graphs():
    rng = np.random.default_rng(7)
    seen = {"hops0": 0, "unassigned": 0, "event_outside": 0}
    for _ in range(300):
        n_cells, n_ues = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        adj = np.triu((rng.random((n_cells, n_cells)) < 0.3).astype(float), 1)
        assign = rng.integers(-1, n_cells, size=n_ues).tolist()
        g = make_graph(n_cells, [None if a < 0 else a for a in assign], cell_adj=adj + adj.T)
        ue = int(rng.integers(n_ues))
        hops = int(rng.integers(0, 4))
        cells = tuple(rng.integers(0, n_cells, size=int(rng.integers(1, 4))).tolist())
        ev = HandoverEvent(ue=ue, report=report(ue, cells))
        sub = extract_subgraph(g, ev, hops)
        want_cells, want_ues, want_local, want_adj = reference_subgraph(g, ev, hops)
        assert sub.kept_cells == want_cells
        assert sub.kept_ues == want_ues
        assert sub.graph.assign.tolist() == want_local
        assert sub.graph.cell_adj.tolist() == want_adj
        seen["hops0"] += hops == 0
        seen["unassigned"] += UNASSIGNED in assign
        seen["event_outside"] += assign[ue] >= 0 and assign[ue] not in want_cells
    assert min(seen.values()) > 0


def test_subgraph_rejects_bad_events():
    g = make_graph(2, [0, 1, None])
    with pytest.raises(ValueError):
        extract_subgraph(g, HandoverEvent(ue=9, report=report(9, (0,))), 2)
    with pytest.raises(ValueError):
        extract_subgraph(g, HandoverEvent(ue=0, report=report(0, ())), 2)


# ----------------------------------------------------------- event logic ---

def test_handle_event_zero_params_completes_assignment():
    dep = generate_deployment(11, 2, 4)
    g0, reshuffled = initial_graph(dep, 3.0, 250.0)
    ue = reshuffled[0] if reshuffled else 0
    ev = event_for(dep, ue)
    pairs = handle_event(zeros_params(), dep, g0, ev, frozenset(reshuffled))
    ues = [u for u, _ in pairs]
    assert ue in ues
    assert ues == sorted(ues) and len(set(ues)) == len(ues)
    want = {u for u in set(reshuffled) | {ue}}
    assert set(ues) == want  # 2-cell network: the subgraph sees everyone
    for _, c in pairs:
        assert 0 <= c < dep.n_cells
    # deterministic
    assert handle_event(zeros_params(), dep, g0, ev, frozenset(reshuffled)) == pairs


def test_handle_event_single_candidate_forced():
    rsrp = np.array([[-60.0, -100.0],
                     [-80.0, -70.0]])
    dep = deployment_with_rsrp(rsrp)
    g0, reshuffled = initial_graph(dep, 3.0, 250.0)
    assert reshuffled == ()  # both UEs are comfortably single-cell dominant
    ev = HandoverEvent(ue=1, report=report(1, (1,)))
    assert handle_event(zeros_params(), dep, g0, ev, frozenset()) == [(1, 1)]


def test_handle_event_leaves_settled_ues_alone():
    p = init_params(4, 2, 8, 0.3)
    for seed in range(6):
        dep = generate_deployment(30 + seed, 2, 4)
        g0, reshuffled = initial_graph(dep, 3.0, 250.0)
        labels = classify_ues(dep, 3.0)
        ue = reshuffled[0] if reshuffled else 0
        pairs = handle_event(p, dep, g0, event_for(dep, ue), frozenset(reshuffled))
        touched = {u for u, _ in pairs}
        for u in range(dep.n_ues):
            if u != ue and labels[u] is UeClass.CELL_CENTER:
                assert u not in touched


def test_handle_event_report_outside_subgraph_falls_back():
    # five isolated cells; UE 0 is cell-edge between cells 1 and 2 and never
    # reports cell 0, yet it sits in cell 0's subgraph because it is currently
    # served there -> its only option is the strongest kept cell, i.e. cell 0.
    rsrp = np.array([[-90.0, -60.0],
                     [-60.0, -80.0],
                     [-60.5, -80.0],
                     [-70.0, -80.0],
                     [-71.0, -80.0]])
    dep = deployment_with_rsrp(rsrp, cells=[(1000.0 * i, 0.0) for i in range(5)])
    assert measurement_report(dep, 0).cells == (1, 2, 3, 4)
    g = make_graph(5, [0, None])
    ev = HandoverEvent(ue=1, report=report(1, (0,)))
    _, edge = initial_graph(dep)
    assert edge == (0,)
    pairs = handle_event(zeros_params(), dep, g, ev, frozenset(edge))
    assert pairs == [(0, 0), (1, 0)]


def test_handle_event_trained_model_beats_or_ties_baseline():
    cfg = TrainConfig(reward_kind="throughput", seed=3, epsilon=1.0, alpha=0.001,
                      gamma=1.0, init_std=0.3, edge_threshold_db=float("inf"))
    p, _ = train(cfg, [generate_deployment(1000 + i, 2, 4) for i in range(400)])
    at_least_as_good = 0
    n_events = 50
    for i in range(n_events):
        dep = generate_deployment(90_000 + i, 2, 4)
        cap = capacity_matrix(dep)
        g0, reshuffled = initial_graph(dep, 3.0, 250.0)
        ue = reshuffled[0] if reshuffled else 0
        pairs = handle_event(p, dep, g0, event_for(dep, ue), frozenset(reshuffled))
        assign = g0.assign.copy()
        for u, c in pairs:
            assign[u] = c
        g = dataclasses.replace(g0, assign=assign)
        base = sum_throughput(max_rsrp_graph(dep), cap)
        if sum_throughput(g, cap) >= base - 1e-12:
            at_least_as_good += 1
    assert at_least_as_good >= n_events // 2


# -------------------------------------------------------------- baseline ---

def test_max_rsrp_picks_strongest_with_index_ties():
    rsrp = np.array([[-60.0, -65.0, -90.0],
                     [-70.0, -65.0, -85.0],
                     [-80.0, -90.0, -70.0]])
    dep = deployment_with_rsrp(rsrp)
    assert max_rsrp_graph(dep).assign.tolist() == [0, 0, 2]


def test_max_rsrp_subset_and_independence():
    dep = generate_deployment(17, 3, 6)
    full = max_rsrp_graph(dep).assign
    assert full.shape == (dep.n_ues,) and UNASSIGNED not in full
    some = make_deployment(dep.cells, dep.ues[[4, 1]], dep.shadow_db[:, [4, 1]],
                           radio=dep.radio)
    assert max_rsrp_graph(some).assign.tolist() == [full[4], full[1]]


def test_max_rsrp_permutation_equivariant(rng):
    dep = generate_deployment(23, 3, 7)
    perm = rng.permutation(dep.n_ues)
    permuted = make_deployment(dep.cells, dep.ues[perm],
                               dep.shadow_db[:, perm], radio=dep.radio)
    base = max_rsrp_graph(dep).assign
    for new_u, old_u in enumerate(perm):
        assert max_rsrp_graph(permuted).assign[new_u] == base[int(old_u)]


def test_max_rsrp_graph_matches_argmax():
    dep = generate_deployment(29, 4, 9)
    from cellconn.netmodel import rsrp_matrix_dbm
    g = max_rsrp_graph(dep)
    assert np.array_equal(g.assign, np.argmax(rsrp_matrix_dbm(dep), axis=0))


# ------------------------------------------------------------- wire loop ---

def run_lines(lines: list[str], dep=None, p=None) -> list[dict]:
    dep = dep or generate_deployment(41, 2, 4)
    p = p or zeros_params()
    out = io.StringIO()
    handled = serve_stream(p, dep, io.StringIO("".join(l + "\n" for l in lines)), out)
    assert handled == len(lines)
    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    assert len(replies) == len(lines)
    return replies


def test_serve_stream_answers_valid_request():
    req = json.dumps({"type": "handover", "ue": 0,
                      "rsrp_dbm": {"0": -60.0, "1": -62.0}})
    reply = run_lines([req])[0]
    assert reply["ue"] == 0
    ues = [a["ue"] for a in reply["assignments"]]
    assert 0 in ues
    assert reply["latency_us"] >= 0


def test_serve_stream_survives_malformed_lines():
    good = json.dumps({"type": "handover", "ue": 1,
                       "rsrp_dbm": {"0": -61.0, "1": -64.5}})
    replies = run_lines(["{not json", good])
    assert "error" in replies[0] and "bad JSON" in replies[0]["error"]
    assert replies[1]["ue"] == 1


def test_serve_stream_validation_errors():
    mk = lambda **kw: json.dumps(kw)
    replies = run_lines([
        "",                                                        # blank line
        mk(type="measurement", ue=0, rsrp_dbm={"0": -60}),         # wrong type
        mk(type="handover", ue=99, rsrp_dbm={"0": -60}),           # unknown UE
        mk(type="handover", ue=0, rsrp_dbm={"7": -60}),            # unknown cell
        mk(type="handover", ue=0, rsrp_dbm={}),                    # empty report
        mk(type="handover", ue=0, rsrp_dbm={"0": "loud"}),         # non-numeric
        json.dumps([1, 2, 3]),                                     # not an object
        mk(type="handover", ue=0, rsrp_dbm={"0": float("nan")}),   # NaN
        mk(type="handover", ue=0, rsrp_dbm={"0": float("inf")}),   # Infinity
        mk(type="handover", ue=0, rsrp_dbm={"0": -float("inf")}),  # -Infinity
        mk(type="handover", ue=0, rsrp_dbm={"0": 10 ** 400}),      # beyond float
        mk(type="handover", ue=0, rsrp_dbm={"1": -60, "01": -61}), # cell named twice
    ])
    assert all("error" in r for r in replies)


def test_serve_stream_replay_is_deterministic():
    req = json.dumps({"type": "handover", "ue": 2,
                      "rsrp_dbm": {"1": -59.0, "0": -61.0}})
    first, second = run_lines([req, req], p=init_params(8, 2, 8, 0.3))
    assert first["assignments"] == second["assignments"]
    assert first["ue"] == second["ue"] == 2


def test_serve_stream_survives_deeply_nested_line():
    good = json.dumps({"type": "handover", "ue": 1,
                       "rsrp_dbm": {"0": -61.0, "1": -64.5}})
    replies = run_lines(["[" * 100_000, good])
    assert "bad JSON" in replies[0]["error"]
    assert replies[1]["ue"] == 1 and replies[1]["assignments"]


def test_serve_stream_answers_invalid_utf8_line():
    good = json.dumps({"type": "handover", "ue": 1,
                       "rsrp_dbm": {"0": -61.0, "1": -64.5}}).encode()
    rfile = io.TextIOWrapper(io.BytesIO(b"\xff\xfe\n" + good + b"\n"), encoding="utf-8")
    out = io.StringIO()
    assert serve_stream(zeros_params(), generate_deployment(41, 2, 4), rfile, out) == 2
    replies = [json.loads(l) for l in out.getvalue().splitlines()]
    assert len(replies) == 2
    assert "error" in replies[0]
    assert replies[1]["ue"] == 1 and replies[1]["assignments"]


VALID_LINE = json.dumps({"type": "handover", "ue": 2,
                         "rsrp_dbm": {"1": -59.0, "0": -61.0}}).encode()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.binary(max_size=40), st.just(VALID_LINE)), max_size=6))
def test_serve_stream_one_reply_per_byte_line(lines):
    lines = [l.replace(b"\n", b"") for l in lines]
    rfile = io.TextIOWrapper(io.BytesIO(b"".join(l + b"\n" for l in lines)), encoding="utf-8")
    out = io.StringIO()
    assert serve_stream(zeros_params(), generate_deployment(41, 2, 4), rfile, out) == len(lines)
    assert len(out.getvalue().splitlines()) == len(lines)


def test_serve_stream_never_recomputes_distances(monkeypatch):
    dep = generate_deployment(41, 3, 12)
    calls = []
    real = netmodel.distance_3d_m
    monkeypatch.setattr(netmodel, "distance_3d_m",
                        lambda d: calls.append(1) or real(d))
    lines = [json.dumps({"type": "handover", "ue": ue,
                         "rsrp_dbm": {str(c): v for c, v in
                                      zip(r.cells, r.rsrp_dbm)}})
             for ue in range(10) for r in [measurement_report(dep, ue)]]
    replies = run_lines(lines, dep=dep, p=init_params(8, 2, 8, 0.3))
    assert all("assignments" in r for r in replies)
    assert calls == []
