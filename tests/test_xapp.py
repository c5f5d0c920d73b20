"""Handover service tests: subgraph extraction, event handling, baseline, wire loop."""

import contextlib
import dataclasses
import io
import json
import select
import socket
import struct
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cellconn.netmodel as netmodel
from cellconn.cli import cmd_train, config_from_dict
from cellconn.dqn import TrainConfig, deployment_state, train
from cellconn.gnn import GnnParams, init_params, load_model, save_model
from cellconn.graph import UNASSIGNED, UeClass, capacity_matrix, classify_ues, initial_graph
from cellconn.metrics import sum_throughput
from cellconn.netmodel import (MeasurementReport, generate_deployment,
                               measurement_report, save_deployment)
from cellconn.xapp import (extract_subgraph, handle_event, max_rsrp_graph, parse_endpoint,
                           serve, serve_stream)

from conftest import deployment_with_rsrp, make_deployment, make_graph


def zeros_params(n_layers: int = 2, width: int = 4) -> GnnParams:
    return GnnParams(n_layers, width)


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
    ev = report(0, (2,))
    sub = extract_subgraph(g, ev, hops=2)
    assert sub.kept_cells == (0, 1, 2, 3)
    assert sub.kept_ues == (0, 1, 2)


def test_subgraph_isolated_cell():
    g = make_graph(3, [0, 1, 1, 2, None])
    ev = report(4, (1,))
    sub = extract_subgraph(g, ev, hops=2)
    assert sub.kept_cells == (1,)
    assert sub.kept_ues == (1, 2, 4)  # cell 1's UEs plus the event UE
    # embedded assignment: both served UEs point at local cell 0, event UE free
    assert sub.graph.assign.tolist() == [0, 0, UNASSIGNED]


def test_subgraph_line_graph_bfs_depth():
    g = make_graph(4, [0, 3], cell_adj=line_adjacency(4))
    ev = report(0, (0,))
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
    ev = report(2, (4, 0))
    prev: set[int] = set()
    for hops in (1, 2, 3, 4):
        kept = set(extract_subgraph(g, ev, hops).kept_cells)
        assert {4, 0} <= kept          # superset of the reported cells
        assert prev <= kept            # nondecreasing in the hop budget
        prev = kept


def test_subgraph_index_maps_round_trip():
    g = make_graph(4, [0, 0, 2, None, 2, 1], cell_adj=line_adjacency(4))
    ev = report(3, (2,))
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


def reference_subgraph(g, ev: MeasurementReport, hops: int):
    """Set-based BFS over cells, then the UEs served by a kept cell plus the
    event UE, with their local assignment and the kept cells' adjacency."""
    keep = set(ev.cells)
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
        ev = report(ue, cells)
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
        extract_subgraph(g, report(9, (0,)), 2)
    with pytest.raises(ValueError):
        extract_subgraph(g, report(0, ()), 2)


# ----------------------------------------------------------- event logic ---

def test_handle_event_zero_params_completes_assignment():
    dep = generate_deployment(11, 2, 4)
    g0, reshuffled = initial_graph(dep, 3.0)
    ue = reshuffled[0] if reshuffled else 0
    ev = measurement_report(dep, ue)
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
    g0, reshuffled = initial_graph(dep, 3.0)
    assert reshuffled == ()  # both UEs are comfortably single-cell dominant
    ev = report(1, (1,))
    assert handle_event(zeros_params(), dep, g0, ev, frozenset()) == [(1, 1)]


def test_handle_event_leaves_settled_ues_alone():
    p = init_params(4, 2, 8, 0.3)
    for seed in range(6):
        dep = generate_deployment(30 + seed, 2, 4)
        g0, reshuffled = initial_graph(dep, 3.0)
        labels = classify_ues(dep, 3.0)
        ue = reshuffled[0] if reshuffled else 0
        pairs = handle_event(p, dep, g0, measurement_report(dep, ue), frozenset(reshuffled))
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
    ev = report(1, (0,))
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
        g0, reshuffled = initial_graph(dep, 3.0)
        ue = reshuffled[0] if reshuffled else 0
        pairs = handle_event(p, dep, g0, measurement_report(dep, ue), frozenset(reshuffled))
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
        mk(type="handover", ue=0, rsrp_dbm={"x": -60}),            # non-integer cell
        mk(type="handover", ue=0, rsrp_dbm={}),                    # empty report
        mk(type="handover", ue=0, rsrp_dbm={"0": "loud"}),         # non-numeric
        json.dumps([1, 2, 3]),                                     # not an object
        mk(type="handover", ue=0, rsrp_dbm={"0": float("nan")}),   # NaN
        mk(type="handover", ue=0, rsrp_dbm={"0": float("inf")}),   # Infinity
        mk(type="handover", ue=0, rsrp_dbm={"0": -float("inf")}),  # -Infinity
        mk(type="handover", ue=0, rsrp_dbm={"0": 10 ** 400}),      # beyond float
        mk(type="handover", ue=0, rsrp_dbm={"1": -60, "01": -61}), # cell named twice
        '{"type": "handover", "ue": 0, "rsrp_dbm": {"1": -60, "1": -70}}',  # key twice
        '{"type": "handover", "ue": 1, "ue": 2, "rsrp_dbm": {"0": -60}}',    # key twice
    ])
    assert all("error" in r for r in replies)
    # int() would read each of the first five keys as a cell of a 12-cell
    # deployment, and refuses the last with a message about its digit limit
    keys = ["1_0", " 3", "+2", "-0", "\u0663", "1" * 5000]
    replies = run_lines([mk(type="handover", ue=0, rsrp_dbm={k: -60}) for k in keys + ["01"]],
                        dep=generate_deployment(41, 12, 20))
    assert [r.get("error") for r in replies[:-1]] == [f"bad cell id {k!r} in rsrp_dbm" for k in keys]
    assert "assignments" in replies[-1]  # leading zeros are fine: "01" names cell 1


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


def test_serve_stream_uses_the_threshold_the_model_was_trained_with(tmp_path):
    # 0 dB leaves no cell-edge UE, so an event may reshuffle only its own UE
    cfg = config_from_dict({
        "n_cells_list": [2], "n_ues_list": [4], "n_train_deployments": 5,
        "train": {"reward_kind": "throughput", "epsilon": 1.0, "init_std": 0.3,
                  "edge_threshold_db": 0.0}})
    model_path, _ = cmd_train(cfg, str(tmp_path))
    dep = generate_deployment(5, 6, 30)
    assert deployment_state(dep, cfg.train_config()).unassigned == ()
    lines = [json.dumps({"type": "handover", "ue": ue,
                         "rsrp_dbm": {str(c): v for c, v in
                                      zip(r.cells, r.rsrp_dbm)}})
             for ue in range(dep.n_ues) for r in [measurement_report(dep, ue)]]
    replies = run_lines(lines, dep=dep, p=load_model(model_path))
    assert [[a["ue"] for a in r["assignments"]] for r in replies] == [[u] for u in range(30)]


def test_serve_rejects_malformed_endpoint(tmp_path):
    model, dep = str(tmp_path / "model.json"), str(tmp_path / "dep.json")
    save_model(init_params(8, 2, 8, 0.3), model)
    save_deployment(generate_deployment(41, 2, 4), dep)
    for endpoint in ("localhost", "localhost:", ":7000", "localhost:http"):
        with pytest.raises(ValueError, match="host:port"):
            serve(model, dep, endpoint)


def test_parse_endpoint_takes_an_ascii_port_in_range():
    assert parse_endpoint("-") is None
    assert parse_endpoint("127.0.0.1:0") == ("127.0.0.1", 0)
    assert parse_endpoint("::1:65535") == ("::1", 65535)
    for endpoint in ("h:65536", "h:-1", "h:\u0663", "h: 80", "h:" + "1" * 5000):
        with pytest.raises(ValueError, match="host:port"):
            parse_endpoint(endpoint)


TCP_REQUEST = b'{"type": "handover", "ue": 0, "rsrp_dbm": {"0": -60.0}}\n'


def serve_tcp_in_background(tmp_path) -> tuple[int, socket.socket]:
    """Start ``serve`` on a free local port; return the port and the first
    client connection, made once the service listens."""
    model, dep = str(tmp_path / "model.json"), str(tmp_path / "dep.json")
    save_model(init_params(8, 2, 8, 0.3), model)
    save_deployment(generate_deployment(41, 2, 4), dep)
    with socket.socket() as probe:  # a port that is free now
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    threading.Thread(target=serve, args=(model, dep, f"127.0.0.1:{port}"),
                     daemon=True).start()
    for _ in range(200):  # wait until the service listens
        try:
            return port, socket.create_connection(("127.0.0.1", port), timeout=10)
        except ConnectionRefusedError:
            time.sleep(0.05)
    pytest.fail("the service never listened")


def test_serve_tcp_outlives_a_client_reset(tmp_path):
    port, first = serve_tcp_in_background(tmp_path)
    with first:
        first.sendall(TCP_REQUEST)
        assert b"assignments" in first.makefile("rb").readline()
        first.sendall(b"x\n" * 5000)
        # linger 0: close() sends a TCP reset instead of a normal shutdown
        first.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    with socket.create_connection(("127.0.0.1", port), timeout=10) as second:
        second.sendall(TCP_REQUEST)
        assert b"assignments" in second.makefile("rb").readline()


def test_serve_tcp_outlives_an_idle_client(tmp_path):
    port, idle = serve_tcp_in_background(tmp_path)
    with idle:  # connects first and sends nothing until the second is answered
        with socket.create_connection(("127.0.0.1", port), timeout=5) as second:
            second.sendall(TCP_REQUEST)
            assert b"assignments" in second.makefile("rb").readline()
        idle.sendall(TCP_REQUEST)  # its session is still open
        assert b"assignments" in idle.makefile("rb").readline()


def test_serve_tcp_keeps_a_lone_client_that_pauses(tmp_path):
    _, client = serve_tcp_in_background(tmp_path)
    lines = ['{"type": "handover", "ue": 1, "rsrp_dbm": {"1": -60.0}}',
             '{"type": "handover", "ue": 0, "rsrp_dbm": {"0": -60.0, "1": -61.0}}']
    with client, client.makefile("rb") as rf:
        got = []
        for line in lines:
            client.sendall(line.encode() + b"\n")
            got.append(json.loads(rf.readline()))
            time.sleep(0.5)  # silent for a while between requests
    dep = netmodel.load_deployment(str(tmp_path / "dep.json"))
    p = load_model(str(tmp_path / "model.json"))
    want, fresh = run_lines(lines, dep=dep, p=p), run_lines(lines[1:], dep=dep, p=p)
    for reply in got + want + fresh:
        del reply["latency_us"]
    assert got == want
    assert got[1] != fresh[0]  # the second reply saw the graph the first one committed


def test_serve_tcp_answers_a_client_while_another_trickles(tmp_path):
    port, trickler = serve_tcp_in_background(tmp_path)
    with trickler, socket.create_connection(("127.0.0.1", port), timeout=5) as second:
        second.sendall(TCP_REQUEST)
        deadline = time.monotonic() + 3
        while not select.select([second], [], [], 0.1)[0]:
            assert time.monotonic() < deadline, "the waiting client got no reply"
            with contextlib.suppress(OSError):  # one byte per 0.1 s, never a newline
                trickler.sendall(b" ")
        assert b"assignments" in second.makefile("rb").readline()
        trickler.sendall(b"\n" + TCP_REQUEST)  # ends its blank line, then a request
        with trickler.makefile("rb") as rf:
            assert b"empty request line" in rf.readline()
            assert b"assignments" in rf.readline()


def test_serve_tcp_answers_a_client_while_another_never_reads(tmp_path):
    port, flooder = serve_tcp_in_background(tmp_path)
    with flooder:
        flooder.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        flooder.setblocking(False)
        sent, last = 0, time.monotonic()
        while time.monotonic() - last < 0.5:  # until the service stops taking bytes
            with contextlib.suppress(BlockingIOError):
                sent += flooder.send(b"x\n" * 32768)
                last = time.monotonic()
            time.sleep(0.01)
        assert sent > 1_000_000  # megabytes of lines, and no reply read
        with socket.create_connection(("127.0.0.1", port), timeout=5) as second:
            second.sendall(TCP_REQUEST)
            assert select.select([second], [], [], 3)[0], "the waiting client got no reply"
            assert b"assignments" in second.makefile("rb").readline()


def test_serve_tcp_keeps_a_lone_client_that_reads_late(tmp_path):
    _, client = serve_tcp_in_background(tmp_path)
    n = 150_000  # about 6 MB of replies, more than the socket buffers hold
    with client, client.makefile("rb") as rf:
        client.sendall(b"x\n" * n + TCP_REQUEST)
        client.shutdown(socket.SHUT_WR)
        time.sleep(2.0)  # reads nothing while the service has replies to send
        replies = rf.readlines()
    assert len(replies) == n + 1
    assert all(b"bad JSON" in r for r in replies[:n])
    assert b"assignments" in replies[-1]


def test_serve_tcp_answers_an_unterminated_line_and_releases_each_session(tmp_path):
    before = threading.active_count()
    port, first = serve_tcp_in_background(tmp_path)
    first.close()
    for _ in range(50):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as client:
            client.sendall(TCP_REQUEST.rstrip(b"\n"))  # hangs up without a newline
            client.shutdown(socket.SHUT_WR)
            assert b"assignments" in client.makefile("rb").readline()
    deadline = time.monotonic() + 5
    while threading.active_count() > before + 1:  # only the service's own thread stays
        assert time.monotonic() < deadline, "session threads outlived their connections"
        time.sleep(0.05)
