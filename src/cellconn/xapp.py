"""Handover service: event-driven reassignment on a local subgraph, plus the
max-RSRP baseline and a newline-delimited JSON front end.

A handover event is one UE's current measurement report.  The app
cuts out the subgraph the Q-network can actually see (reported cells, their
neighbors up to the message-passing depth, and the UEs served there),
re-decides the cell-edge UEs inside it greedily, and answers with the new
assignments.  Each stream (stdin, or one TCP connection on its own thread)
is its own session: its graph starts from the deployment's initial state and
is committed after every answered request.
"""

from __future__ import annotations

import contextlib
import json
import math
import socket
import sys
import threading
import time
from dataclasses import dataclass, replace

import numpy as np

from cellconn.dqn import EpisodeState, greedy_rollout
from cellconn.gnn import GnnParams, load_model
from cellconn.graph import UNASSIGNED, ConnectionGraph, initial_graph
from cellconn.netmodel import Deployment, MeasurementReport, is_number, load_deployment

__all__ = [
    "SubGraph", "extract_subgraph", "handle_event",
    "max_rsrp_graph", "parse_endpoint", "serve", "serve_stream",
]


@dataclass(frozen=True)
class SubGraph:
    """Local view for one event: kept node sets and the embedded graph.

    ``kept_cells`` and ``kept_ues`` are ascending global indices; local
    index i of ``graph`` is position i in them.
    """

    kept_cells: tuple[int, ...]
    kept_ues: tuple[int, ...]
    graph: ConnectionGraph


def extract_subgraph(g: ConnectionGraph, report: MeasurementReport, hops: int) -> SubGraph:
    """Cut out the event's neighborhood: reported cells, their <=hops-hop
    neighbor cells, the UEs served by those cells, and the event UE itself.

    Raises:
        ValueError: event UE out of range or its report is empty.
    """
    if not 0 <= report.ue < g.n_ues:
        raise ValueError(f"event UE {report.ue} out of range [0, {g.n_ues})")
    if not report.cells:
        raise ValueError(f"event for UE {report.ue} carries an empty report")

    keep = np.zeros(g.n_cells, dtype=bool)
    keep[list(report.cells)] = True
    for _ in range(hops):
        keep |= g.cell_adj[keep].any(axis=0)
    kept_cells = np.flatnonzero(keep)
    ue_mask = (g.assign != UNASSIGNED) & keep[g.assign]
    ue_mask[report.ue] = True
    kept_ues = np.flatnonzero(ue_mask)

    # Global -> local cell index; the last slot keeps UNASSIGNED at UNASSIGNED.
    to_local = np.full(g.n_cells + 1, UNASSIGNED, dtype=np.int64)
    to_local[kept_cells] = np.arange(len(kept_cells))
    sub = ConnectionGraph(cell_adj=g.cell_adj[np.ix_(kept_cells, kept_cells)],
                          assign=to_local[g.assign[kept_ues]])
    return SubGraph(kept_cells=tuple(kept_cells.tolist()),
                    kept_ues=tuple(kept_ues.tolist()), graph=sub)


def handle_event(p: GnnParams, dep: Deployment, g: ConnectionGraph,
                 report: MeasurementReport, edge_ues: frozenset[int]) -> list[tuple[int, int]]:
    """Decide assignments for the event's neighborhood.

    The subgraph reaches as many hops as the Q-network has message-passing
    rounds.  Inside it, the cell-edge UEs (``edge_ues``) plus the event UE,
    always, are detached and reassigned greedily with the Q-network.
    Returns the new (ue, cell) pairs in global indices, ascending by UE; UEs
    outside the reshuffled set keep their cells.
    """
    sub = extract_subgraph(g, report, p.n_layers)
    kept = sub.kept_cells
    reshuffled = [i for i, u in enumerate(sub.kept_ues) if u == report.ue or u in edge_ues]
    assign = sub.graph.assign.copy()
    assign[reshuffled] = UNASSIGNED

    candidates: dict[int, tuple[int, ...]] = {}
    for i in reshuffled:
        u = sub.kept_ues[i]
        cells = report.cells if u == report.ue else dep.report_cells[u].tolist()
        local = tuple(kept.index(c) for c in cells if c in kept)
        # Report lies outside the subgraph: fall back to the strongest kept
        # cell (ties to the lower index).
        candidates[i] = local or (int(np.argmax(dep.rsrp_dbm[list(kept), u])),)

    state = EpisodeState(graph=replace(sub.graph, assign=assign),
                         unassigned=tuple(reshuffled), candidates=candidates,
                         cap=dep.cap[np.ix_(kept, sub.kept_ues)])
    final = greedy_rollout(p, state)
    return [(sub.kept_ues[i], kept[final.assign[i]]) for i in reshuffled]


def max_rsrp_graph(dep: Deployment) -> ConnectionGraph:
    """Full assignment of a deployment under the max-RSRP baseline: the
    initial graph in which no UE is cell-edge."""
    return initial_graph(dep, -math.inf)[0]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        raise ValueError("bad JSON: an object names a key twice")
    return doc


def _parse_request(line: str, n_cells: int, n_ues: int) -> MeasurementReport:
    """Validate one request line; raises ValueError with a client-facing message."""
    try:
        doc = json.loads(line, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad JSON: {exc.msg}") from exc
    except RecursionError:
        raise ValueError("bad JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise ValueError("request must be a JSON object")
    if doc.get("type") != "handover":
        raise ValueError(f"unsupported request type {doc.get('type')!r}")
    ue = doc.get("ue")
    if not isinstance(ue, int) or isinstance(ue, bool) or not 0 <= ue < n_ues:
        raise ValueError(f"ue must be an integer in [0, {n_ues}), got {ue!r}")
    raw = doc.get("rsrp_dbm")
    if not isinstance(raw, dict) or not raw:
        raise ValueError("rsrp_dbm must be a non-empty object of cell -> dBm")
    rsrp: dict[int, float] = {}
    for key, val in raw.items():
        try:  # ASCII digits only: int() also takes "1_0", " 3", "+2" and "٣"
            cell = int(key) if key.isascii() and key.isdigit() else -1
        except ValueError:  # more digits than int() converts
            cell = -1
        if cell < 0:
            raise ValueError(f"bad cell id {key!r} in rsrp_dbm")
        if not 0 <= cell < n_cells:
            raise ValueError(f"cell id {cell} out of range [0, {n_cells})")
        if cell in rsrp:
            raise ValueError(f"cell {cell} named twice in rsrp_dbm")
        if not (is_number(val) and math.isfinite(val)):
            raise ValueError(f"RSRP for cell {cell} must be a finite number, got {val!r}")
        rsrp[cell] = float(val)
    entries = sorted(rsrp.items(), key=lambda cv: (-cv[1], cv[0]))
    return MeasurementReport(ue=ue, cells=tuple(c for c, _ in entries),
                             rsrp_dbm=tuple(v for _, v in entries))


def serve_stream(p: GnnParams, dep: Deployment, rfile, wfile) -> int:
    """Answer newline-delimited JSON handover requests until EOF.

    Every input line gets exactly one response line: either the decided
    assignments or an ``{"error": ...}`` object.  A text stream with an
    underlying byte buffer is read as bytes and each line decoded as UTF-8
    on its own, so an undecodable line gets an error reply too.  The
    connection graph starts from the deployment's initial state under the
    model's cell-edge threshold and commits each answer; its cell-edge UEs
    are the ones every event may reshuffle.  Returns the number of lines
    processed.
    """
    g, edge = initial_graph(dep, p.edge_threshold_db)
    edge_ues = frozenset(edge)
    handled = 0
    for line in getattr(rfile, "buffer", rfile):
        handled += 1
        t0 = time.perf_counter()
        try:
            if isinstance(line, bytes):
                line = line.decode("utf-8")
            if not line.strip():
                raise ValueError("empty request line")
            report = _parse_request(line, dep.n_cells, dep.n_ues)
            pairs = handle_event(p, dep, g, report, edge_ues)
            assign = g.assign.copy()
            for u, c in pairs:
                assign[u] = c
            g = replace(g, assign=assign)
            reply = {"ue": report.ue,
                     "assignments": [{"ue": u, "cell": c} for u, c in pairs],
                     "latency_us": int((time.perf_counter() - t0) * 1e6)}
        except ValueError as exc:
            reply = {"error": str(exc)}
        wfile.write(json.dumps(reply) + "\n")
        wfile.flush()
    return handled


def parse_endpoint(endpoint: str) -> tuple[str, int] | None:
    """None for "-" (stdin/stdout), else the (host, port) of "host:port"; ValueError if malformed."""
    if endpoint == "-":
        return None
    host, _, port = endpoint.rpartition(":")
    if not (host and port.isascii() and port.isdigit() and len(port) <= 5 and int(port) <= 65535):
        raise ValueError(f"endpoint must be '-' or host:port, port 0-65535, got {endpoint!r}")
    return host, int(port)


def serve(model_path: str, deployment_path: str, endpoint: str = "-") -> None:
    """Run the handover service on stdin/stdout ("-") or a TCP endpoint
    ("host:port").  Each TCP connection is its own session, served on its own
    daemon thread, so a client that stalls, trickles, never reads its replies
    or resets holds up only its own connection."""
    address = parse_endpoint(endpoint)
    p = load_model(model_path)
    dep = load_deployment(deployment_path)
    if address is None:
        serve_stream(p, dep, sys.stdin, sys.stdout)
        return
    with socket.create_server(address) as srv:
        while True:
            conn, _ = srv.accept()
            threading.Thread(target=_serve_connection, args=(p, dep, conn), daemon=True).start()


def _serve_connection(p: GnnParams, dep: Deployment, conn: socket.socket) -> None:
    # A reset or broken pipe, also in the last flush on close, ends only this client.
    with (conn, contextlib.suppress(ConnectionError), conn.makefile("rb") as rfile,
          conn.makefile("w", encoding="utf-8") as wfile):
        serve_stream(p, dep, rfile, wfile)
