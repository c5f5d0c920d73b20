"""Handover service: event-driven reassignment on a local subgraph, plus the
max-RSRP baseline and a newline-delimited JSON front end.

A handover event names one UE and its current measurement report.  The app
cuts out the subgraph the Q-network can actually see (reported cells, their
neighbors up to the message-passing depth, and the UEs served there),
re-decides the cell-edge UEs inside it greedily, and answers with the new
assignments.  Graph state is committed after every answered request.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import time
from dataclasses import dataclass, replace

import numpy as np

from cellconn.dqn import EpisodeState, greedy_rollout
from cellconn.gnn import GnnParams, load_model
from cellconn.graph import (DEFAULT_D_MAX_M, UNASSIGNED, ConnectionGraph,
                            build_cell_graph, initial_graph)
from cellconn.netmodel import (Deployment, MeasurementReport, load_deployment,
                               measurement_report)

__all__ = [
    "HandoverEvent", "SubGraph", "extract_subgraph", "handle_event",
    "max_rsrp_graph", "serve", "serve_stream",
]


@dataclass(frozen=True)
class HandoverEvent:
    """A UE asking for a (re)connection decision, with its measurements."""

    ue: int
    report: MeasurementReport


@dataclass(frozen=True)
class SubGraph:
    """Local view for one event: kept node sets and the embedded graph.

    ``kept_cells`` and ``kept_ues`` are ascending global indices; local
    index i of ``graph`` is position i in them.
    """

    kept_cells: tuple[int, ...]
    kept_ues: tuple[int, ...]
    graph: ConnectionGraph


def extract_subgraph(g: ConnectionGraph, event: HandoverEvent, hops: int) -> SubGraph:
    """Cut out the event's neighborhood: reported cells, their <=hops-hop
    neighbor cells, the UEs served by those cells, and the event UE itself.

    Raises:
        ValueError: event UE out of range or its report is empty.
    """
    if not 0 <= event.ue < g.n_ues:
        raise ValueError(f"event UE {event.ue} out of range [0, {g.n_ues})")
    if not event.report.cells:
        raise ValueError(f"event for UE {event.ue} carries an empty report")

    keep = np.zeros(g.n_cells, dtype=bool)
    keep[list(event.report.cells)] = True
    for _ in range(hops):
        keep |= g.cell_adj[keep].any(axis=0)
    kept_cells = np.flatnonzero(keep)
    ue_mask = (g.assign != UNASSIGNED) & keep[g.assign]
    ue_mask[event.ue] = True
    kept_ues = np.flatnonzero(ue_mask)

    # Global -> local cell index; the last slot keeps UNASSIGNED at UNASSIGNED.
    to_local = np.full(g.n_cells + 1, UNASSIGNED, dtype=np.int64)
    to_local[kept_cells] = np.arange(len(kept_cells))
    sub = ConnectionGraph(cell_adj=g.cell_adj[np.ix_(kept_cells, kept_cells)],
                          assign=to_local[g.assign[kept_ues]], d_max_m=g.d_max_m)
    return SubGraph(kept_cells=tuple(kept_cells.tolist()),
                    kept_ues=tuple(kept_ues.tolist()), graph=sub)


def handle_event(p: GnnParams, dep: Deployment, g: ConnectionGraph,
                 event: HandoverEvent, edge_ues: frozenset[int]) -> list[tuple[int, int]]:
    """Decide assignments for the event's neighborhood.

    The subgraph reaches as many hops as the Q-network has message-passing
    rounds.  Inside it, the cell-edge UEs (``edge_ues``) plus the event UE,
    always, are detached and reassigned greedily with the Q-network.
    Returns the new (ue, cell) pairs in global indices, ascending by UE; UEs
    outside the reshuffled set keep their cells.
    """
    sub = extract_subgraph(g, event, p.n_layers)
    kept = sub.kept_cells
    reshuffled = [i for i, u in enumerate(sub.kept_ues) if u == event.ue or u in edge_ues]
    assign = sub.graph.assign.copy()
    assign[reshuffled] = UNASSIGNED

    candidates: dict[int, tuple[int, ...]] = {}
    for i in reshuffled:
        u = sub.kept_ues[i]
        cells = event.report.cells if u == event.ue else measurement_report(dep, u).cells
        local = tuple(kept.index(c) for c in cells if c in kept)
        # Report lies outside the subgraph: fall back to the strongest kept
        # cell (ties to the lower index).
        candidates[i] = local or (int(np.argmax(dep.rsrp_dbm[list(kept), u])),)

    state = EpisodeState(graph=replace(sub.graph, assign=assign),
                         unassigned=tuple(reshuffled), candidates=candidates,
                         cap=dep.cap[np.ix_(kept, sub.kept_ues)])
    final = greedy_rollout(p, state)
    return [(sub.kept_ues[i], kept[final.assign[i]]) for i in reshuffled]


def max_rsrp_graph(dep: Deployment, d_max_m: float = DEFAULT_D_MAX_M) -> ConnectionGraph:
    """Full assignment of a deployment under the max-RSRP baseline."""
    return ConnectionGraph(cell_adj=build_cell_graph(dep, d_max_m),
                           assign=np.argmax(dep.rsrp_dbm, axis=0).astype(np.int64),
                           d_max_m=d_max_m)


def _parse_request(line: str, n_cells: int, n_ues: int) -> HandoverEvent:
    """Validate one request line; raises ValueError with a client-facing message."""
    try:
        doc = json.loads(line)
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
        try:
            cell = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad cell id {key!r} in rsrp_dbm") from None
        if not 0 <= cell < n_cells:
            raise ValueError(f"cell id {cell} out of range [0, {n_cells})")
        if cell in rsrp:
            raise ValueError(f"cell {cell} named twice in rsrp_dbm")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"RSRP for cell {cell} must be a number, got {val!r}")
        try:
            dbm = float(val)
        except OverflowError:  # an integer beyond the float range
            dbm = math.inf
        if not math.isfinite(dbm):
            raise ValueError(f"RSRP for cell {cell} must be finite")
        rsrp[cell] = dbm
    entries = sorted(rsrp.items(), key=lambda cv: (-cv[1], cv[0]))
    return HandoverEvent(ue=ue, report=MeasurementReport(
        ue=ue, cells=tuple(c for c, _ in entries),
        rsrp_dbm=tuple(v for _, v in entries)))


def serve_stream(p: GnnParams, dep: Deployment, rfile, wfile) -> int:
    """Answer newline-delimited JSON handover requests until EOF.

    Every input line gets exactly one response line: either the decided
    assignments or an ``{"error": ...}`` object.  A text stream with an
    underlying byte buffer is read as bytes and each line decoded as UTF-8
    on its own, so an undecodable line gets an error reply too.  The
    connection graph starts from the deployment's initial state (3 dB
    cell-edge threshold, 250 m cell adjacency) and commits each answer; its
    cell-edge UEs are the ones every event may reshuffle.  Returns the
    number of lines processed.
    """
    g, edge = initial_graph(dep)
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
            event = _parse_request(line, dep.n_cells, dep.n_ues)
            pairs = handle_event(p, dep, g, event, edge_ues)
            assign = g.assign.copy()
            for u, c in pairs:
                assign[u] = c
            g = replace(g, assign=assign)
            reply = {"ue": event.ue,
                     "assignments": [{"ue": u, "cell": c} for u, c in pairs],
                     "latency_us": int((time.perf_counter() - t0) * 1e6)}
        except ValueError as exc:
            reply = {"error": str(exc)}
        wfile.write(json.dumps(reply) + "\n")
        wfile.flush()
    return handled


def serve(model_path: str, deployment_path: str, endpoint: str = "-") -> None:
    """Run the handover service on stdin/stdout ("-") or a TCP endpoint
    ("host:port"); TCP connections are served one at a time."""
    p = load_model(model_path)
    dep = load_deployment(deployment_path)
    if endpoint == "-":
        serve_stream(p, dep, sys.stdin, sys.stdout)
        return
    host, _, port = endpoint.rpartition(":")
    if not host or not port.isdigit():
        raise ValueError(f"endpoint must be '-' or host:port, got {endpoint!r}")
    with socket.create_server((host, int(port))) as srv:
        while True:
            conn, _ = srv.accept()
            with conn:
                rf = conn.makefile("r", encoding="utf-8")
                wf = conn.makefile("w", encoding="utf-8")
                serve_stream(p, dep, rf, wf)
