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
    "max_rsrp_policy", "max_rsrp_graph", "serve", "serve_stream",
]


@dataclass(frozen=True)
class HandoverEvent:
    """A UE asking for a (re)connection decision, with its measurements."""

    ue: int
    report: MeasurementReport


@dataclass(frozen=True)
class SubGraph:
    """Local view for one event: kept node sets and the embedded graph."""

    kept_cells: tuple[int, ...]
    kept_ues: tuple[int, ...]
    cell_to_local: dict[int, int]
    ue_to_local: dict[int, int]
    graph: ConnectionGraph


def _bfs_cells(cell_adj: np.ndarray, seeds: list[int], hops: int) -> list[int]:
    """Cells reachable from the seeds within ``hops`` adjacency hops."""
    keep = set(seeds)
    frontier = set(seeds)
    for _ in range(hops):
        nxt = set()
        for c in frontier:
            nxt.update(np.nonzero(cell_adj[c])[0].tolist())
        frontier = nxt - keep
        if not frontier:
            break
        keep |= frontier
    return sorted(keep)


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

    kept_cells = _bfs_cells(g.cell_adj, sorted(set(event.report.cells)), hops)
    cell_set = set(kept_cells)
    kept_ues = sorted({j for j in range(g.n_ues) if g.assign[j] in cell_set}
                      | {event.ue})

    cell_to_local = {c: i for i, c in enumerate(kept_cells)}
    ue_to_local = {u: i for i, u in enumerate(kept_ues)}
    assign = np.full(len(kept_ues), UNASSIGNED, dtype=np.int64)
    for u in kept_ues:
        a = int(g.assign[u])
        if a in cell_set:
            assign[ue_to_local[u]] = cell_to_local[a]
    sub = ConnectionGraph(cell_adj=g.cell_adj[np.ix_(kept_cells, kept_cells)],
                          assign=assign, d_max_m=g.d_max_m)
    return SubGraph(kept_cells=tuple(kept_cells), kept_ues=tuple(kept_ues),
                    cell_to_local=cell_to_local, ue_to_local=ue_to_local, graph=sub)


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
    reshuffled = [u for u in sub.kept_ues if u == event.ue or u in edge_ues]
    assign = sub.graph.assign.copy()
    for u in reshuffled:
        assign[sub.ue_to_local[u]] = UNASSIGNED
    start = replace(sub.graph, assign=assign)

    kept_set = set(sub.kept_cells)
    rsrp = dep.rsrp_dbm
    candidates: dict[int, tuple[int, ...]] = {}
    for u in reshuffled:
        cells = event.report.cells if u == event.ue else measurement_report(dep, u).cells
        local = tuple(sub.cell_to_local[c] for c in cells if c in kept_set)
        if not local:
            # Report lies outside the subgraph: fall back to the strongest kept cell.
            strongest = max(sub.kept_cells, key=lambda c: (rsrp[c, u], -c))
            local = (sub.cell_to_local[strongest],)
        candidates[sub.ue_to_local[u]] = local

    state = EpisodeState(graph=start,
                         unassigned=tuple(sorted(sub.ue_to_local[u] for u in reshuffled)),
                         candidates=candidates,
                         cap=dep.cap[np.ix_(sub.kept_cells, sub.kept_ues)])
    final = greedy_rollout(p, state)
    return [(sub.kept_ues[lu], sub.kept_cells[final.assign[lu]])
            for lu in sorted(sub.ue_to_local[u] for u in reshuffled)]


def max_rsrp_policy(dep: Deployment) -> list[tuple[int, int]]:
    """Greedy baseline: every UE takes its strongest cell (ties: lower index)."""
    return [(u, int(c)) for u, c in enumerate(np.argmax(dep.rsrp_dbm, axis=0))]


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
    entries = []
    for key, val in raw.items():
        try:
            cell = int(key)
        except (TypeError, ValueError):
            raise ValueError(f"bad cell id {key!r} in rsrp_dbm") from None
        if not 0 <= cell < n_cells:
            raise ValueError(f"cell id {cell} out of range [0, {n_cells})")
        if isinstance(val, bool) or not isinstance(val, (int, float)):
            raise ValueError(f"RSRP for cell {cell} must be a number, got {val!r}")
        entries.append((cell, float(val)))
    entries.sort(key=lambda cv: (-cv[1], cv[0]))
    return HandoverEvent(ue=ue, report=MeasurementReport(
        ue=ue, cells=tuple(c for c, _ in entries),
        rsrp_dbm=tuple(v for _, v in entries)))


def serve_stream(p: GnnParams, dep: Deployment, rfile, wfile) -> int:
    """Answer newline-delimited JSON handover requests until EOF.

    Every input line gets exactly one response line: either the decided
    assignments or an ``{"error": ...}`` object.  The connection graph starts
    from the deployment's initial state (3 dB cell-edge threshold, 250 m cell
    adjacency) and commits each answer; its cell-edge UEs are the ones every
    event may reshuffle.  Returns the number of lines processed.
    """
    g, edge = initial_graph(dep)
    edge_ues = frozenset(edge)
    handled = 0
    for line in rfile:
        handled += 1
        t0 = time.perf_counter()
        try:
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
