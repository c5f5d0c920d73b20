"""Benchmark inputs, every one derived from the workload seed.

The program only ever sees what is built here: config files, deployment
files and request lines.  Alongside them this module keeps what the output
checks need to know about each line (its class, its UE, the cells a decision
may pick).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from cellconn.graph import UeClass, build_cell_graph, classify_ues
from cellconn.netmodel import (generate_deployment, measurement_report,
                               rsrp_matrix_dbm, save_deployment)

# README quick-start config; the benchmark varies only the seed and the counts.
QUICK_START = {"n_cells_list": [6], "n_ues_list": [30, 50],
               "train": {"reward_kind": "fair", "alpha": 0.001, "epsilon": 1.0,
                         "init_std": 0.3}}
# Offline work per second of run time, sized so a run lasts about --seconds
# at the commit that defined the benchmark: `train` calls of TRAIN_CHUNK
# deployments (~2 s each), then `eval` calls of one 6x30 and one 6x50
# deployment (~0.1 s each).  A call's cost grows with the square of the
# cell-edge count of its deployments, so calls are drawn only where that
# count is near its mean (EDGE_TOLERANCE), giving every seed the same work.
TRAIN_CHUNK = 20
TRAIN_CALLS_PER_S = 0.3
EVAL_CALLS_PER_S = 3.5
EDGE_MEAN = {30: 11.3, 50: 18.9}   # mean cell-edge UEs among 6 cells
EDGE_TOLERANCE = {"train": 0.4, "eval": 1.5}

# Serve deployments: cells, UEs, the exact number of cell-edge UEs, and how
# many deployments a run serves one after another.  Steady-state cost grows
# with the square of the cell-edge count, so fixing it (at the mean for the
# size) gives every seed the same amount of work; at desk size the subgraph
# shape still varies, so a run averages over several deployments.
SERVE_SIZES = {"serve-dense": (20, 200, 80, 1), "serve-desk-mixed": (6, 30, 11, 16)}
HOPS = 2            # message-passing depth of the pinned model
DENSE_TRACE_HALF = 3  # timed requests per half of a traced serve-dense run
MAX_DRAWS = 100_000

# Line classes of the mixed stream and their shares; the rest are valid.
MALFORMED = (("bad_json", 0.15), ("unknown_ue", 0.10), ("wrong_type", 0.10),
             ("blank", 0.10))


@dataclass(frozen=True)
class Line:
    text: str
    kind: str          # "valid" or one of MALFORMED's classes
    ue: int = -1


@dataclass(frozen=True)
class Session:
    """One service instance: a deployment file and the lines sent to it."""

    dep: object
    truth: "ServeTruth"
    path: str
    warm: list[Line]
    timed: list[Line]


@dataclass(frozen=True)
class ServeTruth:
    """What the checks need about one serve deployment."""

    n_cells: int
    n_ues: int
    reports: list[tuple[int, ...]]   # true measurement-report cells per UE
    kept: list[tuple[int, ...]]      # subgraph cells of a UE's own event
    rsrp: np.ndarray
    initial_assign: np.ndarray       # strongest cell, or -1 for cell-edge UEs
    edge_ues: tuple[int, ...]


def config_seed(seed: int) -> int:
    """Config seed of a workload seed; far apart, so seeds share no deployments."""
    return seed * 100_000


def offline_config(path: str, n_train: int) -> None:
    doc = dict(QUICK_START, n_train_deployments=n_train, n_eval_deployments=1)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _edge_count(seed: int, n_ues: int) -> int:
    dep = generate_deployment(seed, QUICK_START["n_cells_list"][0], n_ues)
    return sum(c is UeClass.CELL_EDGE for c in classify_ues(dep))


def train_seeds(base: int, count: int) -> list[int]:
    """Config seeds of `train` calls whose TRAIN_CHUNK deployments (seeds
    s .. s + TRAIN_CHUNK - 1) average a near-mean cell-edge count."""
    n_ues, seeds, s = QUICK_START["n_ues_list"][0], [], base
    while len(seeds) < count:
        mean = sum(_edge_count(s + i, n_ues) for i in range(TRAIN_CHUNK)) / TRAIN_CHUNK
        if abs(mean - EDGE_MEAN[n_ues]) <= EDGE_TOLERANCE["train"]:
            seeds.append(s)
        s += TRAIN_CHUNK
    return seeds


def eval_seeds(base: int, count: int) -> list[int]:
    """Config seeds of `eval` calls (n_eval_deployments 1) whose deployment
    at every sweep point has a near-mean cell-edge count.  Mirrors the
    seeding of ``cellconn.cli.eval_deployment``."""
    from cellconn.cli import EVAL_POINT_STRIDE, EVAL_SEED_OFFSET

    seeds, s = [], base
    while len(seeds) < count:
        if all(abs(_edge_count(s + EVAL_SEED_OFFSET + i * EVAL_POINT_STRIDE, u)
                   - EDGE_MEAN[u]) <= EDGE_TOLERANCE["eval"]
               for i, u in enumerate(QUICK_START["n_ues_list"])):
            seeds.append(s)
        s += 1
    return seeds


def offline_calls(seed: int, seconds: int, traced: bool, model: str,
                  out: str) -> list[dict]:
    """The CLI calls of an offline-desk run, as argv lists with phase tags.

    A traced run plays half the calls untraced, then the same half traced.
    """
    n_train = max(1, round(TRAIN_CALLS_PER_S * seconds))
    n_eval = max(2, round(EVAL_CALLS_PER_S * seconds))
    if traced:
        n_train, n_eval = max(1, n_train // 2), max(1, n_eval // 2)
    cfg = os.path.join(out, "config.json")
    offline_config(cfg, TRAIN_CHUNK)
    base = config_seed(seed)
    calls = [{"cmd": "train", "argv": ["train", "--config", cfg, "--seed", str(s),
                                       "--out", os.path.join(out, "train")]}
             for s in train_seeds(base, n_train)]
    calls += [{"cmd": "eval", "argv": ["eval", "--config", cfg, "--seed", str(s),
                                       "--model", model, "--out", os.path.join(out, "eval")]}
              for s in eval_seeds(base, n_eval)]
    phases = (False, True) if traced else (False,)
    return [dict(c, traced=t) for t in phases for c in calls]


def serve_deployments(seed: int, n_cells: int, n_ues: int, n_edge: int, count: int):
    """The first ``count`` deployments of the seed's stream with exactly
    ``n_edge`` cell-edge UEs."""
    found = []
    for k in range(MAX_DRAWS):
        dep = generate_deployment(config_seed(seed) + k, n_cells, n_ues)
        if sum(c is UeClass.CELL_EDGE for c in classify_ues(dep)) == n_edge:
            found.append(dep)
            if len(found) == count:
                return found
    raise RuntimeError(f"too few {n_cells}x{n_ues} deployments with {n_edge} cell-edge UEs")


def _kept_cells(adj: np.ndarray, seeds: tuple[int, ...], hops: int) -> tuple[int, ...]:
    keep = set(seeds)
    frontier = set(seeds)
    for _ in range(hops):
        frontier = {int(c) for f in frontier for c in np.nonzero(adj[f])[0]} - keep
        keep |= frontier
    return tuple(sorted(keep))


def serve_truth(dep) -> ServeTruth:
    rsrp = rsrp_matrix_dbm(dep)
    reports = [measurement_report(dep, u).cells for u in range(dep.n_ues)]
    adj = build_cell_graph(dep)
    labels = classify_ues(dep)
    edge = tuple(u for u in range(dep.n_ues) if labels[u] is UeClass.CELL_EDGE)
    initial = np.array([-1 if labels[u] is UeClass.CELL_EDGE else int(np.argmax(rsrp[:, u]))
                        for u in range(dep.n_ues)])
    return ServeTruth(n_cells=dep.n_cells, n_ues=dep.n_ues, reports=reports,
                      kept=[_kept_cells(adj, r, HOPS) for r in reports], rsrp=rsrp,
                      initial_assign=initial, edge_ues=edge)


def handover_line(dep, ue: int) -> str:
    """A UE's true measurement report as a handover request."""
    r = measurement_report(dep, ue)
    return json.dumps({"type": "handover", "ue": ue,
                       "rsrp_dbm": {str(c): v for c, v in zip(r.cells, r.rsrp_dbm)}})


def _malformed(kind: str, valid: str, n_ues: int, rng: np.random.Generator) -> str:
    if kind == "bad_json":
        return valid[: int(rng.integers(1, len(valid) - 1))]
    if kind == "unknown_ue":
        return json.dumps({"type": "handover", "ue": n_ues + int(rng.integers(0, 1000)),
                           "rsrp_dbm": {"0": -70.0}})
    if kind == "wrong_type":
        return json.dumps({"type": "status", "ue": int(rng.integers(0, n_ues))})
    return " " * int(rng.integers(0, 3))


def _timed_lines(dense: bool, n: int, by_ue: list[str], rng) -> list[Line]:
    n_ues = len(by_ue)
    if dense:
        return [Line(by_ue[u], "valid", u) for u in rng.integers(0, n_ues, n).tolist()]
    lines = []
    for _ in range(n):
        u = int(rng.integers(0, n_ues))
        roll, kind = rng.random(), "valid"
        for name, share in MALFORMED:
            if roll < share:
                kind = name
                break
            roll -= share
        if kind == "valid":
            lines.append(Line(by_ue[u], "valid", u))
        else:
            lines.append(Line(_malformed(kind, by_ue[u], n_ues, rng), kind))
    return lines


def serve_sessions(workload: str, seed: int, seconds: int, traced: bool,
                   rate: float, out: str) -> list[Session]:
    """Deployment files, warm-up lines and timed lines of a serve workload.

    Warm-up: one event per initially unassigned (cell-edge) UE, in UE order.
    serve-dense: closed-loop events of uniformly drawn UEs; an untraced run
    stops on the clock.  serve-desk-mixed: ``rate * seconds`` open-loop
    lines split over the sessions, ~45% of them malformed.  A traced run
    plays a fixed half-length stream twice, untraced then traced, so both
    passes do the same work.
    """
    n_cells, n_ues, n_edge, count = SERVE_SIZES[workload]
    dense = workload == "serve-dense"
    if dense:
        n = DENSE_TRACE_HALF if traced else max(10, seconds * 100)
    else:
        n = max(2, round(rate * seconds / count / (2 if traced else 1)))
    rng = np.random.default_rng([seed, 7])
    sessions = []
    for i, dep in enumerate(serve_deployments(seed, n_cells, n_ues, n_edge, count)):
        path = os.path.join(out, f"deployment_{i}.json")
        save_deployment(dep, path)
        truth = serve_truth(dep)
        by_ue = [handover_line(dep, u) for u in range(n_ues)]
        timed = _timed_lines(dense, n, by_ue, rng)
        sessions.append(Session(dep=dep, truth=truth, path=path,
                                warm=[Line(by_ue[u], "valid", u) for u in truth.edge_ues],
                                timed=timed * 2 if traced else timed))
    return sessions
