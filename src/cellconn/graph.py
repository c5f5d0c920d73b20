"""Connection graph between cells and user terminals, plus GNN input features.

The graph has two node sets: cells (linked to each other when closer than
250 m, ``DEFAULT_D_MAX_M``) and UEs (linked to at most one serving cell).  Assignments are
value-semantic: ``connect`` returns a new graph and never mutates its input.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from cellconn.netmodel import Deployment

DEFAULT_D_MAX_M = 250.0
FEATURE_NORM_EPS = 1e-9

UNASSIGNED = -1


def capacity_matrix(dep: Deployment) -> np.ndarray:
    """(n_cells, n_ues) spectral efficiency of every cell-UE link, bit/s/Hz
    (the deployment's read-only array)."""
    return dep.cap


def build_cell_graph(dep: Deployment) -> np.ndarray:
    """Symmetric zero-diagonal cell adjacency: sites strictly closer than DEFAULT_D_MAX_M."""
    d = dep.cells[:, None, :] - dep.cells[None, :, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    adj = (dist < DEFAULT_D_MAX_M).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


@dataclass(frozen=True)
class ConnectionGraph:
    """Cell-cell adjacency plus the current UE-to-cell assignment.

    ``assign[j]`` is the serving cell of UE j, or UNASSIGNED.
    """

    cell_adj: np.ndarray
    assign: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.cell_adj.shape[0]

    @property
    def n_ues(self) -> int:
        return self.assign.shape[0]

    def loads(self) -> np.ndarray:
        """Number of UEs served by each cell."""
        return np.bincount(self.assign + 1, minlength=self.n_cells + 1)[1:]

    def assigned_ues(self) -> np.ndarray:
        return np.nonzero(self.assign != UNASSIGNED)[0]


def _check_attach(g: ConnectionGraph, cell: int, ue: int) -> None:
    """Raise ValueError unless ``ue`` is an unassigned UE of ``g`` and ``cell`` one of its cells."""
    if not 0 <= cell < g.n_cells:
        raise ValueError(f"cell index {cell} out of range [0, {g.n_cells})")
    if not 0 <= ue < g.n_ues:
        raise ValueError(f"UE index {ue} out of range [0, {g.n_ues})")
    if g.assign[ue] != UNASSIGNED:
        raise ValueError(f"UE {ue} already connected to cell {g.assign[ue]}")


def connect(g: ConnectionGraph, cell: int, ue: int) -> ConnectionGraph:
    """Attach an unassigned UE to a cell, returning the new graph.

    Raises:
        ValueError: index out of range, or the UE is already connected.
    """
    _check_attach(g, cell, ue)
    assign = g.assign.copy()
    assign[ue] = cell
    return replace(g, assign=assign)


def attach_features(g: ConnectionGraph, cap: np.ndarray, actions: list[tuple[int, int]]
                    ) -> tuple[NodeFeatures, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The after-states' inputs, built from ``g`` alone, with every action
    checked as ``connect`` checks it first: the first bad one raises.

    Returns ``(feats, rows, action, cells, ues)``: action k is (cells[k], ues[k]).
    Row k of ``feats.cell_rate`` and ``feats.cell_cap`` (K, n_cells, 2) is bit for
    bit the block of ``input_features(connect(g, *actions[k]), cap)``.  ``feats.ue`` is
    (1 + n_cells, n_ues, 2): block 0 is ``g``'s, and block 1 + c is ``g``'s
    with the rows of c's UEs and of every UE attached to c at c's load + 1,
    so those rows are each such after-state's.  ``rows`` lists the attached
    cell's UEs of each after-state in ascending order, as indices into the
    (1 + n_cells) * n_ues rows of ``feats.ue``, and ``action`` the k of each entry.
    """
    cells, ues = np.array(actions, dtype=np.intp).reshape(-1, 2).T
    ok = (0 <= cells) & (cells < g.n_cells) & (0 <= ues) & (ues < g.n_ues)
    ok[ok] = g.assign[ues[ok]] == UNASSIGNED  # only an in-range UE indexes assign
    if not ok.all():
        _check_attach(g, *actions[np.argmin(ok)])
    k, m = np.arange(len(cells)), g.n_ues
    per_ue, per_cell, load = _rates(g, cap)
    at_cell = g.assign == np.arange(g.n_cells)[:, None]
    served = np.flatnonzero(at_cell) + m  # (1 + c) * m + UE, by cell and UE
    at_cell[cells, ues] = True
    rates = np.repeat(per_ue[None], 1 + g.n_cells, axis=0)
    rates[1:][at_cell] = (cap / (load[:, None] + 1.0))[at_cell]
    # each action's cell's UEs (a run of ``served``), then its own UE; sorted by UE per action
    size = load[cells]
    start = (np.cumsum(load) - load)[cells] - np.cumsum(size) + size
    rows = np.concatenate([served[np.repeat(start, size) + np.arange(size.sum())],
                           (1 + cells) * m + ues])
    action = np.concatenate([np.repeat(k, size), k])
    order = np.lexsort((rows, action))
    rows, action = rows[order], action[order]
    per_cell = np.repeat(per_cell[None], len(cells), axis=0)
    per_cell[k, cells] = np.bincount(action, weights=rates.ravel()[rows], minlength=len(cells))
    return _features(g.cell_adj, cap, per_cell, rates), rows, action, cells, ues


def ue_adjacency(g: ConnectionGraph) -> np.ndarray:
    """(n_cells, n_ues) incidence matrix of the assignment."""
    return (g.assign == np.arange(g.n_cells)[:, None]).astype(float)


def ue_rates(g: ConnectionGraph, cap: np.ndarray) -> np.ndarray:
    """Per-UE shared rate: capacity split evenly across the serving cell's load.

    Unassigned UEs have rate zero.
    """
    return _rates(g, cap)[0]


def _rates(g: ConnectionGraph, cap: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``ue_rates``, every cell's served throughput (its UEs' rates added one at a
    time in ascending UE order, as ``np.bincount`` adds them) and ``g.loads()``.

    Segment 0 is a spare cell that takes the unassigned UEs at rate 0; c + 1 is cell c.
    """
    n, m = g.n_cells, g.n_ues
    seg = g.assign + 1
    load = np.bincount(seg, minlength=n + 1)
    per_ue = np.where(seg > 0, cap[g.assign, np.arange(m)], 0.0) / load[seg]
    return per_ue, np.bincount(seg, weights=per_ue, minlength=n + 1)[1:], load[1:]


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node GNN inputs, already normalized.

    cell_rate: (n_cells, 2) columns [adjacent cells' summed throughput,
        own served throughput].
    cell_cap: (n_cells, 2) columns [own served throughput, total capacity
        toward every UE].
    ue: (n_ues, 2) columns [total capacity from every cell, own rate]; None
        where ``forward`` is given the first round's UE message instead.
    """

    cell_rate: np.ndarray
    cell_cap: np.ndarray
    ue: np.ndarray | None


class UeClass(enum.Enum):
    """Cell-center UEs keep their strongest cell; cell-edge UEs get reshuffled."""

    CELL_CENTER = "cell_center"
    CELL_EDGE = "cell_edge"


DEFAULT_EDGE_THRESHOLD_DB = 3.0


def classify_ues(dep: Deployment, threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB) -> list[UeClass]:
    """Label each UE by the gap between its two strongest RSRP measurements.

    A gap below ``threshold_db`` means no clearly dominant cell, so the UE is
    cell-edge.  With a single cell every UE is cell-center.
    """
    return [UeClass.CELL_EDGE if edge else UeClass.CELL_CENTER
            for edge in dep.rsrp_gap_db < threshold_db]


def initial_graph(dep: Deployment, threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB
                  ) -> tuple[ConnectionGraph, tuple[int, ...]]:
    """Starting state of an episode.

    Cell-center UEs attach to their strongest cell, the first of their
    report (ties to the lower cell index); cell-edge UEs stay unassigned and
    are returned as the reshuffled set, in ascending UE order.
    """
    edge = dep.rsrp_gap_db < threshold_db
    assign = np.where(edge, UNASSIGNED, dep.report_cells[:, 0]).astype(np.int64)
    g = ConnectionGraph(cell_adj=build_cell_graph(dep), assign=assign)
    return g, tuple(np.flatnonzero(edge).tolist())


def input_features(g: ConnectionGraph, cap: np.ndarray) -> NodeFeatures:
    """Assemble and normalize the three node-feature blocks.

    All six columns are divided by the mean link capacity of the deployment
    (plus a small epsilon).  The divisor depends only on the capacity matrix,
    never on the current assignment, so two candidate graphs for the same
    deployment keep their relative scale — the action scorer can tell a
    high-rate assignment from a low-rate one.  The same normalization runs at
    training and inference time.
    """
    per_ue, per_cell, _ = _rates(g, cap)
    return _features(g.cell_adj, cap, per_cell, per_ue)


def _features(cell_adj: np.ndarray, cap: np.ndarray, per_cell: np.ndarray,
              per_ue: np.ndarray) -> NodeFeatures:
    """The normalized blocks of cell throughputs ``per_cell`` and UE rates ``per_ue``,
    each of one graph or of several on a leading axis (the two counts may differ)."""
    blocks = (((cell_adj @ per_cell[..., None])[..., 0], per_cell),
              (per_cell, cap.sum(axis=1)),
              (cap.sum(axis=0), per_ue))
    scale = cap.mean() + FEATURE_NORM_EPS
    feats = [np.empty((*np.broadcast_shapes(a.shape, b.shape), 2)) for a, b in blocks]
    for f, (a, b) in zip(feats, blocks):
        np.divide(a, scale, out=f[..., 0])
        np.divide(b, scale, out=f[..., 1])
    return NodeFeatures(*feats)
