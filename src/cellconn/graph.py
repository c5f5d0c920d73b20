"""Connection graph between cells and user terminals, plus GNN input features.

The graph has two node sets: cells (linked to each other when closer than
``d_max_m``) and UEs (linked to at most one serving cell).  Assignments are
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


def build_cell_graph(dep: Deployment, d_max_m: float = DEFAULT_D_MAX_M) -> np.ndarray:
    """Symmetric zero-diagonal cell adjacency: sites strictly closer than d_max_m."""
    d = dep.cells[:, None, :] - dep.cells[None, :, :]
    dist = np.hypot(d[..., 0], d[..., 1])
    adj = (dist < d_max_m).astype(float)
    np.fill_diagonal(adj, 0.0)
    return adj


@dataclass(frozen=True)
class ConnectionGraph:
    """Cell-cell adjacency plus the current UE-to-cell assignment.

    ``assign[j]`` is the serving cell of UE j, or UNASSIGNED.
    """

    cell_adj: np.ndarray
    assign: np.ndarray
    d_max_m: float = DEFAULT_D_MAX_M

    @property
    def n_cells(self) -> int:
        return self.cell_adj.shape[0]

    @property
    def n_ues(self) -> int:
        return self.assign.shape[0]

    def loads(self) -> np.ndarray:
        """Number of UEs served by each cell."""
        served = self.assign[self.assign != UNASSIGNED]
        return np.bincount(served, minlength=self.n_cells)

    def assigned_ues(self) -> np.ndarray:
        return np.nonzero(self.assign != UNASSIGNED)[0]

    def unassigned_ues(self) -> np.ndarray:
        return np.nonzero(self.assign == UNASSIGNED)[0]


def connect(g: ConnectionGraph, cell: int, ue: int) -> ConnectionGraph:
    """Attach an unassigned UE to a cell, returning the new graph.

    Raises:
        ValueError: index out of range, or the UE is already connected.
    """
    if not 0 <= cell < g.n_cells:
        raise ValueError(f"cell index {cell} out of range [0, {g.n_cells})")
    if not 0 <= ue < g.n_ues:
        raise ValueError(f"UE index {ue} out of range [0, {g.n_ues})")
    if g.assign[ue] != UNASSIGNED:
        raise ValueError(f"UE {ue} already connected to cell {g.assign[ue]}")
    assign = g.assign.copy()
    assign[ue] = cell
    return replace(g, assign=assign)


def ue_adjacency(g: ConnectionGraph) -> np.ndarray:
    """(n_cells, n_ues) incidence matrix of the current assignment."""
    a = np.zeros((g.n_cells, g.n_ues))
    served = g.assigned_ues()
    a[g.assign[served], served] = 1.0
    return a


def ue_rates(g: ConnectionGraph, cap: np.ndarray) -> np.ndarray:
    """Per-UE shared rate: capacity split evenly across the serving cell's load.

    Unassigned UEs have rate zero.
    """
    loads = g.loads()
    rates = np.zeros(g.n_ues)
    served = g.assigned_ues()
    cells = g.assign[served]
    rates[served] = cap[cells, served] / loads[cells]
    return rates


@dataclass(frozen=True)
class NodeFeatures:
    """Per-node GNN inputs, already normalized.

    cell_rate: (n_cells, 2) columns [adjacent cells' summed throughput,
        own served throughput].
    cell_cap: (n_cells, 2) columns [own served throughput, total capacity
        toward every UE].
    ue: (n_ues, 2) columns [total capacity from every cell, own rate].
    """

    cell_rate: np.ndarray
    cell_cap: np.ndarray
    ue: np.ndarray


class UeClass(enum.Enum):
    """Cell-center UEs keep their strongest cell; cell-edge UEs get reshuffled."""

    CELL_CENTER = "cell_center"
    CELL_EDGE = "cell_edge"


DEFAULT_EDGE_THRESHOLD_DB = 3.0


def _edge_mask(dep: Deployment, threshold_db: float) -> np.ndarray:
    """(n_ues,) bool: the gap between a UE's two strongest RSRP measurements
    is below ``threshold_db``.  All False with a single cell."""
    if dep.n_cells == 1:
        return np.zeros(dep.n_ues, dtype=bool)
    top2 = -np.partition(-dep.rsrp_dbm, 1, axis=0)[:2, :]
    return top2[0] - top2[1] < threshold_db


def classify_ues(dep: Deployment, threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB) -> list[UeClass]:
    """Label each UE by the gap between its two strongest RSRP measurements.

    A gap below ``threshold_db`` means no clearly dominant cell, so the UE is
    cell-edge.  With a single cell every UE is cell-center.
    """
    return [UeClass.CELL_EDGE if edge else UeClass.CELL_CENTER
            for edge in _edge_mask(dep, threshold_db)]


def initial_graph(dep: Deployment, threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB,
                  d_max_m: float = DEFAULT_D_MAX_M) -> tuple[ConnectionGraph, tuple[int, ...]]:
    """Starting state of an episode.

    Cell-center UEs attach to their strongest cell (ties to the lower cell
    index); cell-edge UEs stay unassigned and are returned as the reshuffled
    set, in ascending UE order.
    """
    edge = _edge_mask(dep, threshold_db)
    assign = np.where(edge, UNASSIGNED, np.argmax(dep.rsrp_dbm, axis=0)).astype(np.int64)
    g = ConnectionGraph(cell_adj=build_cell_graph(dep, d_max_m), assign=assign,
                        d_max_m=d_max_m)
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
    per_ue = ue_rates(g, cap)
    served = g.assigned_ues()
    per_cell = np.bincount(g.assign[served], weights=per_ue[served],
                           minlength=g.n_cells)

    scale = cap.mean() + FEATURE_NORM_EPS
    cell_rate = np.stack([g.cell_adj @ per_cell, per_cell], axis=1)
    cell_cap = np.stack([per_cell, cap.sum(axis=1)], axis=1)
    ue = np.stack([cap.sum(axis=0), per_ue], axis=1)
    return NodeFeatures(cell_rate=cell_rate / scale,
                        cell_cap=cell_cap / scale,
                        ue=ue / scale)
