"""Graph Q-network over the connection graph, with hand-rolled backprop.

Two node sets exchange messages: cell embeddings aggregate over the
cell-cell adjacency and over their served UEs, UE embeddings aggregate from
their serving cell.  After the last round the cell embeddings are summed,
projected, and rectified into a scalar action value, so the score is
invariant to any relabeling of cells or UEs.

Everything is plain numpy; gradients come from ``backward`` which walks the
cached forward trace in reverse.  No biases anywhere, ReLU everywhere, and
ReLU'(0) is taken as 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from cellconn.graph import (DEFAULT_EDGE_THRESHOLD_DB, ConnectionGraph, NodeFeatures, connect,
                            input_features, ue_adjacency)

MODEL_FORMAT_VERSION = 2  # version 1 files carry no threshold and load with the default


def _relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


class GnnParams:
    """Weights of the Q-network, held in one contiguous float64 vector.

    w1/w2/w3 hold one matrix per message-passing round: (2, width) for the
    first round (raw features are 2-wide), (width, width) afterwards.
    w4 is (width, width), w5 a width-vector; both belong to the readout head.
    Each is a view into ``vec``, laid out in the order of ``arrays``: w1, w2
    and w3 round by round, then w4, w5.  ``vec`` defaults to zeros.
    ``edge_threshold_db`` is the cell-edge threshold the weights were trained with.
    """

    def __init__(self, n_layers: int, width: int, vec: np.ndarray | None = None,
                 edge_threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB):
        if n_layers < 1 or width < 1:
            raise ValueError(f"need layers >= 1 and width >= 1, got {n_layers}/{width}")
        rounds = [(2 if layer == 0 else width, width) for layer in range(n_layers)]
        shapes = [*rounds, *rounds, *rounds, (width, width), (width,)]
        bounds = np.cumsum([0, *(math.prod(s) for s in shapes)])
        self.n_layers, self.width, self.edge_threshold_db = n_layers, width, edge_threshold_db
        self.vec = np.zeros(bounds[-1]) if vec is None else vec
        self.arrays = [self.vec[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
        n = n_layers
        self.w1, self.w2, self.w3 = self.arrays[:n], self.arrays[n:2 * n], self.arrays[2 * n:3 * n]
        self.w4, self.w5 = self.arrays[3 * n:]


def init_params(seed: int, n_layers: int = 2, width: int = 8,
                init_std: float = 0.01) -> GnnParams:
    """Gaussian-initialized weights, deterministic in the seed.

    Raises:
        ValueError: non-positive init_std (a zero standard deviation would
            freeze the score at 0 forever), or a layer count or width below 1
            (checked by ``GnnParams``).
    """
    if init_std <= 0:
        raise ValueError(f"init_std must be > 0, got {init_std}")
    rng = np.random.default_rng(seed)
    p = GnnParams(n_layers, width)
    for layer in range(n_layers):
        for w in (p.w1, p.w2, p.w3):
            w[layer][...] = rng.normal(0.0, init_std, size=w[layer].shape)
    p.w4[...] = rng.normal(0.0, init_std, size=p.w4.shape)
    p.w5[...] = rng.normal(0.0, init_std, size=width)
    return p


@dataclass
class ForwardTrace:
    """Everything ``backward`` needs: per-round inputs and pre-activations."""

    a_cl: np.ndarray
    a_ue: np.ndarray
    x1: list[np.ndarray] = field(default_factory=list)
    x2: list[np.ndarray] = field(default_factory=list)
    xu: list[np.ndarray] = field(default_factory=list)
    u1: list[np.ndarray] = field(default_factory=list)
    u2: list[np.ndarray] = field(default_factory=list)
    u3: list[np.ndarray] = field(default_factory=list)
    h_cl: list[np.ndarray] = field(default_factory=list)
    h_ue: list[np.ndarray] = field(default_factory=list)
    pooled: np.ndarray | None = None
    z: np.ndarray | None = None
    score: float = 0.0


def forward(p: GnnParams, g: ConnectionGraph, feats: NodeFeatures) -> ForwardTrace:
    """Run the message-passing rounds and the readout head.

    Per round l (inputs x1, x2 over cells, xu over UEs):
        h_cl = relu(x1 w1[l]) + relu(x2 w2[l])
        h_ue = relu(xu w3[l])
        x1' = A_cl h_cl ; xu' = A_ue^T h_cl ; x2' = A_ue h_ue
    Readout: score = relu(sum_rows(h_cl) w4) . w5
    """
    t = ForwardTrace(a_cl=g.cell_adj, a_ue=ue_adjacency(g))
    x1, x2, xu = feats.cell_rate, feats.cell_cap, feats.ue
    for layer in range(p.n_layers):
        t.x1.append(x1)
        t.x2.append(x2)
        t.xu.append(xu)
        u1 = x1 @ p.w1[layer]
        u2 = x2 @ p.w2[layer]
        u3 = xu @ p.w3[layer]
        h_cl = _relu(u1) + _relu(u2)
        h_ue = _relu(u3)
        t.u1.append(u1)
        t.u2.append(u2)
        t.u3.append(u3)
        t.h_cl.append(h_cl)
        t.h_ue.append(h_ue)
        if layer + 1 < p.n_layers:
            x1 = t.a_cl @ h_cl
            xu = t.a_ue.T @ h_cl
            x2 = t.a_ue @ h_ue
    t.pooled = t.h_cl[-1].sum(axis=0)
    t.z = t.pooled @ p.w4
    t.score = float(_relu(t.z) @ p.w5)
    return t


def backward(p: GnnParams, t: ForwardTrace) -> GnnParams:
    """Gradient of the scalar score w.r.t. every weight, from a forward trace,
    laid out as a GnnParams (d(score)/d(weight) in each weight's slot)."""
    n_cells = t.a_cl.shape[0]
    grad = GnnParams(p.n_layers, p.width)
    grad.w5[...] = _relu(t.z)
    g_z = p.w5 * (t.z > 0)
    grad.w4[...] = np.outer(t.pooled, g_z)
    g_pool = p.w4 @ g_z
    g_hcl = np.broadcast_to(g_pool, (n_cells, g_pool.shape[0])).copy()
    g_hue = np.zeros_like(t.h_ue[-1])  # last round's UE embeddings feed nothing

    for layer in reversed(range(p.n_layers)):
        g_u1 = g_hcl * (t.u1[layer] > 0)
        g_u2 = g_hcl * (t.u2[layer] > 0)
        g_u3 = g_hue * (t.u3[layer] > 0)
        grad.w1[layer][...] = t.x1[layer].T @ g_u1
        grad.w2[layer][...] = t.x2[layer].T @ g_u2
        grad.w3[layer][...] = t.xu[layer].T @ g_u3
        if layer > 0:
            g_x1 = g_u1 @ p.w1[layer].T
            g_x2 = g_u2 @ p.w2[layer].T
            g_xu = g_u3 @ p.w3[layer].T
            g_hcl = t.a_cl.T @ g_x1 + t.a_ue @ g_xu
            g_hue = t.a_ue.T @ g_x2
    return grad


def score_action(p: GnnParams, g: ConnectionGraph, cap: np.ndarray,
                 cell: int, ue: int) -> float:
    """Q-value of attaching ``ue`` to ``cell``: score of the resulting graph."""
    g_next = connect(g, cell, ue)
    return forward(p, g_next, input_features(g_next, cap)).score


def score_actions(p: GnnParams, g: ConnectionGraph, cap: np.ndarray,
                  actions: list[tuple[int, int]]) -> np.ndarray:
    """Q-values of the (cell, ue) actions, in their order."""
    return np.array([score_action(p, g, cap, cell, ue) for cell, ue in actions])


def save_model(p: GnnParams, path: str) -> None:
    """Serialize weights and threshold as JSON (row-major lists; doubles round-trip exactly)."""
    doc = {
        "format_version": MODEL_FORMAT_VERSION,
        "layers": p.n_layers,
        "width": p.width,
        "edge_threshold_db": p.edge_threshold_db,
        "w1": [w.tolist() for w in p.w1],
        "w2": [w.tolist() for w in p.w2],
        "w3": [w.tolist() for w in p.w3],
        "w4": p.w4.tolist(),
        "w5": p.w5.tolist(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
        fh.write("\n")


def load_model(path: str) -> GnnParams:
    """Load a model file written by ``save_model``, of format 1 or 2.

    Raises:
        ValueError: unknown format version, layers or width below 1,
            inconsistent shapes, non-finite weights or a NaN threshold.
    """
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise ValueError(f"unsupported model format_version {version!r}")
    n_layers, width = int(doc["layers"]), int(doc["width"])
    rounds = [[np.asarray(w, dtype=float) for w in doc[k]] for k in ("w1", "w2", "w3")]
    w4 = np.asarray(doc["w4"], dtype=float)
    w5 = np.asarray(doc["w5"], dtype=float)
    expected = [(2 if i == 0 else width, width) for i in range(n_layers)]
    for mats in rounds:
        if [m.shape for m in mats] != expected:
            raise ValueError(f"model file shapes do not match layers={n_layers} width={width}")
    if w4.shape != (width, width) or w5.shape != (width,):
        raise ValueError("model file readout shapes do not match declared width")
    flat = [m.ravel() for mats in rounds for m in mats]
    vec = np.concatenate([*flat, w4.ravel(), w5])
    threshold = DEFAULT_EDGE_THRESHOLD_DB if version == 1 else float(doc["edge_threshold_db"])
    if not np.isfinite(vec).all() or math.isnan(threshold):
        raise ValueError("model file weights must be finite and its threshold not NaN")
    return GnnParams(n_layers, width, vec, threshold)
