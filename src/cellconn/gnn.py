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
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from cellconn.graph import (DEFAULT_EDGE_THRESHOLD_DB, ConnectionGraph, NodeFeatures,
                            attach_features, connect, input_features, ue_adjacency)
from cellconn.netmodel import is_number, number_array, read_json_object

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
        layout = _layout(n_layers, width)
        self.n_layers, self.width, self.edge_threshold_db = n_layers, width, edge_threshold_db
        self.vec = np.zeros(layout[-1][1]) if vec is None else vec
        self.arrays = [self.vec[a:b].reshape(s) for a, b, s in layout]
        n = n_layers
        self.w1, self.w2, self.w3 = self.arrays[:n], self.arrays[n:2 * n], self.arrays[2 * n:3 * n]
        self.w4, self.w5 = self.arrays[3 * n:]


def _weight_shapes(n_layers: int, width: int) -> list[tuple[int, ...]]:
    """The shapes of ``GnnParams.arrays``, in storage order."""
    rounds = [(2 if layer == 0 else width, width) for layer in range(n_layers)]
    return [*rounds, *rounds, *rounds, (width, width), (width,)]


@lru_cache(maxsize=16)
def _layout(n_layers: int, width: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(start, stop, shape) of each of ``GnnParams.arrays`` in ``vec``, in storage order."""
    shapes = _weight_shapes(n_layers, width)
    bounds = np.cumsum([0, *(math.prod(s) for s in shapes)]).tolist()
    return tuple(zip(bounds, bounds[1:], shapes))


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
class Round:
    """One message-passing round as ``backward`` reads it: inputs and pre-activations.
    The last round has no UE branch (``xu``, ``u3`` stay None): its UE embeddings feed nothing."""

    x1: np.ndarray
    x2: np.ndarray
    u1: np.ndarray
    u2: np.ndarray
    xu: np.ndarray | None = None
    u3: np.ndarray | None = None


@dataclass
class ForwardTrace:
    """Everything ``backward`` needs: one ``Round`` per layer and the readout.
    ``message`` is the first round's UE message if ``forward`` was given it."""

    a_cl: np.ndarray
    a_ue: np.ndarray
    message: np.ndarray | None = None
    rounds: list[Round] = field(default_factory=list)
    pooled: np.ndarray | None = None
    z: np.ndarray | None = None
    score: float | np.ndarray = 0.0


def forward(p: GnnParams, g: ConnectionGraph, feats: NodeFeatures,
            a_ue: np.ndarray | None = None, message: np.ndarray | None = None) -> ForwardTrace:
    """Run the message-passing rounds and the readout head.

    Per round l (inputs x1, x2 over cells, xu over UEs):
        h_cl = relu(x1 w1[l]) + relu(x2 w2[l]) ; x1' = A_cl h_cl
        h_ue = relu(xu w3[l]) ; x2' = A_ue h_ue ; xu' = A_ue^T h_cl
    Readout: score = relu(sum_rows(h_cl) w4) . w5
    The score reads only the last round's h_cl, so the last round computes no
    h_ue, and the round before it no xu'.  A_ue is ``a_ue``, or ``ue_adjacency(g)``.
    A given ``message`` is the first round's x2' = A_ue relu(xu w3[0]), and
    ``feats.ue`` is not read; ``backward`` refuses such a trace.
    The features and ``a_ue`` may stack K candidates on ``g``'s cells: every product
    then runs per candidate, bit for bit, and ``score`` is a (K,) array, not a float.
    """
    t = ForwardTrace(g.cell_adj, ue_adjacency(g) if a_ue is None else a_ue, message)
    x1, x2, xu = feats.cell_rate, feats.cell_cap, feats.ue
    for layer in range(p.n_layers):
        r = Round(x1, x2, x1 @ p.w1[layer], x2 @ p.w2[layer])
        t.rounds.append(r)
        h_cl = _relu(r.u1) + _relu(r.u2)
        if layer + 1 == p.n_layers:  # the last round: its UE embeddings feed nothing
            break
        x1 = t.a_cl @ h_cl
        if layer == 0 and message is not None:
            x2 = message
        else:
            r.xu, r.u3 = xu, xu @ p.w3[layer]
            x2 = t.a_ue @ _relu(r.u3)
        if layer + 2 < p.n_layers:  # xu' feeds only a UE branch
            xu = t.a_ue.swapaxes(-1, -2) @ h_cl
    t.pooled = h_cl.sum(axis=-2)
    t.z = (t.pooled[..., None, :] @ p.w4)[..., 0, :]  # a product per graph: one gemm sums otherwise
    score = (_relu(t.z)[..., None, :] @ p.w5)[..., 0]
    t.score = float(score) if score.ndim == 0 else score
    return t


def backward(p: GnnParams, t: ForwardTrace) -> GnnParams:
    """Gradient of the scalar score w.r.t. every weight, from a forward trace,
    laid out as a GnnParams (d(score)/d(weight) in each weight's slot).  The
    last round's ``w3`` is never read, and its slot stays zero.

    Raises:
        ValueError: ``t`` was given its first-round message, so it holds no
            UE inputs for that round's gradient.
    """
    if t.message is not None:
        raise ValueError("backward needs the first round's UE inputs; the trace was "
                         "given its message instead")
    grad = GnnParams(p.n_layers, p.width)
    grad.w5[...] = _relu(t.z)
    g_z = p.w5 * (t.z > 0)
    grad.w4[...] = np.outer(t.pooled, g_z)
    g_hcl = np.broadcast_to(p.w4 @ g_z, t.rounds[-1].u1.shape)
    for layer in reversed(range(p.n_layers)):
        r = t.rounds[layer]
        g_u1 = g_hcl * (r.u1 > 0)
        g_u2 = g_hcl * (r.u2 > 0)
        grad.w1[layer][...] = r.x1.T @ g_u1
        grad.w2[layer][...] = r.x2.T @ g_u2
        if r.u3 is not None:  # g_hue came from the round after this one
            g_u3 = g_hue * (r.u3 > 0)
            grad.w3[layer][...] = r.xu.T @ g_u3
        if layer > 0:
            g_hcl = t.a_cl.T @ (g_u1 @ p.w1[layer].T)
            if r.u3 is not None:
                g_hcl = g_hcl + t.a_ue @ (g_u3 @ p.w3[layer].T)
            g_hue = t.a_ue.T @ (g_u2 @ p.w2[layer].T)
    return grad


def score_action(p: GnnParams, g: ConnectionGraph, cap: np.ndarray,
                 cell: int, ue: int) -> float:
    """Q-value of attaching ``ue`` to ``cell``: score of the resulting graph."""
    g_next = connect(g, cell, ue)
    return forward(p, g_next, input_features(g_next, cap)).score


def score_actions(p: GnnParams, g: ConnectionGraph, cap: np.ndarray,
                  actions: list[tuple[int, int]]) -> np.ndarray:
    """Q-values of the (cell, ue) actions, in their order, with every action
    checked as ``connect`` checks it first.  Candidate k runs one ``forward`` on
    its after-state's cell blocks from ``attach_features``, one copy of ``g``'s UE
    adjacency with its entry (c, u) set, and one copy of ``g``'s first-round
    message with its row c set to the sum over c's UEs and u in ascending order;
    the entry and the row are set for that call only.  ``forward`` adds that row
    as a 0/1 product, in another order at some widths (OpenBLAS: 1-4 and 12, not 8),
    so each score is ``score_action``'s within 1e-12 of the largest score's magnitude.
    """
    feats, rows, action = attach_features(g, cap, actions)
    a_ue, w = ue_adjacency(g), p.width
    h = _relu(feats.ue @ p.w3[0])  # one (n_ues, 2) product per block, as forward computes it
    message = a_ue @ h[0]
    kept = message.copy()
    summed = np.bincount((action[:, None] * w + np.arange(w)).ravel(),
                         weights=h.reshape(-1, w)[rows].ravel(),
                         minlength=len(actions) * w).reshape(-1, w)
    scores = np.empty(len(actions))
    for k, (cell, ue) in enumerate(actions):
        a_ue[cell, ue], message[cell] = 1.0, summed[k]
        row = NodeFeatures(feats.cell_rate[k], feats.cell_cap[k], None)
        scores[k] = forward(p, g, row, a_ue, message).score
        a_ue[cell, ue], message[cell] = 0.0, kept[cell]
    return scores


def score_stacked(p: GnnParams, g: ConnectionGraph, feats: NodeFeatures,
                  cells: np.ndarray, ues: np.ndarray) -> np.ndarray:
    """Q-values of attaching each ``ues[k]`` to ``cells[k]`` in one stacked ``forward``,
    bit for bit each ``score_action``; ``feats`` is ``attach_features``' of these actions.
    Candidate k reads its cell blocks, UE block 1 + c of its cell c and a copy of ``g``'s
    UE adjacency with entry (c, u) set.  The block is the after-state's own in every
    row the copy selects; every other row meets a zero column and adds exact zeros.
    """
    a_ue = np.repeat(ue_adjacency(g)[None], len(cells), axis=0)
    a_ue[np.arange(len(cells)), cells, ues] = 1.0
    return forward(p, g, replace(feats, ue=feats.ue[1 + cells]), a_ue).score


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
        ValueError, starting with ``path``: a top level that is not an object
            or lacks a key, unknown format version, layers or width not an
            integer >= 1, a threshold that is not a number or is NaN, weight
            lists or matrices of the wrong length or shape, or weights that
            are not finite numbers.
    """
    doc = read_json_object(path, ("layers", "width", "w1", "w2", "w3", "w4", "w5"))
    version = doc.get("format_version")
    if type(version) is not int or version not in (1, MODEL_FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported model format_version {version!r}")
    n_layers, width = doc["layers"], doc["width"]
    if type(n_layers) is not int or type(width) is not int or min(n_layers, width) < 1:
        raise ValueError(f"{path}: need integers layers >= 1 and width >= 1, "
                         f"got {n_layers!r}/{width!r}")
    threshold = DEFAULT_EDGE_THRESHOLD_DB if version == 1 else doc.get("edge_threshold_db")
    if not is_number(threshold) or math.isnan(threshold):
        raise ValueError(f"{path}: edge_threshold_db must be a number and not NaN, "
                         f"got {threshold!r}")
    shapes = f"{path}: weight shapes do not match layers={n_layers} width={width}"
    rounds = [doc[k] for k in ("w1", "w2", "w3")]
    if any(not isinstance(mats, list) or len(mats) != n_layers for mats in rounds):
        raise ValueError(shapes)
    weights = [number_array(w, f"{path}: weights")  # the file's sizes: checked before allocating
               for w in (*rounds[0], *rounds[1], *rounds[2], doc["w4"], doc["w5"])]
    if [w.shape for w in weights] != _weight_shapes(n_layers, width):
        raise ValueError(shapes)
    vec = np.concatenate([w.ravel() for w in weights])
    if not np.isfinite(vec).all():
        raise ValueError(f"{path}: weights must be finite")
    return GnnParams(n_layers, width, vec, edge_threshold_db=float(threshold))
