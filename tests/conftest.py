"""Shared builders for hand-constructed test instances."""

from __future__ import annotations

import copy
import json
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import strategies as st

from cellconn.graph import UNASSIGNED, ConnectionGraph
from cellconn.metrics import coverage, jain_index, sum_throughput
from cellconn.netmodel import (Deployment, RadioConfig, distance_3d_m,
                               pathloss_db)


def make_graph(n_cells: int, assign, cell_adj: np.ndarray | None = None) -> ConnectionGraph:
    """Graph with an explicit assignment list (None entries = unassigned)."""
    a = np.array([UNASSIGNED if x is None else x for x in assign], dtype=np.int64)
    if cell_adj is None:
        cell_adj = np.zeros((n_cells, n_cells))
    return ConnectionGraph(cell_adj=cell_adj, assign=a)


def make_deployment(cells, ues, shadow_db=None, seed: int = 0,
                    hex_diameter_m: float = 500.0,
                    radio: RadioConfig | None = None) -> Deployment:
    """Deployment from explicit positions (bypasses sampling)."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 2)
    ues = np.asarray(ues, dtype=float).reshape(-1, 2)
    if shadow_db is None:
        shadow_db = np.zeros((cells.shape[0], ues.shape[0]))
    return Deployment(seed=seed, hex_diameter_m=hex_diameter_m,
                      radio=radio or RadioConfig(),
                      cells=cells, ues=ues, shadow_db=np.asarray(shadow_db, dtype=float))


def deployment_with_rsrp(target_rsrp_dbm, cells=None, ues=None,
                         radio: RadioConfig | None = None) -> Deployment:
    """Deployment whose RSRP map equals the requested matrix exactly.

    Works by solving the shadow term: shadow = tx - pathloss - target.
    """
    target = np.asarray(target_rsrp_dbm, dtype=float)
    n_cells, n_ues = target.shape
    radio = radio or RadioConfig()
    if cells is None:
        cells = [(10.0 * i, 0.0) for i in range(n_cells)]
    if ues is None:
        ues = [(0.0, 10.0 * (j + 1)) for j in range(n_ues)]
    dep = make_deployment(cells, ues, radio=radio)
    pl = pathloss_db(distance_3d_m(dep), radio.carrier_ghz)
    shadow = radio.tx_power_dbm - pl - target
    return make_deployment(cells, ues, shadow, radio=radio)


@dataclass(frozen=True)
class UtilityWeights:
    """Weights of the scalarized network utility."""

    throughput: float = 1.0
    coverage: float = 1.0
    fairness: float = 1.0


def utility(g: ConnectionGraph, cap: np.ndarray, w: UtilityWeights) -> float:
    """Weighted sum of the three objectives; zero-weight terms are skipped.

    Skipping matters mid-episode: with no assigned UEs, coverage/fairness
    raise, but a zero weight means the term is never evaluated.
    """
    total = 0.0
    if w.throughput != 0.0:
        total += w.throughput * sum_throughput(g, cap)
    if w.coverage != 0.0:
        total += w.coverage * coverage(g, cap)
    if w.fairness != 0.0:
        total += w.fairness * jain_index(g)
    return total


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# JSON values a loader must refuse or survive: bools, strings, null, numbers
# beyond the float range, NaN and infinities, large integers, and lists and
# objects where a scalar belongs.  A large integer fails at once where a loader
# would allocate from it (a model of width 10**6 asks for 29 TiB); none is drawn
# where a lost check would loop over it instead (see ``mutated``).
HOSTILE = (True, False, None, "", "1", 10 ** 400, -10 ** 400, math.nan, math.inf, -math.inf,
           2 ** 63, 10 ** 6, -1, 0, 1e308, -1e308, [], [[]], [[1.0], 2.0], {}, {"k": [1]})


def _nodes(doc, path=()):
    """Every (path, value) below ``doc``, through objects and lists."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,), value
        yield from _nodes(value, path + (key,))


def saved_doc(save, obj) -> dict:
    """The JSON document that ``save(obj, path)`` writes."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        save(obj, path)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)


@st.composite
def mutated(draw, doc: dict, counts: tuple[str, ...] = ()) -> tuple[bytes, bool]:
    """The bytes of a file holding ``doc`` with one mutation, and whether they are
    still JSON.  The document mutations replace one value anywhere by a ``HOSTILE``
    one, delete one object key or add one unknown key to an object; a key in
    ``counts`` is a loop count, which never gets a large integer.  The byte
    corruptions cut the file short (before its closing brace) or insert a 0xff
    byte, which UTF-8 never holds."""
    kind = draw(st.sampled_from(("replace", "delete", "add", "truncate", "insert 0xff")))
    if kind in ("truncate", "insert 0xff"):
        data = json.dumps(doc).encode()
        at = draw(st.integers(0, len(data) - (kind == "truncate")))
        return data[:at] + (b"" if kind == "truncate" else b"\xff" + data[at:]), False
    doc = copy.deepcopy(doc)
    if kind == "add":
        objects = [()] + [p for p, v in _nodes(doc) if isinstance(v, dict)]
        path, key = draw(st.sampled_from(objects)), "unknown_key"
        value = draw(st.sampled_from(HOSTILE))
    else:
        paths = [p for p, _ in _nodes(doc) if kind == "replace" or isinstance(p[-1], str)]
        *path, key = draw(st.sampled_from(paths))
        value = draw(st.sampled_from([v for v in HOSTILE if key not in counts
                                      or not (type(v) is int and v > 100)]))
    parent = doc
    for k in path:
        parent = parent[k]
    if kind == "delete":
        del parent[key]
    else:
        parent[key] = value
    return json.dumps(doc).encode(), True
