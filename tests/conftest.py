"""Shared builders for hand-constructed test instances."""

from __future__ import annotations

import numpy as np
import pytest

from cellconn.graph import UNASSIGNED, ConnectionGraph
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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
