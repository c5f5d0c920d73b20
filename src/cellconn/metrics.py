"""Network-level objectives: throughput, cell-edge coverage, load fairness.

All metrics take a connection graph plus the (n_cells, n_ues) capacity
matrix and treat each cell's capacity as shared equally among its UEs.
"""

from __future__ import annotations

import numpy as np

from cellconn.graph import ConnectionGraph, ue_rates


def sum_throughput(g: ConnectionGraph, cap: np.ndarray) -> float:
    """Total network throughput: sum of every assigned UE's shared rate."""
    return float(ue_rates(g, cap).sum())


def coverage(g: ConnectionGraph, cap: np.ndarray) -> float:
    """Cell-edge user rate: 5th-percentile shared rate among assigned UEs.

    Computed as the k-th smallest assigned rate with k = ceil(0.05 * m),
    m the number of assigned UEs (so k = 1 up to 20 UEs).

    Raises:
        ValueError: no UE is assigned.
    """
    served = g.assigned_ues()
    if served.size == 0:
        raise ValueError("coverage undefined: no UE is assigned")
    rates = np.sort(ue_rates(g, cap)[served])
    k = max(1, (served.size + 19) // 20)  # ceil(m / 20) in exact integer math
    return float(rates[k - 1])


def jain_index(g: ConnectionGraph) -> float:
    """Jain's fairness index (sum x)^2 / (n * sum x^2) over per-cell loads.

    Every cell counts, loaded or not; the index is 1 exactly when all cells
    carry identical load.

    Raises:
        ValueError: no UE is assigned.
    """
    loads = g.loads().astype(float)
    total = loads.sum()
    if total == 0:
        raise ValueError("fairness undefined: no UE is assigned")
    return float(total * total / (g.n_cells * np.square(loads).sum()))


def fair_bonus(g: ConnectionGraph, cap: np.ndarray, lam: float) -> float:
    """Worst-link term: (lam / n_cells) * sum over loaded cells of the
    smallest capacity among that cell's UEs.  Empty cells contribute zero."""
    served = g.assigned_ues()
    if served.size == 0:
        return 0.0
    worst = np.full(g.n_cells, np.inf)
    np.minimum.at(worst, g.assign[served], cap[g.assign[served], served])
    return lam / g.n_cells * float(worst[np.isfinite(worst)].sum())


def reward_throughput(g_prev: ConnectionGraph, g_next: ConnectionGraph,
                      cap: np.ndarray) -> float:
    """Step reward: change in total throughput."""
    return sum_throughput(g_next, cap) - sum_throughput(g_prev, cap)


def reward_fair(g_prev: ConnectionGraph, g_next: ConnectionGraph,
                cap: np.ndarray, lam: float = 0.5) -> float:
    """Step reward: throughput change plus the worst-link bonus of the new state.

    The bonus (`fair_bonus`) rewards each loaded cell's weakest *raw* link
    capacity cap[c, u], which does not depend on how many UEs share the
    cell. It therefore grows when the weak UEs are piled onto one cell
    rather than spread out, and it favours neither coverage (the
    5th-percentile shared rate) nor Jain's load index. The README's "Known
    red" paragraph gives the measured effect on acceptance criterion 5.
    """
    return reward_throughput(g_prev, g_next, cap) + fair_bonus(g_next, cap, lam)
