"""Exact optimum of the `fair` step reward on small desk deployments.

Acceptance criterion 5 asks a `reward_kind="fair"` policy for positive
median coverage and Jain gains over max-RSRP. This study asks whether any
policy could get them from that reward: for every 6-cell x 30-UE evaluation
deployment (seeds 1_000_000 .. 1_000_520) with at most 6 cell-edge UEs, it
finds the return-maximising episode exactly, by dynamic programming over
every partial assignment of the cell-edge UEs, and reports the median gains
of that episode's final graph over the max-RSRP graph.

    PYTHONPATH=src python tools/fair_reward_optimum.py

It takes a few minutes on one core.
"""

from __future__ import annotations

import statistics
from functools import lru_cache

from cellconn.dqn import TrainConfig, deployment_state
from cellconn.graph import ConnectionGraph
from cellconn.metrics import coverage, fair_bonus, jain_index, sum_throughput
from cellconn.netmodel import generate_deployment
from cellconn.xapp import max_rsrp_graph

SEEDS = range(1_000_000, 1_000_521)
MAX_EDGE_UES = 6


def optimal_final_graph(state, lam: float) -> ConnectionGraph:
    """Final graph of an episode that maximises the `fair` return.

    The return is T(final) - T(initial) plus the bonus of every state the
    episode reaches, and a state is the partial assignment of the edge UEs,
    so the best continuation of each partial assignment is memoised.
    """
    g0, edge, cap = state.graph, state.unassigned, state.cap
    cands = [sorted(state.candidates[u]) for u in edge]

    def graph(partial):
        assign = g0.assign.copy()
        for u, c in zip(edge, partial):
            if c is not None:
                assign[u] = c
        return ConnectionGraph(cell_adj=g0.cell_adj, assign=assign)

    @lru_cache(maxsize=None)
    def best(partial):
        """(bonuses of the states after `partial` + final throughput, final)."""
        if None not in partial:
            return sum_throughput(graph(partial), cap), partial
        top = None
        for i, c_list in enumerate(cands):
            if partial[i] is not None:
                continue
            for c in c_list:
                nxt = partial[:i] + (c,) + partial[i + 1:]
                value, final = best(nxt)
                value += fair_bonus(graph(nxt), cap, lam)
                if top is None or value > top[0]:
                    top = (value, final)
        return top

    return graph(best((None,) * len(edge))[1])


def main() -> None:
    cfg = TrainConfig(reward_kind="fair", lambda_fair=0.5)
    gains: dict[str, list[float]] = {"throughput": [], "coverage": [], "jain": []}
    for seed in SEEDS:
        dep = generate_deployment(seed, 6, 30)
        cap = dep.cap
        state = deployment_state(dep, cfg)
        if len(state.unassigned) > MAX_EDGE_UES:
            continue
        g = optimal_final_graph(state, cfg.lambda_fair)
        b = max_rsrp_graph(dep)
        for name, value in (("throughput", lambda x: sum_throughput(x, cap)),
                            ("coverage", lambda x: coverage(x, cap)),
                            ("jain", jain_index)):
            gains[name].append(100.0 * (value(g) - value(b)) / value(b))
        print(f"seed {seed}: {len(state.unassigned)} edge UEs, "
              + ", ".join(f"{k} {v[-1]:+.2f}%" for k, v in gains.items()), flush=True)
    print(f"{len(gains['jain'])} deployments; medians vs max-RSRP: "
          + ", ".join(f"{k} {statistics.median(v):+.2f}%" for k, v in gains.items()))


if __name__ == "__main__":
    main()
