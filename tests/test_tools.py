"""The study scripts under tools/, run on instances small enough to enumerate."""

import importlib.util
import itertools
import math
from pathlib import Path

import pytest

from cellconn.dqn import TrainConfig, deployment_state
from cellconn.graph import connect
from cellconn.metrics import reward_fair
from cellconn.netmodel import generate_deployment

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fair_reward_optimum_reaches_the_best_episode_return():
    tool = load_tool("fair_reward_optimum")
    lam = 0.5
    for seed in (1, 2, 3):
        state = deployment_state(generate_deployment(seed, 2, 4),
                                 TrainConfig(edge_threshold_db=math.inf))
        best_return: dict[tuple[int, ...], float] = {}  # final assignment -> best return
        episodes = 0
        for order in itertools.permutations(state.unassigned):
            for cells in itertools.product(*(state.candidates[u] for u in order)):
                g, ret = state.graph, 0.0
                for u, c in zip(order, cells):
                    nxt = connect(g, c, u)
                    ret += reward_fair(g, nxt, state.cap, lam)
                    g = nxt
                final = tuple(g.assign.tolist())
                best_return[final] = max(best_return.get(final, -math.inf), ret)
                episodes += 1
        assert episodes == 384  # 4! orders x 2 report cells for each of 4 UEs
        got = tuple(tool.optimal_final_graph(state, lam).assign.tolist())
        assert best_return[got] == pytest.approx(max(best_return.values()), rel=1e-12)
