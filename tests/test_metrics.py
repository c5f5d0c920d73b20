"""Objectives and rewards, pinned to hand-evaluated instances."""

import itertools
import math

import numpy as np
import pytest

from cellconn.graph import UNASSIGNED, capacity_matrix, connect
from cellconn.metrics import (coverage, fair_bonus, jain_index, reward_fair,
                              reward_throughput, sum_throughput)
from cellconn.netmodel import generate_deployment

from conftest import UtilityWeights, make_graph, utility


def test_throughput_shared_cell():
    # one cell serving UEs with capacities {4, 2}: (4+2)/2 = 3.0
    g = make_graph(1, [0, 0])
    cap = np.array([[4.0, 2.0]])
    assert sum_throughput(g, cap) == pytest.approx(3.0, rel=1e-12)


def test_throughput_empty_assignment_zero():
    g = make_graph(2, [None, None, None])
    assert sum_throughput(g, np.full((2, 3), 5.0)) == 0.0


def test_throughput_two_singleton_cells():
    g = make_graph(2, [0, 1])
    cap = np.array([[5.0, 9.9], [1.0, 3.0]])
    assert sum_throughput(g, cap) == pytest.approx(8.0, rel=1e-12)


def test_coverage_k_is_one_up_to_twenty_ues():
    # 20 assigned UEs on their own cells with distinct rates → the smallest
    cap = np.diag(np.arange(1.0, 21.0))
    g = make_graph(20, list(range(20)))
    assert coverage(g, cap) == pytest.approx(1.0, rel=1e-12)


def test_coverage_k_is_two_at_forty_ues():
    cap = np.diag(np.arange(1.0, 41.0))
    g = make_graph(40, list(range(40)))
    assert coverage(g, cap) == pytest.approx(2.0, rel=1e-12)


def test_coverage_single_ue():
    g = make_graph(1, [0])
    assert coverage(g, np.array([[3.3]])) == pytest.approx(3.3, rel=1e-12)


def test_coverage_requires_an_assignment():
    g = make_graph(1, [None])
    with pytest.raises(ValueError, match="no UE is assigned"):
        coverage(g, np.array([[1.0]]))


def test_coverage_bounded_by_rate_extremes(rng):
    for _ in range(20):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 30))
        g = make_graph(n, [int(x) for x in rng.integers(0, n, size=m)])
        cap = rng.uniform(0.1, 8.0, size=(n, m))
        rates = [cap[g.assign[j], j] / g.loads()[g.assign[j]] for j in range(m)]
        assert min(rates) <= coverage(g, cap) <= max(rates)


def test_jain_balanced_loads_is_one():
    # loads {2,2,2} over 3 cells, 6 UEs
    g = make_graph(3, [0, 0, 1, 1, 2, 2])
    assert jain_index(g) == pytest.approx(1.0, rel=1e-12)


def test_jain_single_loaded_cell_of_three():
    # loads {4,0,0}: (4)^2 / (3 * 16) = 1/3
    g = make_graph(3, [0, 0, 0, 0])
    assert jain_index(g) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_jain_uneven_split_four_cells():
    # loads {3,1,0,0}: 16 / (4 * 10) = 0.4
    g = make_graph(4, [0, 0, 0, 1])
    assert jain_index(g) == pytest.approx(0.4, rel=1e-12)


def test_jain_range_and_equality_condition(rng):
    for _ in range(30):
        n, m = int(rng.integers(1, 6)), int(rng.integers(1, 25))
        g = make_graph(n, [int(x) for x in rng.integers(0, n, size=m)])
        j = jain_index(g)
        assert 0.0 < j <= 1.0 + 1e-15
        loads = g.loads()
        if np.all(loads == loads[0]):
            assert j == pytest.approx(1.0, rel=1e-12)
        else:
            assert j < 1.0


def test_jain_requires_an_assignment():
    with pytest.raises(ValueError, match="no UE is assigned"):
        jain_index(make_graph(2, [None]))


def test_utility_single_weight_reduces_to_throughput():
    g = make_graph(1, [0, 0])
    cap = np.array([[4.0, 2.0]])
    w = UtilityWeights(throughput=1.0, coverage=0.0, fairness=0.0)
    assert utility(g, cap, w) == sum_throughput(g, cap)


def test_utility_fairness_only_balanced():
    g = make_graph(2, [0, 1])
    w = UtilityWeights(throughput=0.0, coverage=0.0, fairness=1.0)
    assert utility(g, np.ones((2, 2)), w) == pytest.approx(1.0, rel=1e-12)


def test_utility_all_terms_hand_value():
    # U_th = 3.0, coverage = min rate = 1.0, Jain over one cell = 1.0
    g = make_graph(1, [0, 0])
    cap = np.array([[4.0, 2.0]])
    assert utility(g, cap, UtilityWeights(1.0, 1.0, 1.0)) == pytest.approx(
        5.0, rel=1e-12)


def test_utility_zero_weights_skip_undefined_terms():
    g = make_graph(1, [None])
    w = UtilityWeights(throughput=1.0, coverage=0.0, fairness=0.0)
    assert utility(g, np.array([[2.0]]), w) == 0.0  # coverage would raise


def test_reward_first_connection_adds_capacity():
    g0 = make_graph(1, [None])
    g1 = connect(g0, 0, 0)
    assert reward_throughput(g0, g1, np.array([[4.0]])) == pytest.approx(4.0)


def test_reward_zero_capacity_ue_dilutes():
    g0 = make_graph(1, [0, None])
    g1 = connect(g0, 0, 1)
    cap = np.array([[4.0, 0.0]])
    assert reward_throughput(g0, g1, cap) <= 0.0


def test_reward_join_loaded_cell_hand_value():
    # (4/2 + 2/2) − 4 = −1
    g0 = make_graph(1, [0, None])
    g1 = connect(g0, 0, 1)
    cap = np.array([[4.0, 2.0]])
    assert reward_throughput(g0, g1, cap) == pytest.approx(-1.0, rel=1e-12)


def test_reward_fair_lambda_zero_equals_throughput(rng):
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(2, 8))
        cap = rng.uniform(0.1, 6.0, size=(n, m))
        assign = [int(x) if x < n else None for x in rng.integers(0, n + 1, size=m)]
        g0 = make_graph(n, assign)
        free = np.flatnonzero(g0.assign == UNASSIGNED)
        if free.size == 0:
            continue
        g1 = connect(g0, int(rng.integers(n)), int(free[0]))
        assert reward_fair(g0, g1, cap, 0.0) == reward_throughput(g0, g1, cap)


def test_reward_fair_single_link_hand_value():
    # throughput delta 4.0 plus (1/1) * min-capacity 4.0 = 8.0
    g0 = make_graph(1, [None])
    g1 = connect(g0, 0, 0)
    assert reward_fair(g0, g1, np.array([[4.0]]), lam=1.0) == pytest.approx(
        8.0, rel=1e-12)


def test_fair_bonus_min_over_enlarged_set():
    cap = np.array([[4.0, 1.0]])
    one = make_graph(1, [0, None])
    both = make_graph(1, [0, 0])
    assert fair_bonus(one, cap, 1.0) == pytest.approx(4.0)
    assert fair_bonus(both, cap, 1.0) == pytest.approx(1.0)


def test_fair_bonus_empty_cells_contribute_zero():
    cap = np.array([[4.0], [9.0]])
    g = make_graph(2, [0])
    assert fair_bonus(g, cap, 1.0) == pytest.approx(0.5 * 4.0)  # lam/N = 1/2


def test_throughput_additive_across_cells(rng):
    for _ in range(10):
        n, m = int(rng.integers(1, 5)), int(rng.integers(1, 20))
        g = make_graph(n, [int(x) for x in rng.integers(0, n, size=m)])
        cap = rng.uniform(0.1, 8.0, size=(n, m))
        per_cell = []
        for i in range(n):
            members = [j for j in range(m) if g.assign[j] == i]
            per_cell.append(sum(cap[i, j] / len(members) for j in members) if members else 0.0)
        assert sum_throughput(g, cap) == pytest.approx(sum(per_cell), rel=1e-12)


def test_reward_telescoping_from_empty(rng):
    for _ in range(10):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 10))
        cap = rng.uniform(0.1, 8.0, size=(n, m))
        g = make_graph(n, [None] * m)
        total = 0.0
        for ue in rng.permutation(m):
            g_next = connect(g, int(rng.integers(n)), int(ue))
            total += reward_throughput(g, g_next, cap)
            g = g_next
        assert total == pytest.approx(sum_throughput(g, cap), rel=1e-12)


def test_brute_force_utility_oracle_self_consistency(rng):
    # Exhaustive enumeration over all N^M assignments: conftest's utility
    # must attain the same maximum as an independent straight-line scoring.
    w = UtilityWeights(1.0, 1.0, 1.0)
    for _ in range(5):
        n, m = 2, int(rng.integers(2, 5))
        cap = rng.uniform(0.5, 8.0, size=(n, m))
        best_module = -math.inf
        best_oracle = -math.inf
        for assign in itertools.product(range(n), repeat=m):
            g = make_graph(n, list(assign))
            best_module = max(best_module, utility(g, cap, w))
            # independent arithmetic: rates, 5th percentile, Jain
            loads = [assign.count(i) for i in range(n)]
            rates = sorted(cap[assign[j], j] / loads[assign[j]] for j in range(m))
            u_th = sum(rates)
            u_cov = rates[max(1, math.ceil(m / 20)) - 1]
            u_jain = sum(loads) ** 2 / (n * sum(l * l for l in loads))
            best_oracle = max(best_oracle, u_th + u_cov + u_jain)
        assert best_module == pytest.approx(best_oracle, rel=1e-12)
