"""Connection graph, rates and GNN input features."""

import numpy as np
import pytest

import cellconn.gnn as gnn
from cellconn.dqn import EpisodeState, Transition
from cellconn.graph import (UNASSIGNED, ConnectionGraph, UeClass, attach_features,
                            build_cell_graph, capacity_matrix, classify_ues, connect,
                            initial_graph, input_features, ue_adjacency, ue_rates)
from cellconn.metrics import sum_throughput
from cellconn.netmodel import (RadioConfig, generate_deployment, rsrp_dbm, rsrp_matrix_dbm,
                               snr_linear)

from conftest import deployment_with_rsrp, make_deployment, make_graph


def test_capacity_matrix_matches_scalar_op():
    dep = generate_deployment(3, 4, 6)
    cap = capacity_matrix(dep)
    assert cap.shape == (4, 6)
    for c, u in [(0, 0), (1, 3), (3, 5)]:
        assert cap[c, u] == np.log2(1.0 + snr_linear(rsrp_dbm(dep, c, u), dep.radio))
    assert np.all(cap >= 0) and np.all(np.isfinite(cap))


def test_cell_graph_distance_rule():
    dep = make_deployment([(0, 0), (100, 0)], [(0, 0)])
    assert build_cell_graph(dep)[0, 1] == 1.0
    dep = make_deployment([(0, 0), (300, 0)], [(0, 0)])
    assert build_cell_graph(dep)[0, 1] == 0.0
    dep = make_deployment([(0, 0), (250, 0)], [(0, 0)])  # exactly 250 m: not strictly closer
    assert build_cell_graph(dep)[0, 1] == 0.0


def test_cell_graph_single_cell_zero():
    dep = make_deployment([(0, 0)], [(0, 0)])
    assert np.array_equal(build_cell_graph(dep), np.zeros((1, 1)))


def test_cell_graph_symmetric_zero_diagonal(rng):
    dep = generate_deployment(9, 6, 3)
    adj = build_cell_graph(dep)
    assert np.array_equal(adj, adj.T)
    assert np.all(np.diag(adj) == 0)


def test_connect_is_value_semantic():
    g = make_graph(2, [None, None])
    g2 = connect(g, 0, 0)
    assert g.assign[0] == UNASSIGNED
    assert g2.assign[0] == 0
    assert g2.loads()[0] == 1
    assert g2.assigned_ues().size == g.assigned_ues().size + 1


def test_connect_twice_raises():
    g = connect(make_graph(2, [None]), 1, 0)
    with pytest.raises(ValueError, match="already connected"):
        connect(g, 0, 0)


def test_connect_range_checks():
    g = make_graph(2, [None])
    with pytest.raises(ValueError, match="cell index"):
        connect(g, 2, 0)
    with pytest.raises(ValueError, match="UE index"):
        connect(g, 0, 1)


def test_connect_all_reaches_terminal():
    g = make_graph(3, [None] * 5)
    for ue in range(5):
        g = connect(g, ue % 3, ue)
    assert np.all(g.assign != UNASSIGNED)
    assert g.loads().sum() == 5


def test_ue_adjacency_column_and_row_sums():
    g = make_graph(3, [0, 0, 2, None])
    a = ue_adjacency(g)
    assert a.shape == (3, 4)
    assert np.all(a.sum(axis=0) <= 1)
    assert np.array_equal(a.sum(axis=1), g.loads())


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("case", ["one cell", "every UE pending", "partly assigned", "no action"])
def test_target_inputs_are_the_connected_graphs_bit_for_bit(case, monkeypatch):
    # candidate k of the TD target's stacked pass reads the cell blocks and UE adjacency
    # of connect(g, *actions[k]), and that graph's UE rows wherever the adjacency selects
    dep = generate_deployment(5, 1 if case == "one cell" else 6, 30)
    g, _ = initial_graph(dep)
    assign = np.full_like(g.assign, UNASSIGNED) if case == "every UE pending" else g.assign.copy()
    assign[::3] = UNASSIGNED
    g = ConnectionGraph(g.cell_adj, assign)
    pending = tuple(np.flatnonzero(assign == UNASSIGNED).tolist())
    cells = () if case == "no action" else tuple(range(dep.n_cells))
    t = Transition(0.0, EpisodeState(g, pending, dict.fromkeys(pending, cells), dep.cap))
    actions = [(c, u) for u in pending for c in cells]
    seen, forward = [], gnn.forward

    def recording(p, g_in, feats, a_ue):
        seen.append((g_in, feats, a_ue))
        return forward(p, g_in, feats, a_ue)

    monkeypatch.setattr(gnn, "forward", recording)
    assert gnn.score_stacked(gnn.init_params(0), g, *t.candidates).shape == (len(actions),)
    [(g_in, feats, a_ue)] = seen
    assert same_bits(g.assign, assign) and g_in is g
    n, m = dep.n_cells, dep.n_ues
    assert (feats.cell_rate.shape, feats.cell_cap.shape, feats.ue.shape, a_ue.shape) == (
        (len(actions), n, 2), (len(actions), n, 2), (len(actions), m, 2), (len(actions), n, m))
    for k, action in enumerate(actions):
        g_next = connect(g, *action)
        want = input_features(g_next, dep.cap)
        for block in ("cell_rate", "cell_cap"):
            assert same_bits(getattr(feats, block)[k], getattr(want, block)), (action, block)
        assert same_bits(a_ue[k], ue_adjacency(g_next))
        selected = a_ue[k].any(axis=0)
        assert same_bits(feats.ue[k][selected], want.ue[selected]), action


def test_attach_features_checks_every_action_as_connect_does():
    g = make_graph(3, [0, None, None])
    assign = g.assign.copy()
    for actions, match in [([(1, 1), (3, 2)], "cell index 3 out of range"),
                           ([(-1, 1)], "cell index -1 out of range"),
                           ([(1, 1), (0, 3), (0, 0)], "UE index 3 out of range"),
                           ([(0, -1)], "UE index -1 out of range"),
                           ([(1, 2), (2, 0), (5, 1)], "UE 0 already connected to cell 0")]:
        with pytest.raises(ValueError, match=match):
            attach_features(g, np.ones((3, 3)), actions)
    assert same_bits(g.assign, assign)


def test_rates_share_capacity_evenly():
    # one cell, two UEs, both capacity 4.0 → each gets 2.0
    g = make_graph(1, [0, 0])
    cap = np.array([[4.0, 4.0]])
    r = ue_rates(g, cap)
    assert r[0] == r[1] == 2.0


def test_rates_single_ue_full_capacity():
    g = make_graph(1, [0])
    assert ue_rates(g, np.array([[3.5]]))[0] == 3.5


def test_rates_zero_for_unassigned():
    g = make_graph(2, [0, None])
    r = ue_rates(g, np.array([[4.0, 6.0], [1.0, 2.0]]))
    assert r[1] == 0


def test_rate_sum_consistent_with_throughput_metric():
    dep = generate_deployment(21, 4, 10)
    cap = capacity_matrix(dep)
    g = make_graph(4, [j % 3 for j in range(10)], build_cell_graph(dep))
    assert float(ue_rates(g, cap).sum()) == pytest.approx(
        sum_throughput(g, cap), rel=1e-12)


def test_features_shapes_and_finite():
    dep = generate_deployment(31, 5, 12)
    g = make_graph(5, [j % 5 if j % 3 else None for j in range(12)],
                   build_cell_graph(dep))
    f = input_features(g, capacity_matrix(dep))
    assert f.cell_rate.shape == (5, 2)
    assert f.cell_cap.shape == (5, 2)
    assert f.ue.shape == (12, 2)
    for block in (f.cell_rate, f.cell_cap, f.ue):
        assert np.all(np.isfinite(block))


def test_features_single_link_instance():
    # Hand evaluation, capacity 2 on the only link, UE assigned:
    # pre-normalization blocks are [0, 2], [2, 2], [2, 2]; every column is
    # then divided by (mean link capacity + 1e-9) = 2 + 1e-9.
    g = make_graph(1, [0])
    cap = np.array([[2.0]])
    f = input_features(g, cap)
    a = 2.0 / (2.0 + 1e-9)
    assert f.cell_rate[0] == pytest.approx([0.0, a], abs=1e-15)
    assert f.cell_cap[0] == pytest.approx([a, a], abs=1e-15)
    assert f.ue[0] == pytest.approx([a, a], abs=1e-15)


def test_features_all_unassigned():
    dep = generate_deployment(33, 3, 5)
    cap = capacity_matrix(dep)
    f = input_features(make_graph(3, [None] * 5, build_cell_graph(dep)), cap)
    assert np.all(f.cell_rate == 0)         # rate-derived block vanishes
    assert np.all(f.ue[:, 1] == 0)          # per-UE rate column vanishes
    expected = cap.sum(axis=0) / (cap.mean() + 1e-9)
    assert f.ue[:, 0] == pytest.approx(expected, rel=1e-12)


def test_feature_scale_preserved_between_candidate_graphs():
    # The normalizing constant depends on the capacity matrix only, so two
    # alternative assignments of the same deployment keep their relative
    # rate scale (a scorer can tell the high-rate option from the low-rate
    # one).
    cap = np.array([[8.0, 1.0], [1.0, 1.0]])
    strong = input_features(make_graph(2, [0, 1]), cap)   # rates 8 and 1
    weak = input_features(make_graph(2, [1, 1]), cap)     # rates 0.5 each
    ratio = strong.ue[0, 1] / weak.ue[0, 1]
    assert ratio == pytest.approx(8.0 / 0.5, rel=1e-12)


def test_features_invariant_under_ue_permutation(rng):
    dep = generate_deployment(35, 4, 9)
    cap = capacity_matrix(dep)
    g = make_graph(4, [int(x) for x in rng.integers(0, 4, size=9)],
                   build_cell_graph(dep))
    f = input_features(g, cap)
    perm = rng.permutation(9)
    g_p = make_graph(4, [int(g.assign[j]) for j in perm], g.cell_adj)
    f_p = input_features(g_p, cap[:, perm])
    assert np.allclose(f_p.cell_rate, f.cell_rate, atol=1e-12)
    assert np.allclose(f_p.cell_cap, f.cell_cap, atol=1e-12)
    assert np.allclose(f_p.ue, f.ue[perm], atol=1e-12)


def test_features_equivariant_under_cell_permutation(rng):
    dep = generate_deployment(36, 5, 8)
    cap = capacity_matrix(dep)
    adj = build_cell_graph(dep)
    assign = [int(x) for x in rng.integers(0, 5, size=8)]
    f = input_features(make_graph(5, assign, adj), cap)
    perm = rng.permutation(5)
    inv = np.argsort(perm)  # relabeled cell of old cell i is inv[i]
    g_p = make_graph(5, [int(inv[a]) for a in assign], adj[np.ix_(perm, perm)])
    f_p = input_features(g_p, cap[perm, :])
    assert np.allclose(f_p.cell_rate, f.cell_rate[perm], atol=1e-12)
    assert np.allclose(f_p.cell_cap, f.cell_cap[perm], atol=1e-12)
    assert np.allclose(f_p.ue, f.ue, atol=1e-12)


def test_classify_gap_rule():
    dep = deployment_with_rsrp(np.array([[-60.0], [-70.0]]))
    assert classify_ues(dep, 3.0) == [UeClass.CELL_CENTER]
    dep = deployment_with_rsrp(np.array([[-60.0], [-61.5]]))
    assert classify_ues(dep, 3.0) == [UeClass.CELL_EDGE]


def test_classify_single_cell_always_center():
    dep = deployment_with_rsrp(np.array([[-60.0, -100.0]]))
    assert classify_ues(dep, 3.0) == [UeClass.CELL_CENTER] * 2


def test_classify_tiny_threshold_all_center():
    dep = generate_deployment(40, 5, 20)
    assert all(c is UeClass.CELL_CENTER for c in classify_ues(dep, 1e-300))


@pytest.mark.parametrize("dep, threshold_db, tied_ue", [
    (generate_deployment(41, 4, 10), 1e-300, None),
    # one report cell; UE 0 sits at mirror images of cells 0 and 1, an exact
    # tie (a zero gap is not below a zero threshold) that goes to cell 0
    (make_deployment([(-50, 0), (50, 0), (0, 200)], [(0, 30), (40, 10), (10, 150)],
                     radio=RadioConfig(report_set_size=1)), 0.0, 0),
])
def test_initial_graph_all_center_is_max_rsrp(dep, threshold_db, tied_ue):
    g, reshuffled = initial_graph(dep, threshold_db=threshold_db)
    assert reshuffled == ()
    rsrp = rsrp_matrix_dbm(dep)
    assert np.array_equal(g.assign, np.argmax(rsrp, axis=0)) and g.assign.dtype == np.int64
    if tied_ue is not None:
        assert rsrp[0, tied_ue] == rsrp[1, tied_ue] == rsrp[:, tied_ue].max()
        assert dep.report_cells.shape == (dep.n_ues, 1) and g.assign[tied_ue] == 0


def test_initial_graph_infinite_threshold_all_reshuffled():
    dep = generate_deployment(42, 4, 10)
    g, reshuffled = initial_graph(dep, threshold_db=np.inf)
    assert reshuffled == tuple(range(10))
    assert np.all(g.assign == UNASSIGNED)


def test_initial_graph_partitions_ues():
    dep = generate_deployment(43, 6, 30)
    g, reshuffled = initial_graph(dep, threshold_db=3.0)
    assert len(reshuffled) + g.assigned_ues().size == 30
    assert reshuffled == tuple(np.flatnonzero(g.assign == UNASSIGNED).tolist())


def test_ue_rates_helper_matches_matrix():
    dep = generate_deployment(44, 3, 7)
    cap = capacity_matrix(dep)
    g = make_graph(3, [0, 1, 1, None, 2, 2, 2], build_cell_graph(dep))
    loads = g.loads()
    want = [cap[c, j] / loads[c] if c != UNASSIGNED else 0.0
            for j, c in enumerate(g.assign)]
    assert ue_rates(g, cap).tolist() == want
