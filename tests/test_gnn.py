"""Q-network forward/backward, pinned to hand-traced and finite-difference oracles."""

import dataclasses
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cellconn.gnn as gnn
from cellconn.dqn import advance, best_action, deployment_state, legal_actions
from cellconn.gnn import (GnnParams, backward, forward, init_params, load_model, save_model,
                          score_action, score_actions)
from cellconn.graph import (UNASSIGNED, ConnectionGraph, NodeFeatures, attach_features,
                            build_cell_graph, capacity_matrix, connect, initial_graph,
                            input_features, ue_adjacency)
from cellconn.netmodel import generate_deployment

from conftest import make_graph, mutated, saved_doc


def ones_params(n_layers: int = 2, width: int = 1) -> GnnParams:
    p = GnnParams(n_layers, width)
    p.vec[:] = 1.0
    return p


def zeros_params(n_layers: int = 2, width: int = 4) -> GnnParams:
    return GnnParams(n_layers, width)


def random_instance(rng, n=None, m=None, assigned_frac=0.7):
    """Random graph + capacities + features for property tests."""
    n = n or int(rng.integers(2, 7))
    m = m or int(rng.integers(3, 16))
    adj = np.zeros((n, n))
    for i in range(n):
        for k in range(i + 1, n):
            adj[i, k] = adj[k, i] = float(rng.random() < 0.5)
    assign = [int(rng.integers(0, n)) if rng.random() < assigned_frac else None
              for _ in range(m)]
    g = make_graph(n, assign, adj)
    cap = rng.uniform(0.2, 8.0, size=(n, m))
    return g, cap, input_features(g, cap)


def random_params(rng, n_layers=2, width=8, std=0.6) -> GnnParams:
    return init_params(int(rng.integers(1 << 31)), n_layers, width, std)


def test_init_shapes_and_determinism():
    p = init_params(3, n_layers=2, width=8, init_std=0.01)
    assert [w.shape for w in p.w1] == [(2, 8), (8, 8)]
    assert [w.shape for w in p.w2] == [(2, 8), (8, 8)]
    assert [w.shape for w in p.w3] == [(2, 8), (8, 8)]
    assert p.w4.shape == (8, 8) and p.w5.shape == (8,)
    q = init_params(3, n_layers=2, width=8, init_std=0.01)
    for a, b in zip(p.arrays, q.arrays):
        assert np.array_equal(a, b)


def test_init_rejects_degenerate_std():
    with pytest.raises(ValueError, match="init_std"):
        init_params(0, 2, 8, 0.0)
    with pytest.raises(ValueError):
        init_params(0, 0, 8, 0.1)
    for n_layers, width in ((0, 8), (2, 0)):  # GnnParams itself refuses an empty network
        with pytest.raises(ValueError, match="layers >= 1"):
            GnnParams(n_layers, width)


def test_zero_params_score_zero(rng):
    g, cap, feats = random_instance(rng)
    assert forward(zeros_params(), g, feats).score == 0.0


def test_forward_hand_traced_scalar_chain():
    # Width-1, two rounds, every weight 1, both feature columns 1, one cell
    # serving one UE.  Straight-line evaluation:
    #   round 0: u1 = u2 = u3 = 1+1 = 2 ; h_cl = 2+2 = 4 ; h_ue = 2
    #   aggregate: x1' = 0 (no cell neighbors), x2' = A_ue h_ue = 2,
    #              xu' = A_ue^T h_cl = 4
    #   round 1: u1 = 0, u2 = 2 → h_cl = 2 ; pooled = 2 ; z = 2 ; Q = 2
    p = ones_params()
    g = make_graph(1, [0])
    feats = NodeFeatures(cell_rate=np.ones((1, 2)), cell_cap=np.ones((1, 2)),
                         ue=np.ones((1, 2)))
    t = forward(p, g, feats)
    assert t.score == pytest.approx(2.0, rel=1e-15)
    r = t.rounds[0]
    assert (np.maximum(r.u1, 0) + np.maximum(r.u2, 0))[0, 0] == 4.0  # h_cl
    assert np.maximum(r.u3, 0)[0, 0] == 2.0  # h_ue


def test_forward_trace_shapes(rng):
    g, cap, feats = random_instance(rng, n=4, m=6)
    p = random_params(rng, width=8)
    t = forward(p, g, feats)
    assert len(t.rounds) == 2
    for r in t.rounds:
        assert r.u1.shape == r.u2.shape == (4, 8)
    assert t.rounds[0].u3.shape == (6, 8)
    assert t.rounds[-1].xu is None and t.rounds[-1].u3 is None  # no UE branch in the last round
    assert t.pooled.shape == (8,) and t.z.shape == (8,)


def test_forward_is_pure(rng):
    g, cap, feats = random_instance(rng)
    p = random_params(rng)
    before = [a.copy() for a in p.arrays]
    s1 = forward(p, g, feats).score
    s2 = forward(p, g, feats).score
    assert s1 == s2
    for a, b in zip(p.arrays, before):
        assert np.array_equal(a, b)


def test_layer_zero_positive_homogeneity(rng):
    g, cap, feats = random_instance(rng)
    p = random_params(rng)
    k = 3.7
    scaled = NodeFeatures(cell_rate=k * feats.cell_rate,
                          cell_cap=k * feats.cell_cap, ue=k * feats.ue)
    t1, t2 = forward(p, g, feats), forward(p, g, scaled)
    r1, r2 = t1.rounds[0], t2.rounds[0]
    h_cl = lambda r: np.maximum(r.u1, 0) + np.maximum(r.u2, 0)
    assert np.allclose(h_cl(r2), k * h_cl(r1), rtol=1e-12)
    assert np.allclose(np.maximum(r2.u3, 0), k * np.maximum(r1.u3, 0), rtol=1e-12)


def permute_cells(g, cap, feats, perm):
    inv = np.argsort(perm)
    assign = [None if a < 0 else int(inv[a]) for a in g.assign]
    g_p = make_graph(g.n_cells, assign, g.cell_adj[np.ix_(perm, perm)])
    f_p = NodeFeatures(cell_rate=feats.cell_rate[perm],
                       cell_cap=feats.cell_cap[perm], ue=feats.ue)
    return g_p, cap[perm, :], f_p


def permute_ues(g, cap, feats, perm):
    assign = [None if g.assign[j] < 0 else int(g.assign[j]) for j in perm]
    g_p = make_graph(g.n_cells, assign, g.cell_adj)
    f_p = NodeFeatures(cell_rate=feats.cell_rate, cell_cap=feats.cell_cap,
                       ue=feats.ue[perm])
    return g_p, cap[:, perm], f_p


def test_score_invariant_under_relabelings(rng):
    for _ in range(10):
        g, cap, feats = random_instance(rng)
        p = random_params(rng)
        q0 = forward(p, g, feats).score
        g_c, cap_c, f_c = permute_cells(g, cap, feats, rng.permutation(g.n_cells))
        assert abs(forward(p, g_c, f_c).score - q0) < 1e-9
        g_u, cap_u, f_u = permute_ues(g, cap, feats, rng.permutation(g.n_ues))
        assert abs(forward(p, g_u, f_u).score - q0) < 1e-9
        # score_actions: relabel cells and UEs, and the actions with them
        actions = [(c, int(u)) for u in np.flatnonzero(g.assign < 0) for c in range(g.n_cells)]
        cp, up = rng.permutation(g.n_cells), rng.permutation(g.n_ues)
        g_cu, cap_cu, _ = permute_ues(*permute_cells(g, cap, feats, cp), up)
        new_c, new_u = np.argsort(cp), np.argsort(up)
        moved = [(int(new_c[c]), int(new_u[u])) for c, u in actions]
        assert np.allclose(score_actions(p, g_cu, cap_cu, moved),
                           score_actions(p, g, cap, actions), rtol=0.0, atol=1e-9)


def finite_difference_check(p, g, feats, h=1e-5, grad_floor=1e-8):
    """Max relative error between analytic and central-difference gradients,
    over entries whose analytic magnitude exceeds grad_floor."""
    analytic = backward(p, forward(p, g, feats))
    worst = 0.0
    checked = 0
    for arr, grad in zip(p.arrays, analytic.arrays):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            a = grad[idx]
            if abs(a) <= grad_floor:
                continue
            orig = arr[idx]
            arr[idx] = orig + h
            up = forward(p, g, feats).score
            arr[idx] = orig - h
            down = forward(p, g, feats).score
            arr[idx] = orig
            fd = (up - down) / (2.0 * h)
            worst = max(worst, abs(fd - a) / abs(a))
            checked += 1
    return worst, checked


def test_gradients_match_finite_differences(rng):
    for _ in range(5):
        g, cap, feats = random_instance(rng)
        p = random_params(rng)
        worst, checked = finite_difference_check(p, g, feats)
        assert checked > 0
        assert worst < 1e-4


def test_gradients_zero_params():
    p = zeros_params()
    g = make_graph(2, [0, 1], np.array([[0.0, 1.0], [1.0, 0.0]]))
    feats = NodeFeatures(cell_rate=np.ones((2, 2)), cell_cap=np.ones((2, 2)),
                         ue=np.ones((2, 2)))
    grads = backward(p, forward(p, g, feats))
    for arr in grads.arrays:
        assert np.all(arr == 0.0)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_last_round_w3_is_never_read(rng, n_layers):
    # the score reads only the last round's cell embeddings, so its UE weights
    # can hold anything: a NaN there changes neither the score nor a gradient
    g, cap, feats = random_instance(rng, n=4, m=8, assigned_frac=1.0)
    p = random_params(rng, n_layers=n_layers)
    p.w3[-1][...] = 0.0
    nan = GnnParams(n_layers, p.width, p.vec.copy())
    nan.w3[-1][...] = math.nan
    t, t_nan = forward(p, g, feats), forward(nan, g, feats)
    assert t_nan.score == t.score
    grad, grad_nan = backward(p, t), backward(nan, t_nan)
    assert np.isfinite(grad_nan.vec).all() and np.any(grad.vec != 0.0)
    unread = 3 * n_layers - 1  # w3[n_layers - 1] in storage order
    for i, (a, b) in enumerate(zip(grad.arrays, grad_nan.arrays)):
        assert i == unread or np.array_equal(a, b)


def test_score_linear_in_readout_vector(rng):
    g, cap, feats = random_instance(rng)
    p = random_params(rng)
    t = forward(p, g, feats)
    doubled = GnnParams(p.n_layers, p.width, p.vec.copy())
    doubled.w5[...] *= 2.0
    t2 = forward(doubled, g, feats)
    assert t2.score == pytest.approx(2.0 * t.score, rel=1e-12)
    g1 = backward(p, t)
    g2 = backward(doubled, t2)
    assert np.allclose(g2.w4, 2.0 * g1.w4, rtol=1e-12)


def test_score_action_equals_forward_on_resulting_graph():
    p = ones_params()
    g0 = make_graph(1, [None])
    cap = np.array([[2.0]])
    g1 = connect(g0, 0, 0)
    expected = forward(p, g1, input_features(g1, cap)).score
    assert score_action(p, g0, cap, 0, 0) == expected


def test_score_action_symmetric_candidates():
    # two mirror-image cells with equal capacity to the UE score identically
    adj = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = make_graph(2, [None], adj)
    cap = np.array([[3.0], [3.0]])
    p = init_params(5, 2, 8, 0.5)
    assert abs(score_action(p, g, cap, 0, 0)
               - score_action(p, g, cap, 1, 0)) < 1e-9


def emptied_state(n, m):
    """The initial graph of a fixed deployment, with cell 0's UEs detached so
    that cell 0 serves no UE, and the deployment."""
    dep = generate_deployment(7, n, m)
    g, _ = initial_graph(dep)
    assign = g.assign.copy()
    assign[assign == 0] = UNASSIGNED
    return ConnectionGraph(g.cell_adj, assign), dep


def report_actions(g, dep):
    """Each pending UE's report cells plus cell 0, ordered by (ue, cell)."""
    return [(c, int(u)) for u in np.flatnonzero(g.assign == UNASSIGNED)
            for c in sorted({0, *dep.report_cells[u].tolist()})]


def stacked_scores(p, g, cap, actions):
    """The actions' scores from ``score_stacked``, the TD target's pass, on the
    inputs that ``dqn.Transition.candidates`` keeps."""
    feats = attach_features(g, cap, actions)[0]
    return gnn.score_stacked(p, g, feats, *np.array(actions, dtype=np.intp).reshape(-1, 2).T)


SCORERS = (score_actions, stacked_scores)


def scores_equal_to_the_loop(p, g, cap, actions, scorers=SCORERS):
    """``score_actions`` and the stacked pass of the actions (or the given
    scorers), each asserted equal to the ``score_action`` loop."""
    want = np.array([score_action(p, g, cap, c, u) for c, u in actions])
    for scorer in scorers:
        got = scorer(p, g, cap, actions)
        assert got.shape == want.shape and (got == want).all(), scorer.__name__
    return want


@pytest.mark.parametrize("n_layers", [1, 2, 3])
@pytest.mark.parametrize("n, m", [(6, 30), (20, 200)])
def test_score_actions_equals_the_score_action_loop_exactly(n, m, n_layers):
    g, dep = emptied_state(n, m)
    p = init_params(n_layers, n_layers, 8, 0.5)
    no_ue = ConnectionGraph(g.cell_adj, np.full_like(g.assign, UNASSIGNED))  # every UE pending
    scores_equal_to_the_loop(p, no_ue, dep.cap, report_actions(no_ue, dep)[:60])
    where = set()  # each candidate UE's place among its cell's UEs
    for _ in range(4):  # greedy steps
        actions = report_actions(g, dep)
        for c, u in actions:
            members = np.flatnonzero(g.assign == c)
            where.add("no UE" if len(members) == 0 else "before" if u < members[0]
                      else "after" if u > members[-1] else "between")
        got = scores_equal_to_the_loop(p, g, dep.cap, actions)
        g = connect(g, *actions[int(np.argmax(got))])
    assert where == {"no UE", "before", "between", "after"}


def test_score_actions_equals_the_score_action_loop_exactly_at_40_by_800():
    # one greedy decision of a 2-layer model; the stacked pass is left out, as its
    # (K, n_cells, n_ues) adjacency stack would take about 300 MB here
    g, dep = emptied_state(40, 800)
    actions = report_actions(g, dep)
    assert len(actions) > 1000
    scores_equal_to_the_loop(init_params(2, 2, 8, 0.5), g, dep.cap, actions, (score_actions,))


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 8, 12, 16])
@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_scorers_at_every_drawn_width(n_layers, width):
    # the stacked pass is the loop bit for bit.  score_actions adds each candidate's
    # message row in ascending UE order, which forward's 0/1 product does at some
    # widths only: its bound, stated before any run, is 1e-12 of the largest score,
    # with best_action picking the loop's argmax on every decision of a fixed probe set
    p = init_params(10 * width + n_layers, n_layers, width, 0.5)
    for n, m in ((2, 4), (6, 30), (20, 200)):
        g, dep = emptied_state(n, m)
        actions = report_actions(g, dep)
        want = scores_equal_to_the_loop(p, g, dep.cap, actions, (stacked_scores,))
        got = score_actions(p, g, dep.cap, actions)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    for seed in range(3):  # greedy rollouts of three desk deployments
        s = deployment_state(generate_deployment(seed, 6, 30), p)
        while s.unassigned:
            actions = legal_actions(s)
            loop = [score_action(p, s.graph, s.cap, c, u) for c, u in actions]
            pick = actions[int(np.argmax(loop))]
            assert best_action(p, s, actions) == pick
            s = advance(s, *pick)


def test_score_actions_of_no_action_and_of_a_taken_ue():
    g, dep = emptied_state(6, 30)
    p = init_params(0, 2, 8, 0.5)
    pending, taken = report_actions(g, dep)[0], (0, int(g.assigned_ues()[0]))
    for scorer in SCORERS:
        assert scorer(p, g, dep.cap, []).shape == (0,)
        for bad, match in ((taken, "already connected"), ((6, pending[1]), "out of range")):
            with pytest.raises(ValueError, match=match):
                scorer(p, g, dep.cap, [pending, bad])


@pytest.mark.parametrize("where", [0, 5, -1])
@pytest.mark.parametrize("cell, ue, match", [(-1, "pending", "cell index -1 out of range"),
                                             (0, -1, "UE index -1 out of range"),
                                             (6, "pending", "cell index 6 out of range"),
                                             (0, 30, "UE index 30 out of range"),
                                             (0, "taken", "already connected")])
def test_score_actions_checks_every_action_before_scoring_any(monkeypatch, cell, ue, match,
                                                              where):
    # a -1 index would wrap to the last row of a patched array instead of raising
    g, dep = emptied_state(6, 30)
    actions = report_actions(g, dep)[:12]
    ue = {"pending": actions[0][1], "taken": int(g.assigned_ues()[0])}.get(ue, ue)
    actions.insert(where % (len(actions) + 1), (cell, ue))
    forwards = []
    monkeypatch.setattr(gnn, "forward", lambda *a, **k: forwards.append(a))
    for scorer in SCORERS:
        with pytest.raises(ValueError, match=match):
            scorer(init_params(0, 2, 8, 0.5), g, dep.cap, actions)
    with pytest.raises(ValueError, match=match):
        connect(g, cell, ue)
    assert forwards == []


def test_score_actions_of_repeated_actions_and_ues_equal_the_loop():
    g, dep = emptied_state(6, 30)
    actions = report_actions(g, dep)
    u = actions[0][1]
    repeated = [actions[3], *((c, u) for c in range(6)), actions[3], (2, u), actions[0]]
    for n_layers in (1, 2, 3):
        scores_equal_to_the_loop(init_params(n_layers, n_layers, 8, 0.5), g, dep.cap, repeated)


@pytest.mark.parametrize("n_layers", [1, 2])
def test_score_actions_leaves_its_inputs_unchanged(n_layers):
    g, dep = emptied_state(6, 30)
    assign, cell_adj, cap = g.assign.copy(), g.cell_adj.copy(), dep.cap.copy()
    p = init_params(3, n_layers, 8, 0.5)
    for scorer in SCORERS:
        first = scorer(p, g, dep.cap, report_actions(g, dep))
        for got, kept in ((g.assign, assign), (g.cell_adj, cell_adj), (dep.cap, cap)):
            assert got.dtype == kept.dtype and got.tobytes() == kept.tobytes()
        assert np.array_equal(scorer(p, g, dep.cap, report_actions(g, dep)), first)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_score_actions_runs_forward_on_each_candidates_own_inputs(monkeypatch, n_layers):
    # one forward per candidate, on bit for bit the cell blocks, UE adjacency and
    # first-round message of its after-state, and no UE block
    g, dep = emptied_state(6, 30)
    actions = report_actions(g, dep)
    p = init_params(0, n_layers, 8, 0.5)

    def inputs(cell_rate, cell_cap, a_ue, message):
        return tuple(a.tobytes() for a in (cell_rate, cell_cap, a_ue, message))

    seen = []

    def recording(p, g_in, feats, a_ue=None, message=None):
        assert g_in.cell_adj is g.cell_adj and feats.ue is None
        seen.append(inputs(feats.cell_rate, feats.cell_cap, a_ue, message))
        return forward(p, g_in, feats, a_ue, message)

    monkeypatch.setattr(gnn, "forward", recording)
    score_actions(p, g, dep.cap, actions)
    want = []
    for g_next in (connect(g, c, u) for c, u in actions):
        feats, a_ue = input_features(g_next, dep.cap), ue_adjacency(g_next)
        message = a_ue @ np.maximum(feats.ue @ p.w3[0], 0.0)
        want.append(inputs(feats.cell_rate, feats.cell_cap, a_ue, message))
    assert seen == want


def test_backward_refuses_a_trace_given_its_message(rng):
    g, cap, feats = random_instance(rng)
    p = random_params(rng)
    t = forward(p, g, feats)
    message = ue_adjacency(g) @ np.maximum(feats.ue @ p.w3[0], 0.0)
    given = forward(p, g, dataclasses.replace(feats, ue=None), message=message)
    assert given.score == t.score
    with pytest.raises(ValueError, match="message"):
        backward(p, given)


@pytest.mark.parametrize("n_layers", [1, 2, 3])
def test_backward_on_a_trace_given_its_message_by_depth(rng, n_layers):
    # one round never reads the message, so its trace is the plain one; a deeper
    # trace holds no UE inputs for its first round and is refused
    g, cap, feats = random_instance(rng)
    p = random_params(rng, n_layers)
    message = ue_adjacency(g) @ np.maximum(feats.ue @ p.w3[0], 0.0)
    given = forward(p, g, dataclasses.replace(feats, ue=None), message=message)
    if n_layers > 1:
        with pytest.raises(ValueError, match="message"):
            backward(p, given)
        return
    assert backward(p, given).vec.tobytes() == backward(p, forward(p, g, feats)).vec.tobytes()


def test_score_actions_memory_stays_one_ue_stack_at_20_by_200():
    # the decision path holds the candidates' (K, n_cells, 2) cell blocks and one
    # (n_ues, width) UE product per attached cell, under 1 MB here; a (K, n_ues, 2)
    # stack adds 1.05 MB and a (K, n_cells, n_ues) adjacency stack about 20 MB
    p = init_params(0, 2, 8)
    s = deployment_state(generate_deployment(1_000_000, 20, 200), p)
    actions = legal_actions(s)
    assert len(actions) == 328
    tracemalloc.start()
    try:
        score_actions(p, s.graph, s.cap, actions)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3_000_000


@st.composite
def scored_states(draw):
    """A random deployment of 2-6 cells and 4-30 UEs with a random partial
    assignment (every UE pending in some), and its actions in random order."""
    n, m = draw(st.integers(2, 6)), draw(st.integers(4, 30))
    dep = generate_deployment(draw(st.integers(0, 2**32 - 1)), n, m)
    assign = np.array(draw(st.lists(st.integers(UNASSIGNED, n - 1), min_size=m, max_size=m)))
    all_pending = draw(st.booleans())
    assign[draw(st.integers(0, m - 1))] = UNASSIGNED
    if all_pending:
        assign[:] = UNASSIGNED
    g = ConnectionGraph(build_cell_graph(dep), assign)
    pairs = [(c, int(u)) for u in np.flatnonzero(assign == UNASSIGNED) for c in range(n)]
    return g, dep.cap, draw(st.permutations(pairs))


@settings(max_examples=40, deadline=None)
@given(state=scored_states(), n_layers=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_score_actions_equals_the_loop_on_random_states(state, n_layers, seed):
    g, cap, actions = state
    scores_equal_to_the_loop(init_params(seed, n_layers, 8, 0.5), g, cap, actions)


def test_one_layer_score_and_gradient_read_no_ue_adjacency(rng):
    # one round reads only the cell rows: a NaN A_ue changes neither the score nor a gradient
    g, cap, feats = random_instance(rng, n=4, m=8)
    p = random_params(rng, n_layers=1)
    t = forward(p, g, feats)
    relu = lambda x: np.maximum(x, 0.0)
    h_cl = relu(feats.cell_rate @ p.w1[0]) + relu(feats.cell_cap @ p.w2[0])
    assert t.score == float(relu(h_cl.sum(axis=0) @ p.w4) @ p.w5)
    nan = np.full_like(t.a_ue, math.nan)
    assert forward(p, g, feats, nan).score == t.score
    assert np.array_equal(backward(p, t).vec, backward(p, dataclasses.replace(t, a_ue=nan)).vec)


def test_model_roundtrip_bitwise(tmp_path, rng):
    p = random_params(rng)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    q = load_model(str(path))
    for a, b in zip(p.arrays, q.arrays):
        assert np.array_equal(a, b)


def test_model_header_self_describes(tmp_path):
    import json
    p = init_params(0, 2, 8, 0.01)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 2
    assert doc["layers"] == 2 and doc["width"] == 8
    assert doc["edge_threshold_db"] == 3.0


def test_model_threshold_round_trips(tmp_path, rng):
    import json
    p = random_params(rng)
    path = tmp_path / "model.json"
    for threshold in (0.0, math.inf):
        save_model(GnnParams(p.n_layers, p.width, p.vec, threshold), str(path))
        assert json.loads(path.read_text())["edge_threshold_db"] == threshold
        q = load_model(str(path))
        assert q.edge_threshold_db == threshold
        assert np.array_equal(q.vec, p.vec)
    assert '"edge_threshold_db": Infinity' in path.read_text()


def test_pinned_version_1_model_loads_with_the_default_threshold():
    import json
    path = Path(__file__).resolve().parents[1] / "perfbench" / "model.json"
    assert json.loads(path.read_text())["format_version"] == 1
    assert load_model(str(path)).edge_threshold_db == 3.0


def test_model_nan_threshold_errors(tmp_path):
    import json
    path = tmp_path / "model.json"
    save_model(init_params(0, 2, 8, 0.01), str(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, edge_threshold_db=math.nan)))
    with pytest.raises(ValueError, match="NaN"):
        load_model(str(path))


def test_model_truncated_file_errors(tmp_path, rng):
    p = random_params(rng)
    path = tmp_path / "model.json"
    save_model(p, str(path))
    blob = path.read_text()
    path.write_text(blob[: len(blob) // 2])
    with pytest.raises(ValueError):
        load_model(str(path))


def test_model_wrong_matrix_count_errors(tmp_path):
    import json
    path = tmp_path / "model.json"
    save_model(init_params(0, 2, 8, 0.01), str(path))
    good = json.loads(path.read_text())
    for w1 in (good["w1"] + good["w1"][1:], good["w1"][:1]):
        path.write_text(json.dumps(dict(good, w1=w1)))
        with pytest.raises(ValueError, match="shapes"):
            load_model(str(path))
    # at width 2 every round matrix is (2, 2): only the per-list counts tell a
    # w1 with three rounds and a w2 with one from a valid layout
    save_model(init_params(0, 2, 2, 0.01), str(path))
    good = json.loads(path.read_text())
    path.write_text(json.dumps(dict(good, w1=good["w1"] + good["w2"][:1], w2=good["w2"][1:])))
    with pytest.raises(ValueError, match="shapes"):
        load_model(str(path))


def test_model_shapes_are_checked_before_allocating(tmp_path):
    # a 2 x 8 file that declares width 10**6 would allocate about 32 TB of weights;
    # no rejected file computes, or leaves in the cache, a weight layout
    path = tmp_path / "model.json"
    save_model(init_params(0, 2, 8, 0.01), str(path))
    doc = json.loads(path.read_text())
    for key in ("width", "layers"):
        path.write_text(json.dumps(dict(doc, **{key: 10 ** 6})))
        misses = gnn._layout.cache_info().misses
        with pytest.raises(ValueError, match="shapes"):
            load_model(str(path))
        assert gnn._layout.cache_info().misses == misses


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated(saved_doc(save_model, init_params(0, 2, 3, 0.5)), counts=("layers",)))
def test_load_model_survives_any_one_mutation(tmp_path, case):
    # one hostile value, deleted key or added key: finite weights or a ValueError
    # that names the file; a file cut short or not UTF-8: a ValueError that names it
    data, is_json = case
    path = tmp_path / "model.json"
    path.write_bytes(data)
    try:
        p = load_model(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}: "), exc
        return
    assert is_json, "a corrupt file loaded"
    assert np.isfinite(p.vec).all() and not math.isnan(p.edge_threshold_db)


def test_model_bad_version_errors(tmp_path):
    path = tmp_path / "model.json"
    save_model(init_params(0, 1, 8, 0.01), str(path))
    good = json.loads(path.read_text())
    for version in (99, True, 1.0, 2.0):  # True == 1 and 2.0 == 2, but neither is a version
        path.write_text(json.dumps(dict(good, format_version=version)))
        with pytest.raises(ValueError, match="format_version"):
            load_model(str(path))


def test_model_values_are_not_coerced(tmp_path):
    path = tmp_path / "model.json"
    docs = {}
    for n_layers in (1, 2):  # layers=true passes for 1 as a count, 2.7 for 2
        save_model(init_params(0, n_layers, 8, 0.01), str(path))
        docs[n_layers] = json.loads(path.read_text())
    one, two = docs[1], docs[2]
    w4_true = [row[:] for row in two["w4"]]
    w4_true[0][0] = True
    w1_str = [[row[:] for row in m] for m in two["w1"]]
    w1_str[1][2][3] = "0.5"
    w5_big = [10 ** 400] + two["w5"][1:]  # an integer beyond the float range
    cases = [(dict(one, layers=True), "integers"), (dict(two, layers=2.7), "integers"),
             (dict(two, width="8"), "integers"),
             (dict(two, edge_threshold_db=True), "threshold"),
             (dict(two, edge_threshold_db="0"), "threshold"),
             (dict(two, w4=w4_true), "numbers"), (dict(two, w1=w1_str), "numbers"),
             (dict(two, w5=w5_big), "numbers"),
             ([], "JSON object"),  # the top level must be an object, with every key
             ({k: v for k, v in two.items() if k != "w4"}, "missing key 'w4'"),
             ({k: v for k, v in two.items() if k != "edge_threshold_db"}, "edge_threshold_db")]
    for doc, match in cases:
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match):
            load_model(str(path))


def test_model_without_layers_errors(tmp_path):
    # forward would index an empty round list on the first request
    import json
    path = tmp_path / "model.json"
    save_model(init_params(0, 1, 8, 0.01), str(path))
    doc = json.loads(path.read_text())
    path.write_text(json.dumps(dict(doc, layers=0, w1=[], w2=[], w3=[])))
    with pytest.raises(ValueError, match="layers >= 1"):
        load_model(str(path))


def test_model_non_finite_weight_errors(tmp_path):
    import json
    path = tmp_path / "model.json"
    save_model(init_params(0, 2, 8, 0.01), str(path))
    doc = json.loads(path.read_text())
    doc["w4"][3][5] = float("nan")
    path.write_text(json.dumps(doc))  # json writes the bare NaN literal
    with pytest.raises(ValueError, match="finite"):
        load_model(str(path))
