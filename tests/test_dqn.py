"""TD learner tests: action space, targets, hand-traced updates, training loop."""

import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cellconn.dqn import (REWARD_KINDS, DivergenceError, EpisodeState, ReplayBuffer,
                          TrainConfig, Transition, advance, best_action,
                          deployment_state, greedy_rollout, legal_actions,
                          run_episode, select_action, sgd_step, td_target,
                          train)
from cellconn.gnn import GnnParams, init_params, score_action
from cellconn.graph import DEFAULT_D_MAX_M, connect, initial_graph
from cellconn.metrics import fair_bonus, sum_throughput
from cellconn.netmodel import generate_deployment

from conftest import make_graph

# 0.99 quantile of the chi-squared distribution with 7 degrees of freedom.
CHI2_CRIT_DF7_P01 = 18.4753


def filled_params(value: float, n_layers: int = 2, width: int = 1) -> GnnParams:
    p = GnnParams(n_layers, width)
    p.vec[:] = value
    return p


def ones_params(n_layers: int = 2, width: int = 1) -> GnnParams:
    return filled_params(1.0, n_layers, width)


def zeros_params(n_layers: int = 2, width: int = 4) -> GnnParams:
    return GnnParams(n_layers, width)


# --- scalar oracle instance: 1 cell, 1 UE, capacity 2, width-1 all-ones net ---
#
# After connecting the UE, every feature column normalizes to
# A = 2 / (2 + eps): the per-link capacity, the per-row/column sums and the
# shared rate all equal 2, and the divisor is mean(cap) + eps = 2 + eps.
# Hand trace (two rounds, zero cell-cell adjacency):
#   round 0: x1=[0,A] x2=[A,A] xu=[A,A] -> h_cl = A + 2A, h_ue = 2A
#   round 1: x1'=0, x2'=2A (from h_ue), xu'=h_cl -> h_cl = relu(0) + 2A
#   readout: Q = relu(2A * 1) * 1 = 2A
# Nonzero score gradients: dQ/dw3[0] = [A, A]^T, dQ/dw2[1] = [[2A]],
# dQ/dw4 = [[2A]], dQ/dw5 = [2A]; squared norm 14*A^2.
A = 2.0 / (2.0 + 1e-9)
SCALAR_Q = 2 * A
SCALAR_CAP = np.array([[2.0]])


def scalar_state() -> EpisodeState:
    return EpisodeState(graph=make_graph(1, [None]), unassigned=(0,),
                        candidates={0: (0,)}, cap=SCALAR_CAP)


def scalar_transition(reward: float) -> Transition:
    """The terminal step that attaches the scalar instance's one UE."""
    s = scalar_state()
    done = EpisodeState(graph=connect(s.graph, 0, 0), unassigned=(),
                        candidates=s.candidates, cap=s.cap)
    return Transition(reward=reward, next_state=done)


def micro_state(seed: int, p_cfg: TrainConfig | None = None) -> EpisodeState:
    cfg = p_cfg or TrainConfig(edge_threshold_db=float("inf"))
    return deployment_state(generate_deployment(seed, 2, 4), cfg)


# ---------------------------------------------------------------- actions ---

def test_legal_actions_terminal_empty():
    s = EpisodeState(graph=make_graph(2, [0, 1]), unassigned=(),
                     candidates={}, cap=np.ones((2, 2)))
    assert legal_actions(s) == []


def test_legal_actions_full_product():
    s = EpisodeState(graph=make_graph(4, [None, None]), unassigned=(0, 1),
                     candidates={0: (0, 1, 2, 3), 1: (0, 1, 2, 3)},
                     cap=np.ones((4, 2)))
    acts = legal_actions(s)
    assert len(acts) == 8
    assert acts == [(c, u) for u in (0, 1) for c in (0, 1, 2, 3)]


def test_legal_actions_single_candidate():
    s = EpisodeState(graph=make_graph(3, [None, None]), unassigned=(0, 1),
                     candidates={0: (1, 0), 1: (2,)}, cap=np.ones((3, 2)))
    # cells are sorted within a UE, UEs keep the pending order
    assert legal_actions(s) == [(0, 0), (1, 0), (2, 1)]


def test_select_action_pure_exploration_uniform():
    s = EpisodeState(graph=make_graph(4, [None, None]), unassigned=(0, 1),
                     candidates={0: (0, 1, 2, 3), 1: (0, 1, 2, 3)},
                     cap=np.ones((4, 2)))
    rng = np.random.default_rng(123)
    p = zeros_params()
    n = 10_000
    counts: dict[tuple[int, int], int] = {}
    for _ in range(n):
        a = select_action(p, s, 1.0, rng)
        counts[a] = counts.get(a, 0) + 1
    assert set(counts) == set(legal_actions(s))
    expected = n / 8
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_CRIT_DF7_P01


def test_select_action_greedy_all_tied_takes_first():
    s = EpisodeState(graph=make_graph(4, [None, None]), unassigned=(0, 1),
                     candidates={0: (0, 1, 2, 3), 1: (0, 1, 2, 3)},
                     cap=np.ones((4, 2)))
    # zero weights score every action 0.0; the tie goes to (ue 0, cell 0)
    assert select_action(zeros_params(), s, 0.0, None) == (0, 0)


def test_select_action_greedy_matches_score_all_oracle():
    p = init_params(5, 2, 8, 0.3)
    for seed in range(5):
        s = micro_state(seed)
        acts = legal_actions(s)
        scores = [score_action(p, s.graph, s.cap, c, u) for c, u in acts]
        want = acts[int(np.argmax(scores))]
        assert select_action(p, s, 0.0, None) == want
        assert best_action(p, s, acts) == want


def test_best_action_passes_over_nan_scores(monkeypatch):
    import cellconn.dqn as dqn
    s = EpisodeState(graph=make_graph(4, [None]), unassigned=(0,),
                     candidates={0: (0, 1, 2, 3)}, cap=np.ones((4, 1)))
    acts = legal_actions(s)
    for scores, want in [([math.nan, 1.0, math.nan, 2.0], acts[3]),
                         ([math.nan, -math.inf, 0.5, 0.5], acts[2]),
                         ([math.nan] * 4, acts[0])]:
        monkeypatch.setattr(dqn, "score_actions", lambda *_, q=scores: np.array(q))
        assert best_action(zeros_params(), s, acts) == want


def test_select_action_no_legal_action_raises():
    s = EpisodeState(graph=make_graph(2, [0, 1]), unassigned=(),
                     candidates={}, cap=np.ones((2, 2)))
    with pytest.raises(ValueError):
        select_action(zeros_params(), s, 0.5, np.random.default_rng(0))


def test_exploration_fraction_within_binomial_bounds():
    s = EpisodeState(graph=make_graph(4, [None, None]), unassigned=(0, 1),
                     candidates={0: (0, 1, 2, 3), 1: (0, 1, 2, 3)},
                     cap=np.ones((4, 2)))
    p = zeros_params()
    eps, n = 0.3, 10_000
    rng = np.random.default_rng(7)
    greedy = select_action(p, s, 0.0, None)
    moved = sum(select_action(p, s, eps, rng) != greedy for _ in range(n))
    # exploring picks the greedy arm 1/8 of the time, so the observable
    # off-greedy rate is eps * 7/8
    want = eps * (1 - 1 / 8)
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(moved / n - want) < 3 * sigma


# ---------------------------------------------------------------- targets ---

def test_td_target_terminal_is_reward():
    t = scalar_transition(reward=2.5)
    assert td_target(ones_params(), t, gamma=1.0) == 2.5


def test_td_target_gamma_zero_is_reward():
    t = Transition(reward=-1.5, next_state=scalar_state())
    assert td_target(ones_params(), t, gamma=0.0) == -1.5


def test_td_target_zero_params_bootstrap_is_zero():
    t = Transition(reward=0.75, next_state=micro_state(3))
    assert td_target(zeros_params(), t, gamma=1.0) == 0.75


def test_td_target_bootstrap_scalar_oracle():
    t = Transition(reward=1.0, next_state=scalar_state())
    assert td_target(ones_params(), t, gamma=1.0) == pytest.approx(
        1.0 + SCALAR_Q, rel=1e-15)
    assert td_target(ones_params(), t, gamma=0.5) == pytest.approx(
        1.0 + 0.5 * SCALAR_Q, rel=1e-15)


def desk_transition(reward: float) -> Transition:
    """A first step on a 6 x 30 deployment, with UEs still pending after it."""
    s = deployment_state(generate_deployment(11, 6, 30), TrainConfig())
    nxt = advance(s, *legal_actions(s)[0])
    assert nxt.unassigned
    return Transition(reward=reward, next_state=nxt)


def test_td_target_scores_cached_inputs_with_the_current_weights():
    # the transition keeps the inputs, never the scores: each weight vector
    # gets its own max, before and after the inputs are built
    p1, p2 = init_params(1, 2, 8, 0.5), init_params(2, 2, 8, 0.5)
    t = desk_transition(0.25)
    nxt = t.next_state

    def want(p):
        return 0.25 + 0.9 * max(score_action(p, nxt.graph, nxt.cap, c, u)
                                for c, u in legal_actions(nxt))

    assert want(p1) != want(p2)
    for first, second in ((p1, p2), (p2, p1)):
        t = Transition(reward=0.25, next_state=nxt)
        assert "candidates" not in vars(t)
        assert td_target(first, t, 0.9) == want(first)
        cached = vars(t)["candidates"]
        assert td_target(second, t, 0.9) == want(second)
        assert td_target(first, t, 0.9) == want(first)
        assert t.candidates is cached


def test_a_20_by_200_transition_caches_no_after_state_stack():
    # the target keeps K cell blocks and one UE block per cell, 0.28 MB here; the
    # (K, n_ues) assignment stack and its stacked features took 1.79 MB
    s = deployment_state(generate_deployment(1_000_000, 20, 200), TrainConfig())
    t = Transition(reward=0.0, next_state=advance(s, *legal_actions(s)[0]))
    k = len(legal_actions(t.next_state))
    assert k > 300

    def arrays(x):
        if isinstance(x, np.ndarray):
            return [x]
        values = vars(x).values() if dataclasses.is_dataclass(x) else x
        return [a for v in values if v is not None for a in arrays(v)]

    held = arrays((t.features, t.candidates))
    assert all(a.shape[:2] != (k, 200) for a in held)
    assert sum(a.nbytes for a in held) <= 500_000


# ---------------------------------------------------------------- updates ---

def test_sgd_step_alpha_zero_keeps_params():
    p = ones_params()
    p.edge_threshold_db = 0.0  # the weights keep the threshold they are trained with
    q, loss = sgd_step(p, [scalar_transition(3.0)], alpha=0.0, gamma=1.0)
    for a, b in zip(p.arrays, q.arrays):
        assert np.array_equal(a, b)
    assert q.edge_threshold_db == 0.0
    assert loss == pytest.approx((3.0 - SCALAR_Q) ** 2, rel=1e-12)


def test_sgd_step_zero_td_error_keeps_params():
    # reward chosen so the terminal target equals the network's own score
    p = ones_params()
    q, loss = sgd_step(p, [scalar_transition(SCALAR_Q)], alpha=0.1, gamma=1.0)
    for a, b in zip(p.arrays, q.arrays):
        assert np.array_equal(a, b)
    assert loss == 0.0


def test_sgd_step_scalar_hand_oracle():
    alpha, reward = 0.1, 3.0
    delta = reward - SCALAR_Q
    # |delta| * A * sqrt(14) ~ 3.74: safely below the clip norm of 10
    assert abs(delta) * A * math.sqrt(14.0) < 10.0
    q, loss = sgd_step(ones_params(), [scalar_transition(reward)],
                       alpha=alpha, gamma=1.0)
    assert loss == pytest.approx(delta * delta, rel=1e-12)

    step = alpha * delta
    assert q.w1[0] == pytest.approx(np.ones((2, 1)))
    assert q.w1[1] == pytest.approx(np.ones((1, 1)))
    assert q.w2[0] == pytest.approx(np.ones((2, 1)))
    assert q.w3[1] == pytest.approx(np.ones((1, 1)))  # dead branch: no gradient
    assert q.w3[0] == pytest.approx(1.0 + step * np.array([[A], [A]]), rel=1e-15)
    assert q.w2[1] == pytest.approx(1.0 + step * np.array([[2 * A]]), rel=1e-15)
    assert q.w4 == pytest.approx(1.0 + step * np.array([[2 * A]]), rel=1e-15)
    assert q.w5 == pytest.approx(np.array([1.0 + step * 2 * A]), rel=1e-15)


def test_sgd_step_clipped_update_keeps_direction_only():
    # once the global norm exceeds the clip, the applied step depends only on
    # the gradient direction: w5 <- 1 + alpha * (2A / (A sqrt(14))) * 10
    alpha = 0.1
    q10, _ = sgd_step(ones_params(), [scalar_transition(10.0)], alpha, 1.0)
    q99, _ = sgd_step(ones_params(), [scalar_transition(99.0)], alpha, 1.0)
    for a, b in zip(q10.arrays, q99.arrays):
        assert a == pytest.approx(b, rel=1e-12)
    want_w5 = 1.0 + alpha * 10.0 * 2.0 / math.sqrt(14.0)
    assert q10.w5[0] == pytest.approx(want_w5, rel=1e-9)


def test_sgd_step_clipping_disabled_scales_with_error():
    alpha = 0.01
    q, _ = sgd_step(ones_params(), [scalar_transition(10.0)], alpha, 1.0,
                    grad_clip_norm=None)
    delta = 10.0 - SCALAR_Q
    assert q.w5[0] == pytest.approx(1.0 + alpha * delta * 2 * A, rel=1e-12)


def test_sgd_step_batch_averages_directions():
    # two copies of the same transition must move exactly like one
    alpha = 0.05
    t = scalar_transition(3.0)
    q1, loss1 = sgd_step(ones_params(), [t], alpha, 1.0)
    q2, loss2 = sgd_step(ones_params(), [t, t], alpha, 1.0)
    for a, b in zip(q1.arrays, q2.arrays):
        assert a == pytest.approx(b, rel=1e-12)
    assert loss1 == pytest.approx(loss2, rel=1e-12)


def test_sgd_step_non_finite_raises():
    # huge weights overflow the score; a finite TD error (~1e308) times the
    # score gradient (2A) overflows the update direction instead
    for p, reward, match in ((filled_params(1e200), 0.0, "TD error"),
                             (ones_params(), 1e308, "gradient")):
        with np.errstate(over="ignore"), pytest.raises(DivergenceError, match=match):
            sgd_step(p, [scalar_transition(reward)], 0.1, 1.0)


# ----------------------------------------------------------------- buffer ---

def test_replay_buffer_fifo_eviction():
    buf = ReplayBuffer(3)
    for r in (1.0, 2.0, 3.0, 4.0):
        buf.push(scalar_transition(r))
    assert len(buf) == 3
    got = buf.sample(3, np.random.default_rng(0))
    assert sorted(t.reward for t in got) == [2.0, 3.0, 4.0]  # 1.0 was evicted


def test_replay_buffer_sample_without_replacement():
    buf = ReplayBuffer(8)
    for r in range(5):
        buf.push(scalar_transition(float(r)))
    got = buf.sample(5, np.random.default_rng(1))
    assert sorted(t.reward for t in got) == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_an_evicted_transition_is_freed_with_its_inputs():
    buf = ReplayBuffer(2)
    t = desk_transition(1.0)
    buf.push(t)
    buf.push(desk_transition(2.0))
    sgd_step(init_params(0, 2, 8, 0.5), buf.sample(2, np.random.default_rng(0)), 0.1, 1.0)
    assert {"features", "candidates"} <= set(vars(t))
    ref = weakref.ref(t)
    del t
    gc.collect()
    assert ref() is not None  # the buffer still holds it
    buf.push(desk_transition(3.0))
    buf.push(desk_transition(4.0))
    gc.collect()
    assert ref() is None


def test_replay_buffer_errors():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
    buf = ReplayBuffer(4)
    buf.push(scalar_transition(1.0))
    with pytest.raises(ValueError):
        buf.sample(2, np.random.default_rng(0))


# ----------------------------------------------------------------- config ---

def test_config_defaults_match_reference_setup():
    cfg = TrainConfig()
    assert cfg.epsilon == 0.1
    assert cfg.alpha == 0.1
    assert cfg.gamma == 1.0
    assert cfg.buffer_size == 8
    assert cfg.batch_size == 4
    assert cfg.gnn_layers == 2
    assert cfg.gnn_width == 8
    assert cfg.edge_threshold_db == 3.0
    assert DEFAULT_D_MAX_M == 250.0 and not hasattr(cfg, "d_max_m")
    assert cfg.grad_clip_norm == 10.0


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(reward_kind="profit")
    with pytest.raises(ValueError):
        TrainConfig(buffer_size=2, batch_size=4)
    with pytest.raises(ValueError):
        TrainConfig(epsilon=1.5)
    for bad in ({"gnn_layers": 0}, {"gnn_width": 0}, {"init_std": 0.0},
                {"grad_clip_norm": 0.0}, {"grad_clip_norm": -1.0},
                {"episodes_per_deployment": 0}, {"alpha": -0.1}, {"alpha": math.inf},
                {"alpha": math.nan}, {"gamma": 1.5}, {"gamma": math.nan},
                {"lambda_fair": math.nan}, {"edge_threshold_db": math.nan}):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(epsilon=0.0)  # boundary values are fine
    TrainConfig(epsilon=1.0)
    TrainConfig(alpha=0.0, gamma=0.0)
    TrainConfig(grad_clip_norm=None)  # None disables clipping


# ----------------------------------------------------------------- episodes --

def test_run_episode_telescoping_throughput_return():
    cfg = TrainConfig(reward_kind="throughput", edge_threshold_db=float("inf"))
    for seed in (11, 12, 13):
        state = micro_state(seed, cfg)
        n_pending = len(state.unassigned)
        u0 = sum_throughput(state.graph, state.cap)
        _, ep_return, losses, final = run_episode(
            ones_params(2, 4), cfg, state, buffer=None,
            rng=np.random.default_rng(seed), epsilon=1.0)
        assert losses == []  # no buffer, no updates
        assert final.assigned_ues().size == n_pending
        assert ep_return == pytest.approx(
            sum_throughput(final, state.cap) - u0, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), m=st.integers(4, 20),
       kind=st.sampled_from(REWARD_KINDS), threshold=st.sampled_from([3.0, math.inf]),
       epsilon=st.sampled_from([0.0, 0.5, 1.0]))
def test_episode_return_telescopes_on_random_deployments(seed, n, m, kind, threshold, epsilon):
    """With gamma = 1 the return is the final throughput minus the initial one,
    plus, for the fair reward, the bonus of every state an action reached.
    Tolerance: 1e-12 of max(1, |that sum|)."""
    dep = generate_deployment(seed, n, m)
    cfg = TrainConfig(reward_kind=kind, gamma=1.0, edge_threshold_db=threshold,
                      buffer_size=m + 1, batch_size=m + 1)  # the buffer never fills: no update
    state = deployment_state(dep, cfg)
    buffer = ReplayBuffer(cfg.buffer_size)
    _, ep_return, losses, final = run_episode(init_params(seed, 2, 8, 0.3), cfg, state, buffer,
                                              np.random.default_rng(seed), epsilon)
    assert losses == [] and len(buffer) == len(state.unassigned)
    reached = [t.next_state.graph for t in buffer.sample(len(buffer), np.random.default_rng(0))]
    bonuses = math.fsum(fair_bonus(g, dep.cap, cfg.lambda_fair) for g in reached)
    want = sum_throughput(final, dep.cap) - sum_throughput(state.graph, dep.cap) \
        + (bonuses if kind == "fair" else 0.0)
    assert abs(ep_return - want) <= 1e-12 * max(1.0, abs(want))


def test_run_episode_assigns_every_pending_ue():
    cfg = TrainConfig(reward_kind="fair")
    dep = generate_deployment(21, 3, 9)
    state = deployment_state(dep, cfg)
    already = state.graph.assigned_ues().size
    _, _, _, final = run_episode(init_params(0, 2, 8, 0.3), cfg, state,
                                 buffer=None, rng=np.random.default_rng(2),
                                 epsilon=1.0)
    assert final.assigned_ues().size == already + len(state.unassigned)
    # pre-attached UEs keep their cell
    for ue in state.graph.assigned_ues():
        assert final.assign[ue] == state.graph.assign[ue]


def test_greedy_rollout_completes_and_is_deterministic():
    p = init_params(9, 2, 8, 0.3)
    s = micro_state(40)
    g1 = greedy_rollout(p, s)
    g2 = greedy_rollout(p, micro_state(40))
    assert g1.assigned_ues().size == 4
    assert np.array_equal(g1.assign, g2.assign)


# ----------------------------------------------------------------- training --

def micro_train_cfg(**kw) -> TrainConfig:
    base = dict(reward_kind="fair", epsilon=0.5, alpha=0.001, gamma=1.0,
                init_std=0.3, seed=7, edge_threshold_db=float("inf"))
    base.update(kw)
    return TrainConfig(**base)


def test_train_bitwise_deterministic(tmp_path):
    deps = lambda: [generate_deployment(100 + i, 2, 4) for i in range(6)]
    cfg = micro_train_cfg(episodes_per_deployment=2)
    p1, log1 = train(cfg, deps())
    p2, log2 = train(cfg, deps())
    for a, b in zip(p1.arrays, p2.arrays):
        assert np.array_equal(a, b)
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    log1.to_csv(str(f1))
    log2.to_csv(str(f2))
    assert f1.read_bytes() == f2.read_bytes()
    assert len(log1.rows) == 12


def test_train_alpha_zero_keeps_initial_params():
    cfg = micro_train_cfg(alpha=0.0, epsilon=1.0)
    deps = [generate_deployment(200 + i, 2, 4) for i in range(4)]
    p, log = train(cfg, deps)
    p0 = init_params(cfg.seed, cfg.gnn_layers, cfg.gnn_width, cfg.init_std)
    for a, b in zip(p.arrays, p0.arrays):
        assert np.array_equal(a, b)
    assert all(math.isfinite(r.ep_return) for r in log.rows)


def test_train_stamps_its_edge_threshold_on_the_params():
    deps = [generate_deployment(200 + i, 2, 4) for i in range(2)]
    for threshold in (0.0, 3.0, math.inf):
        p, _ = train(micro_train_cfg(edge_threshold_db=threshold), deps)
        assert p.edge_threshold_db == threshold


def test_train_no_deployments_raises():
    with pytest.raises(ValueError):
        train(micro_train_cfg(), [])


def test_train_log_tracks_final_graph_metrics():
    cfg = micro_train_cfg()
    dep = generate_deployment(77, 2, 4)
    _, log = train(cfg, [dep])
    row = log.rows[0]
    assert row.deployment_id == 77
    assert row.epsilon_used == cfg.epsilon
    assert row.u_throughput > 0.0
    assert 0.0 < row.u_jain <= 1.0
    # one 4-step episode never fills the 4-transition batch before the last
    # push, so at most one update fired
    assert math.isnan(row.loss_mean) or math.isfinite(row.loss_mean)


def test_train_smoothed_returns_trend_upward():
    # scaled-down run: 200 six-cell/30-UE deployments, throughput reward.
    # The smoothed first-half return curve must drift upward.
    deps = [generate_deployment(1000 + i, 6, 30) for i in range(200)]
    cfg = TrainConfig(reward_kind="throughput", epsilon=0.1, alpha=0.001,
                      gamma=1.0, init_std=0.3, seed=3)
    _, log = train(cfg, deps)
    returns = np.array([r.ep_return for r in log.rows])
    half = returns[: len(returns) // 2]
    window = 20
    smoothed = np.convolve(half, np.ones(window) / window, mode="valid")
    rho, pvalue = stats.spearmanr(np.arange(len(smoothed)), smoothed)
    assert rho > 0.0
    assert pvalue < 0.05
