"""Q-learning over connection graphs.

One episode reassigns the reshuffled (cell-edge) UEs of a deployment, one
UE per step; the action space is every (cell, ue) pair with the UE still
unassigned and the cell in that UE's measurement report.  Updates follow
plain one-step TD with an experience buffer, no target network:

    y = r + gamma * max_a' Q(s', a')          (y = r at terminal steps)
    w <- w + alpha * mean_batch[(y - Q) dQ/dw]

Everything downstream of the seed is deterministic: a single generator
drives exploration and batch sampling, and ties are broken by index.
"""

from __future__ import annotations

import csv
import math
import sys
from collections import deque
from dataclasses import astuple, dataclass, field, fields
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from cellconn.graph import (DEFAULT_EDGE_THRESHOLD_DB, ConnectionGraph, NodeFeatures,
                            attach_features, connect, initial_graph, input_features)
from cellconn.gnn import (GnnParams, backward, forward, init_params, score_actions,
                          score_stacked)
from cellconn.metrics import (coverage, jain_index, reward_fair,
                              reward_throughput, sum_throughput)
from cellconn.netmodel import Deployment

REWARD_KINDS = ("throughput", "fair")


class DivergenceError(RuntimeError):
    """Raised when a TD update produces non-finite values."""


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of the learner; defaults match the bundled benchmark."""

    episodes_per_deployment: int = 1
    epsilon: float = 0.1
    alpha: float = 0.1
    gamma: float = 1.0
    buffer_size: int = 8
    batch_size: int = 4
    reward_kind: str = "fair"
    lambda_fair: float = 0.5
    seed: int = 0
    gnn_layers: int = 2
    gnn_width: int = 8
    init_std: float = 0.01
    edge_threshold_db: float = DEFAULT_EDGE_THRESHOLD_DB
    grad_clip_norm: float | None = 10.0  # None disables clipping

    def __post_init__(self) -> None:
        if self.reward_kind not in REWARD_KINDS:
            raise ValueError(f"reward_kind must be one of {REWARD_KINDS}, "
                             f"got {self.reward_kind!r}")
        if not sys.maxsize >= self.buffer_size >= self.batch_size >= 1:  # a deque's largest maxlen
            raise ValueError(f"need sys.maxsize >= buffer_size >= batch_size >= 1, got "
                             f"{self.buffer_size}/{self.batch_size}")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError(f"epsilon must be in [0, 1], got {self.epsilon}")
        if not (self.episodes_per_deployment >= 1 and 0.0 <= self.alpha < math.inf
                and 0.0 <= self.gamma <= 1.0 and math.isfinite(self.lambda_fair)
                and not math.isnan(self.edge_threshold_db)):
            raise ValueError(f"need episodes_per_deployment >= 1, finite alpha >= 0, gamma in "
                             f"[0, 1], finite lambda_fair, non-NaN edge_threshold_db; got {self}")
        if self.gnn_layers < 1 or self.gnn_width < 1 or not 0 < self.init_std < math.inf:
            raise ValueError(f"need gnn_layers >= 1, gnn_width >= 1 and finite init_std > 0, got "
                             f"{self.gnn_layers}/{self.gnn_width}/{self.init_std}")
        if self.grad_clip_norm is not None and not self.grad_clip_norm > 0:
            raise ValueError(f"grad_clip_norm must be > 0 or None, got {self.grad_clip_norm}")


@dataclass(frozen=True)
class EpisodeState:
    """Snapshot of one decision point: graph, pending UEs, action candidates.

    ``candidates`` maps each UE to the cells of its measurement report;
    ``cap`` is the deployment's capacity matrix (shared, never mutated).
    """

    graph: ConnectionGraph
    unassigned: tuple[int, ...]
    candidates: dict[int, tuple[int, ...]]
    cap: np.ndarray


@dataclass(frozen=True)
class Transition:
    """One step as an after-state: its reward and the state it led to.
    The step is terminal when ``next_state`` has no UE left to assign.

    The network's weight-free inputs are built on first use and kept with the
    transition, which they never outlive; they read only the graph and
    ``cap``, so no update makes them stale.  Q reads the after-state's
    ``features``; the target reads ``candidates``: the ``attach_features`` blocks
    of the next state's legal actions, the actions' cells and UEs, and the next
    state's UE adjacency.
    """

    reward: float
    next_state: EpisodeState

    @cached_property
    def features(self) -> NodeFeatures:
        return input_features(self.next_state.graph, self.next_state.cap)

    @cached_property
    def candidates(self) -> tuple[NodeFeatures, np.ndarray, np.ndarray, np.ndarray]:
        nxt = self.next_state
        feats, _, _, cells, ues, a_ue = attach_features(nxt.graph, nxt.cap, legal_actions(nxt))
        return feats, cells, ues, a_ue


class ReplayBuffer:
    """Fixed-size FIFO experience buffer with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._items: deque[Transition] = deque(maxlen=capacity)

    def push(self, t: Transition) -> None:
        self._items.append(t)

    def __len__(self) -> int:
        return len(self._items)

    def sample(self, k: int, rng: np.random.Generator) -> list[Transition]:
        """k transitions drawn uniformly without replacement."""
        if k > len(self._items):
            raise ValueError(f"cannot sample {k} from buffer of {len(self._items)}")
        idx = rng.choice(len(self._items), size=k, replace=False)
        return [self._items[i] for i in idx]


def legal_actions(s: EpisodeState) -> list[tuple[int, int]]:
    """All (cell, ue) pairs still available, ordered by (ue, cell)."""
    return [(cell, ue)
            for ue in s.unassigned
            for cell in sorted(s.candidates[ue])]


def best_action(p: GnnParams, s: EpisodeState,
                actions: Sequence[tuple[int, int]]) -> tuple[int, int]:
    """Highest-scoring action; exact ties go to the earliest (ue, cell) pair,
    and a NaN score never wins over a number."""
    q = score_actions(p, s.graph, s.cap, actions)
    return actions[int(np.argmax(np.where(np.isnan(q), -np.inf, q)))]


def select_action(p: GnnParams, s: EpisodeState, epsilon: float,
                  rng: np.random.Generator | None) -> tuple[int, int]:
    """Epsilon-greedy pick among the legal actions of ``s``."""
    actions = legal_actions(s)
    if not actions:
        raise ValueError("no legal action: every UE is assigned or has no candidates")
    if epsilon > 0.0 and rng is not None and rng.random() < epsilon:
        return actions[int(rng.integers(len(actions)))]
    return best_action(p, s, actions)


def td_target(p: GnnParams, t: Transition, gamma: float) -> float:
    """One-step bootstrapped return; plain reward at terminal transitions.
    The max scores every next action in one stacked pass on ``t``'s inputs."""
    if not t.next_state.unassigned:
        return t.reward
    return t.reward + gamma * float(score_stacked(p, t.next_state.graph, *t.candidates).max())


def sgd_step(p: GnnParams, batch: Sequence[Transition], alpha: float,
             gamma: float, grad_clip_norm: float | None = 10.0) -> tuple[GnnParams, float]:
    """One semi-gradient update from a batch; returns (new params, mean TD loss).

    Q is the score of each transition's after-state.  The per-transition
    directions (y - Q) dQ/dw are averaged, clipped to the given global norm
    (summed array by array, in the order of ``GnnParams.arrays``), then
    applied once.  Targets are computed with the incoming parameters (no
    target network).

    Raises:
        DivergenceError: a target, score or gradient went non-finite.
    """
    direction = GnnParams(p.n_layers, p.width)
    loss = 0.0
    for t in batch:
        y = td_target(p, t, gamma)
        trace = forward(p, t.next_state.graph, t.features)
        delta = y - trace.score
        if not math.isfinite(delta):
            raise DivergenceError(f"non-finite TD error: target={y}, q={trace.score}")
        direction.vec += (delta / len(batch)) * backward(p, trace).vec
        loss += delta * delta / len(batch)

    norm = math.sqrt(sum(float(np.square(d).sum()) for d in direction.arrays))
    if not math.isfinite(norm):
        raise DivergenceError(f"non-finite gradient (norm={norm})")
    if grad_clip_norm is not None and norm > grad_clip_norm:
        direction.vec *= grad_clip_norm / norm
    return GnnParams(p.n_layers, p.width, p.vec + alpha * direction.vec, p.edge_threshold_db), loss


@dataclass(frozen=True)
class EpisodeRow:
    deployment_id: int
    episode: int
    ep_return: float
    u_throughput: float
    u_coverage: float
    u_jain: float
    epsilon_used: float
    loss_mean: float


@dataclass
class TrainLog:
    """Per-episode training records, writable as CSV."""

    rows: list[EpisodeRow] = field(default_factory=list)

    COLUMNS = tuple(f.name for f in fields(EpisodeRow))

    def to_csv(self, path: str) -> None:
        """Header plus one row per episode; floats are written with repr."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.COLUMNS)
            writer.writerows(astuple(r) for r in self.rows)


def step_reward(kind: str, lam: float, g_prev: ConnectionGraph,
                g_next: ConnectionGraph, cap: np.ndarray) -> float:
    if kind == "throughput":
        return reward_throughput(g_prev, g_next, cap)
    return reward_fair(g_prev, g_next, cap, lam)


def advance(s: EpisodeState, cell: int, ue: int) -> EpisodeState:
    """The state after attaching ``ue`` to ``cell``."""
    return EpisodeState(graph=connect(s.graph, cell, ue),
                        unassigned=tuple(j for j in s.unassigned if j != ue),
                        candidates=s.candidates, cap=s.cap)


def run_episode(p: GnnParams, cfg: TrainConfig, state: EpisodeState,
                buffer: ReplayBuffer | None, rng: np.random.Generator | None,
                epsilon: float) -> tuple[GnnParams, float, list[float], ConnectionGraph]:
    """Play one episode; learn along the way when a buffer is given.

    Returns the (possibly updated) parameters, the episode return, the
    per-step TD losses (empty while the buffer is warming up), and the
    terminal graph.
    """
    ep_return = 0.0
    losses: list[float] = []
    while state.unassigned:
        next_state = advance(state, *select_action(p, state, epsilon, rng))
        r = step_reward(cfg.reward_kind, cfg.lambda_fair, state.graph,
                        next_state.graph, state.cap)
        if buffer is not None:
            buffer.push(Transition(reward=r, next_state=next_state))
            if len(buffer) >= cfg.batch_size:
                batch = buffer.sample(cfg.batch_size, rng)
                p, loss = sgd_step(p, batch, cfg.alpha, cfg.gamma, cfg.grad_clip_norm)
                losses.append(loss)
        ep_return += r
        state = next_state
    return p, ep_return, losses, state.graph


def deployment_state(dep: Deployment, src: TrainConfig | GnnParams) -> EpisodeState:
    """Initial episode state under the cell-edge threshold of ``src``, a train
    config or a model; each reshuffled UE's candidates are its report's cells."""
    g0, reshuffled = initial_graph(dep, src.edge_threshold_db)
    return EpisodeState(graph=g0, unassigned=reshuffled,
                        candidates={j: tuple(dep.report_cells[j].tolist())
                                    for j in reshuffled},
                        cap=dep.cap)


def train(cfg: TrainConfig, deployments: Iterable[Deployment]) -> tuple[GnnParams, TrainLog]:
    """Fit the Q-network across deployments.

    Deployments are visited in order, ``episodes_per_deployment`` episodes
    each; the experience buffer carries over between them.  Reproducible:
    the same config and deployments give bit-identical parameters and log.
    """
    deployments = list(deployments)
    if not deployments:
        raise ValueError("no deployments to train on")

    p = init_params(cfg.seed, cfg.gnn_layers, cfg.gnn_width, cfg.init_std)
    p.edge_threshold_db = cfg.edge_threshold_db
    rng = np.random.default_rng([cfg.seed, 1])
    buffer = ReplayBuffer(cfg.buffer_size)
    log = TrainLog()

    for dep in deployments:
        for ep in range(cfg.episodes_per_deployment):
            state = deployment_state(dep, cfg)
            p, ep_return, losses, final = run_episode(p, cfg, state, buffer, rng,
                                                      cfg.epsilon)
            log.rows.append(EpisodeRow(
                deployment_id=dep.seed, episode=ep, ep_return=ep_return,
                u_throughput=sum_throughput(final, dep.cap),
                u_coverage=coverage(final, dep.cap),
                u_jain=jain_index(final),
                epsilon_used=cfg.epsilon,
                loss_mean=float(np.mean(losses)) if losses else float("nan")))
    return p, log


def greedy_rollout(p: GnnParams, state: EpisodeState) -> ConnectionGraph:
    """Assign every pending UE greedily (epsilon = 0); returns the final graph."""
    while state.unassigned:
        state = advance(state, *select_action(p, state, 0.0, None))
    return state.graph
