"""Shared episode runner for RL4QDTS (training and inference).

One episode rolls the collective simplification from the endpoints-only
database up to the budget ``W``:

1. Agent-Cube samples a start node at level ``S`` (query distribution) and
   traverses down until it stops or is forced to (leaf / level ``E``).
2. Agent-Point picks one of the ``K`` candidate points of the chosen cube
   and the point enters D'.
3. Every ``Δ`` insertions the shared reward ``R = diff_before - diff_after``
   (Eq. 10) is assigned to *all* transitions of both agents buffered in the
   window, and (in training mode) the DQNs take replay updates.

When a sampled cube has no insertable point the traversal retries a few
times and finally falls back to a uniformly random un-kept point so the
budget is always exhausted; fallback insertions produce no transitions.

A greedy episode that does not learn (inference, :meth:`RL4QDTS.simplify`
and :meth:`RL4QDTS.refine`) memoizes Agent-Cube's descent from each start
node to the leaf it ends in, for the length of the episode. This is exact:
the cube state and mask at a node are static, the agent's parameters do
not change while it does not learn, and a greedy ``act`` draws no random
number, so the descent is a fixed map from start node to leaf. The start
node is still drawn for every traversal, so the generator's stream is the
one the unmemoized descent would consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.env import CUBE_N_ACTIONS, STOP_ACTION, QDTSEnvironment
from repro.index.octree import OctreeNode
from repro.rl.dqn import DQNAgent
from repro.rl.replay import Transition


@dataclass(slots=True)
class _PendingPoint:
    """A point transition awaiting its successor state and window reward."""

    state: np.ndarray
    action: int
    mask: np.ndarray
    next_state: np.ndarray | None = None
    next_mask: np.ndarray | None = None
    done: bool = False


@dataclass(slots=True)
class RolloutStats:
    """Bookkeeping of one episode."""

    inserted: int = 0
    fallback_inserted: int = 0
    windows: int = 0
    initial_diff: float = 0.0
    final_diff: float = 0.0
    rewards: list[float] = field(default_factory=list)

    @property
    def total_reward(self) -> float:
        return float(sum(self.rewards))


def run_episode(
    env: QDTSEnvironment,
    cube_agent: DQNAgent,
    point_agent: DQNAgent,
    budget: int,
    greedy: bool = False,
    learn: bool = False,
    use_agent_cube: bool = True,
    use_agent_point: bool = True,
    max_cube_retries: int = 5,
    reset: bool = True,
    exact_final_diff: bool = False,
) -> RolloutStats:
    """Run one full simplification episode; returns its statistics.

    ``greedy=True`` rolls out the learned policies deterministically
    (inference / Algorithm 1); ``learn=True`` additionally records
    transitions and performs DQN updates at each reward window.
    ``reset=False`` continues from the environment's current simplification
    state instead of the endpoints-only database (progressive refinement).
    ``exact_final_diff=True`` recomputes the reported ``final_diff`` from
    scratch through the batch query engine instead of trusting the
    incremental counters — an audit hook for tests and debugging.
    """
    if reset:
        env.reset()
    stats = RolloutStats(initial_diff=env.diff())
    diff_prev = stats.initial_diff
    delta = env.config.delta
    collect = learn

    pending_cube: list[tuple] = []  # (s, a, mask, s', next_mask, done)
    pending_point: list[_PendingPoint] = []
    open_point: _PendingPoint | None = None
    window_inserts = 0

    stop_only_mask = np.zeros(CUBE_N_ACTIONS, dtype=bool)
    stop_only_mask[STOP_ACTION] = True
    leaf_memo = _greedy_leaf_memo(greedy, learn)

    while env.state.total_kept < budget:
        chosen = _choose_cube_and_candidates(
            env, cube_agent, greedy, use_agent_cube, max_cube_retries,
            stop_only_mask, leaf_memo,
        )
        if chosen is None:
            fallback = env.random_unkept_point()
            if fallback is None:
                break  # every point already kept; budget >= N
            env.insert(*fallback)
            stats.inserted += 1
            stats.fallback_inserted += 1
        else:
            cube_transitions, point_state, candidates, point_mask = chosen
            if collect:
                pending_cube.extend(cube_transitions)
            if use_agent_point:
                action = point_agent.act(point_state, point_mask, greedy=greedy)
            else:
                action = 0  # ablation: always insert the max-v_s candidate
            if collect:
                if open_point is not None:
                    open_point.next_state = point_state
                    open_point.next_mask = point_mask
                open_point = _PendingPoint(point_state, action, point_mask)
                pending_point.append(open_point)
            env.insert(*candidates[action])
            stats.inserted += 1
        window_inserts += 1

        if window_inserts >= delta or env.state.total_kept >= budget:
            diff_now = env.diff()
            reward = diff_prev - diff_now
            stats.rewards.append(reward)
            stats.windows += 1
            if collect:
                _flush_window(
                    cube_agent,
                    point_agent,
                    pending_cube,
                    pending_point,
                    open_point,
                    reward,
                    env.config.k_candidates,
                )
                pending_cube = []
                pending_point = []
                open_point = None
                updates = max(1, delta // max(env.config.learn_every, 1))
                for _ in range(updates):
                    cube_agent.learn()
                    point_agent.learn()
                # ε anneals once per reward window so exploration fades over
                # the course of training, not just across episodes.
                cube_agent.decay_epsilon()
                point_agent.decay_epsilon()
            diff_prev = diff_now
            window_inserts = 0

    stats.final_diff = env.exact_diff() if exact_final_diff else env.diff()
    return stats


def _greedy_leaf_memo(greedy: bool, learn: bool) -> dict[int, OctreeNode] | None:
    """An empty start node -> leaf memo when the descent is a fixed map.

    That holds for a greedy episode that does not learn (see the module
    docstring); any other episode descends afresh and gets None.
    """
    return {} if greedy and not learn else None


def _choose_cube_and_candidates(
    env: QDTSEnvironment,
    cube_agent: DQNAgent,
    greedy: bool,
    use_agent_cube: bool,
    max_retries: int,
    stop_only_mask: np.ndarray,
    leaf_memo: dict[int, OctreeNode] | None,
):
    """Sample/traverse to a cube that has candidates; None if all retries fail.

    Returns ``(cube_transitions, point_state, candidates, point_mask)``.
    With a ``leaf_memo`` the descent records no transitions: the episode
    that passes one does not learn.
    """
    for _ in range(max_retries):
        node = env.start_node()
        transitions: list[tuple] = []
        if use_agent_cube and leaf_memo is not None:
            start = id(node)
            leaf = leaf_memo.get(start)
            if leaf is None:
                leaf = leaf_memo[start] = _descend(
                    env, cube_agent, node, greedy, stop_only_mask, []
                )
            node = leaf
        elif use_agent_cube:
            node = _descend(
                env, cube_agent, node, greedy, stop_only_mask, transitions
            )
        point_state, candidates, point_mask = env.point_state(node)
        # A cube whose candidates all have ~0 feature values is already
        # represented exactly (e.g. collinear or stationary runs); spending
        # budget there cannot change any query result, so retry elsewhere.
        if candidates and point_state.max() > 1e-9:
            return transitions, point_state, candidates, point_mask
    return None


def _descend(
    env: QDTSEnvironment,
    cube_agent: DQNAgent,
    node: OctreeNode,
    greedy: bool,
    stop_only_mask: np.ndarray,
    transitions: list[tuple],
) -> OctreeNode:
    """Agent-Cube's traversal from ``node`` (Algorithm 2); returns the cube
    it stops in and appends one transition per step to ``transitions``."""
    while True:
        state, mask = env.cube_state(node)
        if not mask[:STOP_ACTION].any():
            # Leaf or level E: forced stop (Algorithm 2, line 6).
            transitions.append(
                (state, STOP_ACTION, mask, state, stop_only_mask, True)
            )
            return node
        action = cube_agent.act(state, mask, greedy=greedy)
        if action == STOP_ACTION:
            transitions.append(
                (state, STOP_ACTION, mask, state, stop_only_mask, True)
            )
            return node
        child = env.descend(node, action)
        child_state, child_mask = env.cube_state(child)
        transitions.append((state, action, mask, child_state, child_mask, False))
        node = child


def _flush_window(
    cube_agent: DQNAgent,
    point_agent: DQNAgent,
    pending_cube: list[tuple],
    pending_point: list[_PendingPoint],
    open_point: _PendingPoint | None,
    reward: float,
    k: int,
) -> None:
    """Assign the shared window reward and push everything into replay."""
    for state, action, mask, next_state, next_mask, done in pending_cube:
        cube_agent.remember(
            Transition(state, action, reward, next_state, next_mask, done, mask)
        )
    if open_point is not None:
        # The last point transition of the window is terminal.
        open_point.done = True
        open_point.next_state = open_point.state
        open_point.next_mask = np.ones(k, dtype=bool)
    for record in pending_point:
        if record.next_state is None:
            record.next_state = record.state
            record.next_mask = np.ones(k, dtype=bool)
            record.done = True
        point_agent.remember(
            Transition(
                record.state,
                record.action,
                reward,
                record.next_state,
                record.next_mask,
                record.done,
                record.mask,
            )
        )
