"""RLTS+: reinforcement-learned bottom-up simplification (Wang et al., ICDE'21).

RLTS+ follows the Bottom-Up strategy but replaces the "drop the minimum
error" heuristic with a learned policy: at each step the ``J`` cheapest drop
candidates are presented and a DQN decides which one to drop. The policy is
trained to minimize the resulting trajectory error (the reward is the
negative error introduced by the chosen drop).

This is a faithful lightweight reimplementation of the original (which is
itself an RL system). Both "E" and "W" adaptations are provided, mirroring
:mod:`repro.baselines.bottomup`.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.baselines.bottomup import _LinkedTrajectory
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.replay import Transition


class RLTSPolicy:
    """The learned drop policy of RLTS+.

    The state is the vector of the ``J`` smallest candidate drop errors
    (zero-padded, scaled by their mean for scale invariance); the action is
    which candidate to drop.
    """

    def __init__(self, measure: str = "sed", j_candidates: int = 3, seed: int = 0):
        if j_candidates < 1:
            raise ValueError("j_candidates must be >= 1")
        self.measure = measure
        self.j = j_candidates
        self.agent = DQNAgent(
            state_dim=j_candidates,
            n_actions=j_candidates,
            config=DQNConfig(hidden=16, learn_start=32),
            seed=seed,
        )
        self.trained = False

    # -------------------------------------------------------------------- state
    def state_of(self, errors: np.ndarray) -> np.ndarray:
        """Normalized state vector from up to ``J`` candidate errors."""
        state = np.zeros(self.j)
        k = min(len(errors), self.j)
        if k:
            scale = float(np.mean(errors[:k])) + 1e-9
            state[:k] = errors[:k] / scale
        return state

    def choose(self, errors: np.ndarray, greedy: bool = True) -> int:
        """Index of the candidate to drop among the ``len(errors)`` presented."""
        mask = np.zeros(self.j, dtype=bool)
        mask[: min(len(errors), self.j)] = True
        return self.agent.act(self.state_of(errors), mask, greedy=greedy)

    # ----------------------------------------------------------------- training
    def train(
        self,
        db: TrajectoryDatabase,
        n_trajectories: int = 10,
        budget_ratio: float = 0.1,
        episodes: int = 2,
        seed: int = 0,
    ) -> "RLTSPolicy":
        """Train on bottom-up episodes over sampled trajectories."""
        rng = np.random.default_rng(seed)
        sample = db.sample(min(n_trajectories, len(db)), rng)
        for _ in range(episodes):
            for traj in sample:
                budget = max(2, int(round(budget_ratio * len(traj))))
                rlts_simplify(traj, budget, self.measure, self, learn=True)
                self.agent.decay_epsilon()
        self.trained = True
        return self


def _candidate_batch(
    heap: list, linked: _LinkedTrajectory, measure: str, j: int
) -> list[tuple[float, int]]:
    """Pop up to ``j`` valid (error, idx) candidates off the lazy heap."""
    batch: list[tuple[float, int]] = []
    while heap and len(batch) < j:
        error, version, idx = heapq.heappop(heap)
        if linked.is_interior(idx) and version == linked.version[idx]:
            batch.append((error, idx))
    return batch


def rlts_simplify(
    trajectory: Trajectory | np.ndarray,
    budget: int,
    measure: str = "sed",
    policy: RLTSPolicy | None = None,
    learn: bool = False,
) -> list[int]:
    """Kept indices for one trajectory under the learned drop policy."""
    points = (
        trajectory.points if isinstance(trajectory, Trajectory) else trajectory
    )
    if budget < 2:
        raise ValueError("budget must keep at least the two endpoints")
    policy = policy or RLTSPolicy(measure)
    linked = _LinkedTrajectory(points)
    if budget >= linked.n_kept:
        return list(range(len(points)))
    heap: list[tuple[float, int, int]] = []
    for idx in range(1, len(points) - 1):
        heapq.heappush(heap, (linked.drop_error(idx, measure), 0, idx))
    previous: tuple[np.ndarray, int, float] | None = None
    while linked.n_kept > budget:
        batch = _candidate_batch(heap, linked, measure, policy.j)
        if not batch:
            break
        errors = np.array([e for e, _ in batch])
        action = policy.choose(errors, greedy=not learn)
        action = min(action, len(batch) - 1)
        state = policy.state_of(errors)
        chosen_error, chosen_idx = batch[action]
        # Re-queue the not-chosen candidates.
        for rank, (error, idx) in enumerate(batch):
            if rank != action:
                heapq.heappush(heap, (error, int(linked.version[idx]), idx))
        left, right = linked.drop(chosen_idx)
        for nb in (left, right):
            if linked.is_interior(nb):
                heapq.heappush(
                    heap,
                    (linked.drop_error(nb, measure), int(linked.version[nb]), nb),
                )
        if learn:
            if previous is not None:
                prev_state, prev_action, prev_reward = previous
                mask = np.ones(policy.j, dtype=bool)
                policy.agent.remember(
                    Transition(prev_state, prev_action, prev_reward, state, mask, False)
                )
            previous = (state, action, -chosen_error)
            policy.agent.learn()
    if learn and previous is not None:
        prev_state, prev_action, prev_reward = previous
        policy.agent.remember(
            Transition(
                prev_state,
                prev_action,
                prev_reward,
                prev_state,
                np.ones(policy.j, dtype=bool),
                True,
            )
        )
        policy.agent.learn()
    return linked.kept_indices()


def rlts_simplify_database(
    db: TrajectoryDatabase,
    budget: int,
    measure: str = "sed",
    policy: RLTSPolicy | None = None,
) -> list[list[int]]:
    """The "W" adaptation: learned dropping over one global candidate pool."""
    if budget < 2 * len(db):
        raise ValueError("budget cannot cover 2 endpoints per trajectory")
    policy = policy or RLTSPolicy(measure)
    linked = [_LinkedTrajectory(t.points) for t in db]
    total = sum(l.n_kept for l in linked)
    heap: list[tuple[float, int, int, int]] = []
    for tid, l in enumerate(linked):
        for idx in range(1, len(l.points) - 1):
            heapq.heappush(heap, (l.drop_error(idx, measure), 0, tid, idx))
    while total > budget:
        batch: list[tuple[float, int, int]] = []
        while heap and len(batch) < policy.j:
            error, version, tid, idx = heapq.heappop(heap)
            if linked[tid].is_interior(idx) and version == linked[tid].version[idx]:
                batch.append((error, tid, idx))
        if not batch:
            break
        errors = np.array([e for e, _, _ in batch])
        action = min(policy.choose(errors, greedy=True), len(batch) - 1)
        for rank, (error, tid, idx) in enumerate(batch):
            if rank != action:
                heapq.heappush(heap, (error, int(linked[tid].version[idx]), tid, idx))
        _, tid, idx = batch[action]
        left, right = linked[tid].drop(idx)
        total -= 1
        for nb in (left, right):
            if linked[tid].is_interior(nb):
                heapq.heappush(
                    heap,
                    (
                        linked[tid].drop_error(nb, measure),
                        int(linked[tid].version[nb]),
                        tid,
                        nb,
                    ),
                )
    return [l.kept_indices() for l in linked]
