"""Experience replay memory (Mnih et al., 2013).

Transitions carry an explicit *valid-action mask* for the next state because
both agents have state-dependent action spaces: Agent-Cube may only descend
into non-empty children, and Agent-Point may only pick one of the candidates
actually present in the cube. The Bellman backup maxes over valid actions
only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True, slots=True)
class Transition:
    """One (s, a, r, s', done) tuple with the next state's action mask.

    ``mask`` is the valid-action mask of the *current* state ``s``. DQN does
    not need it (only the Bellman backup over ``s'`` is masked), but the
    policy-gradient learner normalizes its softmax over valid actions only;
    it defaults to None for callers that never feed a policy-gradient agent.
    """

    state: np.ndarray
    action: int
    reward: float
    next_state: np.ndarray
    next_mask: np.ndarray  # bool, True where the action is valid in s'
    done: bool
    mask: np.ndarray | None = None  # bool, True where valid in s


class TransitionBatch(NamedTuple):
    """A sampled mini-batch, one row per transition, as stacked arrays."""

    states: np.ndarray
    actions: np.ndarray
    rewards: np.ndarray
    next_states: np.ndarray
    next_masks: np.ndarray
    dones: np.ndarray


class ReplayMemory:
    """A bounded FIFO buffer of transitions with uniform sampling.

    Transitions are stored column-wise in preallocated rings (one array per
    field, sized on the first push), so a mini-batch is a fancy index into
    each column rather than a stack over transition objects. The current
    state's ``mask`` is not stored: the Bellman backup reads only
    ``next_mask``.
    """

    def __init__(self, capacity: int = 2000) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._rings: TransitionBatch | None = None
        self._size = 0
        self._next = 0

    def __len__(self) -> int:
        return self._size

    def push(self, transition: Transition) -> None:
        if self._rings is None:
            state_shape = np.shape(transition.state)
            mask_shape = np.shape(transition.next_mask)
            cap = self.capacity
            self._rings = TransitionBatch(
                states=np.empty((cap, *state_shape)),
                actions=np.empty(cap, dtype=int),
                rewards=np.empty(cap),
                next_states=np.empty((cap, *state_shape)),
                next_masks=np.empty((cap, *mask_shape), dtype=bool),
                dones=np.empty(cap, dtype=bool),
            )
        row = self._next
        rings = self._rings
        rings.states[row] = transition.state
        rings.actions[row] = transition.action
        rings.rewards[row] = transition.reward
        rings.next_states[row] = transition.next_state
        rings.next_masks[row] = transition.next_mask
        rings.dones[row] = transition.done
        self._size = min(self._size + 1, self.capacity)
        self._next = (row + 1) % self.capacity

    def sample_batch(
        self, batch_size: int, rng: np.random.Generator
    ) -> TransitionBatch:
        """Uniform sample without replacement (capped at the buffer size)."""
        batch_size = min(batch_size, self._size)
        indices = rng.choice(self._size, size=batch_size, replace=False)
        return TransitionBatch(*(column[indices] for column in self._rings))

    def sample(self, batch_size: int, rng: np.random.Generator) -> list[Transition]:
        """:meth:`sample_batch`, one :class:`Transition` per row."""
        if self._rings is None:
            return []  # nothing was ever pushed, so no columns exist yet
        batch = self.sample_batch(batch_size, rng)
        return [
            Transition(
                batch.states[i],
                int(batch.actions[i]),
                float(batch.rewards[i]),
                batch.next_states[i],
                batch.next_masks[i],
                bool(batch.dones[i]),
            )
            for i in range(len(batch.actions))
        ]

    def clear(self) -> None:
        self._size = 0
        self._next = 0
