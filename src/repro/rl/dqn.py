"""Deep Q-learning with replay memory, target network, and action masking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.rl.networks import QNetwork
from repro.rl.replay import ReplayMemory, Transition


@dataclass(frozen=True, slots=True)
class DQNConfig:
    """Hyper-parameters (defaults follow the paper, Section V-A)."""

    hidden: int = 25
    lr: float = 0.01
    gamma: float = 0.99
    epsilon_start: float = 1.0
    epsilon_min: float = 0.1
    epsilon_decay: float = 0.99
    replay_capacity: int = 2000
    batch_size: int = 32
    target_sync_every: int = 100
    learn_start: int = 64  # minimum buffered transitions before learning
    #: Use Double DQN targets (van Hasselt et al., 2016): the online network
    #: selects the next action, the target network evaluates it. Reduces the
    #: max-operator over-estimation bias of vanilla DQN.
    double_dqn: bool = False


class DQNAgent:
    """One DQN agent with a state-dependent valid-action mask.

    Parameters
    ----------
    state_dim, n_actions:
        Dimensions of the MDP.
    config:
        Hyper-parameters.
    seed:
        Seed for weight init and exploration.
    """

    def __init__(
        self,
        state_dim: int,
        n_actions: int,
        config: DQNConfig | None = None,
        seed: int = 0,
    ) -> None:
        self.config = config or DQNConfig()
        self.state_dim = state_dim
        self.n_actions = n_actions
        self.q_net = QNetwork(
            state_dim, n_actions, self.config.hidden, self.config.lr, seed=seed
        )
        self.target_net = QNetwork(
            state_dim, n_actions, self.config.hidden, self.config.lr, seed=seed + 1
        )
        self.target_net.copy_from(self.q_net)
        self.memory = ReplayMemory(self.config.replay_capacity)
        self.epsilon = self.config.epsilon_start
        self._learn_steps = 0
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ acting
    def act(
        self,
        state: np.ndarray,
        mask: np.ndarray | None = None,
        greedy: bool = False,
    ) -> int:
        """ε-greedy (or greedy) action restricted to the valid mask."""
        mask = self._full_mask() if mask is None else np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError("no valid action available")
        if not greedy and self._rng.random() < self.epsilon:
            valid = np.flatnonzero(mask)
            # The draw ``self._rng.choice(valid)`` makes, without its
            # argument checks.
            return int(valid[self._rng.integers(0, len(valid))])
        q = self.q_net.predict(state)[0]
        q_masked = np.where(mask, q, -np.inf)
        return int(np.argmax(q_masked))

    def _full_mask(self) -> np.ndarray:
        return np.ones(self.n_actions, dtype=bool)

    # ---------------------------------------------------------------- learning
    def remember(self, transition: Transition) -> None:
        self.memory.push(transition)

    def learn(self) -> float | None:
        """One replay mini-batch update; returns the loss or None if deferred."""
        if len(self.memory) < max(self.config.learn_start, self.config.batch_size):
            return None
        states, actions, rewards, next_states, masks, dones = (
            self.memory.sample_batch(self.config.batch_size, self._rng)
        )

        target_q = self.target_net.predict(next_states)
        if self.config.double_dqn:
            # Double DQN: the online net picks the action, the target net
            # scores it.
            online_q = np.where(masks, self.q_net.predict(next_states), -np.inf)
            best_actions = online_q.argmax(axis=1)
            best_next = target_q[np.arange(len(actions)), best_actions]
            best_next = np.where(masks.any(axis=1), best_next, -np.inf)
        else:
            best_next = np.where(masks, target_q, -np.inf).max(axis=1)
        # States whose mask is all-invalid behave as terminal.
        best_next = np.where(np.isfinite(best_next), best_next, 0.0)
        targets = rewards + np.where(dones, 0.0, self.config.gamma * best_next)

        loss = self.q_net.train_step(states, actions, targets)
        self._learn_steps += 1
        if self._learn_steps % self.config.target_sync_every == 0:
            self.target_net.copy_from(self.q_net)
        return loss

    def decay_epsilon(self) -> None:
        """Multiplicative ε decay down to the configured minimum."""
        self.epsilon = max(
            self.config.epsilon_min, self.epsilon * self.config.epsilon_decay
        )

    # ------------------------------------------------------------- persistence
    def get_parameters(self) -> dict:
        return self.q_net.get_parameters()

    def set_parameters(self, params: dict) -> None:
        self.q_net.set_parameters(params)
        self.target_net.copy_from(self.q_net)
