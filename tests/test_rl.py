"""Unit tests for the numpy DQN stack (network, replay, agent)."""

import numpy as np
import pytest

from repro.rl import DQNAgent, DQNConfig, QNetwork, ReplayMemory, Transition


def make_transition(state_dim=4, n_actions=3, reward=1.0, done=False, seed=0):
    rng = np.random.default_rng(seed)
    return Transition(
        state=rng.normal(size=state_dim),
        action=int(rng.integers(n_actions)),
        reward=reward,
        next_state=rng.normal(size=state_dim),
        next_mask=np.ones(n_actions, dtype=bool),
        done=done,
    )


class TestQNetwork:
    def test_bad_dims_rejected(self):
        with pytest.raises(ValueError):
            QNetwork(0, 3)
        with pytest.raises(ValueError):
            QNetwork(3, 0)

    def test_predict_shape(self):
        net = QNetwork(4, 3, hidden=8, seed=0)
        assert net.predict(np.zeros(4)).shape == (1, 3)
        assert net.predict(np.zeros((7, 4))).shape == (7, 3)

    def test_deterministic_init(self):
        a = QNetwork(4, 3, seed=5)
        b = QNetwork(4, 3, seed=5)
        x = np.ones((2, 4))
        assert np.allclose(a.predict(x), b.predict(x))

    def test_training_reduces_regression_loss(self):
        rng = np.random.default_rng(0)
        net = QNetwork(4, 3, hidden=16, lr=0.01, seed=1)
        states = rng.normal(size=(64, 4))
        actions = rng.integers(0, 3, size=64)
        targets = states[:, 0] * 2.0 + (actions == 1) * 1.5
        first = net.train_step(states, actions, targets)
        for _ in range(300):
            last = net.train_step(states, actions, targets)
        assert last < 0.3 * first

    def test_train_step_only_moves_selected_actions(self):
        net = QNetwork(2, 3, hidden=8, lr=0.05, seed=2)
        state = np.array([[1.0, -1.0]])
        before = net.predict(state)[0].copy()
        # Batch of identical states, always action 0, large target.
        states = np.repeat(state, 8, axis=0)
        for _ in range(50):
            net.train_step(states, np.zeros(8, dtype=int), np.full(8, 10.0))
        after = net.predict(state)[0]
        # Action 0 moved much more than the untouched heads.
        assert abs(after[0] - before[0]) > 3 * abs(after[2] - before[2])

    def test_copy_from(self):
        a = QNetwork(4, 3, seed=1)
        b = QNetwork(4, 3, seed=2)
        x = np.ones((2, 4))
        assert not np.allclose(a.predict(x), b.predict(x))
        b.copy_from(a)
        assert np.allclose(a.predict(x), b.predict(x))

    def test_get_set_parameters_roundtrip(self):
        a = QNetwork(4, 3, seed=1)
        params = a.get_parameters()
        b = QNetwork(4, 3, seed=9)
        b.set_parameters(params)
        x = np.linspace(-1, 1, 8).reshape(2, 4)
        assert np.allclose(a.predict(x), b.predict(x))

    def test_batchnorm_running_stats_update(self):
        net = QNetwork(4, 2, hidden=8, seed=0)
        before = net.running_mean.copy()
        rng = np.random.default_rng(1)
        net.train_step(
            rng.normal(5.0, 1.0, size=(32, 4)),
            rng.integers(0, 2, size=32),
            np.zeros(32),
        )
        assert not np.allclose(before, net.running_mean)


class TestReplayMemory:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            ReplayMemory(0)

    def test_fifo_eviction(self):
        mem = ReplayMemory(capacity=3)
        for i in range(5):
            mem.push(make_transition(reward=float(i), seed=i))
        assert len(mem) == 3
        # A full-size sample without replacement returns every row.
        rewards = {t.reward for t in mem.sample(3, np.random.default_rng(0))}
        assert rewards == {2.0, 3.0, 4.0}

    def test_sample_without_replacement(self):
        mem = ReplayMemory(capacity=10)
        for i in range(10):
            mem.push(make_transition(reward=float(i), seed=i))
        batch = mem.sample(10, np.random.default_rng(0))
        assert len({t.reward for t in batch}) == 10

    def test_sample_caps_at_size(self):
        mem = ReplayMemory(capacity=10)
        assert mem.sample(32, np.random.default_rng(0)) == []
        mem.push(make_transition())
        assert len(mem.sample(32, np.random.default_rng(0))) == 1

    def test_clear(self):
        mem = ReplayMemory()
        mem.push(make_transition())
        mem.clear()
        assert len(mem) == 0


class TestDQNAgent:
    def test_act_respects_mask_greedy_and_random(self):
        agent = DQNAgent(4, 5, seed=0)
        mask = np.array([False, True, False, True, False])
        for greedy in (True, False):
            for _ in range(20):
                action = agent.act(np.zeros(4), mask, greedy=greedy)
                assert action in (1, 3)

    def test_act_no_valid_action_raises(self):
        agent = DQNAgent(4, 3, seed=0)
        with pytest.raises(ValueError):
            agent.act(np.zeros(4), np.zeros(3, dtype=bool))

    def test_learn_deferred_until_buffer_filled(self):
        agent = DQNAgent(4, 3, DQNConfig(learn_start=16, batch_size=8), seed=0)
        agent.remember(make_transition())
        assert agent.learn() is None

    def test_learn_returns_loss(self):
        agent = DQNAgent(4, 3, DQNConfig(learn_start=8, batch_size=8), seed=0)
        for i in range(16):
            agent.remember(make_transition(seed=i))
        loss = agent.learn()
        assert loss is not None and np.isfinite(loss)

    def test_target_sync(self):
        config = DQNConfig(learn_start=4, batch_size=4, target_sync_every=2)
        agent = DQNAgent(4, 3, config, seed=0)
        for i in range(8):
            agent.remember(make_transition(seed=i))
        agent.learn()
        x = np.ones((1, 4))
        assert not np.allclose(agent.q_net.predict(x), agent.target_net.predict(x))
        agent.learn()  # second learn triggers the sync
        assert np.allclose(agent.q_net.predict(x), agent.target_net.predict(x))

    def test_epsilon_decay_floor(self):
        agent = DQNAgent(4, 3, DQNConfig(epsilon_min=0.1, epsilon_decay=0.5), seed=0)
        for _ in range(50):
            agent.decay_epsilon()
        assert agent.epsilon == pytest.approx(0.1)

    def test_terminal_states_ignore_future_value(self):
        """A done transition's target is exactly the reward."""
        config = DQNConfig(learn_start=1, batch_size=1, gamma=0.99)
        agent = DQNAgent(2, 2, config, seed=0)
        t = Transition(
            state=np.array([1.0, 0.0]),
            action=0,
            reward=5.0,
            next_state=np.array([0.0, 1.0]),
            next_mask=np.ones(2, dtype=bool),
            done=True,
        )
        for _ in range(200):
            agent.memory.clear()
            agent.remember(t)
            agent.learn()
        assert agent.q_net.predict(t.state)[0, 0] == pytest.approx(5.0, abs=0.5)

    def test_all_invalid_next_mask_treated_as_terminal(self):
        config = DQNConfig(learn_start=1, batch_size=1)
        agent = DQNAgent(2, 2, config, seed=0)
        t = Transition(
            state=np.array([1.0, 0.0]),
            action=0,
            reward=1.0,
            next_state=np.array([0.0, 1.0]),
            next_mask=np.zeros(2, dtype=bool),
            done=False,
        )
        agent.remember(t)
        loss = agent.learn()
        assert loss is not None and np.isfinite(loss)

    def test_parameters_roundtrip(self):
        a = DQNAgent(4, 3, seed=0)
        b = DQNAgent(4, 3, seed=9)
        b.set_parameters(a.get_parameters())
        x = np.ones((1, 4))
        assert np.allclose(a.q_net.predict(x), b.q_net.predict(x))
        assert np.allclose(b.q_net.predict(x), b.target_net.predict(x))
