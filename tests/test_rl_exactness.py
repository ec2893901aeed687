"""The RL4QDTS pipeline's fast paths against the primitives they replace.

Every cache and array path in ``repro.core`` / ``repro.rl`` claims to give
the same bits as the straightforward code it stands in for. Each claim is
checked here in process against that reference code, kept below, and not
against pinned digests: the numbers depend on numpy and its BLAS, the
equality does not.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RL4QDTS, QDTSEnvironment, RL4QDTSConfig, cube_point_state
from repro.core import rollout
from repro.index.common import CubeNode, CubeTree
from repro.index.octree import Octree
from repro.rl import DQNAgent, QNetwork, ReplayMemory, Transition
from repro.rl import dqn as dqn_module
from repro.rl.replay import TransitionBatch
from repro.workloads import RangeQueryWorkload

# --------------------------------------------------------------- references


def reference_sample_node_at_level(self, level, rng, by="queries"):
    """Start-node draw through ``Generator.choice(n, p=...)``."""
    level = min(level, self.max_depth)
    nodes = self.nodes_at_level(level)
    if not nodes:
        return self.root
    weights = np.array([n.n_queries for n in nodes], dtype=float)
    if by != "queries" or weights.sum() <= 0:
        weights = np.array([n.n_points for n in nodes], dtype=float)
    total = weights.sum()
    if total <= 0:
        return nodes[int(rng.integers(len(nodes)))]
    return nodes[int(rng.choice(len(nodes), p=weights / total))]


def reference_insert_bulk(self, node, points, owners, indices):
    """Tree build with ``np.unique`` counts and one boolean mask per child."""
    node.n_points = len(points)
    node.n_trajectories = len(np.unique(owners)) if len(owners) else 0
    if len(points) <= self.leaf_capacity or node.level >= self.max_depth:
        node.entries = list(zip(owners.tolist(), indices.tolist()))
        return
    octant, boxes = self._split_masks_and_boxes(node, points)
    node.children = [None] * 8
    for k in range(8):
        mask = octant == k
        if mask.any():
            child = CubeNode(box=boxes[k], level=node.level + 1)
            node.children[k] = child
            reference_insert_bulk(self, child, points[mask], owners[mask], indices[mask])


def reference_cube_state(self, node):
    """Agent-Cube's state and a freshly built mask on every call."""
    state = self.octree.child_fractions(node)
    mask = np.zeros(9, dtype=bool)
    mask[8] = True
    if not node.is_leaf and node.level < self.config.end_level:
        for k in node.nonempty_children():
            mask[k] = True
    return state, mask


def reference_point_state(self, node):
    """Agent-Point's state recomputed from scratch for every call."""
    return cube_point_state(
        self.state,
        self.octree.collect_points(node),
        self.config.k_candidates,
        rank_by=self.config.point_feature,
    )


def reference_act(self, state, mask=None, greedy=False):
    """ε-greedy action through ``Generator.choice(valid)``."""
    mask = np.ones(self.n_actions, bool) if mask is None else np.asarray(mask, bool)
    valid = np.flatnonzero(mask)
    if len(valid) == 0:
        raise ValueError("no valid action available")
    if not greedy and self._rng.random() < self.epsilon:
        return int(self._rng.choice(valid))
    q = self.q_net.predict(state)[0]
    return int(np.argmax(np.where(mask, q, -np.inf)))


def reference_predict(self, x):
    """Forward pass with the general input conversion for every input."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z1 = x @ self.w1 + self.b1
    z1_hat = (z1 - self.running_mean) / np.sqrt(self.running_var + 1e-5)
    h = np.tanh(self.gamma * z1_hat + self.beta)
    return h @ self.w2 + self.b2


class ListReplay:
    """Replay memory as a list of transitions, stacked per mini-batch."""

    def __init__(self, capacity=2000):
        self.capacity = capacity
        self._buffer = []
        self._next = 0

    def __len__(self):
        return len(self._buffer)

    def push(self, transition):
        if len(self._buffer) < self.capacity:
            self._buffer.append(transition)
        else:
            self._buffer[self._next] = transition
        self._next = (self._next + 1) % self.capacity

    def sample_batch(self, batch_size, rng):
        batch_size = min(batch_size, len(self._buffer))
        indices = rng.choice(len(self._buffer), size=batch_size, replace=False)
        batch = [self._buffer[i] for i in indices]
        return TransitionBatch(
            np.stack([t.state for t in batch]),
            np.array([t.action for t in batch], dtype=int),
            np.array([t.reward for t in batch]),
            np.stack([t.next_state for t in batch]),
            np.stack([t.next_mask for t in batch]),
            np.array([t.done for t in batch], dtype=bool),
        )


def use_reference_primitives(monkeypatch):
    monkeypatch.setattr(CubeTree, "sample_node_at_level", reference_sample_node_at_level)
    monkeypatch.setattr(CubeTree, "_insert_bulk", reference_insert_bulk)
    monkeypatch.setattr(QDTSEnvironment, "cube_state", reference_cube_state)
    monkeypatch.setattr(QDTSEnvironment, "point_state", reference_point_state)
    monkeypatch.setattr(rollout, "_greedy_leaf_memo", lambda greedy, learn: None)
    monkeypatch.setattr(DQNAgent, "act", reference_act)
    monkeypatch.setattr(QNetwork, "predict", reference_predict)
    monkeypatch.setattr(dqn_module, "ReplayMemory", ListReplay)


# ------------------------------------------------------------ primitives


@pytest.fixture(scope="module")
def annotated_tree(geolife_db):
    tree = Octree(geolife_db, max_depth=6, leaf_capacity=8)
    tree.annotate_queries(
        RangeQueryWorkload.from_data_distribution(geolife_db, 40, seed=2).boxes
    )
    return tree


@pytest.mark.parametrize("by", ["queries", "points"])
@pytest.mark.parametrize("level", [1, 2, 4])
def test_start_node_draw_matches_generator_choice(annotated_tree, by, level):
    fast, ref = np.random.default_rng(level), np.random.default_rng(level)
    for _ in range(3000):
        got = annotated_tree.sample_node_at_level(level, fast, by=by)
        want = reference_sample_node_at_level(annotated_tree, level, ref, by=by)
        assert got is want
    assert fast.bit_generator.state == ref.bit_generator.state


def test_start_node_draw_matches_generator_choice_on_skewed_weights(geolife_db):
    """Weights spanning many orders of magnitude (fresh tree per weight set)."""
    rng = np.random.default_rng(9)
    for trial in range(20):
        tree = Octree(geolife_db, max_depth=5, leaf_capacity=8)
        for node in tree.iter_nodes():
            node.n_queries = int(rng.integers(0, 10 ** rng.integers(1, 7)))
        fast, ref = np.random.default_rng(trial), np.random.default_rng(trial)
        for _ in range(200):
            got = tree.sample_node_at_level(3, fast)
            assert got is reference_sample_node_at_level(tree, 3, ref)
        assert fast.bit_generator.state == ref.bit_generator.state


def test_tree_build_matches_mask_partition(geolife_db, monkeypatch):
    def shape(tree):
        return [
            (n.level, n.n_points, n.n_trajectories, n.box, list(n.entries))
            for n in tree.iter_nodes()
        ]

    fast = shape(Octree(geolife_db, max_depth=7, leaf_capacity=4))
    monkeypatch.setattr(CubeTree, "_insert_bulk", reference_insert_bulk)
    assert fast == shape(Octree(geolife_db, max_depth=7, leaf_capacity=4))


def test_epsilon_draw_matches_generator_choice():
    agent = DQNAgent(4, 9, seed=5)  # ε starts at 1: every act explores
    ref = np.random.default_rng(5)
    masks = np.random.default_rng(1).random((500, 9)) < 0.4
    masks[:, 8] = True
    state = np.zeros(4)
    for mask in masks:
        assert ref.random() < agent.epsilon
        assert agent.act(state, mask) == int(ref.choice(np.flatnonzero(mask)))


def random_transition(rng, state_dim=5, n_actions=3):
    return Transition(
        rng.normal(size=state_dim),
        int(rng.integers(n_actions)),
        float(rng.normal()),
        rng.normal(size=state_dim),
        rng.random(n_actions) < 0.5,
        bool(rng.random() < 0.3),
        rng.random(n_actions) < 0.5,
    )


@pytest.mark.parametrize("pushes", [1, 7, 20, 53])
def test_ring_sampling_matches_stacked_transitions(pushes):
    rings, listed = ReplayMemory(capacity=20), ListReplay(capacity=20)
    rng = np.random.default_rng(pushes)
    for _ in range(pushes):
        transition = random_transition(rng)
        rings.push(transition)
        listed.push(transition)
    assert len(rings) == len(listed)
    fast, ref = np.random.default_rng(3), np.random.default_rng(3)
    for batch_size in (1, 8, 32):
        got = rings.sample_batch(batch_size, fast)
        want = listed.sample_batch(batch_size, ref)
        for name, a, b in zip(TransitionBatch._fields, got, want):
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    rows = rings.sample(32, np.random.default_rng(4))
    assert [t.reward for t in rows] == [
        float(r) for r in listed.sample_batch(32, np.random.default_rng(4)).rewards
    ]


@pytest.mark.parametrize("rank_by", ["vs", "vt"])
def test_cached_point_state_matches_fresh_computation(geolife_db, rank_by):
    config = RL4QDTSConfig(start_level=2, end_level=6, leaf_capacity=8, point_feature=rank_by)
    workload = RangeQueryWorkload.from_data_distribution(geolife_db, 30, seed=1)
    env = QDTSEnvironment(geolife_db, workload, config, np.random.default_rng(0))
    nodes = list(env.octree.iter_nodes())
    rng = np.random.default_rng(7)

    def check(node):
        got = env.point_state(node)
        want = reference_point_state(env, node)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(got[2], want[2])
        return got

    for step in range(600):
        node = nodes[int(rng.integers(len(nodes)))]
        _, candidates, _ = check(node)
        if step % 3 == 0 and candidates:
            env.insert(*candidates[int(rng.integers(len(candidates)))])
        elif step % 3 == 1:
            pick = env.random_unkept_point()
            if pick is not None:
                env.insert(*pick)
        if step == 300:
            kept = [env.state.kept_indices(t) for t in range(len(geolife_db))]
            env.reset()
            for node in nodes[::5]:
                check(node)
            env.load_kept(kept)


def test_cached_cube_state_is_read_only(small_db, small_workload):
    config = RL4QDTSConfig(start_level=2, end_level=5, leaf_capacity=4)
    env = QDTSEnvironment(small_db, small_workload, config, np.random.default_rng(0))
    state, mask = env.cube_state(env.octree.root)
    with pytest.raises(ValueError):
        state[0] = 1.0
    with pytest.raises(ValueError):
        mask[0] = True
    again = env.cube_state(env.octree.root)
    assert again[0] is state and again[1] is mask


# -------------------------------------------------------------- pipeline


def pipeline_outputs(db, config, use_agent_cube=True, use_agent_point=True):
    """Everything train + simplify + refine produce, as exact values."""
    model = RL4QDTS.train(
        db, config=config, use_agent_cube=use_agent_cube, use_agent_point=use_agent_point
    )
    simplified, stats = model.simplify(db, budget_ratio=0.1, return_stats=True)
    refined = model.refine(db, simplified, budget_ratio=0.15)
    params = [
        {name: value.tolist() for name, value in agent.get_parameters().items()}
        for agent in (model.cube_agent, model.point_agent)
    ]
    return {
        "simplified": simplified.point_matrix().tolist(),
        "refined": refined.point_matrix().tolist(),
        "diffs": model.history.episode_diffs,
        "rewards": model.history.episode_rewards,
        "params": params,
        "stats": (
            stats.inserted, stats.fallback_inserted, stats.windows,
            stats.final_diff, stats.rewards,
        ),
        "replay": len(getattr(model.point_agent, "memory", ())),
    }


PIPELINES = {
    "shipped": ({}, {}),
    "no_agent_cube": ({}, {"use_agent_cube": False}),
    "no_agent_point": ({}, {"use_agent_point": False}),
    "reinforce": ({"learner": "reinforce"}, {}),
    "kdtree": ({"index": "kdtree"}, {}),
}


@pytest.mark.parametrize("case", sorted(PIPELINES))
def test_pipeline_matches_reference_primitives(geolife_db, monkeypatch, case):
    overrides, flags = PIPELINES[case]
    config = RL4QDTSConfig(train_db_size=15, train_budget_ratio=0.2, **overrides)
    fast = pipeline_outputs(geolife_db, config, **flags)
    if config.learner == "dqn":
        # The replay path ran: the memory filled past the learning threshold.
        assert fast["replay"] > config.dqn.learn_start
    use_reference_primitives(monkeypatch)
    reference = pipeline_outputs(geolife_db, config, **flags)
    for key in fast:
        assert fast[key] == reference[key], key
