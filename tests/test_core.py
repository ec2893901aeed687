"""Tests for the RL4QDTS core: features, reward, environment, rollout."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    CUBE_N_ACTIONS,
    CUBE_STATE_DIM,
    STOP_ACTION,
    IncrementalRangeEvaluator,
    QDTSEnvironment,
    RL4QDTSConfig,
    cube_point_state,
    point_values,
    run_episode,
)
from repro.data import SimplificationState
from repro.rl import DQNAgent
from repro.workloads import RangeQueryWorkload


@pytest.fixture
def env(small_db, small_workload):
    config = RL4QDTSConfig(start_level=2, end_level=5, delta=5, leaf_capacity=4)
    return QDTSEnvironment(small_db, small_workload, config, np.random.default_rng(0))


def make_agents(config):
    cube = DQNAgent(CUBE_STATE_DIM, CUBE_N_ACTIONS, config.dqn, seed=0)
    point = DQNAgent(2 * config.k_candidates, config.k_candidates, config.dqn, seed=1)
    return cube, point


class TestPointValues:
    def test_on_anchor_is_zero(self):
        pts = np.array([[0, 0, 0], [5, 0, 5], [10, 0, 10]], dtype=float)
        v_s, v_t = point_values(pts, 1, 0, 2)
        assert v_s == pytest.approx(0.0)
        assert v_t == pytest.approx(0.0)

    def test_spatial_detour(self):
        pts = np.array([[0, 0, 0], [5, 4, 5], [10, 0, 10]], dtype=float)
        v_s, _ = point_values(pts, 1, 0, 2)
        assert v_s == pytest.approx(4.0)

    def test_temporal_lag(self):
        # Point sits at x=8 but at time 2: nearest anchor location at x=8 is
        # passed at time 8 -> v_t = 6.
        pts = np.array([[0, 0, 0], [8, 0, 2], [10, 0, 10]], dtype=float)
        v_s, v_t = point_values(pts, 1, 0, 2)
        assert v_s == pytest.approx(np.hypot(8 - 2, 0))  # sync at x=2
        assert v_t == pytest.approx(6.0)

    def test_degenerate_anchor(self):
        pts = np.array([[0, 0, 0], [3, 4, 1], [0, 0, 2]], dtype=float)
        v_s, v_t = point_values(pts, 1, 0, 2)
        assert v_s == pytest.approx(5.0)
        assert v_t == pytest.approx(1.0)


class TestCubePointState:
    def test_k_validation(self, small_db):
        state = SimplificationState(small_db)
        with pytest.raises(ValueError):
            cube_point_state(state, [], 0)

    def test_empty_cube(self, small_db):
        state = SimplificationState(small_db)
        vec, candidates, mask = cube_point_state(state, [], 2)
        assert vec.shape == (4,)
        assert candidates == []
        assert not mask.any()

    def test_kept_points_excluded(self, small_db):
        state = SimplificationState(small_db)
        entries = [(0, i) for i in range(len(small_db[0]))]
        _, candidates, _ = cube_point_state(state, entries, 3)
        for tid, idx in candidates:
            assert not state.is_kept(tid, idx)
        # After keeping everything no candidates remain.
        for i in range(1, len(small_db[0]) - 1):
            state.insert(0, i)
        _, candidates, mask = cube_point_state(state, entries, 3)
        assert candidates == [] and not mask.any()

    def test_one_candidate_per_trajectory(self, small_db):
        state = SimplificationState(small_db)
        entries = [
            (tid, i)
            for tid in (0, 1, 2)
            for i in range(1, len(small_db[tid]) - 1)
        ]
        _, candidates, _ = cube_point_state(state, entries, 5)
        owners = [tid for tid, _ in candidates]
        assert len(owners) == len(set(owners)) == 3

    def test_sorted_by_vs_descending(self, small_db):
        state = SimplificationState(small_db)
        entries = [
            (tid, i)
            for tid in range(len(small_db))
            for i in range(1, len(small_db[tid]) - 1)
        ]
        vec, candidates, mask = cube_point_state(state, entries, 4)
        vs = vec[::2][: len(candidates)]
        assert (np.diff(vs) <= 1e-12).all()
        assert mask[: len(candidates)].all()

    def test_list_and_dict_entries_agree(self, small_db):
        state = SimplificationState(small_db)
        entries = [(0, i) for i in range(len(small_db[0]))] + [
            (1, i) for i in range(len(small_db[1]))
        ]
        grouped = {
            0: np.arange(len(small_db[0])),
            1: np.arange(len(small_db[1])),
        }
        vec_a, cand_a, _ = cube_point_state(state, entries, 3)
        vec_b, cand_b, _ = cube_point_state(state, grouped, 3)
        assert np.allclose(vec_a, vec_b)
        assert cand_a == cand_b


class TestIncrementalEvaluator:
    def test_empty_workload_rejected(self, small_db):
        empty = RangeQueryWorkload(())
        with pytest.raises(ValueError):
            IncrementalRangeEvaluator(small_db, empty)

    def test_full_state_perfect_f1(self, small_db, small_workload):
        evaluator = IncrementalRangeEvaluator(small_db, small_workload)
        evaluator.reset(SimplificationState(small_db, start_full=True))
        assert evaluator.mean_f1() == pytest.approx(1.0)
        assert evaluator.diff() == pytest.approx(0.0)

    def test_incremental_matches_scratch(self, small_db, small_workload):
        """notify_insert must agree with a from-scratch reset."""
        evaluator = IncrementalRangeEvaluator(small_db, small_workload)
        state = SimplificationState(small_db)
        evaluator.reset(state)
        rng = np.random.default_rng(1)
        for _ in range(30):
            tid = int(rng.integers(len(small_db)))
            interior = [
                i
                for i in range(1, len(small_db[tid]) - 1)
                if not state.is_kept(tid, i)
            ]
            if not interior:
                continue
            idx = int(rng.choice(interior))
            state.insert(tid, idx)
            evaluator.notify_insert(tid, small_db[tid].points[idx])
        incremental = evaluator.results
        evaluator.reset(state)
        assert evaluator.results == incremental

    def test_diff_monotone_under_insertions(self, small_db, small_workload):
        """Adding points can only improve range-query F1 (recall grows)."""
        evaluator = IncrementalRangeEvaluator(small_db, small_workload)
        state = SimplificationState(small_db)
        evaluator.reset(state)
        previous = evaluator.diff()
        for tid in range(len(small_db)):
            for idx in range(1, len(small_db[tid]) - 1, 3):
                state.insert(tid, idx)
                evaluator.notify_insert(tid, small_db[tid].points[idx])
            current = evaluator.diff()
            assert current <= previous + 1e-12
            previous = current

    def test_truth_matches_direct_queries(self, small_db, small_workload):
        evaluator = IncrementalRangeEvaluator(small_db, small_workload)
        assert evaluator.truth == small_workload.evaluate(small_db)


class TestEnvironment:
    def test_reset_state(self, env, small_db):
        assert env.state.total_kept == 2 * len(small_db)
        assert 0.0 <= env.diff() <= 1.0

    def test_cube_state_shape_and_mask(self, env):
        state, mask = env.cube_state(env.octree.root)
        assert state.shape == (CUBE_STATE_DIM,)
        assert mask.shape == (CUBE_N_ACTIONS,)
        assert mask[STOP_ACTION]

    def test_leaf_forces_stop(self, env):
        node = env.octree.root
        while not node.is_leaf and node.level < env.config.end_level:
            node = node.child(node.nonempty_children()[0])
        _, mask = env.cube_state(node)
        assert mask[STOP_ACTION]
        assert not mask[:STOP_ACTION].any()

    def test_descend_to_empty_child_raises(self, env):
        node = env.octree.root
        empties = [k for k in range(8) if node.child(k) is None]
        if empties:
            with pytest.raises(ValueError):
                env.descend(node, empties[0])

    def test_insert_updates_diff_bookkeeping(self, env, small_db):
        before = env.state.total_kept
        env.insert(0, 3)
        assert env.state.total_kept == before + 1
        assert env.state.is_kept(0, 3)

    def test_random_unkept_point_exhausts(self, env, small_db):
        seen = set()
        while True:
            pick = env.random_unkept_point()
            if pick is None:
                break
            assert pick not in seen
            seen.add(pick)
            env.state.insert(*pick)
        interior_total = sum(len(t) - 2 for t in small_db)
        assert len(seen) == interior_total

    def test_start_node_level(self, env):
        node = env.start_node()
        assert node.level <= env.config.start_level


class TestRollout:
    def test_budget_exactly_consumed(self, env, small_db):
        config = env.config
        cube, point = make_agents(config)
        budget = small_db.budget_for_ratio(0.5)
        stats = run_episode(env, cube, point, budget)
        assert env.state.total_kept == budget
        assert stats.inserted == budget - 2 * len(small_db)

    def test_full_budget_keeps_everything(self, env, small_db):
        config = env.config
        cube, point = make_agents(config)
        stats = run_episode(env, cube, point, small_db.total_points)
        assert env.state.total_kept == small_db.total_points
        assert stats.final_diff == pytest.approx(0.0)

    def test_learning_episode_fills_replay(self, env):
        config = env.config
        cube, point = make_agents(config)
        budget = env.db.budget_for_ratio(0.5)
        run_episode(env, cube, point, budget, learn=True)
        assert len(point.memory) > 0
        assert len(cube.memory) > 0

    def test_rewards_telescope_to_diff_decrease(self, env):
        """Sum of window rewards equals initial diff minus final diff (Eq. 11)."""
        config = env.config
        cube, point = make_agents(config)
        budget = env.db.budget_for_ratio(0.6)
        stats = run_episode(env, cube, point, budget)
        assert stats.total_reward == pytest.approx(
            stats.initial_diff - stats.final_diff, abs=1e-9
        )

    def test_ablation_modes_run(self, env):
        config = env.config
        cube, point = make_agents(config)
        budget = env.db.budget_for_ratio(0.3)
        for uc, up in ((False, True), (True, False), (False, False)):
            env.reset()
            env.config = replace(config, use_agent_cube=uc, use_agent_point=up)
            stats = run_episode(env, cube, point, budget)
            assert env.state.total_kept == budget
