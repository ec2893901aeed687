"""Tests for the RL4QDTS algorithm: training, inference, ablation, persistence."""

import numpy as np
import pytest

from repro.core import RL4QDTS, RL4QDTSConfig
from repro.errors import database_errors
from repro.rl import DQNConfig
from repro.workloads import RangeQueryWorkload


@pytest.fixture(scope="module")
def tiny_config():
    return RL4QDTSConfig(
        start_level=3,
        end_level=6,
        delta=8,
        n_training_queries=20,
        n_inference_queries=40,
        episodes=2,
        n_train_databases=1,
        train_db_size=10,
        train_budget_ratio=0.1,
        seed=3,
    )


@pytest.fixture(scope="module")
def trained_model(geolife_db, tiny_config):
    return RL4QDTS.train(geolife_db, config=tiny_config)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            RL4QDTSConfig(start_level=0)
        with pytest.raises(ValueError):
            RL4QDTSConfig(start_level=5, end_level=4)
        with pytest.raises(ValueError):
            RL4QDTSConfig(k_candidates=0)
        with pytest.raises(ValueError):
            RL4QDTSConfig(delta=0)
        with pytest.raises(ValueError):
            RL4QDTSConfig(train_budget_ratio=0.0)

    def test_defaults_match_paper_style(self):
        config = RL4QDTSConfig()
        assert config.k_candidates == 2
        assert config.dqn.hidden == 25
        assert config.dqn.gamma == 0.99
        assert config.dqn.replay_capacity == 2000


class TestTraining:
    def test_history_recorded(self, trained_model, tiny_config):
        expected = tiny_config.episodes * tiny_config.n_train_databases
        assert len(trained_model.history.episode_diffs) == expected
        assert len(trained_model.history.episode_rewards) == expected
        assert trained_model.history.best_diff <= min(
            trained_model.history.episode_diffs
        ) + 1e-12

    def test_training_is_deterministic(self, geolife_db, tiny_config):
        a = RL4QDTS.train(geolife_db, config=tiny_config)
        b = RL4QDTS.train(geolife_db, config=tiny_config)
        assert a.history.episode_diffs == b.history.episode_diffs

    def test_explicit_workload_reused(self, geolife_db, tiny_config):
        workload = RangeQueryWorkload.from_data_distribution(geolife_db, 10, seed=1)
        model = RL4QDTS.train(geolife_db, workload=workload, config=tiny_config)
        assert len(model.history.episode_diffs) > 0


class TestSimplify:
    def test_budget_argument_validation(self, trained_model, geolife_db):
        with pytest.raises(ValueError):
            trained_model.simplify(geolife_db)
        with pytest.raises(ValueError):
            trained_model.simplify(geolife_db, budget_ratio=0.1, budget=50)
        with pytest.raises(ValueError):
            trained_model.simplify(geolife_db, budget=3)  # < 2 per trajectory

    def test_exact_budget(self, trained_model, geolife_db):
        budget = geolife_db.budget_for_ratio(0.08)
        simplified = trained_model.simplify(geolife_db, budget=budget, seed=5)
        assert simplified.total_points == budget
        assert len(simplified) == len(geolife_db)

    def test_output_is_subsequence_with_endpoints(self, trained_model, geolife_db):
        simplified = trained_model.simplify(geolife_db, budget_ratio=0.08, seed=5)
        # database_errors recovers indices and raises if not a subsequence.
        errors = database_errors(geolife_db, simplified, "sed")
        assert (errors >= 0.0).all()
        for orig, simp in zip(geolife_db, simplified):
            assert np.array_equal(simp.points[0], orig.points[0])
            assert np.array_equal(simp.points[-1], orig.points[-1])

    def test_deterministic_given_seed(self, trained_model, geolife_db):
        a = trained_model.simplify(geolife_db, budget_ratio=0.08, seed=5)
        b = trained_model.simplify(geolife_db, budget_ratio=0.08, seed=5)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.points, tb.points)

    def test_stats_reported(self, trained_model, geolife_db):
        _, stats = trained_model.simplify(
            geolife_db, budget_ratio=0.08, seed=5, return_stats=True
        )
        assert stats.inserted > 0
        assert 0.0 <= stats.final_diff <= 1.0

    def test_untrained_model_still_works(self, geolife_db, tiny_config):
        model = RL4QDTS(tiny_config)
        simplified = model.simplify(geolife_db, budget_ratio=0.06, seed=2)
        assert simplified.total_points == geolife_db.budget_for_ratio(0.06)


class TestAblation:
    def test_all_ablation_combinations_run(self, geolife_db, tiny_config):
        budget = geolife_db.budget_for_ratio(0.06)
        for uc, up in ((False, True), (True, False), (False, False)):
            model = RL4QDTS(tiny_config, use_agent_cube=uc, use_agent_point=up)
            simplified = model.simplify(geolife_db, budget=budget, seed=1)
            assert simplified.total_points == budget


class TestPersistence:
    def test_save_load_roundtrip(self, trained_model, geolife_db, tmp_path):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        loaded = RL4QDTS.load(path)
        assert loaded.config == trained_model.config
        assert loaded.use_agent_cube == trained_model.use_agent_cube
        a = trained_model.simplify(geolife_db, budget_ratio=0.08, seed=5)
        b = loaded.simplify(geolife_db, budget_ratio=0.08, seed=5)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.points, tb.points)

    def test_save_load_preserves_ablation_flags(self, tiny_config, tmp_path):
        model = RL4QDTS(tiny_config, use_agent_cube=False)
        path = tmp_path / "model.npz"
        model.save(path)
        assert RL4QDTS.load(path).use_agent_cube is False

    def test_saved_model_drives_identical_service_masks(
        self, trained_model, geolife_db, tmp_path
    ):
        """A path-loaded policy keeps the exact points the live model keeps.

        This is the contract the serving layer relies on: a trained policy
        saved to disk and handed to ``--compaction rl --compaction-model``
        (an :class:`RLSimplifier` built from the path) must propose the
        same kept indices as the in-memory model, on a fixed seed.
        """
        from repro.baselines.registry import RLSimplifier

        path = tmp_path / "model.npz"
        trained_model.save(path)
        live = RLSimplifier(model=trained_model, seed=5)
        from_disk = RLSimplifier(model=str(path), seed=5)
        assert live.keep_indices(geolife_db, 0.08) == from_disk.keep_indices(
            geolife_db, 0.08
        )

    def test_save_load_preserves_dqn_config(self, tmp_path):
        config = RL4QDTSConfig(dqn=DQNConfig(hidden=13, lr=0.123))
        model = RL4QDTS(config)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = RL4QDTS.load(path)
        assert loaded.config.dqn.hidden == 13
        assert loaded.config.dqn.lr == 0.123

    def test_save_load_keeps_training_distribution(
        self, geolife_db, tiny_config, tmp_path
    ):
        model = RL4QDTS.train(geolife_db, config=tiny_config, distribution="gaussian")
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = RL4QDTS.load(path)
        a = model.simplify(geolife_db, budget_ratio=0.1)
        b = loaded.simplify(geolife_db, budget_ratio=0.1)
        assert np.array_equal(a.point_matrix(), b.point_matrix())

    def test_loaded_custom_workload_model_needs_a_workload(
        self, geolife_db, tiny_config, tmp_path
    ):
        def factory(db, seed):
            return RangeQueryWorkload.from_data_distribution(db, 15, seed=seed)

        model = RL4QDTS.train(geolife_db, config=tiny_config, workload_factory=factory)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = RL4QDTS.load(path)
        with pytest.raises(ValueError, match="workload="):
            loaded.simplify(geolife_db, budget_ratio=0.1)
        workload = factory(geolife_db, 0)
        a = model.simplify(geolife_db, budget_ratio=0.1, workload=workload)
        b = loaded.simplify(geolife_db, budget_ratio=0.1, workload=workload)
        assert np.array_equal(a.point_matrix(), b.point_matrix())

    def test_file_without_distribution_loads_as_data(self, tiny_config, tmp_path):
        import json

        path = tmp_path / "model.npz"
        RL4QDTS(tiny_config).save(path)
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        meta = json.loads(bytes(payload["meta_json"]).decode())
        meta.pop("distribution")
        payload["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez_compressed(path, **payload)
        assert RL4QDTS.load(path)._distribution == "data"
