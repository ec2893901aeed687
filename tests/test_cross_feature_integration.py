"""Cross-feature integration tests.

Each test chains several subsystems the way a downstream user would —
configurations that no single-module unit test exercises together.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RL4QDTS, RL4QDTSConfig
from repro.data import (
    CodecConfig,
    TrajectoryDatabase,
    decode_database,
    encode_database,
    load_database,
    save_database,
)
from repro.workloads import RangeQueryWorkload
from tests.conftest import make_trajectory

_FAST = dict(
    start_level=2,
    end_level=4,
    delta=10,
    n_training_queries=10,
    n_inference_queries=20,
    episodes=1,
    n_train_databases=1,
    train_db_size=8,
)


@pytest.fixture(scope="module")
def db():
    return TrajectoryDatabase(
        [make_trajectory(n=14 + 2 * i, seed=i, traj_id=i) for i in range(10)]
    )


class TestKDTreeWithREINFORCE:
    def test_both_alternatives_compose(self, db):
        """The future-work index and the alternative learner work together."""
        config = RL4QDTSConfig(index="kdtree", learner="reinforce", **_FAST)
        model = RL4QDTS.train(db, config=config)
        simplified = model.simplify(db, budget_ratio=0.5)
        assert simplified.total_points <= db.budget_for_ratio(0.5)

    def test_save_load_preserves_both_choices(self, db, tmp_path):
        config = RL4QDTSConfig(index="kdtree", learner="reinforce", **_FAST)
        model = RL4QDTS.train(db, config=config)
        path = tmp_path / "model.npz"
        model.save(path)
        loaded = RL4QDTS.load(path)
        assert loaded.config.index == "kdtree"
        assert loaded.config.learner == "reinforce"
        a = model.simplify(db, budget_ratio=0.5, seed=3)
        b = loaded.simplify(db, budget_ratio=0.5, seed=3)
        for ta, tb in zip(a, b):
            assert np.array_equal(ta.points, tb.points)


class TestSimplifyEncodePersistPipeline:
    def test_full_archive_pipeline(self, db, tmp_path):
        """simplify -> codec -> disk -> decode -> GeoJSON, losslessly enough."""
        config = RL4QDTSConfig(**_FAST)
        model = RL4QDTS.train(db, config=config)
        simplified = model.simplify(db, budget_ratio=0.5, seed=1)

        codec = CodecConfig(quantum_xy=1e-4, quantum_t=1e-4)
        blob_path = tmp_path / "archive.bin"
        blob_path.write_bytes(encode_database(simplified, codec))
        decoded = decode_database(blob_path.read_bytes())
        assert decoded.total_points == simplified.total_points

        geo_path = tmp_path / "archive.geojson"
        save_database(decoded, geo_path)
        final = load_database(geo_path)
        for orig, back in zip(simplified, final):
            assert np.abs(orig.points - back.points).max() < 1e-3

    def test_refine_then_reencode_shrinkage(self, db, tmp_path):
        """Refined (larger) archives encode to more bytes, coarser to fewer."""
        config = RL4QDTSConfig(**_FAST)
        model = RL4QDTS.train(db, config=config)
        coarse = model.simplify(db, budget_ratio=0.3, seed=1)
        fine = model.refine(db, coarse, budget_ratio=0.7, seed=2)
        codec = CodecConfig(quantum_xy=0.01, quantum_t=0.01)
        assert len(encode_database(coarse, codec)) < len(
            encode_database(fine, codec)
        )


class TestWorkloadDrivenPipeline:
    def test_persisted_workload_reuse(self, db, tmp_path):
        """A JSON workload drives training annotation and later evaluation."""
        workload = RangeQueryWorkload.from_mixture(
            db, 15, {"data": 0.5, "uniform": 0.5}, seed=2
        )
        path = tmp_path / "wl.json"
        workload.save(path)
        restored = RangeQueryWorkload.load(path)

        config = RL4QDTSConfig(**_FAST)
        model = RL4QDTS.train(
            db, config=config, workload_factory=lambda _db, _seed: restored
        )
        simplified = model.simplify(
            db, budget_ratio=0.5, workload=restored, seed=1
        )
        truths = restored.evaluate(db)
        results = restored.evaluate(simplified)
        from repro.queries import f1_score

        mean_f1 = sum(
            f1_score(t, r) for t, r in zip(truths, results)
        ) / len(restored)
        assert 0.0 <= mean_f1 <= 1.0

    def test_knn_batch_consistency_on_simplified(self, db):
        """The engine's kNN batch equals the per-query reference on a
        simplified DB."""
        from repro.queries import knn_query, knn_query_batch

        config = RL4QDTSConfig(**_FAST)
        model = RL4QDTS.train(db, config=config)
        simplified = model.simplify(db, budget_ratio=0.5, seed=1)
        query = db[0]
        window = (float(query.times[1]), float(query.times[-2]))
        plain = knn_query(simplified, query, 3, window, "edr", eps=30.0)
        batched = knn_query_batch(simplified, [query], 3, [window], "edr", eps=30.0)
        assert batched == [plain]


class TestOracleAgainstCollectiveMethods:
    def test_w_adaptation_never_beats_per_trajectory_optimum_total(self, db):
        """Summed per-trajectory optimal errors lower-bound any W method
        given each trajectory's realized budget."""
        from repro.baselines import optimal_min_error, squish_database
        from repro.errors import trajectory_error

        kept = squish_database(db, db.budget_for_ratio(0.4))
        for traj in db:
            idxs = kept[traj.traj_id]
            realized = trajectory_error(traj, idxs, measure="sed")
            best = optimal_min_error(traj, len(idxs), "sed").error
            assert realized >= best - 1e-9
