"""Tests for the pluggable compaction layer of the shard runtimes.

Three contracts:

* **Exactness** — the default :class:`ExactCompaction` is invisible:
  every query kind under every {heap, shm} x {serial, process} cell is
  bit-identical to a fresh single-engine evaluation, with ingest batches
  (and the compactions they trigger) interleaved between queries. The
  oracle in ``tests/test_oracle.py`` drives the same matrix through
  arbitrary interleavings; this is its fixed scenario.
* **Budget** — :class:`SimplifyingCompaction` respects the per-trajectory
  error budget for every simplifier, monotonically in the budget, and
  degenerates to exact at budget zero.
* **Serving accuracy** — a service compacting under a budget still passes
  the paper's query-accuracy harness end to end, and its stats account
  for what the policy dropped.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.client import LocalClient, ServiceClient
from repro.data import TrajectoryDatabase
from repro.data.codec import storage_report
from repro.data.stats import spatial_scale
from repro.data.store import shared_memory_available
from repro.errors import trajectory_error
from repro.eval.harness import QueryAccuracyEvaluator, QuerySuiteConfig
from repro.service import QueryService
from repro.service.compaction import (
    COMPACTION_POLICIES,
    CompactionPolicy,
    ExactCompaction,
    SimplifyingCompaction,
    make_compaction,
    refine_to_budget,
)
from repro.workloads import RangeQueryWorkload
from tests.conftest import initial_db, knn_suite, make_trajectory
from tests.test_oracle import assert_answers_match, oracle_requests

SIMPLIFIER_NAMES = [name for name in COMPACTION_POLICIES if name != "exact"]


# ---------------------------------------------------------------------------
# Exact policy: bit-identity across the full service matrix
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("store", ["heap", "shm"])
@pytest.mark.parametrize("executor", ["serial", "process"])
def test_exact_compaction_bit_identical_under_interleaved_ingest(store, executor):
    """compaction="exact" == fresh engine for all five kinds, every cell."""
    if store == "shm" and not shared_memory_available():
        pytest.skip("no shared memory on this platform")
    seed = 23
    db = initial_db(seed, n=9)
    requests = oracle_requests(db, seed).values()
    current = db
    next_seed = 7000
    with QueryService(
        db,
        n_shards=3,
        executor=executor,
        store=store,
        compaction="exact",
        # tiny compaction bound so the policy actually runs mid-test
        min_compact_points=12,
        compact_threshold=0.1,
    ) as service:
        assert service.describe()["compaction"] == {"policy": "exact"}
        client = ServiceClient(service)
        assert_answers_match(client, LocalClient(current), requests)
        for batch_size in (2, 3):
            batch = [
                make_trajectory(n=6, seed=next_seed + i) for i in range(batch_size)
            ]
            next_seed += batch_size
            service.ingest(batch)
            current = current.extended(batch)
            assert_answers_match(client, LocalClient(current), requests)
        # the exact policy reports passes but never drops a point
        assert service.stats.summary()["compactions"] > 0
        assert service.stats.summary()["points_dropped"] == 0


def test_default_policy_is_exact():
    db = initial_db(1)
    with QueryService(db, n_shards=2) as service:
        assert service.compaction.name == "exact"
        assert service.compaction.is_exact
        assert service.describe()["compaction"] == {"policy": "exact"}
        for info in service._executor.broadcast("info", {}):
            assert info["compaction"] == "exact"


def test_exact_compact_returns_same_database_object():
    db = initial_db(4)
    result = ExactCompaction().compact(db)
    assert result.database is db
    assert result.points_dropped == 0
    assert result.max_error == 0.0
    assert all(mask.all() for mask in result.keep_masks)
    # raw accounting by default; the codec pass only when asked for
    assert result.bytes_before == 24 * db.total_points
    measured = ExactCompaction(measure_bytes=True).compact(db)
    assert measured.bytes_after == storage_report(db).encoded_bytes


# ---------------------------------------------------------------------------
# Satellite: empty-pending compact() is a no-op
# ---------------------------------------------------------------------------

def test_empty_pending_compact_is_noop():
    """No pending tier -> no policy pass, no epoch bump, no base rebuild."""
    db = initial_db(9)
    with QueryService(
        db, n_shards=2, min_compact_points=4, compact_threshold=0.0
    ) as service:
        runtimes = service._executor.runtimes
        # never compacted yet: still a no-op, the snapshot base stays
        for r in runtimes:
            base_db = r._base_db
            r.compact()
            assert r.compactions == 0
            assert r._base_db is base_db
            assert r.last_compaction is None
            assert r.take_compactions() == []
        # after a real fold: the compacted base must not be rebuilt
        service.ingest([make_trajectory(n=6, seed=321)])
        assert any(r.compactions == 1 for r in runtimes)
        for r in runtimes:
            epochs = r.compactions
            base_db = r._base_db
            base_points = r._base_points
            r.compact()
            assert r.compactions == epochs
            assert r._base_db is base_db  # same database object
            assert r._base_points == base_points
            assert r.take_compactions() == []


# ---------------------------------------------------------------------------
# Budget refinement (unit level)
# ---------------------------------------------------------------------------

class TestRefineToBudget:
    def test_zero_budget_keeps_everything(self):
        t = make_trajectory(n=20, seed=3)
        assert refine_to_budget(t.points, [0, 19], 0.0) == list(range(20))

    def test_unknown_measure_rejected(self):
        t = make_trajectory(n=6, seed=1)
        with pytest.raises(ValueError, match="unknown measure"):
            refine_to_budget(t.points, [0, 5], 1.0, measure="nope")

    @pytest.mark.parametrize("measure", ["sed", "ped", "dad", "sad"])
    def test_every_segment_within_budget(self, measure):
        t = make_trajectory(n=40, seed=7)
        budget = 0.02 * spatial_scale(initial_db(7))
        kept = refine_to_budget(t.points, [0, 39], budget, measure=measure)
        assert kept[0] == 0 and kept[-1] == 39
        assert trajectory_error(t, kept, measure) <= budget + 1e-9

    def test_monotone_in_budget(self):
        t = make_trajectory(n=40, seed=11)
        loose = set(refine_to_budget(t.points, [0, 39], 5.0))
        tight = set(refine_to_budget(t.points, [0, 39], 0.5))
        assert tight >= loose


# ---------------------------------------------------------------------------
# Simplifying policy: budget bound holds for every simplifier
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cold_db(geolife_db):
    return geolife_db


@pytest.mark.parametrize("simplifier", SIMPLIFIER_NAMES)
def test_budget_bound_holds(simplifier, cold_db):
    """Independently recomputed per-trajectory errors stay within budget."""
    budget = 0.05 * spatial_scale(cold_db)
    policy = make_compaction(simplifier, error_budget=budget, ratio=0.25)
    assert isinstance(policy, SimplifyingCompaction)
    assert policy.name == simplifier
    result = policy.compact(cold_db)
    assert result.points_after == result.database.total_points
    assert result.points_after < result.points_before
    worst = 0.0
    for t, mask in zip(cold_db.trajectories, result.keep_masks):
        assert mask[0] and mask[-1]  # endpoints always survive
        kept = [int(i) for i in np.flatnonzero(mask)]
        assert len(kept) == sum(mask)
        if len(kept) < len(t):
            err = trajectory_error(t, kept, "sed")
            assert err <= budget + 1e-9
            worst = max(worst, err)
    assert result.max_error == pytest.approx(worst)
    assert result.bytes_after < result.bytes_before


@pytest.mark.parametrize("simplifier", SIMPLIFIER_NAMES)
def test_zero_budget_degenerates_to_exact(simplifier, cold_db):
    result = make_compaction(simplifier, error_budget=0.0).compact(cold_db)
    assert result.points_dropped == 0
    assert result.max_error == 0.0
    assert np.array_equal(
        result.database.point_matrix(), cold_db.point_matrix()
    )


def test_none_budget_accepts_ratio_proposal(cold_db):
    result = make_compaction("uniform", error_budget=None, ratio=0.25).compact(
        cold_db
    )
    assert result.error_budget is None
    # uniform keeps max(2, ratio * n) per trajectory, nothing re-inserted
    expected = sum(max(2, int(0.25 * len(t))) for t in cold_db.trajectories)
    assert result.points_after == expected
    assert result.max_error > 0.0


def test_budget_monotonicity(cold_db):
    """A smaller budget keeps a superset of a larger budget's points."""
    scale = spatial_scale(cold_db)
    tight = make_compaction("uniform", error_budget=0.01 * scale).compact(cold_db)
    loose = make_compaction("uniform", error_budget=0.10 * scale).compact(cold_db)
    assert tight.points_after >= loose.points_after
    for small, big in zip(tight.keep_masks, loose.keep_masks):
        assert np.all(small | ~big)  # big kept => small kept
    assert tight.max_error <= loose.max_error + 1e-9


# ---------------------------------------------------------------------------
# Policy construction and pickling (process-executor transport)
# ---------------------------------------------------------------------------

class TestMakeCompaction:
    def test_none_and_exact_spellings(self):
        assert isinstance(make_compaction(None), ExactCompaction)
        assert isinstance(make_compaction("exact"), ExactCompaction)

    def test_instance_passthrough(self):
        policy = SimplifyingCompaction("uniform", error_budget=1.0)
        assert make_compaction(policy) is policy

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_compaction("fourier")
        with pytest.raises(ValueError):
            make_compaction(42)

    def test_invalid_ratio_and_measure_rejected(self):
        with pytest.raises(ValueError, match="ratio"):
            SimplifyingCompaction("uniform", ratio=0.0)
        with pytest.raises(ValueError, match="measure"):
            SimplifyingCompaction("uniform", measure="nope")

    def test_spec_round_trips_configuration(self):
        policy = make_compaction(
            "greedy", error_budget=2.5, ratio=0.5, measure="ped"
        )
        assert policy.spec() == {
            "policy": "greedy",
            "error_budget": 2.5,
            "ratio": 0.5,
            "measure": "ped",
        }

    @pytest.mark.parametrize("name", COMPACTION_POLICIES)
    def test_every_policy_pickles(self, name):
        policy = make_compaction(name, error_budget=None if name == "exact" else 1.0)
        clone = pickle.loads(pickle.dumps(policy))
        assert isinstance(clone, CompactionPolicy)
        assert clone.name == policy.name
        assert clone.spec() == policy.spec()

    def test_rl_policy_with_saved_model_pickles_as_path(self, tmp_path):
        from repro.core import RL4QDTS

        path = tmp_path / "policy.npz"
        RL4QDTS().save(path)
        policy = make_compaction("rl", model=str(path), error_budget=1.0)
        clone = pickle.loads(pickle.dumps(policy))
        # the pickled state carries the path, never the agent parameters
        assert clone.simplifier._model is None
        assert clone.simplifier._path == str(path)
        db = initial_db(2, n=4)
        result = clone.compact(db)  # lazily re-loads on the "worker" side
        assert result.points_after <= db.total_points


# ---------------------------------------------------------------------------
# Service integration: stats, describe, and the accuracy gate
# ---------------------------------------------------------------------------

def test_simplifying_service_accounts_for_dropped_points():
    db = initial_db(13, n=10)
    budget = 0.1 * spatial_scale(db)
    with QueryService(
        db,
        n_shards=2,
        compaction="uniform",
        error_budget=budget,
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        # the initial cold tier was compacted once per shard at construction
        summary = service.stats.summary()
        assert summary["compactions"] == 2
        assert summary["points_dropped"] > 0
        assert summary["bytes_base"] < summary["bytes_base_before"]
        spec = service.describe()["compaction"]
        assert spec["policy"] == "uniform"
        assert spec["error_budget"] == pytest.approx(budget)
        assert summary["compaction_mean_latency_ms"] >= 0.0
        # logical membership is untouched: simplification drops points,
        # never trajectories
        assert service.describe()["trajectories"] == len(db)
        before = summary["compactions"]
        # an ingest-triggered fold drains its counters through the executor
        service.ingest([make_trajectory(n=40, seed=77)])
        assert service.stats.summary()["compactions"] > before


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_bytes_base_is_the_current_base_size_after_recompaction(executor):
    """Re-compacting a shard replaces its bytes, it does not add to them —
    also when the pass counters come back through worker pipes."""
    db = initial_db(13, n=10)
    config = dict(
        n_shards=2,
        compaction="uniform",
        error_budget=0.1 * spatial_scale(db),
        min_compact_points=24,
        compact_threshold=0.1,
    )
    # The in-process twin exposes its runtimes' bases; compaction is
    # deterministic, so both services hold the same tiers.
    with (
        QueryService(db, executor=executor, **config) as service,
        QueryService(db, executor="serial", **config) as twin,
    ):
        # one trajectory per ingest: each fold lands on a single shard
        for i in range(4):
            batch = [make_trajectory(n=40, seed=300 + i)]
            service.ingest(batch)
            twin.ingest(batch)
        summary = service.stats.summary()
        assert summary["compactions"] >= 2 + 4  # construction + folds
        current = sum(
            storage_report(TrajectoryDatabase(runtime._base)).encoded_bytes
            for runtime in twin._executor.runtimes
        )
        assert summary["bytes_base"] == current


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_simplifying_service_queries_run_end_to_end(executor):
    """A compacting service keeps serving all kinds (answers approximate)."""
    db = initial_db(5, n=10)
    workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=5)
    queries, windows = knn_suite(db, n_queries=2, seed=5)
    with QueryService(
        db,
        n_shards=2,
        executor=executor,
        compaction=SimplifyingCompaction("uniform", error_budget=None, ratio=0.5),
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        summary = service.stats.summary()
        assert summary["compactions"] >= 2  # initial pass on both shards
        assert summary["points_dropped"] > 0
        service.ingest([make_trajectory(n=30, seed=99)])
        client = ServiceClient(service)
        response = client.range(workload)
        assert len(response.result_sets) == len(workload)
        assert len(client.count(workload.boxes).counts) == len(workload)
        assert client.histogram(8).histogram.shape == (8, 8)
        assert len(client.knn(queries, 2, windows).neighbors) == 2
        assert len(client.similarity(queries, 1.0).result_sets) == 2


def test_accuracy_gate_through_the_client(geolife_db):
    """The harness scores a compacting service; budget 0 is indistinguishable
    from exact and a real budget still yields valid (imperfect) scores."""
    config = QuerySuiteConfig(
        n_range_queries=12,
        n_knn_queries=2,
        k=2,
        n_similarity_queries=3,
        clustering_subset=6,
        seed=11,
    )
    evaluator = QueryAccuracyEvaluator(geolife_db, config)
    tasks = ("range", "knn_edr", "similarity")

    with ServiceClient.for_database(
        geolife_db, n_shards=2, compaction="uniform", error_budget=0.0
    ) as client:
        scores = evaluator.evaluate(geolife_db, tasks=tasks, client=client)
        assert all(scores[t] == 1.0 for t in tasks)

    budget = 0.05 * spatial_scale(geolife_db)
    with ServiceClient.for_database(
        geolife_db, n_shards=2, compaction="uniform", error_budget=budget
    ) as client:
        assert client.service.stats.summary()["points_dropped"] > 0
        scores = evaluator.evaluate(geolife_db, tasks=tasks, client=client)
        assert all(0.0 <= scores[t] <= 1.0 for t in tasks)
        # a 5%-of-scale budget must not wreck range accuracy
        assert scores["range"] > 0.5


def test_package_exports_compaction_surface():
    import repro

    assert repro.ExactCompaction is ExactCompaction
    assert repro.SimplifyingCompaction is SimplifyingCompaction
    assert repro.CompactionPolicy is CompactionPolicy
    assert repro.make_compaction is make_compaction
