"""Tests for the vectorized batch query engine and the columnar DB layer.

The engine's contract is exact equivalence with the per-query reference path
(:func:`repro.queries.range_query.range_query`); the property tests here
assert it over randomized databases, workload distributions, and simplified
states.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines import uniform_simplify_database
from repro.core import (
    IncrementalRangeEvaluator,
    QDTSEnvironment,
    RL4QDTSConfig,
    run_episode,
)
from repro.data import (
    BoundingBox,
    SimplificationState,
    Trajectory,
    TrajectoryDatabase,
)
from repro.data.stats import spatial_scale
from repro.queries import (
    QueryEngine,
    RangeQuery,
    T2VecEmbedder,
    count_query_scan,
    density_histogram_scan,
    edr_distance,
    knn_query,
    knn_query_batch,
    range_query,
    range_query_batch,
)
from repro.workloads import RangeQueryWorkload
from tests.conftest import make_trajectory
from tests.test_core import make_agents


def random_db(seed: int, n_trajectories: int = 8) -> TrajectoryDatabase:
    return TrajectoryDatabase(
        [
            make_trajectory(n=4 + (seed + i) % 10, seed=seed + i, traj_id=i)
            for i in range(n_trajectories)
        ]
    )


def random_state(db: TrajectoryDatabase, seed: int) -> SimplificationState:
    state = SimplificationState(db)
    rng = np.random.default_rng(seed)
    for _ in range(40):
        tid = int(rng.integers(len(db)))
        if len(db[tid]) <= 2:
            continue
        idx = int(rng.integers(1, len(db[tid]) - 1))
        if not state.is_kept(tid, idx):
            state.insert(tid, idx)
    return state


class TestColumnarDatabase:
    def test_point_matrix_matches_trajectories(self, small_db):
        matrix = small_db.point_matrix()
        offsets = small_db.point_offsets()
        assert matrix.shape == (small_db.total_points, 3)
        assert offsets.shape == (len(small_db) + 1,)
        assert offsets[0] == 0 and offsets[-1] == small_db.total_points
        for traj in small_db:
            rows = matrix[offsets[traj.traj_id] : offsets[traj.traj_id + 1]]
            np.testing.assert_array_equal(rows, traj.points)

    def test_matrix_is_cached_and_read_only(self, small_db):
        matrix = small_db.point_matrix()
        assert small_db.point_matrix() is matrix
        assert small_db.all_points() is matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 1.0

    def test_ownership_matches_offsets(self, small_db):
        owners = small_db.point_ownership()
        offsets = small_db.point_offsets()
        for tid in range(len(small_db)):
            assert (owners[offsets[tid] : offsets[tid + 1]] == tid).all()


class TestQueryEngineEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 100),
        n=st.integers(2, 10),
        n_queries=st.integers(1, 12),
        distribution=st.sampled_from(["data", "uniform", "gaussian", "zipf"]),
    )
    def test_matches_per_query_reference(self, seed, n, n_queries, distribution):
        db = random_db(seed, n)
        workload = RangeQueryWorkload.generate(
            distribution, db, n_queries, seed=seed + 1
        )
        engine = QueryEngine(db)
        assert engine.evaluate(workload) == range_query_batch(
            db, list(workload.queries)
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100))
    def test_state_evaluation_matches_materialized(self, seed):
        db = random_db(seed)
        state = random_state(db, seed + 7)
        workload = RangeQueryWorkload.from_data_distribution(db, 10, seed=seed)
        engine = QueryEngine(db)
        assert engine.evaluate_state(workload, state) == range_query_batch(
            state.materialize(), list(workload.queries)
        )

    def test_disjoint_workload_is_empty(self, small_db):
        box = small_db.bounding_box
        far = RangeQueryWorkload.from_centres(
            np.array([[box.xmax + 1000.0, box.ymax + 1000.0, box.tmax + 1000.0]]),
            spatial_extent=5.0,
            temporal_extent=5.0,
        )
        assert QueryEngine(small_db).evaluate(far) == [set()]

    def test_workload_evaluate_routes_through_engine(self, small_db, small_workload):
        assert small_workload.evaluate(small_db) == range_query_batch(
            small_db, list(small_workload.queries)
        )

    def test_rejects_oversized_resolution(self, small_db):
        # Cell coordinates are int16 internally; axes >= 2**15 must raise
        # instead of wrapping and silently dropping results.
        with pytest.raises(ValueError):
            QueryEngine(small_db, resolution=(2**15, 4, 4))
        with pytest.raises(ValueError):
            QueryEngine(small_db, resolution=(0, 4, 4))

    def test_rejects_foreign_state(self, small_db):
        other = random_db(3)
        with pytest.raises(ValueError):
            QueryEngine(small_db).evaluate_state(
                RangeQueryWorkload.from_data_distribution(small_db, 3, seed=0),
                SimplificationState(other),
            )


class TestQueryEngineMemoization:
    def test_repeat_evaluation_hits_cache(self, small_db, small_workload):
        engine = QueryEngine(small_db)
        first = engine.evaluate(small_workload)
        assert engine.cache_hits == 0
        second = engine.evaluate(small_workload)
        assert engine.cache_hits == 1
        assert first == second

    def test_cached_results_are_isolated(self, small_db, small_workload):
        engine = QueryEngine(small_db)
        first = engine.evaluate(small_workload)
        first[0].add(10**9)  # corrupting a returned set must not poison the memo
        assert 10**9 not in engine.evaluate(small_workload)[0]

    def test_lru_eviction(self, small_db):
        engine = QueryEngine(small_db, max_cached_results=2)
        for seed in range(4):
            engine.evaluate(
                RangeQueryWorkload.from_data_distribution(small_db, 3, seed=seed)
            )
        assert len(engine._cache) == 2

    def test_for_database_is_shared_and_weak(self, small_db):
        assert QueryEngine.for_database(small_db) is QueryEngine.for_database(
            small_db
        )
        db = random_db(5)
        engine = QueryEngine.for_database(db)
        assert engine is QueryEngine.for_database(db)

    def test_engine_cache_releases_dead_databases(self, small_workload):
        """Engines must not pin their databases in the process-wide cache."""
        import gc
        import weakref

        from repro.queries.engine import _ENGINES

        before = len(_ENGINES)
        db = random_db(11)
        QueryEngine.for_database(db).evaluate(small_workload)
        watcher = weakref.ref(db)
        del db
        gc.collect()
        assert watcher() is None
        assert len(_ENGINES) <= before

    def test_state_reset_is_cached_across_episodes(self, small_db, small_workload):
        engine = QueryEngine(small_db)
        state = SimplificationState(small_db)
        engine.evaluate_state(small_workload, state)
        misses = engine.cache_misses
        engine.evaluate_state(small_workload, SimplificationState(small_db))
        assert engine.cache_misses == misses
        assert engine.cache_hits >= 1


def _central_window(trajectory) -> tuple[float, float]:
    """The harness's middle-half kNN window (single source of truth)."""
    from repro.eval.harness import QueryAccuracyEvaluator

    return QueryAccuracyEvaluator._central_window(trajectory)


class TestEngineAggregates:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 100), n_boxes=st.integers(1, 10))
    def test_count_matches_scan(self, seed, n_boxes):
        db = random_db(seed)
        workload = RangeQueryWorkload.from_data_distribution(
            db, n_boxes, seed=seed + 3
        )
        engine = QueryEngine(db)
        assert engine.count(workload.boxes).tolist() == [
            count_query_scan(db, b) for b in workload.boxes
        ]

    def test_count_disjoint_box_is_zero(self, small_db):
        # PR 1 regression scenario: boxes beyond the extent must not snap
        # onto border cells.
        box = small_db.bounding_box
        from repro.data import BoundingBox

        far = BoundingBox(
            box.xmax + 10, box.xmax + 20, box.ymax + 10, box.ymax + 20,
            box.tmax + 10, box.tmax + 20,
        )
        engine = QueryEngine(small_db)
        assert engine.count([far]).tolist() == [0]
        assert engine.count([far, box]).tolist() == [
            0, small_db.total_points,
        ]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), grid=st.integers(1, 9))
    def test_histogram_matches_scan(self, seed, grid):
        db = random_db(seed)
        engine = QueryEngine(db)
        np.testing.assert_array_equal(
            engine.histogram(grid), density_histogram_scan(db, grid)
        )

    def test_histogram_normalized_and_boxed(self, small_db):
        box = small_db.bounding_box
        from repro.data import BoundingBox

        shrunk = BoundingBox(
            box.xmin, box.center[0], box.ymin, box.center[1], box.tmin, box.tmax
        )
        engine = QueryEngine(small_db)
        np.testing.assert_array_equal(
            engine.histogram(8, shrunk, normalize=True),
            density_histogram_scan(small_db, 8, shrunk, normalize=True),
        )

    def test_aggregates_are_memoized(self, small_db):
        engine = QueryEngine(small_db)
        boxes = [small_db.bounding_box]
        first = engine.count(boxes)
        hits = engine.cache_hits
        second = engine.count(boxes)
        assert engine.cache_hits == hits + 1
        assert first.tolist() == second.tolist()
        engine.histogram(8)
        hits = engine.cache_hits
        engine.histogram(8)
        assert engine.cache_hits == hits + 1

    def test_cached_histogram_is_isolated(self, small_db):
        engine = QueryEngine(small_db)
        hist = engine.histogram(4)
        hist[0, 0] = -1.0  # corrupting a returned array must not poison the memo
        assert engine.histogram(4)[0, 0] != -1.0


class TestKnnCandidates:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 120), n_windows=st.integers(1, 6))
    def test_matches_window_restriction_filter(self, seed, n_windows):
        db = random_db(seed)
        rng = np.random.default_rng(seed + 1)
        span = db.bounding_box
        windows = []
        for _ in range(n_windows):
            a, b = sorted(rng.uniform(span.tmin - 5, span.tmax + 5, size=2))
            windows.append((float(a), float(b)))
        engine = QueryEngine(db)
        for (ts, te), cand in zip(windows, engine.knn_candidates(windows)):
            expected = [
                t.traj_id for t in db if len(t.slice_time(ts, te)) >= 2
            ]
            assert cand.tolist() == expected

    def test_min_points_threshold(self, small_db):
        span = small_db.bounding_box
        engine = QueryEngine(small_db)
        window = (span.tmin, span.tmax)
        loose = engine.knn_candidates([window], min_points=1)[0]
        strict = engine.knn_candidates([window], min_points=10**6)[0]
        assert loose.tolist() == list(range(len(small_db)))
        assert strict.tolist() == []

    def test_disjoint_window_has_no_candidates(self, small_db):
        span = small_db.bounding_box
        engine = QueryEngine(small_db)
        cand = engine.knn_candidates([(span.tmax + 100, span.tmax + 200)])
        assert cand[0].tolist() == []


class TestBatchKnn:
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 100),
        k=st.integers(1, 5),
        eps=st.floats(1.0, 60.0),
    )
    def test_edr_matches_per_query_reference(self, seed, k, eps):
        db = random_db(seed, n_trajectories=10)
        rng = np.random.default_rng(seed)
        qids = [int(i) for i in rng.choice(len(db), size=4, replace=False)]
        windows = [_central_window(db[qid]) for qid in qids]
        batched = knn_query_batch(
            db, [db[qid] for qid in qids], k, windows, "edr", eps=eps
        )
        reference = [
            knn_query(db, db[qid], k, window, "edr", eps=eps)
            for qid, window in zip(qids, windows)
        ]
        assert batched == reference

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 60))
    def test_callable_measure_matches_reference(self, seed):
        db = random_db(seed)

        def theta(a, b):
            return float(abs(len(a) - len(b)))

        qids = [0, 3]
        windows = [_central_window(db[qid]) for qid in qids]
        assert knn_query_batch(
            db, [db[qid] for qid in qids], 3, windows, theta
        ) == [
            knn_query(db, db[qid], 3, window, theta)
            for qid, window in zip(qids, windows)
        ]

    def test_t2vec_matches_reference(self, small_db):
        emb = T2VecEmbedder(resolution=8, dim=8, epochs=1, seed=0).fit(small_db)
        qids = [1, 5]
        windows = [_central_window(small_db[qid]) for qid in qids]
        assert knn_query_batch(
            small_db, [small_db[qid] for qid in qids], 2, windows, "t2vec",
            embedder=emb,
        ) == [
            knn_query(
                small_db, small_db[qid], 2, window, "t2vec", embedder=emb
            )
            for qid, window in zip(qids, windows)
        ]

    def test_default_windows_match_reference(self, small_db):
        qids = [0, 2]
        assert knn_query_batch(
            small_db, [small_db[qid] for qid in qids], 3, None, "edr", eps=5.0
        ) == [
            knn_query(small_db, small_db[qid], 3, None, "edr", eps=5.0)
            for qid in qids
        ]

    def test_full_length_queries_over_simplified_db_match_reference(
        self, geolife_db
    ):
        """The offline shape: full-length queries against a 5% uniform
        simplification, so every pair is long x short and most cannot
        match at all. Clocks are re-based to 0 so every trajectory is a
        candidate of every query (~170 pairs)."""
        db = TrajectoryDatabase(
            [
                Trajectory(np.column_stack([t.xy, t.times - t.times[0]]))
                for t in geolife_db
            ]
        )
        simplified = uniform_simplify_database(db, 0.05)
        eps = 0.10 * spatial_scale(db)
        queries = [db[i] for i in range(0, len(db), 3)]
        pairs = knn_query_batch(
            simplified, queries, 3, None, "edr", eps=eps, return_pairs=True
        )
        assert knn_query_batch(simplified, queries, 3, None, "edr", eps=eps) == [
            knn_query(simplified, q, 3, None, "edr", eps=eps) for q in queries
        ] == [[tid for _, tid in p] for p in pairs]
        for q, query_pairs in zip(queries, pairs):
            ts, te = q.times[0], q.times[-1]
            for d, tid in query_pairs:
                window = Trajectory(simplified[tid].slice_time(ts, te))
                assert d == edr_distance(q, window, eps)

    def test_rejects_bad_arguments(self, small_db):
        with pytest.raises(ValueError):
            knn_query_batch(small_db, [small_db[0]], 0, None, "edr")
        with pytest.raises(ValueError):
            knn_query_batch(small_db, [small_db[0]], 1, [(0.0, 1.0)] * 2)
        with pytest.raises(ValueError):
            knn_query_batch(small_db, [small_db[0]], 1, None, "dtw")


class TestPointMemberships:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), n_boxes=st.integers(1, 8))
    def test_matches_brute_force(self, seed, n_boxes):
        db = random_db(seed)
        workload = RangeQueryWorkload.from_data_distribution(
            db, n_boxes, seed=seed + 5
        )
        rows, box_idx = QueryEngine(db).point_memberships(workload.boxes)
        points = db.point_matrix()
        expected = sorted(
            (row, qi)
            for qi, box in enumerate(workload.boxes)
            for row in np.flatnonzero(box.contains_points(points))
        )
        assert list(zip(rows.tolist(), box_idx.tolist())) == expected

    def test_empty_workload(self, small_db):
        rows, box_idx = QueryEngine(small_db).point_memberships([])
        assert len(rows) == 0 and len(box_idx) == 0


class TestIncrementalView:
    def test_view_matches_from_scratch_evaluation(self, small_db, small_workload):
        engine = QueryEngine(small_db)
        view = engine.incremental_view(small_workload)
        state = SimplificationState(small_db)
        view.reset(state)
        rng = np.random.default_rng(5)
        for _ in range(25):
            tid = int(rng.integers(len(small_db)))
            idx = int(rng.integers(1, len(small_db[tid]) - 1))
            if state.is_kept(tid, idx):
                continue
            state.insert(tid, idx)
            view.notify_insert(tid, small_db[tid].points[idx])
        assert view.result_sets == engine.evaluate_state(small_workload, state)

    def test_view_results_are_copies(self, small_db, small_workload):
        view = QueryEngine(small_db).incremental_view(small_workload)
        copies = view.results
        copies[0].add(10**9)
        assert 10**9 not in view.result_sets[0]

    def test_evaluator_shares_engine_store(self, small_db, small_workload):
        """Two evaluators over one database reuse the shared engine's memo."""
        first = IncrementalRangeEvaluator(small_db, small_workload)
        engine = QueryEngine.for_database(small_db)
        hits = engine.cache_hits
        second = IncrementalRangeEvaluator(small_db, small_workload)
        assert second._engine is engine and first._engine is engine
        assert engine.cache_hits > hits  # truth evaluation was a cache hit


class TestIncrementalEvaluatorAudit:
    def test_incremental_counters_match_engine(self, small_db, small_workload):
        evaluator = IncrementalRangeEvaluator(small_db, small_workload)
        state = SimplificationState(small_db)
        evaluator.reset(state)
        rng = np.random.default_rng(1)
        for _ in range(30):
            tid = int(rng.integers(len(small_db)))
            idx = int(rng.integers(1, len(small_db[tid]) - 1))
            if state.is_kept(tid, idx):
                continue
            state.insert(tid, idx)
            evaluator.notify_insert(tid, small_db[tid].points[idx])
        assert evaluator.diff() == pytest.approx(evaluator.exact_diff(state))

    def test_rollout_exact_final_diff_matches_incremental(
        self, small_db, small_workload
    ):
        config = RL4QDTSConfig(start_level=2, end_level=4, delta=5, leaf_capacity=4)
        cube, point = make_agents(config)
        budget = 2 * len(small_db) + 12
        env = QDTSEnvironment(
            small_db, small_workload, config, np.random.default_rng(0)
        )
        stats = run_episode(env, cube, point, budget, greedy=True)
        assert env.exact_diff() == pytest.approx(stats.final_diff)
        audited = run_episode(
            env, cube, point, budget, greedy=True, exact_final_diff=True
        )
        assert audited.final_diff == pytest.approx(env.diff())


class TestBatchedSimilarity:
    """QueryEngine.similarity vs the per-query similarity_query reference."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 150), n_queries=st.integers(1, 4))
    def test_matches_reference_on_random_databases(self, seed, n_queries):
        from repro.data.stats import spatial_scale
        from repro.queries.similarity import similarity_query

        db = random_db(seed, n_trajectories=7)
        rng = np.random.default_rng(seed)
        delta = float(rng.uniform(0.05, 0.4)) * spatial_scale(db)
        qids = rng.choice(len(db), size=n_queries, replace=False)
        queries = [db[int(q)] for q in qids]
        windows = []
        for qi, q in enumerate(queries):
            t0, t1 = float(q.times[0]), float(q.times[-1])
            choice = (seed + qi) % 3
            if choice == 0:
                windows.append(None)  # query's own span
            elif choice == 1:
                quarter = 0.25 * (t1 - t0)
                windows.append((t0 + quarter, t1 - quarter))
            else:
                windows.append((t0 - 10.0, t1 + 10.0))  # beyond the lifespan
        reference = [
            similarity_query(db, q, delta, w) for q, w in zip(queries, windows)
        ]
        engine = QueryEngine(db)
        assert engine.similarity(queries, delta, windows) == reference
        # memoized second pass returns equal, independent sets
        again = engine.similarity(queries, delta, windows)
        assert again == reference
        again[0].add(10**9)
        assert engine.similarity(queries, delta, windows) == reference

    def test_similarity_query_batch_routes_through_shared_engine(self, small_db):
        from repro.queries import similarity_query_batch
        from repro.queries.similarity import similarity_query

        queries = [small_db[0], small_db[3]]
        results = similarity_query_batch(small_db, queries, 5.0)
        assert results == [similarity_query(small_db, q, 5.0) for q in queries]

    def test_external_query_trajectory(self, small_db):
        from repro.queries.similarity import similarity_query

        external = make_trajectory(n=12, seed=777)
        engine = QueryEngine(small_db)
        assert engine.similarity([external], 10.0) == [
            similarity_query(small_db, external, 10.0)
        ]

    def test_negative_delta_raises(self, small_db):
        with pytest.raises(ValueError, match="non-negative"):
            QueryEngine(small_db).similarity([small_db[0]], -1.0)

    def test_empty_queries(self, small_db):
        assert QueryEngine(small_db).similarity([], 1.0) == []


class TestKnnReturnPairs:
    def test_pairs_are_sorted_finite_and_consistent_with_ids(self, small_db):
        queries = [small_db[1], small_db[4]]
        ids = knn_query_batch(small_db, queries, 3)
        pairs = knn_query_batch(small_db, queries, 3, return_pairs=True)
        for id_list, pair_list in zip(ids, pairs):
            assert [tid for _, tid in pair_list] == id_list
            distances = [d for d, _ in pair_list]
            assert distances == sorted(distances)
            assert all(np.isfinite(d) for d in distances)


class TestResolutionInvariance:
    """The CSR grid's resolution changes pruning cost only; answers never change."""

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 150))
    def test_engine_answers_unchanged_across_resolutions(self, seed):
        db = random_db(seed, n_trajectories=6)
        workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=seed)
        reference = [range_query(db, q) for q in workload]
        counts = np.array([count_query_scan(db, q.box) for q in workload])
        for resolution in ((1, 1, 1), (3, 7, 2), (32, 32, 16), (200, 200, 100)):
            engine = QueryEngine(db, resolution=resolution)
            assert engine.evaluate(workload) == reference, resolution
            assert np.array_equal(engine.count(workload.boxes), counts), resolution

    def test_zero_extent_probe_answers_at_every_resolution(self, small_db):
        p = small_db[0].points[1]
        probe = BoundingBox(p[0], p[0], p[1], p[1], p[2], p[2])
        expected = [range_query(small_db, RangeQuery(probe))]
        assert 0 in expected[0]
        for resolution in ((1, 1, 1), (32, 32, 16), (1024, 1024, 512)):
            engine = QueryEngine(small_db, resolution=resolution)
            assert engine.evaluate([probe]) == expected, resolution


class TestExecutorHooks:
    """``execute`` answers a service query kind with its batched method."""

    def test_execute_dispatches_to_bound_methods(self, small_db, small_workload):
        engine = QueryEngine(small_db)
        assert engine.execute(
            "range", boxes=small_workload.boxes
        ) == engine.evaluate(small_workload)
        assert np.array_equal(
            engine.execute("count", boxes=small_workload.boxes),
            engine.count(small_workload.boxes),
        )
        assert np.array_equal(
            engine.execute("histogram", grid=8, box=None, normalize=True),
            engine.histogram(8, None, True),
        )
        query = small_db[0]
        assert engine.execute(
            "similarity", queries=[query], delta=50.0, n_checkpoints=8
        ) == engine.similarity([query], 50.0, None, 8)

    def test_unknown_kind_raises_with_known_kinds(self, small_db):
        with pytest.raises(KeyError, match="unknown query kind 'teleport'"):
            QueryEngine(small_db).execute("teleport")
