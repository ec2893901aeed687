"""Unit tests for range / kNN / similarity queries and the F1 measures."""

import numpy as np
import pytest

from repro.data import Trajectory, TrajectoryDatabase
from repro.queries import (
    RangeQuery,
    edr_distance,
    edr_distances_one_to_many,
    f1_score,
    knn_query,
    knn_query_batch,
    precision_recall_f1,
    range_query,
    similarity_query,
    T2VecEmbedder,
)
from repro.queries import edr as edr_module
from repro.queries.edr import edr_distances_pairs
from repro.queries.metrics import clustering_f1, clustering_pairs, mean_f1
from tests.conftest import make_trajectory


def traj_at(x0, y0, n=5, traj_id=0, t0=0.0, step=1.0):
    """A short trajectory starting at (x0, y0) moving +x."""
    xs = x0 + np.arange(n) * step
    ts = t0 + np.arange(n)
    return Trajectory(np.column_stack([xs, np.full(n, y0), ts]), traj_id=traj_id)


@pytest.fixture
def three_traj_db():
    return TrajectoryDatabase(
        [traj_at(0, 0), traj_at(100, 0, traj_id=1), traj_at(0, 100, traj_id=2)]
    )


class TestRangeQuery:
    def test_matches_point_inside(self, three_traj_db):
        q = RangeQuery.from_bounds(-1, 1, -1, 1, -1, 10)
        assert range_query(three_traj_db, q) == {0}

    def test_point_semantics_segment_crossing_does_not_match(self):
        # A trajectory jumping across the box with no sampled point inside.
        t = Trajectory([[-10, 0, 0], [10, 0, 1]])
        db = TrajectoryDatabase([t])
        q = RangeQuery.from_bounds(-1, 1, -1, 1, 0, 1)
        assert range_query(db, q) == set()

    def test_temporal_dimension_filters(self, three_traj_db):
        q = RangeQuery.from_bounds(-1, 10, -1, 1, 100, 200)
        assert range_query(three_traj_db, q) == set()

    def test_around_constructor(self):
        q = RangeQuery.around(5.0, 5.0, 5.0, 2.0, 4.0)
        b = q.box
        assert (b.xmin, b.xmax) == (4.0, 6.0)
        assert (b.tmin, b.tmax) == (3.0, 7.0)

    def test_simplification_only_loses_matches(self, small_db, small_workload):
        """Precision of range queries on a subsampled database is always 1."""
        simplified = small_db.map_simplify(lambda t: [0, len(t) - 1])
        for q in small_workload:
            full = range_query(small_db, q)
            simp = range_query(simplified, q)
            assert simp <= full


class TestEDR:
    def test_identical_zero(self):
        t = traj_at(0, 0)
        assert edr_distance(t, t, eps=0.1) == 0.0

    def test_completely_different(self):
        a = traj_at(0, 0, n=4)
        b = traj_at(1000, 1000, n=4)
        assert edr_distance(a, b, eps=1.0) == 4.0

    def test_one_substitution(self):
        a = np.array([[0, 0, 0], [1, 0, 1], [2, 0, 2]], dtype=float)
        b = a.copy()
        b[1, :2] = [50, 50]
        assert edr_distance(a, b, eps=0.5) == 1.0

    def test_length_mismatch_costs_insertions(self):
        a = traj_at(0, 0, n=6)
        b = traj_at(0, 0, n=4)  # prefix-matching
        assert edr_distance(a, b, eps=0.1) == 2.0

    def test_symmetry(self):
        a = make_trajectory(n=8, seed=1)
        b = make_trajectory(n=11, seed=2)
        assert edr_distance(a, b, 5.0) == edr_distance(b, a, 5.0)

    def test_triangle_like_bound(self):
        """EDR is bounded by max(len_a, len_b)."""
        a = make_trajectory(n=8, seed=1)
        b = make_trajectory(n=11, seed=2)
        assert edr_distance(a, b, 5.0) <= 11.0


class TestKNN:
    def test_self_is_nearest(self, small_db):
        q = small_db[3]
        result = knn_query(small_db, q, k=1, measure="edr", eps=1.0)
        assert result == [3]

    def test_k_results_returned(self, small_db):
        result = knn_query(small_db, small_db[0], k=4, measure="edr", eps=10.0)
        assert len(result) == 4
        assert len(set(result)) == 4

    def test_invalid_k(self, small_db):
        with pytest.raises(ValueError):
            knn_query(small_db, small_db[0], k=0)

    def test_unknown_measure(self, small_db):
        with pytest.raises(ValueError):
            knn_query(small_db, small_db[0], k=1, measure="dtw")

    def test_t2vec_requires_fitted_embedder(self, small_db):
        with pytest.raises(ValueError):
            knn_query(small_db, small_db[0], k=1, measure="t2vec")

    def test_t2vec_self_nearest(self, small_db):
        emb = T2VecEmbedder(resolution=8, dim=8, epochs=1, seed=0).fit(small_db)
        result = knn_query(small_db, small_db[2], k=1, measure="t2vec", embedder=emb)
        assert result == [2]

    def test_callable_measure(self, three_traj_db):
        # Distance by trajectory id parity: even ids are "close" to T0.
        def theta(a, b):
            return abs(a.traj_id - b.traj_id)

        result = knn_query(three_traj_db, three_traj_db[0], k=2, measure=theta)
        assert result == [0, 1]

    def test_time_window_excludes_disjoint(self, three_traj_db):
        shifted = TrajectoryDatabase(
            [
                traj_at(0, 0),
                traj_at(0, 0, t0=1000.0, traj_id=1),
            ]
        )
        result = knn_query(
            shifted, shifted[0], k=2, time_window=(0.0, 10.0), measure="edr",
            eps=1.0,
        )
        # T1 has no points in the window: it is incomparable and truncated
        # rather than padded in after the real result.
        assert result == [0]

    def test_unreachable_trajectories_are_truncated_not_padded(self):
        """Regression: fewer than k comparable trajectories -> shorter result.

        Previously the k lowest incomparable (infinite-distance) trajectory
        ids filled the tail, and the harness scored those junk ids as real
        F1 hits/misses.
        """
        db = TrajectoryDatabase(
            [traj_at(0, 0)]
            + [traj_at(5, 5, t0=1000.0 * (i + 1), traj_id=i + 1) for i in range(4)]
        )
        result = knn_query(
            db, db[0], k=3, time_window=(0.0, 10.0), measure="edr", eps=1.0
        )
        assert result == [0]  # not [0, 1, 2]

    def test_window_with_no_comparable_trajectory_is_empty(self):
        db = TrajectoryDatabase([traj_at(0, 0), traj_at(1, 1, traj_id=1)])
        assert (
            knn_query(db, db[0], k=2, time_window=(500.0, 510.0), eps=1.0) == []
        )


class TestEdrBatch:
    def test_pairs_match_reference(self, monkeypatch):
        rng = np.random.default_rng(0)
        cases = []
        for trial in range(15):
            n_pairs = int(rng.integers(1, 7))
            a_list = [
                make_trajectory(n=int(rng.integers(2, 16)), seed=trial * 20 + j)
                for j in range(n_pairs)
            ]
            b_list = [
                make_trajectory(
                    n=int(rng.integers(2, 16)), seed=900 + trial * 20 + j
                )
                for j in range(n_pairs)
            ]
            cases.append((a_list, b_list, float(rng.uniform(1.0, 80.0))))
        # Length ratios >= 5 in both orientations within one batch.
        longs = [make_trajectory(n=40, seed=300 + j) for j in range(3)]
        shorts = [make_trajectory(n=n, seed=400 + n) for n in (2, 5, 8)]
        cases.append((longs + shorts, shorts + longs, 30.0))
        # Integer coordinates in [0, 10]^2, translated so the closest
        # approach is exactly eps (the gap still matches) or eps + 1 (no
        # possible match); (0, 0) and (10, 1) face each other across it.
        eps = 3.0
        base = np.array([[0, 0], [4, 9], [10, 1], [7, 5], [2, 10]], float)
        shifted = [
            base + offset
            for d in (eps, eps + 1)
            for offset in ([10 + d, 0], [-10 - d, 0], [0, 10 + d], [0, -10 - d])
        ]
        cases.append(([base] * len(shifted), shifted, eps))
        # Empty sides mixed with non-empty pairs.
        empty = np.empty((0, 3))
        full = [make_trajectory(n=n, seed=500 + n) for n in (3, 7, 11)]
        cases.append(
            (
                [empty, full[0], full[1], empty],
                [full[2], empty, full[0], empty],
                40.0,
            )
        )
        for a_list, b_list, eps in cases:
            expected = [
                edr_distance(a, b, eps) for a, b in zip(a_list, b_list)
            ]
            assert edr_distances_pairs(a_list, b_list, eps).tolist() == expected
        # A batch long enough to be chunked (one pair per chunk at 16, six
        # at 100, where the lone last pair's 12 rows run in two blocks).
        a_list = [make_trajectory(n=2 + j % 13, seed=600 + j) for j in range(30)]
        b_list = [make_trajectory(n=15 - j % 11, seed=700 + j) for j in range(30)]
        a_list.append(make_trajectory(n=12, seed=631))
        b_list.append(make_trajectory(n=15, seed=731))
        expected = [edr_distance(a, b, 50.0) for a, b in zip(a_list, b_list)]
        for bound in (16, 100):
            monkeypatch.setattr(edr_module, "_MAX_DP_ELEMENTS", bound)
            assert edr_distances_pairs(a_list, b_list, 50.0).tolist() == expected

    def test_nan_never_matches(self):
        """Regression: a NaN ``eps`` or coordinate never matches, as in the
        reference. The batched DP used to test a mismatch as
        ``max(|dx|, |dy|) > eps``, which NaN fails, so NaN matched."""
        a = np.array([[0, 0], [1, 1], [2, 2]], dtype=float)
        b = np.array([[0, 0], [5, 5]], dtype=float)
        nan_a = a.copy()
        nan_a[1, 0] = np.nan
        nan_b = b.copy()
        nan_b[0, 1] = np.nan
        for a_list, b_list, eps in (
            ([a], [b], np.nan),
            ([nan_a, a, nan_a], [b, nan_b, nan_b], 1.0),
            ([nan_a, b], [nan_a, nan_b], 10.0),
        ):
            expected = [
                edr_distance(x, y, eps) for x, y in zip(a_list, b_list)
            ]
            assert edr_distances_pairs(a_list, b_list, eps).tolist() == expected
        assert edr_distances_pairs([a], [b], np.nan).tolist() == [3.0]
        # The same through kNN: batched == per-query reference.
        t = np.arange(10.0)
        line = np.column_stack([t, np.zeros(10), t])
        far = line + [0.0, 500.0, 0.0]
        db = TrajectoryDatabase([Trajectory(line[:4]), Trajectory(far)])
        query = Trajectory(line)
        assert knn_query_batch(db, [query], 1, eps=np.nan) == [
            knn_query(db, query, 1, eps=np.nan)
        ] == [[0]]
        half_nan = line.copy()
        half_nan[5:, 0] = np.nan
        db = TrajectoryDatabase([Trajectory(line[:5]), Trajectory(line)])
        query = Trajectory(half_nan)
        assert knn_query_batch(db, [query], 1, eps=0.5) == [
            knn_query(db, query, 1, eps=0.5)
        ] == [[0]]

    def test_one_to_many_matches_reference(self):
        query = make_trajectory(n=9, seed=3)
        candidates = [make_trajectory(n=4 + j, seed=50 + j) for j in range(5)]
        assert edr_distances_one_to_many(query, candidates, 10.0).tolist() == [
            edr_distance(query, c, 10.0) for c in candidates
        ]

    def test_empty_inputs(self):
        assert len(edr_distances_pairs([], [], 1.0)) == 0
        with pytest.raises(ValueError):
            edr_distances_pairs([make_trajectory()], [], 1.0)

    def test_zero_length_sides(self):
        a = make_trajectory(n=5, seed=1)
        empty = np.empty((0, 3))
        assert edr_distances_pairs([a], [empty], 1.0).tolist() == [5.0]
        assert edr_distances_pairs([empty], [a], 1.0).tolist() == [5.0]
        assert edr_distances_pairs([empty], [empty], 1.0).tolist() == [0.0]


class TestSimilarity:
    def test_self_always_matches(self, small_db):
        for qid in (0, 4):
            result = similarity_query(small_db, small_db[qid], delta=1e-6)
            assert qid in result

    def test_parallel_trajectories_within_delta(self):
        a = traj_at(0, 0, n=10)
        b = traj_at(0, 3, n=10, traj_id=1)  # same motion, 3 units north
        db = TrajectoryDatabase([a, b])
        assert similarity_query(db, a, delta=3.5) == {0, 1}
        assert similarity_query(db, a, delta=2.0) == {0}

    def test_negative_delta_rejected(self, small_db):
        with pytest.raises(ValueError):
            similarity_query(small_db, small_db[0], delta=-1.0)

    def test_non_overlapping_time_excluded(self):
        a = traj_at(0, 0, n=10)
        b = traj_at(0, 0, n=10, t0=1e6, traj_id=1)
        db = TrajectoryDatabase([a, b])
        assert similarity_query(db, a, delta=1e9) == {0}

    def test_empty_window_rejected(self, small_db):
        with pytest.raises(ValueError):
            similarity_query(small_db, small_db[0], 1.0, time_window=(10.0, 0.0))

    def test_partial_lifespan_candidate_not_extrapolated(self):
        """Regression: the predicate only counts instants where both exist.

        The candidate tracks the query exactly while it is alive (t in
        [0, 4]) and then ends; previously its parked endpoint was
        extrapolated across the rest of the window, where the query has
        moved far away, and the candidate wrongly failed the predicate.
        """
        query = traj_at(0, 0, n=20)  # alive t in [0, 19], moving +x
        partial = traj_at(0, 0, n=5, traj_id=1)  # identical until t=4
        db = TrajectoryDatabase([query, partial])
        assert similarity_query(db, db[0], delta=0.5) == {0, 1}

    def test_parked_endpoints_cannot_satisfy_predicate(self):
        """The dual failure: two trajectories that never coexist must not
        match even when both overlap the window and their parked endpoints
        sit on top of each other — there is no instant where the predicate
        is actually about two existing trajectories."""
        query = traj_at(0, 0, n=5, step=0.0)  # parked at (0,0), t in [0,4]
        late = traj_at(0, 0, n=5, step=0.0, t0=6.0, traj_id=1)  # t in [6,10]
        db = TrajectoryDatabase([query, late])
        # Both lifespans intersect the window, their endpoint extrapolations
        # coincide everywhere, yet they share no instant.
        assert similarity_query(
            db, db[0], delta=1e6, time_window=(0.0, 10.0)
        ) == {0}

    def test_window_beyond_query_lifespan_not_extrapolated(self):
        """Checkpoints outside the query's own lifespan are excluded too."""
        query = traj_at(0, 0, n=5)  # alive t in [0, 4]
        # Matches the query while it exists, then wanders far away.
        wanderer = Trajectory(
            np.column_stack(
                [
                    np.concatenate([np.arange(5.0), np.full(5, 1e6)]),
                    np.zeros(10),
                    np.arange(10.0),
                ]
            ),
            traj_id=1,
        )
        db = TrajectoryDatabase([query, wanderer])
        # Window extends past the query's life; instants beyond t=4 have no
        # query position and must not be scored against its parked endpoint.
        assert similarity_query(
            db, db[0], delta=0.5, time_window=(0.0, 9.0)
        ) == {0, 1}


class TestMetrics:
    def test_perfect(self):
        assert precision_recall_f1({1, 2}, {1, 2}) == (1.0, 1.0, 1.0)

    def test_both_empty_is_perfect(self):
        assert f1_score(set(), set()) == 1.0

    def test_one_sided_empty_is_zero(self):
        assert f1_score({1}, set()) == 0.0
        assert f1_score(set(), {1}) == 0.0

    def test_partial_overlap(self):
        p, r, f1 = precision_recall_f1({1, 2, 3, 4}, {3, 4, 5})
        assert p == pytest.approx(2 / 3)
        assert r == pytest.approx(0.5)
        assert f1 == pytest.approx(2 * (2 / 3) * 0.5 / (2 / 3 + 0.5))

    def test_knn_precision_equals_recall(self):
        truth, predicted = {1, 2, 3}, {2, 3, 4}
        p, r, _ = precision_recall_f1(truth, predicted)
        assert p == r  # equal-size sets

    def test_mean_f1_requires_nonempty(self):
        with pytest.raises(ValueError):
            mean_f1([], [])

    def test_mean_f1_strict_zip(self):
        with pytest.raises(ValueError):
            mean_f1([{1}], [{1}, {2}])

    def test_clustering_pairs(self):
        pairs = clustering_pairs([[1, 2, 3], [3, 4]])
        assert pairs == {
            frozenset((1, 2)),
            frozenset((1, 3)),
            frozenset((2, 3)),
            frozenset((3, 4)),
        }

    def test_clustering_f1_identical(self):
        clusters = [[1, 2], [3, 4, 5]]
        assert clustering_f1(clusters, clusters) == 1.0

    def test_clustering_f1_disjoint(self):
        assert clustering_f1([[1, 2]], [[3, 4]]) == 0.0


class TestT2Vec:
    def test_unfitted_embed_raises(self, small_db):
        emb = T2VecEmbedder()
        with pytest.raises(RuntimeError):
            emb.embed(small_db[0])
        with pytest.raises(RuntimeError):
            emb.tokens_of(small_db[0])

    def test_fit_is_deterministic(self, small_db):
        a = T2VecEmbedder(resolution=8, dim=8, epochs=1, seed=3).fit(small_db)
        b = T2VecEmbedder(resolution=8, dim=8, epochs=1, seed=3).fit(small_db)
        assert np.allclose(a.embed(small_db[0]), b.embed(small_db[0]))

    def test_tokens_merge_consecutive_duplicates(self, small_db):
        emb = T2VecEmbedder(resolution=4).fit(small_db)
        tokens = emb.tokens_of(small_db[0])
        assert all(x != y for x, y in zip(tokens, tokens[1:]))

    def test_distance_zero_to_self(self, small_db):
        emb = T2VecEmbedder(resolution=8, dim=8, epochs=1).fit(small_db)
        assert emb.distance(small_db[0], small_db[0]) == 0.0

    def test_simplified_trajectory_stays_close(self, geolife_db):
        """Dropping on-route points barely moves the embedding; the whole
        point of a learned cell-sequence measure."""
        emb = T2VecEmbedder(resolution=12, dim=8, epochs=1, seed=0).fit(geolife_db)
        t = geolife_db[0]
        light = t.subsample(sorted({0, len(t) - 1} | set(range(0, len(t), 2))))
        heavy = t.subsample([0, len(t) - 1])
        assert emb.distance(t, light) <= emb.distance(t, heavy) + 1e-9
