"""Tests for the unified client API (:mod:`repro.client`) and wire schema.

Covers the canonical codecs (``to_json``/``from_json`` for every request
and response, decode-time :class:`RequestError` validation), the
:class:`LocalClient` / :class:`ServiceClient` transports (bit-identical,
same cache/epoch semantics), the cache-stat accounting of uncacheable
requests, and the epoch-keyed histogram invalidation after
extent-growing ingest. The socket transport has its own suite in
``tests/test_server.py``.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client import (
    Client,
    IngestResult,
    LocalClient,
    RequestError,
    ServiceClient,
)
from repro.data import Trajectory
from repro.eval.harness import QueryAccuracyEvaluator
from repro.queries import QueryEngine, knn_query_batch
from repro.service import (
    PROTOCOL_VERSION,
    CountRequest,
    HistogramRequest,
    KnnRequest,
    QueryService,
    RangeRequest,
    SimilarityRequest,
    request_from_json,
    request_to_json,
    response_from_json,
    response_to_json,
)
from repro.service.requests import (
    CountResponse,
    HistogramResponse,
    box_from_json,
    trajectory_from_json,
    trajectory_to_json,
)
from repro.service.server import FRAME_HEADER, MAX_FRAME_BYTES, encode_frame
from repro.workloads import RangeQueryWorkload
from tests.conftest import (
    hostile_points_payloads,
    knn_suite,
    make_trajectory,
    serving_db,
    shifted_batch,
    wire_array,
)

HOSTILE_POINTS = hostile_points_payloads()


@pytest.fixture(scope="module")
def cdb():
    return serving_db(18)


@pytest.fixture(scope="module")
def cworkload(cdb):
    return RangeQueryWorkload.from_data_distribution(cdb, 15, seed=3)


# --------------------------------------------------------------------- codecs
class TestRequestCodecs:
    def test_range_round_trip(self, cworkload):
        request = RangeRequest.from_workload(cworkload)
        assert request_from_json(request_to_json(request)) == request

    def test_count_round_trip(self, cworkload):
        request = CountRequest.from_workload(cworkload.boxes)
        assert request_from_json(request_to_json(request)) == request

    def test_histogram_round_trip(self, cdb):
        request = HistogramRequest(17, cdb.bounding_box, normalize=True)
        assert request_from_json(request_to_json(request)) == request
        assert request_from_json(HistogramRequest().to_json()) == HistogramRequest()

    def test_knn_round_trip(self, cdb):
        queries, windows = knn_suite(cdb, n_queries=3)
        request = KnnRequest(tuple(queries), 3, tuple(windows), "edr", 123.25)
        decoded = request_from_json(request_to_json(request))
        assert decoded == request
        # Point payloads are bit-identical through JSON.
        for mine, theirs in zip(request.queries, decoded.queries):
            assert np.array_equal(mine.points, theirs.points)

    def test_similarity_round_trip(self, cdb):
        queries, windows = knn_suite(cdb, n_queries=3)
        request = SimilarityRequest(tuple(queries), 55.5, (None,) * len(queries), 16)
        assert request_from_json(request_to_json(request)) == request

    def test_box_codec_is_bit_exact(self):
        rng = np.random.default_rng(0)
        lo = rng.uniform(-1e7, 1e7, size=3)
        hi = lo + rng.uniform(0.0, 1e3, size=3)
        from repro.data.bbox import BoundingBox
        from repro.service.requests import box_to_json

        box = BoundingBox(lo[0], hi[0], lo[1], hi[1], lo[2], hi[2])
        import json

        assert box_from_json(json.loads(json.dumps(box_to_json(box)))) == box


class TestRequestValidation:
    def test_unknown_kind(self):
        with pytest.raises(RequestError, match="unknown request kind"):
            request_from_json({"v": PROTOCOL_VERSION, "kind": "teleport"})

    def test_version_mismatch(self):
        with pytest.raises(RequestError, match="protocol version"):
            request_from_json({"v": 999, "kind": "range", "boxes": []})
        with pytest.raises(RequestError, match="protocol version"):
            request_from_json({"kind": "range", "boxes": []})

    def test_non_object_request(self):
        with pytest.raises(RequestError, match="JSON object"):
            request_from_json(["range"])

    def test_bad_box_bounds(self):
        req = {
            "v": PROTOCOL_VERSION,
            "kind": "range",
            "boxes": [[5.0, 1.0, 0.0, 1.0, 0.0, 1.0]],  # xmin > xmax
        }
        with pytest.raises(RequestError, match="bad box bounds"):
            request_from_json(req)

    def test_non_numeric_box_entry(self):
        req = {
            "v": PROTOCOL_VERSION,
            "kind": "count",
            "boxes": [[0.0, "ten", 0.0, 1.0, 0.0, 1.0]],
        }
        with pytest.raises(RequestError, match="must be a number"):
            request_from_json(req)

    def test_wrong_box_arity(self):
        with pytest.raises(RequestError, match="6-element"):
            box_from_json([0.0, 1.0, 2.0])

    def test_non_numeric_window(self, cdb):
        queries, _ = knn_suite(cdb, n_queries=1)
        obj = KnnRequest(tuple(queries), 2).to_json()
        obj["time_windows"] = [["soon", "later"]]
        with pytest.raises(RequestError, match="must be a number"):
            request_from_json(obj)

    def test_window_count_mismatch(self, cdb):
        queries, windows = knn_suite(cdb, n_queries=2)
        obj = KnnRequest(tuple(queries), 2, tuple(windows)).to_json()
        obj["time_windows"] = obj["time_windows"][:1]
        with pytest.raises(RequestError, match="entries for"):
            request_from_json(obj)

    def test_bad_k_and_grid_and_delta(self, cdb):
        queries, _ = knn_suite(cdb, n_queries=1)
        obj = KnnRequest(tuple(queries), 2).to_json()
        obj["k"] = 0
        with pytest.raises(RequestError, match="k must be >= 1"):
            request_from_json(obj)
        obj["k"] = 2.5
        with pytest.raises(RequestError, match="k must be an integer"):
            request_from_json(obj)
        with pytest.raises(RequestError, match="grid must be >= 1"):
            request_from_json(
                {"v": PROTOCOL_VERSION, "kind": "histogram", "grid": 0}
            )
        # The largest grid whose base64 raster fits MAX_FRAME_BYTES decodes;
        # one more is refused. In process, any grid stays a valid request.
        largest = 2508
        assert 4 * -(-8 * largest**2 // 3) <= MAX_FRAME_BYTES
        hist = HistogramRequest(largest).to_json()
        assert request_from_json(hist).grid == largest
        hist["grid"] = largest + 1
        with pytest.raises(RequestError, match="exceed the .* frame cap"):
            request_from_json(hist)
        assert HistogramRequest(3000).to_json()["grid"] == 3000
        sim = SimilarityRequest(tuple(queries), 5.0).to_json()
        sim["delta"] = -1.0
        with pytest.raises(RequestError, match="delta must be non-negative"):
            request_from_json(sim)

    def test_similarity_checkpoints_capped_and_windows_ordered(self, cdb):
        queries, _ = knn_suite(cdb, n_queries=2)
        sim = SimilarityRequest(tuple(queries), 5.0).to_json()
        # The largest checkpoint count whose (n, 3) float64 array fits
        # MAX_FRAME_BYTES decodes; one more is refused.
        largest = MAX_FRAME_BYTES // 24
        sim["n_checkpoints"] = largest
        assert request_from_json(sim).n_checkpoints == largest
        sim["n_checkpoints"] = largest + 1
        with pytest.raises(RequestError, match="exceed the .* frame cap"):
            request_from_json(sim)
        sim["n_checkpoints"] = 32
        sim["time_windows"] = [[10.0, 5.0], None]
        with pytest.raises(RequestError, match="time window 0 ends before"):
            request_from_json(sim)
        sim["time_windows"] = [None, [5.0, 5.0]]  # a one-instant window
        assert request_from_json(sim).time_windows == (None, (5.0, 5.0))
        # kNN serves inverted windows, so it still decodes them.
        knn = KnnRequest(tuple(queries), 2).to_json()
        knn["time_windows"] = [[10.0, 5.0], None]
        assert request_from_json(knn).time_windows[0] == (10.0, 5.0)

    def test_t2vec_rejected_with_request_error(self, cdb):
        queries, _ = knn_suite(cdb, n_queries=1)
        obj = KnnRequest(tuple(queries), 2).to_json()
        obj["measure"] = "t2vec"
        with pytest.raises(RequestError, match="t2vec"):
            request_from_json(obj)

    def test_callable_measure_not_wire_encodable(self, cdb):
        queries, _ = knn_suite(cdb, n_queries=1)
        request = KnnRequest(tuple(queries), 2, measure=lambda a, b: 0.0)
        with pytest.raises(RequestError, match="wire"):
            request.to_json()

    def test_bad_trajectory_payloads(self):
        with pytest.raises(RequestError, match="points"):
            trajectory_from_json({"id": 1})
        with pytest.raises(RequestError, match=r"\[x, y, t\]"):
            trajectory_from_json({"points": wire_array([[0.0, 0.0], [1.0, 1.0]])})
        with pytest.raises(RequestError, match="bad trajectory"):
            trajectory_from_json(
                {"points": wire_array([[0.0, 0.0, 1.0], [1.0, 1.0, 0.5]])}
            )

    def test_non_finite_trajectory_points_rejected(self):
        # Raw bytes carry any IEEE-754 pattern, NaN and Infinity included.
        for points in (
            [[np.nan, 0, 0], [1, np.inf, 1]],
            [[0, 0, 0], [1, -np.inf, 1]],
            [[0, 0, 0], [1, 1, np.inf]],
        ):
            obj = json.loads(json.dumps({"points": wire_array(points)}))
            with pytest.raises(RequestError, match="finite"):
                trajectory_from_json(obj)

    def test_trajectory_id_must_be_an_integer(self):
        # Regression: ids were coerced with int(), so true decoded as 1,
        # 2.7 as 2 and "7" as 7.
        obj = trajectory_to_json(make_trajectory(n=4, seed=1, traj_id=3))
        for bad in (True, 2.7, "7", None):
            with pytest.raises(RequestError, match="trajectory id must be an integer"):
                trajectory_from_json({**obj, "id": bad})
        assert trajectory_from_json(obj).traj_id == 3

    @pytest.mark.parametrize(
        "case, points, match", HOSTILE_POINTS, ids=[c[0] for c in HOSTILE_POINTS]
    )
    def test_hostile_points_payloads_rejected(self, case, points, match):
        # Rejected before allocating: a [2**61, 3] shape must cost nothing.
        tracemalloc.start()
        try:
            with pytest.raises(RequestError, match=match):
                trajectory_from_json({"id": 0, "points": points})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    def test_empty_query_list_rejected(self):
        with pytest.raises(RequestError, match="non-empty"):
            request_from_json(
                {"v": PROTOCOL_VERSION, "kind": "knn", "queries": [], "k": 1}
            )


class TestResponseCodecs:
    @pytest.fixture(scope="class")
    def local(self, cdb):
        return LocalClient(cdb)

    def test_range_and_similarity_round_trip(self, local, cworkload, cdb):
        queries, _ = knn_suite(cdb, n_queries=3)
        for response in (
            local.range(cworkload),
            local.similarity(queries, 40.0),
        ):
            decoded = response_from_json(response_to_json(response))
            assert decoded.result_sets == response.result_sets
            assert decoded.epoch == response.epoch
            assert decoded.cached == response.cached
            assert decoded.n_shards == response.n_shards

    def test_count_round_trip_preserves_dtype(self, local, cworkload):
        response = local.count(cworkload.boxes)
        decoded = response_from_json(response_to_json(response))
        assert decoded.counts.dtype == np.int64
        assert np.array_equal(decoded.counts, response.counts)

    def test_histogram_round_trip_is_bit_exact(self, local):
        response = local.histogram(9, normalize=True)
        decoded = response_from_json(response_to_json(response))
        assert decoded.histogram.shape == (9, 9)
        # Exact equality, not allclose: doubles survive JSON verbatim.
        assert np.array_equal(decoded.histogram, response.histogram)

    def test_knn_round_trip_rederives_neighbors(self, local, cdb):
        queries, windows = knn_suite(cdb, n_queries=3)
        response = local.knn(queries, 3, windows, eps=200.0)
        decoded = response_from_json(response_to_json(response))
        assert decoded.neighbors == response.neighbors
        assert decoded.pairs == [
            [tuple(p) for p in pairs] for pairs in response.pairs
        ]

    def test_malformed_response_raises(self):
        with pytest.raises(RequestError, match="unknown response kind"):
            response_from_json({"v": PROTOCOL_VERSION, "kind": "nope"})
        with pytest.raises(RequestError, match="malformed"):
            response_from_json({"v": PROTOCOL_VERSION, "kind": "count"})

    def test_hostile_response_arrays_rejected(self):
        meta = {
            "v": PROTOCOL_VERSION,
            "epoch": 0,
            "latency_s": 0.0,
            "cached": False,
            "n_shards": 1,
        }
        for kind, key, block, match in (
            ("count", "counts", [1, 2], "base64 little-endian <i8"),
            ("count", "counts", wire_array([1, 2], "<i8", shape=[3]), "carries 16"),
            ("count", "counts", wire_array([[1, 2]], "<i8"), "list of 1"),
            ("histogram", "histogram", wire_array([1.0, 2.0]), "list of 2"),
            ("histogram", "histogram", {"shape": [1, 1], "data": "@@@@"}, "base64"),
        ):
            with pytest.raises(RequestError, match=match):
                response_from_json({**meta, "kind": kind, key: block})

    def test_response_arrays_decode_mutable(self, local, cworkload):
        counts = response_from_json(
            response_to_json(local.count(cworkload.boxes))
        ).counts
        raster = response_from_json(response_to_json(local.histogram(4))).histogram
        assert counts.flags.writeable and raster.flags.writeable


def _through_frame(obj: dict) -> dict:
    """What the peer's ``json.loads`` sees after ``encode_frame(obj)``."""
    return json.loads(encode_frame(obj)[FRAME_HEADER.size:])


#: Doubles a text codec is most likely to mangle: signed zero, subnormals,
#: the normal boundary and the extremes.
EDGE_DOUBLES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    2.225073858507201e-308, 1e308, -1e308, 1.7976931348623157e308,
    -1.7976931348623157e308,
)
finite_doubles = st.one_of(
    st.sampled_from(EDGE_DOUBLES), st.floats(allow_nan=False, allow_infinity=False)
)
#: Timestamps stay within half the double range so their steps never overflow.
time_doubles = st.one_of(
    st.sampled_from([v for v in EDGE_DOUBLES if abs(v) < 1e300]),
    st.floats(-8e307, 8e307),
)


@st.composite
def wire_trajectories(draw) -> Trajectory:
    # unique= treats -0.0 and 0.0 as equal, so sorting makes t strictly rise.
    t = sorted(draw(st.lists(time_doubles, min_size=2, max_size=40, unique=True)))
    xy = draw(
        st.lists(
            st.tuples(finite_doubles, finite_doubles),
            min_size=len(t),
            max_size=len(t),
        )
    )
    points = np.column_stack([np.array(xy, dtype=float), t])
    return Trajectory(points, traj_id=draw(st.integers(-1, 2**62)))


class TestArrayCodecProperties:
    """Array payloads survive the full wire trip byte for byte."""

    @settings(max_examples=60, deadline=None)
    @given(trajectory=wire_trajectories())
    def test_trajectory_points_bytes_survive(self, trajectory):
        decoded = trajectory_from_json(_through_frame(trajectory_to_json(trajectory)))
        assert decoded.traj_id == trajectory.traj_id
        assert decoded.points.shape == trajectory.points.shape
        assert decoded.points.tobytes() == trajectory.points.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([-(2**63), 2**63 - 1, -1, 0, 1]),
                st.integers(-(2**63), 2**63 - 1),
            ),
            max_size=50,
        )
    )
    def test_int64_counts_survive(self, values):
        counts = np.array(values, dtype=np.int64)
        response = CountResponse(
            kind="count", epoch=0, latency_s=0.0, cached=False, n_shards=1,
            counts=counts,
        )
        decoded = response_from_json(_through_frame(response_to_json(response)))
        assert decoded.counts.dtype == np.int64
        assert decoded.counts.shape == counts.shape
        assert decoded.counts.tobytes() == counts.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        shape=st.tuples(st.integers(0, 12), st.integers(0, 12)),
        data=st.data(),
    )
    def test_histogram_rasters_survive(self, shape, data):
        values = data.draw(
            st.lists(
                st.one_of(st.sampled_from(EDGE_DOUBLES), st.floats()),
                min_size=shape[0] * shape[1],
                max_size=shape[0] * shape[1],
            )
        )
        raster = np.array(values, dtype=float).reshape(shape)
        response = HistogramResponse(
            kind="histogram", epoch=0, latency_s=0.0, cached=False, n_shards=1,
            histogram=raster,
        )
        decoded = response_from_json(_through_frame(response_to_json(response)))
        assert decoded.histogram.shape == shape
        assert decoded.histogram.tobytes() == raster.tobytes()


# ------------------------------------------------------------------- clients
class TestLocalClient:
    def test_matches_engine_on_every_kind(self, cdb, cworkload):
        client = LocalClient(cdb)
        engine = QueryEngine.for_database(cdb)
        queries, windows = knn_suite(cdb, n_queries=3)
        assert client.range(cworkload).result_sets == engine.evaluate(cworkload)
        assert np.array_equal(
            client.count(cworkload.boxes).counts, engine.count(cworkload.boxes)
        )
        assert np.array_equal(
            client.histogram(12).histogram, engine.histogram(12)
        )
        assert client.knn(queries, 3, windows, eps=150.0).neighbors == (
            knn_query_batch(cdb, queries, 3, windows, "edr", eps=150.0)
        )
        assert client.similarity(queries, 60.0).result_sets == (
            engine.similarity(queries, 60.0)
        )

    def test_repeat_request_is_cached_and_ingest_invalidates(self, cworkload):
        db = serving_db(12, seed=9)
        client = LocalClient(db)
        first = client.range(cworkload)
        again = client.range(cworkload)
        assert not first.cached and again.cached
        assert again.result_sets == first.result_sets

        batch = shifted_batch(db, 3, seed=2, shift=(30.0, -20.0))
        result = client.ingest(batch)
        assert result == IngestResult(added=3, epoch=1)
        post = client.range(cworkload)
        assert not post.cached and post.epoch == 1
        fresh = QueryEngine.for_database(db.extended(batch)).evaluate(cworkload)
        assert post.result_sets == fresh

    def test_empty_ingest_keeps_epoch(self, cdb):
        client = LocalClient(cdb)
        assert client.ingest([]) == IngestResult(added=0, epoch=0)

    def test_ingest_rejects_non_trajectories(self, cdb):
        client = LocalClient(cdb)
        with pytest.raises(TypeError, match="Trajectory"):
            client.ingest([np.zeros((3, 3))])

    def test_describe_and_close(self, cdb):
        client = LocalClient(cdb)
        info = client.describe()
        assert info["trajectories"] == len(cdb)
        assert info["n_shards"] == 1 and info["epoch"] == 0
        client.close()
        with pytest.raises(RuntimeError, match="closed"):
            client.range([cdb.bounding_box])

    def test_uncacheable_callable_measure_stats(self, cdb):
        client = LocalClient(cdb)
        queries, windows = knn_suite(cdb, n_queries=2)

        def measure(a, b):
            return abs(len(a) - len(b))

        for _ in range(2):
            response = client.knn(queries, 2, windows, measure=measure)
            assert not response.cached
        assert len(client._cache) == 0
        summary = client.stats.summary()
        assert summary["knn_requests"] == 2
        assert summary["knn_cache_hits"] == 0
        assert summary["uncacheable_requests"] == 2
        assert summary["knn_cache_misses"] == 0


class TestServiceClientParity:
    def test_all_kinds_match_local_under_interleaved_ingest(self, cworkload):
        db = serving_db(16, seed=21)
        queries, windows = knn_suite(db, n_queries=3)
        local = LocalClient(db)
        service = ServiceClient.for_database(db, n_shards=3)
        with local, service:
            for round_no in range(3):
                assert (
                    service.range(cworkload).result_sets
                    == local.range(cworkload).result_sets
                )
                assert np.array_equal(
                    service.count(cworkload.boxes).counts,
                    local.count(cworkload.boxes).counts,
                )
                assert np.array_equal(
                    service.histogram(10).histogram,
                    local.histogram(10).histogram,
                )
                assert (
                    service.knn(queries, 3, windows, eps=180.0).pairs
                    == local.knn(queries, 3, windows, eps=180.0).pairs
                )
                assert (
                    service.similarity(queries, 70.0).result_sets
                    == local.similarity(queries, 70.0).result_sets
                )
                batch = shifted_batch(db, 2, seed=round_no, shift=(30.0, -20.0))
                assert service.ingest(batch) == local.ingest(batch)

    def test_execute_accepts_decoded_wire_requests(self, cdb, cworkload):
        """A request that traveled through JSON serves identically."""
        request = RangeRequest.from_workload(cworkload)
        decoded = request_from_json(request_to_json(request))
        with ServiceClient.for_database(cdb, n_shards=2) as client:
            assert (
                client.execute(decoded).result_sets
                == client.execute(request).result_sets
            )

    def test_context_manager_owns_service(self, cdb):
        client = ServiceClient.for_database(cdb, n_shards=2)
        service = client.service
        with client:
            pass
        with pytest.raises(RuntimeError, match="closed"):
            service.execute(HistogramRequest())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 50), n_shards=st.integers(1, 4))
def test_property_local_service_bit_identical(seed, n_shards):
    db = serving_db(10, seed=seed)
    workload = RangeQueryWorkload.from_data_distribution(db, 8, seed=seed)
    queries, windows = knn_suite(db, n_queries=2, seed=seed)
    with LocalClient(db) as local, ServiceClient.for_database(
        db, n_shards=n_shards
    ) as service:
        assert local.range(workload).result_sets == service.range(workload).result_sets
        assert local.knn(queries, 2, windows, eps=250.0).pairs == (
            service.knn(queries, 2, windows, eps=250.0).pairs
        )
        batch = shifted_batch(db, 2, seed=seed, shift=(30.0, -20.0))
        local.ingest(batch)
        service.ingest(batch)
        assert local.range(workload).result_sets == service.range(workload).result_sets


# --------------------------------------------------------------- satellites
class TestUncacheableAccounting:
    """Satellite: callable-measure kNN is neither cached nor miscounted."""

    def test_service_never_caches_callable_measures(self, cdb):
        queries, windows = knn_suite(cdb, n_queries=2)

        def measure(a, b):
            return abs(len(a) - len(b))

        with QueryService(cdb, n_shards=2) as service:
            request = KnnRequest(tuple(queries), 2, tuple(windows), measure)
            first = service.execute(request)
            second = service.execute(request)
            assert not first.cached and not second.cached
            assert first.neighbors == second.neighbors
            assert len(service._cache) == 0
            summary = service.stats.summary()
            assert summary["knn_requests"] == 2
            assert summary["knn_cache_hits"] == 0
            # The regression: these are NOT misses — nothing was looked up.
            assert summary["uncacheable_requests"] == 2
            assert summary["knn_cache_misses"] == 0

    def test_cacheable_requests_still_count_misses(self, cdb, cworkload):
        with QueryService(cdb, n_shards=2) as service:
            request = RangeRequest.from_workload(cworkload)
            service.execute(request)
            service.execute(request)
            summary = service.stats.summary()
            assert summary["range_cache_misses"] == 1
            assert summary["range_cache_hits"] == 1
            assert summary["uncacheable_requests"] == 0


class TestHistogramEpochInvalidation:
    """Satellite: box=None histograms re-resolve after extent-growing ingest."""

    def test_default_box_histogram_tracks_live_extent(self):
        db = serving_db(10, seed=33)
        with QueryService(db, n_shards=2) as service:
            request = HistogramRequest(grid=8)  # box=None: live extent
            before = service.execute(request)
            assert service.execute(request).cached  # same epoch: cache hit

            # Grow the extent: shifted copies land outside the old box.
            batch = shifted_batch(db, 3, seed=4, shift=(500.0, 400.0))
            service.ingest(batch)
            extended = db.extended(batch)
            assert extended.bounding_box != db.bounding_box

            after = service.execute(request)
            # The cache key carries no bounds, but the epoch moved: the
            # stale raster over the old extent must NOT be served.
            assert not after.cached
            fresh = QueryEngine.for_database(extended).histogram(8)
            assert np.array_equal(after.histogram, fresh)
            assert not np.array_equal(after.histogram, before.histogram)

    def test_local_client_matches_service_after_growth(self):
        db = serving_db(10, seed=34)
        batch = shifted_batch(db, 3, seed=5, shift=(450.0, -380.0))
        with LocalClient(db) as local, ServiceClient.for_database(
            db, n_shards=3
        ) as service:
            local.ingest(batch)
            service.ingest(batch)
            assert np.array_equal(
                local.histogram(8).histogram, service.histogram(8).histogram
            )


class TestDeprecationShims:
    """The harness rides the unified client API (the warn-once shims this
    class used to pin are gone; the name keeps the surviving test's id)."""

    def test_harness_accepts_any_client(self):
        db = serving_db(12, seed=8)
        evaluator = QueryAccuracyEvaluator(db)
        baseline = evaluator.evaluate(db, ("range", "knn_edr", "similarity"))
        with ServiceClient.for_database(db, n_shards=3) as client:
            assert evaluator.evaluate(
                db, ("range", "knn_edr", "similarity"), client=client
            ) == baseline


def test_client_protocol_is_abstract():
    client = Client()
    for method in (
        lambda: client.execute(HistogramRequest()),
        lambda: client.ingest([]),
        lambda: client.describe(),
        lambda: client.close(),
    ):
        with pytest.raises(NotImplementedError):
            method()


def test_make_trajectory_helper_roundtrip():
    """The conftest helper survives the wire codec (used by server tests)."""
    trajectory = make_trajectory(n=7, seed=3, traj_id=9)
    decoded = trajectory_from_json(trajectory_to_json(trajectory))
    assert decoded == trajectory
