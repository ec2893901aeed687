"""The observability layer: histograms, tracing, provenance, wire metrics.

Three contracts anchor this file:

* **Quantile accuracy** — a log-bucketed histogram's p50/p95/p99 must sit
  within one bucket width of the exact order statistic
  (``np.quantile(..., method="inverted_cdf")``), and merging per-shard
  histograms must be order-independent (commutative/associative on the
  integer state).
* **One schema** — ``ServiceStats`` is a view over a self-locking
  ``MetricsRegistry``; its ``summary()`` mean/max keys stay bit-identical
  to running totals, and the key sets of ``summary()``, ``histograms()``
  and ``metrics_report()`` are pinned for every executor.
* **End-to-end trace identity** — a trace id minted in
  :class:`~repro.client.RemoteClient` must appear *verbatim* in the
  server-side span export after crossing the socket, the asyncio server,
  the service, and the executor.
"""

from __future__ import annotations

import collections
import json
import sys
import threading

import numpy as np
import pytest

from repro.client import LocalClient, RemoteClient, ServiceClient
from repro.data import synthetic_database
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    build_provenance,
    compare_runs,
    latest_run,
    load_runs,
    log_run,
    mint_trace_id,
    validate_run,
)
from repro.data.stats import spatial_scale
from repro.service import QueryService, serve_in_thread
from repro.service.requests import KnnRequest
from repro.service.service import ServiceStats
from repro.workloads import RangeQueryWorkload
from tests.conftest import initial_db, knn_suite, make_trajectory


def small_db(n: int = 12, seed: int = 5):
    return synthetic_database(
        "geolife", n_trajectories=n, points_scale=0.05, seed=seed
    )


# ------------------------------------------------------------------ histogram
class TestHistogram:
    def test_bucket_edges(self):
        h = Histogram(min_value=1.0, growth=2.0, n_buckets=4)
        assert h.bucket_index(0.0) == 0
        assert h.bucket_index(1.0) == 0  # <= min_value is underflow
        assert h.bucket_index(1.5) == 1
        assert h.bucket_index(2.0) == 1  # exact upper edge stays in-bucket
        assert h.bucket_index(2.0000001) == 2
        assert h.bucket_index(16.0) == 4
        assert h.bucket_index(1e9) == 5  # overflow
        assert h.upper_edge(0) == 1.0
        assert h.lower_edge(1) == 1.0
        assert h.upper_edge(4) == 16.0

    def test_rejects_bad_values(self):
        h = Histogram()
        for bad in (-1e-9, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                h.record(bad)
        with pytest.raises(ValueError):
            h.quantile(1.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantiles_within_one_bucket_of_exact(self, seed):
        rng = np.random.default_rng(seed)
        samples = rng.lognormal(mean=-6.0, sigma=1.5, size=2000)
        h = Histogram()
        h.record_many(samples)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            exact = float(np.quantile(samples, q, method="inverted_cdf"))
            idx = h.bucket_index(exact)
            width = h.upper_edge(idx) - h.lower_edge(idx)
            assert abs(h.quantile(q) - exact) <= width

    def test_mean_max_track_exact_running_totals(self):
        values = [0.001, 0.5, 0.02, 0.0, 3.7]
        h = Histogram()
        total = 0.0
        for v in values:
            h.record(v)
            total += v
        assert h.sum == total  # bit-identical accumulation order
        assert h.max == 3.7
        assert h.count == len(values)
        assert h.mean == total / len(values)

    def test_merge_commutative_and_associative(self):
        rng = np.random.default_rng(42)
        parts = []
        for _ in range(3):
            h = Histogram()
            h.record_many(rng.lognormal(-5.0, 2.0, size=257))
            parts.append(h)
        a, b, c = parts
        ab, ba = a.merged(b), b.merged(a)
        assert ab == ba  # integer state: exactly commutative
        assert np.isclose(ab.sum, ba.sum, rtol=0, atol=0)  # same two addends
        left = a.merged(b).merged(c)
        right = a.merged(b.merged(c))
        assert left == right
        assert np.isclose(left.sum, right.sum)  # float sum: to rounding

    def test_merge_equals_recording_together(self):
        rng = np.random.default_rng(3)
        all_values = rng.lognormal(-5.0, 1.0, size=300)
        together = Histogram()
        together.record_many(all_values)
        merged = Histogram()
        for chunk in np.array_split(all_values, 7):
            part = Histogram()
            part.record_many(chunk)
            merged.merge(part)
        assert merged == together
        for q in (0.5, 0.95, 0.99):
            assert merged.quantile(q) == together.quantile(q)

    def test_merge_rejects_layout_mismatch(self):
        with pytest.raises(ValueError, match="layout"):
            Histogram().merge(Histogram(min_value=1e-3))

    def test_json_round_trip(self):
        h = Histogram()
        h.record_many([1e-7, 0.004, 0.004, 1.25, 500.0])
        back = Histogram.from_json(h.to_json())
        assert back == h
        assert back.sum == h.sum
        assert back.max == h.max
        assert json.dumps(h.to_json())  # JSON-safe

    def test_empty_histogram(self):
        h = Histogram()
        assert h.quantile(0.99) == 0.0
        assert h.mean == 0.0
        assert Histogram.from_json(h.to_json()) == h


# ------------------------------------------------------------------- registry
class TestMetricsRegistry:
    def test_get_or_create_identity(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h") is reg.histogram("h")

    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)
        g = Gauge()
        g.set(9)
        g.set(2)
        assert g.value == 2

    def test_snapshot_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("requests").inc(3)
        a.gauge("level").set(1)
        a.histogram("lat").record(0.01)
        b.counter("requests").inc(2)
        b.gauge("level").set(7)
        b.histogram("lat").record(0.02)
        b.histogram("other").record(0.5)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["requests"] == 5
        assert snap["gauges"]["level"] == 7  # latest wins
        assert snap["histograms"]["lat"]["count"] == 2
        assert "other" in snap["histograms"]
        assert json.dumps(snap)  # crosses wire/pipes as-is
        only_other = a.snapshot("oth")
        assert only_other["histograms"] == {"other": snap["histograms"]["other"]}
        assert only_other["counters"] == only_other["gauges"] == {}

    def test_concurrent_updates_are_exact(self):
        reg = MetricsRegistry()
        n_threads, n_updates = 8, 10_000
        done = threading.Event()

        def write():
            for _ in range(n_updates):
                reg.inc("requests")
                reg.record("latency", 0.5)

        def read():
            # One snapshot per millisecond: a spinning reader convoys with
            # the writers on the registry lock, which stretches this check
            # from about 1 s to 15-30 s without making a race likelier.
            while not done.wait(1e-3):
                reg.snapshot()

        reader = threading.Thread(target=read)
        writers = [threading.Thread(target=write) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: races show up
        try:
            reader.start()
            for thread in writers:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in [reader, *writers])
        snap = reg.snapshot()
        assert snap["counters"]["requests"] == n_threads * n_updates
        assert snap["histograms"]["latency"]["count"] == n_threads * n_updates
        assert snap["histograms"]["latency"]["sum"] == 0.5 * n_threads * n_updates


# -------------------------------------------------------------------- tracing
class TestTracer:
    def test_none_trace_id_is_dropped(self):
        tracer = Tracer()
        tracer.record(None, "queue", 0.1)
        assert len(tracer) == 0
        assert tracer.recorded == 0

    def test_ring_buffer_capacity(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record("t", f"span{i}", 0.0)
        assert len(tracer) == 4
        assert tracer.recorded == 10  # lifetime counter survives eviction
        assert [s.name for s in tracer.spans()] == [
            "span6", "span7", "span8", "span9"
        ]

    def test_span_context_manager_and_export(self):
        tracer = Tracer()
        with tracer.span("abc", "work", kind="range") as attrs:
            attrs["extra"] = 1
        tracer.record("other", "noise", 0.0)
        lines = tracer.export_jsonl("abc").splitlines()
        assert len(lines) == 1
        span = json.loads(lines[0])
        assert span["trace"] == "abc"
        assert span["name"] == "work"
        assert span["duration_s"] >= 0.0
        assert span["attrs"] == {"kind": "range", "extra": 1}
        assert len(tracer.export_jsonl().splitlines()) == 2

    def test_mint_trace_id_unique(self):
        ids = {mint_trace_id() for _ in range(64)}
        assert len(ids) == 64


# ----------------------------------------------------------------- provenance
class TestProvenance:
    def test_build_provenance_keys(self):
        prov = build_provenance()
        for key in ("python", "numpy", "platform", "timestamp"):
            assert prov[key]

    def _run(self, seed=7, p50=1.0):
        h = Histogram()
        h.record(p50 / 1000.0)
        return {
            "config": {
                "seed": seed,
                "qps": 50,
                "provenance": build_provenance(),
                "workload_digest": "d" * 64,
            },
            "latency": {
                "p50_ms": p50,
                "p95_ms": p50,
                "p99_ms": p50,
                "histogram": h.to_json(),
            },
            "throughput_qps": 49.0,
            "server_metrics": {"summary": {}},
        }

    def test_log_and_load_runs(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        log_run(path, "bench_x", self._run(seed=1))
        log_run(path, "bench_x", self._run(seed=2))
        runs = load_runs(path)
        assert [r["config"]["seed"] for r in runs] == [1, 2]
        assert latest_run(path)["config"]["seed"] == 2
        with pytest.raises(ValueError):
            log_run(path, "bench_other", self._run())

    def test_validate_run(self):
        assert validate_run(self._run()) == []
        broken = self._run()
        del broken["latency"]["p95_ms"]
        del broken["config"]["workload_digest"]
        problems = validate_run(broken)
        assert any("p95_ms" in p for p in problems)
        assert any("workload_digest" in p for p in problems)

    def test_compare_runs(self):
        base, new = self._run(p50=2.0), self._run(p50=3.0)
        deltas = compare_runs(base, new, ["latency.p50_ms", "missing.key"])
        assert deltas["latency.p50_ms"] == pytest.approx(0.5)
        assert deltas["missing.key"] is None


# ------------------------------------------------------ ServiceStats summary
class TestServiceStatsCompat:
    def test_summary_mean_max_bit_identical_to_running_totals(self):
        rng = np.random.default_rng(11)
        stats = ServiceStats()
        total = 0.0
        observed = []
        for latency in rng.lognormal(-6.0, 1.0, size=40):
            stats.record("range", cached=False, latency_s=float(latency))
            total += float(latency)
            observed.append(float(latency))
        summary = stats.summary()
        # The legacy keys: computed exactly as the old float fields did.
        assert summary["range_mean_latency_ms"] == 1000.0 * total / 40
        assert summary["range_max_latency_ms"] == 1000.0 * max(observed)
        # The quantile keys derive from the same histogram.
        hist = Histogram.from_json(stats.histograms()["range"])
        assert hist.sum == total
        for q, key in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            assert summary[f"range_{key}_latency_ms"] == pytest.approx(
                1000.0 * hist.quantile(q)
            )

    def test_compaction_latency_compat(self):
        stats = ServiceStats()
        stats.record_compaction(
            0,
            {"points_dropped": 10, "bytes_before": 200, "bytes_after": 100,
             "elapsed_s": 0.25},
        )
        stats.record_compaction(
            0,
            {"points_dropped": 5, "bytes_before": 100, "bytes_after": 80,
             "elapsed_s": 0.05},
        )
        summary = stats.summary()
        assert summary["compaction_mean_latency_ms"] == pytest.approx(150.0)
        assert summary["compaction_max_latency_ms"] == 250.0
        assert "compaction_p95_latency_ms" in summary
        assert "compaction" in stats.histograms()
        # A re-compacted shard's bytes are its latest pass's, not a sum.
        assert summary["points_dropped"] == 15
        assert summary["bytes_base"] == 80
        assert summary["bytes_base_before"] == 100


# ------------------------------------------------------------ metrics schema
def _len_gap(a, b):
    """A callable kNN measure (module level, so worker processes unpickle it)."""
    return float(abs(len(a) - len(b)))


KINDS = ("count", "histogram", "knn", "range", "similarity")

SUMMARY_KEYS = {
    "requests", "cache_hits", "uncacheable_requests",
    "ingest_batches", "ingest_trajectories", "ingest_points",
    "compactions", "points_dropped", "bytes_base", "bytes_base_before",
    "compaction_mean_latency_ms", "compaction_max_latency_ms",
    "compaction_p95_latency_ms",
    "queue_depth_hwm", "queue_wait_p50_ms", "queue_wait_p95_ms",
    "queue_wait_p99_ms", "queue_wait_max_ms",
} | {
    f"{kind}_{suffix}"
    for kind in KINDS
    for suffix in (
        "requests", "cache_hits", "cache_misses", "mean_latency_ms",
        "max_latency_ms", "p50_latency_ms", "p95_latency_ms", "p99_latency_ms",
    )
}
HISTOGRAM_KEYS = set(KINDS) | {"compaction", "queue_wait"}
REPORT_KEYS = {
    "summary", "histograms", "epoch", "n_shards", "executor", "trace",
    "store", "transport", "replication", "shards",
}
TRANSPORT_KEYS = {
    "n_workers", "pipe_bytes_sent", "pipe_bytes_received",
    "messages_sent", "messages_received",
}


@pytest.mark.parametrize("executor", ["serial", "process"])
def test_metrics_schema_is_pinned(executor):
    """Every key a reader of ``summary()``, ``histograms()`` or
    ``metrics_report()`` may rely on survives a scripted session that
    touches every instrument."""
    db = initial_db(17, n=10)
    workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=17)
    queries, windows = knn_suite(db, n_queries=2, seed=17)
    scale = spatial_scale(db)
    with QueryService(
        db,
        n_shards=2,
        executor=executor,
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        client = ServiceClient(service)
        client.range(workload)
        assert client.range(workload).cached
        client.count(workload.boxes)
        client.histogram(8)
        client.knn(queries, 2, windows, eps=0.1 * scale)
        client.similarity(queries, 0.15 * scale, windows)
        uncacheable = KnnRequest(tuple(queries), 2, tuple(windows), _len_gap)
        service.execute(uncacheable)
        service.ingest([make_trajectory(n=30, seed=900 + i) for i in range(2)])
        service.stats.record_queue_depth(3)
        service.stats.record_queue_wait(0.002)
        summary = service.stats.summary()
        report = service.metrics_report()
        assert set(summary) == SUMMARY_KEYS
        assert set(service.stats.histograms()) == HISTOGRAM_KEYS
        assert set(report) == REPORT_KEYS
        assert set(report["transport"]) == TRANSPORT_KEYS
        assert summary["requests"] == 7
        assert summary["cache_hits"] == 1
        assert summary["uncacheable_requests"] == 1
        assert summary["compactions"] >= 1


# ----------------------------------------------------------- service-level obs
class TestServiceMetricsReport:
    def test_report_summary_bit_consistent_with_stats(self):
        db = small_db()
        workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=1)
        service = QueryService(db, n_shards=2)
        try:
            with ServiceClient(service) as client:
                client.range(workload)
                client.range(workload)  # cache hit
                client.histogram(8)
            report = service.metrics_report()
            assert report["summary"] == service.stats.summary()
            assert report["summary"]["requests"] == 3
            assert report["summary"]["range_cache_hits"] == 1
            assert set(report["histograms"]) == {"range", "histogram"}
            # Per-shard registries merged service-side: every shard timed
            # its own share of the two uncached ops.
            shard_hists = report["shards"]["histograms"]
            assert shard_hists["op.range"]["count"] == 2  # 1 miss x 2 shards
            assert shard_hists["op.histogram"]["count"] == 2
            assert json.dumps(report)  # the wire `metrics` op ships this
        finally:
            service.close()

    def test_process_executor_ships_shard_histograms_and_transport(self):
        db = small_db(8, seed=9)
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=2)
        service = QueryService(db, n_shards=2, executor="process")
        try:
            with ServiceClient(service) as client:
                client.range(workload)
            report = service.metrics_report()
            # Histograms recorded inside worker processes came back over
            # the pipes and merged into one service-wide view.
            assert report["shards"]["histograms"]["op.range"]["count"] == 2
            transport = report["transport"]
            assert transport["n_workers"] == 2
            assert transport["messages_sent"] >= 2
            assert transport["pipe_bytes_sent"] > 0
            assert transport["pipe_bytes_received"] > 0
        finally:
            service.close()

    def test_local_client_metrics_shape(self):
        db = small_db(8)
        with LocalClient(db) as client:
            client.histogram(8)
            report = client.metrics()
        assert report["summary"]["requests"] == 1
        assert "histogram" in report["histograms"]
        assert report["n_shards"] == 1


class TestServiceTracing:
    def test_dispatch_spans_cover_the_request_lifecycle(self):
        db = small_db()
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=3)
        service = QueryService(db, n_shards=2)
        try:
            trace = mint_trace_id()
            service.execute(workload_request(workload), trace_id=trace)
            names = [s.name for s in service.tracer.spans(trace)]
            assert names.count("shard_exec") == 2  # one per shard
            for expected in ("cache_lookup", "merge", "request"):
                assert expected in names
            # A cached replay touches only the cache, never the shards.
            trace2 = mint_trace_id()
            service.execute(workload_request(workload), trace_id=trace2)
            names2 = [s.name for s in service.tracer.spans(trace2)]
            assert names2 == ["cache_lookup", "request"]
            exported = service.trace_export(trace)
            assert all(json.loads(l)["trace"] == trace
                       for l in exported.splitlines())
        finally:
            service.close()

    def test_in_process_ingest_forwards_trace_id(self):
        """Every transport's ingest takes ``trace_id``; the in-process
        service client forwards it, so the service records its spans."""
        db = small_db()
        batch = [make_trajectory(n=6, seed=s, traj_id=s) for s in range(2)]
        service = QueryService(db, n_shards=2)
        try:
            client = ServiceClient(service)
            client.ingest(batch, trace_id="ingest-trace")
            assert client.last_trace_id == "ingest-trace"
            spans = [json.loads(l) for l in service.trace_export("ingest-trace").splitlines()]
            assert "ingest" in {s["name"] for s in spans}
            client.ingest(batch)
            assert client.last_trace_id not in (None, "ingest-trace")
        finally:
            service.close()
        with LocalClient(db) as local:
            result = local.ingest(batch, trace_id="local-trace")
            assert result.added == 2
            assert local.last_trace_id == "local-trace"

    def test_untraced_requests_record_nothing(self):
        db = small_db()
        workload = RangeQueryWorkload.from_data_distribution(db, 3, seed=4)
        service = QueryService(db, n_shards=2)
        try:
            service.execute(workload_request(workload))
            assert len(service.tracer) == 0
        finally:
            service.close()


def workload_request(workload):
    from repro.service.requests import RangeRequest

    return RangeRequest.from_workload(workload)


# ------------------------------------------------------------ over the socket
class TestRemoteTracing:
    def test_client_trace_id_appears_verbatim_in_server_spans(self):
        db = small_db(10, seed=21)
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=1)
        handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)
        try:
            with RemoteClient(handle.host, handle.port) as client:
                client.range(workload)
                trace = client.last_trace_id
            assert trace  # the client minted one per request
            exported = handle.service.trace_export(trace)
            spans = [json.loads(line) for line in exported.splitlines()]
            assert spans, "trace id never reached the server's span buffer"
            assert {s["trace"] for s in spans} == {trace}
            names = {s["name"] for s in spans}
            # The socket path adds the queue span to the service lifecycle.
            assert {"queue", "cache_lookup", "request"} <= names
        finally:
            handle.stop()

    def test_each_frame_exports_its_spans_once_and_queued_frames_wait(self):
        db = small_db(10, seed=24)
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=4)
        request = workload_request(workload)
        batch = [make_trajectory(20, seed=24)]
        handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)
        try:
            with RemoteClient(handle.host, handle.port) as client:
                miss = client.execute(request, trace_id="miss")
                hit = client.execute(request, trace_id="hit")
                client.ingest(batch, trace_id="ingest")
            assert not miss.cached and hit.cached
            service = handle.service

            def names(trace):
                return collections.Counter(
                    json.loads(line)["name"]
                    for line in service.trace_export(trace).splitlines()
                )

            shard_spans = {"shard_exec", "shard_gather"}
            miss_names = names("miss")
            assert {n: c for n, c in miss_names.items() if n not in shard_spans} == {
                "queue": 1,
                "cache_lookup": 1,
                "merge": 1,
                "request": 1,
            }
            assert sum(miss_names[n] for n in shard_spans) == 2  # one per shard
            # A loop hit never reaches the worker pool, so it never queued.
            assert names("hit") == {"cache_lookup": 1, "request": 1}
            ingest_names = names("ingest")
            assert ingest_names["ingest"] == 1 and "queue" not in ingest_names
            # The miss and the ingest queued; the hit and the hello did not.
            assert service.stats.histograms()["queue_wait"]["count"] == 2
            assert handle.server.loop_hits == 1
            assert handle.server.frames_served == 3
        finally:
            handle.stop()

    def test_remote_metrics_op_bit_consistent_with_server_stats(self):
        db = small_db(10, seed=22)
        workload = RangeQueryWorkload.from_data_distribution(db, 4, seed=2)
        handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)
        try:
            with RemoteClient(handle.host, handle.port) as client:
                client.range(workload)
                client.range(workload)
                report = client.metrics()
            # JSON round-trips floats exactly: the wire report must equal
            # the in-process summary bit for bit.
            assert report["summary"] == handle.service.stats.summary()
            assert report["summary"]["range_cache_hits"] == 1
        finally:
            handle.stop()

    def test_explicit_trace_id_is_forwarded_not_replaced(self):
        db = small_db(8, seed=23)
        workload = RangeQueryWorkload.from_data_distribution(db, 3, seed=3)
        handle = serve_in_thread(QueryService(db, n_shards=2), close_service=True)
        try:
            with RemoteClient(handle.host, handle.port) as client:
                response = client.execute(
                    workload_request(workload), trace_id="caller-chosen-id"
                )
                assert client.last_trace_id == "caller-chosen-id"
            assert response.trace_id == "caller-chosen-id"
            assert handle.service.trace_export("caller-chosen-id")
        finally:
            handle.stop()


# ------------------------------------------------------- clock-source hygiene
class TestClockHygiene:
    LATENCY_MODULES = (
        "service/service.py",
        "service/server.py",
        "service/runtime.py",
        "service/executors.py",
        "service/requests.py",
    )

    def test_no_wall_clock_latency_measurement(self):
        # All latency deltas come from time.perf_counter(); time.time() is
        # reserved for wall-clock *stamps* (tracing.py, provenance.py).
        import repro

        root = __import__("pathlib").Path(repro.__file__).parent
        for rel in self.LATENCY_MODULES:
            source = (root / rel).read_text()
            assert "time.time(" not in source, (
                f"{rel} measures with the wall clock; use time.perf_counter()"
            )

    def test_latencies_survive_wall_clock_regression(self, monkeypatch):
        # A backwards-stepping wall clock (NTP correction) must never
        # produce a negative latency anywhere in the serving path.
        import time as time_module

        going_back = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(time_module, "time", lambda: float(next(going_back)))
        db = small_db(8, seed=31)
        workload = RangeQueryWorkload.from_data_distribution(db, 3, seed=1)
        with LocalClient(db) as client:
            response = client.range(workload)
            assert response.latency_s >= 0.0
            hist = client.stats.histograms()["range"]
            assert hist["count"] == 1
            assert hist["sum"] >= 0.0
            for span in client.tracer.spans():
                assert span.duration_s >= 0.0
