"""Concurrent ingest + query tests for the sharded service.

Property: however ingest batches and queries interleave, every query
answered by the sharded service equals a fresh single-engine evaluation of
the database state at that moment — and the final state matches
``initial.extended(all batches)`` exactly. This is the consistency
contract of the streaming path: the pending tier, compaction, epoch-keyed
caching, and the scatter/gather merge must all be invisible to clients.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.client import ServiceClient
from repro.data import TrajectoryDatabase
from repro.data.stats import spatial_scale
from repro.queries import QueryEngine, knn_query_batch, similarity_query_batch
from repro.service import QueryService
from repro.workloads import RangeQueryWorkload
from tests.conftest import make_trajectory
from tests.test_service import knn_suite


def initial_db(seed: int, n: int = 8) -> TrajectoryDatabase:
    return TrajectoryDatabase(
        [make_trajectory(n=4 + (seed + i) % 8, seed=seed + i) for i in range(n)]
    )


def assert_state_parity(service, db, workload, queries, windows, eps, delta):
    """Every request kind on the service == fresh engine on ``db``."""
    engine = QueryEngine(db)
    client = ServiceClient(service)
    assert client.range(workload).result_sets == engine.evaluate(workload)
    assert np.array_equal(
        client.count(workload.boxes).counts, engine.count(workload.boxes)
    )
    assert np.array_equal(client.histogram(8).histogram, engine.histogram(8))
    assert (
        client.knn(queries, 2, windows, eps=eps).neighbors
        == knn_query_batch(db, queries, 2, windows, "edr", eps=eps)
    )
    assert client.similarity(queries, delta).result_sets == similarity_query_batch(
        db, queries, delta
    )


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 80),
    n_shards=st.integers(2, 4),
    plan=st.lists(
        st.tuples(st.integers(1, 4), st.booleans()), min_size=1, max_size=4
    ),
)
def test_interleaved_ingest_query_matches_fresh_engine(seed, n_shards, plan):
    """``plan`` is a list of (batch size, query-after-batch?) rounds."""
    db = initial_db(seed)
    workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=seed)
    queries, windows = knn_suite(db, n_queries=2, seed=seed)
    eps = 0.10 * spatial_scale(db)
    delta = 0.15 * spatial_scale(db)
    current = db
    next_seed = 1000 * (seed + 1)
    with QueryService(
        db,
        n_shards=n_shards,
        # tiny compaction bound so some rounds compact and others buffer
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        assert_state_parity(service, current, workload, queries, windows, eps, delta)
        for batch_size, query_now in plan:
            batch = [
                make_trajectory(n=5, seed=next_seed + i) for i in range(batch_size)
            ]
            next_seed += batch_size
            service.ingest(batch)
            current = current.extended(batch)
            if query_now:
                assert_state_parity(
                    service, current, workload, queries, windows, eps, delta
                )
        # final state always checked, including the cache's epoch keying
        assert_state_parity(service, current, workload, queries, windows, eps, delta)
        assert service.manager.n_trajectories == len(current)


def test_interleaved_ingest_query_process_executor():
    """The same interleaving contract holds across worker processes."""
    db = initial_db(7, n=10)
    workload = RangeQueryWorkload.from_data_distribution(db, 6, seed=7)
    queries, windows = knn_suite(db, n_queries=2, seed=7)
    eps = 0.10 * spatial_scale(db)
    delta = 0.15 * spatial_scale(db)
    current = db
    with QueryService(
        db,
        n_shards=3,
        executor="process",
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        for round_idx in range(3):
            batch = [
                make_trajectory(n=5, seed=5000 + 10 * round_idx + i)
                for i in range(3)
            ]
            service.ingest(batch)
            current = current.extended(batch)
            assert_state_parity(
                service, current, workload, queries, windows, eps, delta
            )


def test_queries_between_ingests_never_serve_stale_cache():
    db = initial_db(3)
    workload = RangeQueryWorkload.from_data_distribution(db, 5, seed=3)
    with QueryService(db, n_shards=2) as service:
        before = ServiceClient(service).range(workload)
        batch = [make_trajectory(n=30, seed=1234)]  # big, hits many boxes
        service.ingest(batch)
        after = ServiceClient(service).range(workload)
        assert after.epoch == before.epoch + 1
        assert not after.cached
        expected = QueryEngine(db.extended(batch)).evaluate(workload)
        assert after.result_sets == expected
