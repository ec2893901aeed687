"""Concurrent ingest + query tests for the sharded service.

Property: however ingest batches and queries interleave, every query
answered by the sharded service equals a fresh single-engine evaluation of
the database state at that moment — and the final state matches
``initial.extended(all batches)`` exactly. These are fixed scenarios of the
contract that the oracle in ``tests/test_oracle.py`` drives across the
whole serving matrix, checked with the oracle's own comparator.
"""

from hypothesis import given, settings, strategies as st

from repro.client import LocalClient, ServiceClient
from repro.queries import QueryEngine
from repro.service import QueryService
from repro.workloads import RangeQueryWorkload
from tests.conftest import initial_db, make_trajectory
from tests.test_oracle import assert_answers_match, oracle_requests


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
    requests = oracle_requests(db, seed).values()
    current = db
    next_seed = 1000 * (seed + 1)
    with QueryService(
        db,
        n_shards=n_shards,
        # tiny compaction bound so some rounds compact and others buffer
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        client = ServiceClient(service)
        assert_answers_match(client, LocalClient(current), requests)
        for batch_size, query_now in plan:
            batch = [
                make_trajectory(n=5, seed=next_seed + i) for i in range(batch_size)
            ]
            next_seed += batch_size
            service.ingest(batch)
            current = current.extended(batch)
            if query_now:
                assert_answers_match(client, LocalClient(current), requests)
        # final state always checked, including the cache's epoch keying
        assert_answers_match(client, LocalClient(current), requests)
        assert service.manager.n_trajectories == len(current)


def test_interleaved_ingest_query_process_executor():
    """The same interleaving contract holds across worker processes."""
    db = initial_db(7, n=10)
    requests = oracle_requests(db, 7).values()
    current = db
    with QueryService(
        db,
        n_shards=3,
        executor="process",
        min_compact_points=24,
        compact_threshold=0.1,
    ) as service:
        client = ServiceClient(service)
        for round_idx in range(3):
            batch = [
                make_trajectory(n=5, seed=5000 + 10 * round_idx + i)
                for i in range(3)
            ]
            service.ingest(batch)
            current = current.extended(batch)
            assert_answers_match(client, LocalClient(current), requests)


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
