"""Similarity (threshold) queries (paper, Section III-B).

Given a query trajectory ``Tq``, a time window ``[ts, te]``, and a distance
threshold ``delta``, the query returns every trajectory that stays within
Euclidean distance ``delta`` of ``Tq`` *at every instant of the window*
(a continuous spatio-temporal join predicate; Chen & Patel, SIGSPATIAL'09).

Positions at arbitrary instants are linearly interpolated along segments —
which is exactly where simplification bites: dropping points moves the
interpolated positions, so a trajectory that satisfied the predicate on the
original database may fail it on the simplified one (or vice versa).

Semantics at the window edges: the predicate is evaluated only at instants
where *both* the query and the candidate exist — checkpoints are clipped to
the intersection of the window with both lifespans. Outside its lifespan a
trajectory has no position (``positions_at`` would merely clamp to the
parked endpoint, an extrapolation artifact that previously let a parked
endpoint satisfy — or break — the predicate at instants where the
trajectory did not exist). A candidate that shares no instant with the
query inside the window has nothing to compare and does not match.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory


def resolve_time_windows(
    queries: list[Trajectory],
    time_windows,
) -> list[tuple[float, float]]:
    """Per-query ``(ts, te)`` windows, ``None`` resolved to the query's span.

    The single defaulting rule shared by every batched path (kNN and
    similarity, engine and sharded-service alike): windows feed cache keys
    and comparability masks, so one drifting copy of this expression would
    silently break shard/single-engine bit-parity.
    """
    if time_windows is None:
        time_windows = [None] * len(queries)
    else:
        time_windows = list(time_windows)
    if len(time_windows) != len(queries):
        raise ValueError("queries and time_windows must have the same length")
    return [
        (float(w[0]), float(w[1]))
        if w is not None
        else (float(q.times[0]), float(q.times[-1]))
        for q, w in zip(queries, time_windows)
    ]


def query_checkpoints(
    query: Trajectory, ts: float, te: float, n_checkpoints: int
) -> np.ndarray:
    """The evaluation instants of a similarity query over ``[ts, te]``.

    Evenly spaced instants plus the query's own sample times inside the
    window, deduplicated and sorted. Shared by the per-query reference, the
    batched engine path (:meth:`repro.queries.engine.QueryEngine.similarity`)
    and the sharded service's pending-delta scan, so all three evaluate the
    continuous predicate at exactly the same instants.
    """
    return np.union1d(
        np.linspace(ts, te, n_checkpoints),
        query.times[(query.times >= ts) & (query.times <= te)],
    )


def candidate_matches(
    candidate: Trajectory,
    checkpoints: np.ndarray,
    query_positions: np.ndarray,
    query_alive: np.ndarray,
    delta: float,
) -> bool:
    """Whether ``candidate`` satisfies the predicate at every comparable instant.

    ``query_positions`` and ``query_alive`` are the query's interpolated
    positions and lifespan mask over ``checkpoints``. The factored-out
    per-candidate core of :func:`similarity_query`, reused verbatim by the
    sharded service for trajectories not yet merged into a shard's engine.
    """
    comparable = (
        query_alive
        & (checkpoints >= candidate.times[0])
        & (checkpoints <= candidate.times[-1])
    )
    if not comparable.any():
        # No instant inside the window where both trajectories exist.
        return False
    positions = candidate.positions_at(checkpoints[comparable])
    gaps = np.linalg.norm(positions - query_positions[comparable], axis=1)
    return bool((gaps <= delta).all())


def similarity_query(
    db: TrajectoryDatabase,
    query: Trajectory,
    delta: float,
    time_window: tuple[float, float] | None = None,
    n_checkpoints: int = 32,
) -> set[int]:
    """Ids of trajectories within ``delta`` of the query across the window.

    Parameters
    ----------
    db:
        Database to search.
    query:
        The query trajectory ``Tq``.
    delta:
        Synchronized-distance threshold.
    time_window:
        ``(ts, te)``; defaults to the query's own span. Trajectories whose
        time span does not overlap the window cannot match.
    n_checkpoints:
        The continuous predicate is checked at this many evenly spaced
        instants plus the query's own sample times inside the window; for
        each candidate only the checkpoints inside the intersection of the
        window with both the query's and the candidate's lifespans count
        (see the module docstring), so neither trajectory is ever evaluated
        via clamped-endpoint extrapolation outside its lifespan.
    """
    if delta < 0:
        raise ValueError("delta must be non-negative")
    if time_window is None:
        time_window = (float(query.times[0]), float(query.times[-1]))
    ts, te = time_window
    if te < ts:
        raise ValueError("empty time window")
    checkpoints = query_checkpoints(query, ts, te, n_checkpoints)
    if len(checkpoints) == 0:
        return set()
    query_positions = query.positions_at(checkpoints)
    candidates = [t for t in db if not (t.times[-1] < ts or t.times[0] > te)]
    # The query itself only exists on its own lifespan; checkpoints outside
    # it would compare candidates against a clamped (parked) query endpoint.
    query_alive = (checkpoints >= query.times[0]) & (checkpoints <= query.times[-1])
    return {
        traj.traj_id
        for traj in candidates
        if candidate_matches(traj, checkpoints, query_positions, query_alive, delta)
    }


def similarity_query_batch(
    db: TrajectoryDatabase,
    queries: list[Trajectory],
    delta: float,
    time_windows: list[tuple[float, float] | None] | None = None,
    n_checkpoints: int = 32,
    engine=None,
) -> list[set[int]]:
    """Batched :func:`similarity_query` over many query trajectories.

    Identical to ``[similarity_query(db, q, delta, w) for q, w in
    zip(queries, time_windows)]`` but executed through the shared batch
    engine (:meth:`repro.queries.engine.QueryEngine.similarity`): every
    candidate trajectory is interpolated ONCE over the union of all queries'
    checkpoint instants instead of once per (query, candidate) pair — the
    last per-query scan in the evaluation harness's hot loop. ``engine``
    optionally supplies a private :class:`QueryEngine`; by default the
    database's shared engine is used, so repeated scoring of the same
    database state hits its memo.
    """
    from repro.queries.engine import QueryEngine

    if engine is None:
        engine = QueryEngine.for_database(db)
    return engine.similarity(queries, delta, time_windows, n_checkpoints)
