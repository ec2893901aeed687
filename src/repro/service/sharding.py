"""Shard placement and membership management.

Placement is arithmetic: with ``K`` shards, global trajectory id ``g``
lives on shard ``g % K`` at position ``g // K`` — for the initial split and
streamed ingests alike. So shard ``s``'s members are ``trajectories[s::K]``
in global-id order, and a shard runtime maps its local position ``i`` back
to global id ``s + K * i`` without storing any id.

A :class:`ShardManager` lives in the serving process and is the source of
truth for membership: one global-id-ordered trajectory list, the global
extent, and the *shard epoch* — a counter bumped on every ingest batch that
the request layer uses to key its result cache (results can only change
when the epoch does).

Shard *execution* state (the per-shard CSR point matrix and
:class:`~repro.queries.engine.QueryEngine`) lives in
:class:`~repro.service.runtime.ShardRuntime` objects, which may run in the
serving process (``serial`` transport) or in per-shard worker processes
(``process`` transport) — see :mod:`repro.service.executors`. Runtimes are
built only from the columnar :class:`ShardSnapshot` that
:meth:`ShardManager.export_snapshots` freezes each shard into.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.data.trajectory import Trajectory


@dataclass
class ShardSnapshot:
    """A columnar shard snapshot: membership as array-store handles.

    Exported by :meth:`ShardManager.export_snapshots`. It carries the
    shard's CSR layout — the ``(N, 3)`` point matrix and ``(M + 1,)`` row
    offsets — as :class:`~repro.data.store.ArrayHandle` references into
    whichever store produced it, plus ``(index, n_shards)``, from which
    every member's global id follows (row ``i`` is ``index + n_shards * i``).
    Under the heap store, pickling a snapshot copies the arrays; under the
    shared-memory store the pickle is a few hundred bytes of segment names
    and the receiving process *maps* the base tier instead of unpickling
    it. The exporting store owns those segments; runtimes only map them,
    and keep the tiers they compact on their own heap.
    """

    index: int
    n_shards: int
    matrix: object  # ArrayHandle for the (N, 3) float64 point matrix
    offsets: object  # ArrayHandle for the (M + 1,) int64 row offsets


class ShardManager:
    """Partitions a database into shards and routes streamed ingests.

    Build one with :meth:`create`; hand :meth:`export_snapshots` to a
    scatter/gather executor. All query execution goes through executors —
    the manager only owns membership, the global extent, and the epoch.
    The shard count is fixed at construction: ingests grow shards, never
    add or remove them.
    """

    def __init__(self, trajectories: list[Trajectory], n_shards: int) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        #: Every trajectory, indexed by global id.
        self.trajectories = list(trajectories)
        self.n_shards = n_shards
        self.epoch = 0
        self._extent: BoundingBox | None = None
        for traj in self.trajectories:
            self._grow_extent(traj.bounding_box)

    @classmethod
    def create(cls, db: TrajectoryDatabase, n_shards: int = 4) -> "ShardManager":
        """Partition ``db`` into ``n_shards`` shards: global id ``g`` (the
        database's trajectory id) goes to shard ``g % n_shards``.

        Shards may start empty (``n_shards`` larger than the database) —
        streaming ingests fill them later.
        """
        return cls(list(db), n_shards)

    # ------------------------------------------------------------------ queries
    @property
    def n_trajectories(self) -> int:
        return len(self.trajectories)

    @property
    def total_points(self) -> int:
        return sum(len(t) for t in self.trajectories)

    def _grow_extent(self, box: BoundingBox) -> None:
        self._extent = box if self._extent is None else self._extent.union(box)

    def extent(self) -> BoundingBox:
        """The union bounding box of every trajectory across all shards.

        Bit-identical to ``self.database().bounding_box`` (same min/max
        reduction), and the default raster region of histogram requests.
        """
        if self._extent is None:
            raise ValueError("the service holds no trajectories yet")
        return self._extent

    def database(self) -> TrajectoryDatabase:
        """Every shard's members as one database, in global-id order.

        The reference view the service is property-tested against: queries
        on the sharded service must equal a fresh single-engine evaluation
        of this database.
        """
        return TrajectoryDatabase(self.trajectories)

    def export_snapshot(self, store, index: int) -> ShardSnapshot:
        """Freeze shard ``index``'s members into columnar store handles
        labelled ``s<index>m`` / ``s<index>o``."""
        members = self.trajectories[index :: self.n_shards]
        if members:
            matrix = np.concatenate([t.points for t in members], axis=0)
            counts = np.fromiter(
                (len(t) for t in members), dtype=np.int64, count=len(members)
            )
            offsets = np.zeros(len(members) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
        else:
            matrix = np.empty((0, 3), dtype=np.float64)
            offsets = np.zeros(1, dtype=np.int64)
        return ShardSnapshot(
            index=index,
            n_shards=self.n_shards,
            matrix=store.put(matrix, label=f"s{index}m"),
            offsets=store.put(offsets, label=f"s{index}o"),
        )

    def export_snapshots(self, store) -> list[ShardSnapshot]:
        """Freeze every shard's membership into columnar store handles.

        Each shard's member points are concatenated once into its CSR
        layout and placed into ``store``
        (:class:`~repro.data.store.HeapStore` or
        :class:`~repro.data.store.SharedMemoryStore`); the returned
        snapshots are what executors ship to shard runtimes. The caller
        owns ``store`` and must keep it open for as long as any executor
        built from these snapshots is alive.
        """
        return [self.export_snapshot(store, s) for s in range(self.n_shards)]

    def trajectory(self, global_id: int) -> Trajectory:
        """The trajectory holding ``global_id`` (ingested ones included)."""
        if not 0 <= global_id < len(self.trajectories):
            raise KeyError(f"no trajectory with global id {global_id}")
        return self.trajectories[global_id]

    # ------------------------------------------------------------------- ingest
    def plan_ingest(
        self, trajectories: list[Trajectory]
    ) -> dict[int, list[Trajectory]]:
        """Route a batch to its shards — WITHOUT committing it.

        Returns ``{shard_index: [trajectory, ...]}``: the batch's ``j``-th
        trajectory gets global id ``n_trajectories + j`` and so goes to
        shard ``(n_trajectories + j) % K``. No manager state changes: the
        caller delivers the routed batches to the shard runtimes first and
        calls :meth:`commit_ingest` only once delivery succeeded, so a
        failed delivery leaves the manager's view of the world (ids,
        membership, extent, epoch) untouched.
        """
        routed: dict[int, list[Trajectory]] = {}
        for gid, traj in enumerate(trajectories, start=len(self.trajectories)):
            if not isinstance(traj, Trajectory):
                raise TypeError(f"can only ingest Trajectory objects, got {traj!r}")
            routed.setdefault(gid % self.n_shards, []).append(traj)
        return routed

    def commit_ingest(self, batch: list[Trajectory]) -> None:
        """Append a delivered batch (the list :meth:`plan_ingest` routed)
        under the next global ids and bump the epoch."""
        if not batch:
            return
        for traj in batch:
            self.trajectories.append(traj)
            self._grow_extent(traj.bounding_box)
        self.epoch += 1
