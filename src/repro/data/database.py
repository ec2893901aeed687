"""The :class:`TrajectoryDatabase` container.

A database ``D`` is an ordered collection of :class:`~repro.data.Trajectory`
objects. ``N`` denotes the total number of points across all trajectories
(paper, Section III-A); the storage budget of the QDTS problem is expressed
as ``W = r * N`` for a compression ratio ``r``.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.trajectory import Trajectory


class TrajectoryDatabase:
    """An ordered, id-addressable set of trajectories.

    Trajectory ids are re-assigned to the position in the database so that
    ``db[traj.traj_id] is traj`` always holds. This keeps cross-references
    from indexes, query results, and simplification states trivially stable.
    """

    __slots__ = (
        "trajectories",
        "_bbox",
        "_total_points",
        "_point_matrix",
        "_point_offsets",
        "__weakref__",
    )

    def __init__(self, trajectories: Iterable[Trajectory]) -> None:
        self.trajectories: list[Trajectory] = [
            Trajectory(t.points, traj_id=i) if t.traj_id != i else t
            for i, t in enumerate(trajectories)
        ]
        if not self.trajectories:
            raise ValueError("a database needs at least one trajectory")
        self._bbox: BoundingBox | None = None
        self._total_points: int | None = None
        self._point_matrix: np.ndarray | None = None
        self._point_offsets: np.ndarray | None = None

    @classmethod
    def from_columnar(
        cls, matrix: np.ndarray, offsets: np.ndarray
    ) -> "TrajectoryDatabase":
        """Rebuild a database as zero-copy views into a CSR layout.

        ``matrix`` is the ``(N, 3)`` point matrix and ``offsets`` the
        ``(M + 1,)`` row offsets, exactly as produced by
        :meth:`point_matrix`/:meth:`point_offsets` (possibly mapped from a
        shared-memory segment). Trajectory ``i`` becomes a view of rows
        ``offsets[i]:offsets[i + 1]`` — no point data is copied, and the
        columnar caches are pre-populated so downstream consumers
        (:class:`~repro.queries.engine.QueryEngine`) never re-concatenate.
        """
        matrix = np.asarray(matrix, dtype=np.float64)
        offsets = np.asarray(offsets, dtype=np.int64)
        if matrix.ndim != 2 or matrix.shape[1] != 3:
            raise ValueError(f"expected an (N, 3) matrix, got shape {matrix.shape}")
        if offsets.ndim != 1 or len(offsets) < 2 or offsets[0] != 0:
            raise ValueError("offsets must be (M + 1,) with offsets[0] == 0")
        if offsets[-1] != len(matrix) or np.any(np.diff(offsets) < 2):
            raise ValueError("offsets do not describe valid trajectories")
        if matrix.flags.writeable:
            matrix = matrix.view()
            matrix.setflags(write=False)
        if offsets.flags.writeable:
            offsets = offsets.view()
            offsets.setflags(write=False)
        db = cls.__new__(cls)
        db.trajectories = [
            Trajectory._wrap(matrix[s:e], traj_id=i)
            for i, (s, e) in enumerate(zip(offsets[:-1], offsets[1:]))
        ]
        db._bbox = None
        db._total_points = int(offsets[-1])
        db._point_matrix = matrix
        db._point_offsets = offsets
        return db

    # ------------------------------------------------------------------ basics
    def __len__(self) -> int:
        return len(self.trajectories)

    def __iter__(self) -> Iterator[Trajectory]:
        return iter(self.trajectories)

    def __getitem__(self, traj_id: int) -> Trajectory:
        return self.trajectories[traj_id]

    def __repr__(self) -> str:
        return f"TrajectoryDatabase(M={len(self)}, N={self.total_points})"

    @property
    def total_points(self) -> int:
        """``N``: the total number of points across all trajectories."""
        if self._total_points is None:
            self._total_points = sum(len(t) for t in self.trajectories)
        return self._total_points

    @property
    def bounding_box(self) -> BoundingBox:
        if self._bbox is None:
            box = self.trajectories[0].bounding_box
            for t in self.trajectories[1:]:
                box = box.union(t.bounding_box)
            self._bbox = box
        return self._bbox

    # --------------------------------------------------------------- utilities
    def budget_for_ratio(self, ratio: float) -> int:
        """The point budget ``W = ratio * N``, floored at two points per trajectory.

        Simplified trajectories always keep their endpoints, so any feasible
        budget is at least ``2 * M``.
        """
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"compression ratio must be in (0, 1], got {ratio}")
        return max(int(round(ratio * self.total_points)), 2 * len(self))

    def all_points(self) -> np.ndarray:
        """All points stacked into one ``(N, 3)`` array (database order).

        Alias of :meth:`point_matrix`; the returned array is cached and
        read-only — copy before mutating.
        """
        return self.point_matrix()

    def point_matrix(self) -> np.ndarray:
        """The cached, read-only ``(N, 3)`` point matrix (database order).

        Row ``i`` of trajectory ``tid`` lives at global row
        ``point_offsets()[tid] + i``; batch query execution
        (:class:`repro.queries.engine.QueryEngine`) runs containment tests
        directly over this matrix instead of walking trajectories.
        """
        if self._point_matrix is None:
            flat = np.concatenate([t.points for t in self.trajectories], axis=0)
            flat.setflags(write=False)
            self._point_matrix = flat
        return self._point_matrix

    def point_offsets(self) -> np.ndarray:
        """Cached ``(M + 1,)`` row offsets into :meth:`point_matrix`.

        Trajectory ``tid`` owns rows ``offsets[tid]:offsets[tid + 1]``.
        """
        if self._point_offsets is None:
            counts = np.fromiter(
                (len(t) for t in self.trajectories),
                dtype=np.int64,
                count=len(self.trajectories),
            )
            offsets = np.zeros(len(self.trajectories) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            offsets.setflags(write=False)
            self._point_offsets = offsets
        return self._point_offsets

    def point_ownership(self) -> np.ndarray:
        """``(N,)`` trajectory id per row of :meth:`all_points`."""
        offsets = self.point_offsets()
        return np.repeat(
            np.arange(len(self.trajectories), dtype=np.int64),
            np.diff(offsets),
        )

    def subset(self, traj_ids: Sequence[int]) -> "TrajectoryDatabase":
        """A new database over the given trajectory ids (re-numbered)."""
        return TrajectoryDatabase([self.trajectories[i] for i in traj_ids])

    def extended(self, new_trajectories: Iterable[Trajectory]) -> "TrajectoryDatabase":
        """A new database with ``new_trajectories`` appended.

        Existing trajectories keep their ids; appended ones continue the id
        sequence. This is the reference materialization of a streamed
        database state: the sharded service's ingestion path
        (:mod:`repro.service`) is property-tested to answer queries exactly
        as a fresh engine over ``db.extended(batches...)`` does.
        """
        return TrajectoryDatabase([*self.trajectories, *new_trajectories])

    def sample(self, n: int, rng: np.random.Generator) -> "TrajectoryDatabase":
        """A uniformly sampled sub-database of ``n`` trajectories."""
        n = min(n, len(self))
        ids = rng.choice(len(self), size=n, replace=False)
        return self.subset(sorted(int(i) for i in ids))

    def map_simplify(self, simplify_fn) -> "TrajectoryDatabase":
        """Apply ``simplify_fn(traj) -> kept_indices`` to every trajectory."""
        return TrajectoryDatabase(
            [t.subsample(simplify_fn(t)) for t in self.trajectories]
        )
