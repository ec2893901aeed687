"""A uniform spatio-temporal grid index.

Used to accelerate repeated range queries during reward evaluation (training
runs hundreds of queries every ``delta`` insertions) and as the tokenizer
substrate of the t2vec-style embedding (:mod:`repro.queries.t2vec`).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase


def grid_geometry(
    box: BoundingBox, resolution: tuple[int, int, int]
) -> tuple[np.ndarray, np.ndarray]:
    """``(origin, cell_size)`` of a uniform grid over ``box``.

    Shared by :class:`GridIndex` and the batch query engine
    (:mod:`repro.queries.engine`) so both assign points to identical cells.
    Zero-span axes get a unit span so the division is well defined.
    """
    origin = np.array([box.xmin, box.ymin, box.tmin])
    spans = np.array(box.spans)
    spans[spans <= 0] = 1.0
    return origin, spans / np.array(resolution, dtype=float)


#: Resolution used when a workload gives no usable extent signal (empty
#: workloads, and per axis when every box is zero-extent there).
FALLBACK_RESOLUTION = (32, 32, 16)


def adaptive_resolution(
    extent: BoundingBox,
    boxes,
    max_cells: int = 1 << 18,
    max_cells_per_axis: int = 1024,
    fallback: tuple[int, int, int] = FALLBACK_RESOLUTION,
) -> tuple[int, int, int]:
    """Grid resolution matched to a workload's box-extent distribution.

    Picks, per axis, a cell size close to the workload's *median* query-box
    extent, so a typical query overlaps a small constant number of cells:
    much finer and the (queries x cells) overlap matrices grow without
    pruning more points; much coarser and every query drags in whole-extent
    candidate sets. Per-axis counts are clamped to
    ``[1, max_cells_per_axis]`` and the total cell count to ``max_cells``
    (halving the largest axes first). Results of grid-backed queries are
    identical at ANY resolution — candidates are always verified against
    actual points — so this tunes pruning cost only, never answers.

    ``boxes`` may be a :class:`~repro.workloads.RangeQueryWorkload`, range
    queries, or bare :class:`BoundingBox` objects. Degenerate workloads
    carry no extent signal and use the explicit ``fallback`` resolution
    instead of an arbitrary blow-up: an empty workload falls back on every
    axis, and an axis whose *median* box extent is zero (all boxes
    degenerate there — e.g. a workload of pure point probes, or a single
    zero-extent query) falls back on that axis alone. Callers may
    therefore call this unconditionally, whatever the workload looks like.
    """
    if max_cells < 1 or max_cells_per_axis < 1:
        raise ValueError("max_cells and max_cells_per_axis must be >= 1")
    if any(f < 1 for f in fallback):
        raise ValueError("fallback resolution must be positive on every axis")
    fb = np.clip(np.asarray(fallback, dtype=np.int64), 1, max_cells_per_axis)
    bare = [q.box if hasattr(q, "box") else q for q in boxes]
    spans = np.array(extent.spans, dtype=float)
    spans[spans <= 0] = 1.0  # matches grid_geometry's zero-span handling
    if not bare:
        res = fb.copy()
    else:
        extents = np.array(
            [[b.xmax - b.xmin, b.ymax - b.ymin, b.tmax - b.tmin] for b in bare],
            dtype=float,
        )
        cell = np.median(extents, axis=0)
        usable = cell > 0
        res = fb.copy()
        res[usable] = np.clip(
            np.ceil(spans[usable] / cell[usable]), 1, max_cells_per_axis
        ).astype(np.int64)
    while res.prod() > max_cells:
        res[np.argmax(res)] = max(res.max() // 2, 1)
    return (int(res[0]), int(res[1]), int(res[2]))


class GridIndex:
    """Uniform grid over (x, y, t) mapping cells to trajectory ids.

    Parameters
    ----------
    database:
        The database to index.
    resolution:
        Number of cells per axis, ``(nx, ny, nt)``.
    """

    def __init__(
        self,
        database: TrajectoryDatabase,
        resolution: tuple[int, int, int] = (32, 32, 16),
    ) -> None:
        if any(r < 1 for r in resolution):
            raise ValueError("resolution must be positive along every axis")
        self.database = database
        self.resolution = resolution
        box = database.bounding_box
        self._extent = box
        self._origin, self._cell_size = grid_geometry(box, resolution)
        self._cells: dict[tuple[int, int, int], set[int]] = defaultdict(set)
        for traj in database:
            cells = self.cells_of(traj.points)
            for cell in map(tuple, np.unique(cells, axis=0)):
                self._cells[cell].add(traj.traj_id)
        # Flat occupied-cell arrays: candidate lookup scans these with one
        # vectorized comparison instead of enumerating the cell range.
        self._cell_keys = np.array(list(self._cells), dtype=int).reshape(-1, 3)
        self._cell_sets = list(self._cells.values())

    @classmethod
    def adaptive(cls, database: TrajectoryDatabase, workload, **kwargs) -> "GridIndex":
        """A grid whose cell size follows the workload's box extents.

        Candidate supersets (and therefore query answers) are unchanged by
        the resolution choice; see :func:`adaptive_resolution`.
        """
        return cls(
            database,
            adaptive_resolution(database.bounding_box, workload, **kwargs),
        )

    def cells_of(self, points: np.ndarray) -> np.ndarray:
        """``(n, 3)`` integer cell coordinates for each point (clipped in-range)."""
        rel = (np.asarray(points, dtype=float) - self._origin) / self._cell_size
        cells = np.floor(rel).astype(int)
        return np.clip(cells, 0, np.array(self.resolution) - 1)

    def cell_of(self, x: float, y: float, t: float) -> tuple[int, int, int]:
        cell = self.cells_of(np.array([[x, y, t]]))[0]
        return (int(cell[0]), int(cell[1]), int(cell[2]))

    def candidate_trajectories(self, box: BoundingBox) -> set[int]:
        """Ids of trajectories with a point in some cell overlapping ``box``.

        A superset of the exact range-query answer; callers verify candidates
        against actual points. A box disjoint from the indexed extent has no
        candidates — without the explicit intersection test the clipped cell
        coordinates would snap an out-of-extent box onto border cells and
        return spurious candidates.
        """
        if len(self._cell_keys) == 0 or not box.intersects(self._extent):
            return set()
        corners = self.cells_of(
            np.array(
                [
                    [box.xmin, box.ymin, box.tmin],
                    [box.xmax, box.ymax, box.tmax],
                ]
            )
        )
        hit = ((self._cell_keys >= corners[0]) & (self._cell_keys <= corners[1])).all(
            axis=1
        )
        result: set[int] = set()
        for i in np.flatnonzero(hit):
            result |= self._cell_sets[i]
        return result

    def occupied_cells(self) -> list[tuple[int, int, int]]:
        return list(self._cells)

    def __len__(self) -> int:
        return len(self._cells)
