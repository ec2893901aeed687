"""Columnar batch execution for the whole query suite.

Training evaluates hundreds of range queries after every ``delta``
insertions (the reward of Eq. 3 over the workload), and the evaluation
harness re-runs the same workload — plus kNN, similarity, and aggregate
queries — on every simplified database it scores. The per-query paths
(:func:`repro.queries.range_query.range_query` and friends) walk the
database trajectory by trajectory in Python — correct, but the wrong shape
for a hot path.

:class:`QueryEngine` treats the *workload* as the unit of execution. The
database is flattened once into the cached ``(N, 3)`` point matrix and
per-trajectory offset array (:meth:`TrajectoryDatabase.point_matrix` /
:meth:`~TrajectoryDatabase.point_offsets`), then sorted by uniform grid
cell into a CSR layout (cell -> contiguous point rows). On top of that
layout the engine offers four batched execution paths:

* **Range workloads** (:meth:`QueryEngine.evaluate` /
  :meth:`~QueryEngine.evaluate_state`) — a whole workload is answered in a
  fixed number of vectorized passes: query-box cell ranges, a
  (queries x cells) overlap matrix, one gather of all candidate rows, one
  broadcasted containment test, and one ``np.unique`` over
  (query, trajectory) hit pairs.
* **Aggregates** (:meth:`~QueryEngine.count` /
  :meth:`~QueryEngine.histogram`) — per-box point counts from the same CSR
  sweep, and the spatial density heatmap binned from one contiguous slab
  of the sorted columns: points are sorted by ``(cx * ny + cy) * nt + ct``,
  so the spatial cell columns from the viewport's lower corner through its
  upper one own one row range, a superset of the viewport's points that
  the exact containment test then trims. :mod:`repro.queries.aggregate`
  routes through these.
* **kNN candidate generation** (:meth:`~QueryEngine.knn_candidates`) — for
  each kNN time window, the ids of trajectories with enough points inside
  the window to be comparable at all. Only these require the expensive
  EDR / t2vec distance computations (:func:`repro.queries.knn.knn_query_batch`);
  everything else is provably incomparable (infinite distance) and is
  excluded up front. The filter is exact — kNN comparability depends only
  on the temporal axis, so pruning whole time-slab cell ranges loses
  nothing.
* **Similarity workloads** (:meth:`~QueryEngine.similarity`) — batched
  synchronized-distance threshold queries: every candidate trajectory is
  interpolated once over the union of all queries' checkpoint instants (the
  per-query reference interpolates once per (query, candidate) pair), then
  the continuous predicate is evaluated as one broadcasted comparison per
  query. :func:`repro.queries.similarity.similarity_query_batch` and the
  evaluation harness route through this.
* **Incremental updates** (:meth:`~QueryEngine.incremental_view`) — a live
  per-query result-set view maintained under single-point insertions
  (``notify_insert``), with episode resets served from the engine's memo.
  The training evaluator (:class:`repro.core.reward.IncrementalRangeEvaluator`)
  is a thin wrapper over this view, so training and evaluation share one
  memoized result store.

Whole-workload results of every path are memoized in one LRU, keyed on the
query parameters and (for simplified-state evaluation) the kept-row
fingerprint, so re-scoring the same database state against the same
workload is a dictionary lookup.

Candidate pruning has exactly one path: the CSR cell sweep. Its cell
geometry comes from :func:`~repro.index.grid.grid_geometry` over the
database extent at the engine's ``resolution``. Candidates are always
verified point by point, so the resolution changes pruning cost only,
never answers. A point with a non-finite coordinate lies in no box: it
is parked in a border cell and every containment test rejects it.

The per-query functions remain the reference implementations the engine is
property-tested against (``tests/test_query_engine.py``).
"""

from __future__ import annotations

import hashlib
import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Iterable
from weakref import WeakKeyDictionary, ref

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.index.grid import grid_geometry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (workloads -> queries)
    from repro.data.simplification import SimplificationState
    from repro.workloads.generators import RangeQueryWorkload

#: Process-wide engine reuse: one engine per live database object, so
#: repeated scoring of the same (simplified) database shares the columnar
#: layout and the result memo.
_ENGINES: "WeakKeyDictionary[TrajectoryDatabase, QueryEngine]" = WeakKeyDictionary()

#: Candidate rows expanded per pass: bounds the working-set memory for
#: worst-case (whole-extent) boxes without throttling typical selective
#: workloads, which fit in a single pass.
_ROW_BUDGET = 1 << 19


def array_digest(arr: np.ndarray) -> bytes:
    """16-byte blake2b digest of an array's raw bytes.

    The shared cache-key idiom: the engine memo keys simplified-state rows
    and similarity query points with it, and the service request layer
    (:mod:`repro.service.requests`) keys query trajectories the same way,
    so the two cache layers can never silently disagree on what identifies
    a query.
    """
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _workload_bounds(queries: Iterable) -> tuple[np.ndarray, np.ndarray]:
    """Stacked ``(Q, 3)`` lower/upper bound matrices of the query boxes."""
    boxes = [q.box if hasattr(q, "box") else q for q in queries]
    if not boxes:
        return np.empty((0, 3)), np.empty((0, 3))
    lo = np.array([[b.xmin, b.ymin, b.tmin] for b in boxes], dtype=float)
    hi = np.array([[b.xmax, b.ymax, b.tmax] for b in boxes], dtype=float)
    return lo, hi


def _axis_cell(value: float, origin: float, size: float, n: int) -> int:
    """:meth:`QueryEngine._cells_of`'s floor-then-clip cell of one coordinate.

    Python-scalar arithmetic, with the same NaN / infinity mapping: NaN and
    -inf land in cell 0, +inf in cell ``n - 1``.
    """
    rel = (value - origin) / size
    if rel >= n - 1:
        return n - 1
    return int(rel) if rel >= 1 else 0


def _spatial_raster(
    x: np.ndarray, y: np.ndarray, grid: int, box: BoundingBox
) -> np.ndarray:
    """Bin spatial points into a ``(grid, grid)`` float count raster.

    The one binning kernel of the density heatmap, shared by
    :meth:`QueryEngine.histogram` and
    :func:`repro.queries.aggregate.spatial_bin_counts`: points outside the
    box's closed spatial extent are ignored, bins truncate toward zero, and
    the closing edge folds into the last cell. ``x`` and ``y`` are never
    written: the arithmetic runs in place on their compressed copies.
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    xmin, xmax, ymin, ymax = box.xmin, box.xmax, box.ymin, box.ymax
    sx, sy = xmax - xmin, ymax - ymin
    if math.isinf(sx) or math.isinf(sy) or math.isinf(xmin) or math.isinf(ymin):
        raise ValueError(f"cannot rasterize over {box}: its spatial span is not finite")
    inside = x >= xmin
    inside &= x <= xmax
    inside &= y >= ymin
    inside &= y <= ymax
    x = x[inside]
    y = y[inside]
    x -= xmin
    x /= max(sx, 1e-12)
    x *= grid
    y -= ymin
    y /= max(sy, 1e-12)
    y *= grid
    cells = x.astype(np.int64)
    np.minimum(cells, grid - 1, out=cells)
    cells *= grid
    iy = y.astype(np.int64)
    np.minimum(iy, grid - 1, out=iy)
    cells += iy
    return np.bincount(cells, minlength=grid * grid).astype(float).reshape(grid, grid)


class QueryEngine:
    """Vectorized, memoizing range-query workload evaluator for one database.

    Parameters
    ----------
    db:
        The database all evaluations run against.
    resolution:
        Cells per axis of the CSR grid (pruning cost only, never answers).
    max_cached_results:
        Number of whole-workload result lists kept in the LRU memo.
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        resolution: tuple[int, int, int] = (32, 32, 16),
        max_cached_results: int = 16,
    ) -> None:
        # Only a weak reference to the database: the engine snapshots all
        # data it needs, and a strong reference would pin every database in
        # the process-wide _ENGINES WeakKeyDictionary forever (a value that
        # strongly references its key never expires).
        self._db_ref = ref(db)
        self._n_traj = len(db)
        self._offsets = db.point_offsets()
        self._extent = db.bounding_box
        self.resolution = tuple(resolution)
        if min(self.resolution) < 1 or max(self.resolution) >= 2**15:
            # Cell coordinates are stored as int16; larger axes would wrap
            # silently and drop results. Rejected before grid_geometry
            # divides by the resolution.
            raise ValueError(
                f"resolution axes must be in [1, {2**15 - 1}], "
                f"got {self.resolution}"
            )
        self._origin, self._cell_size = grid_geometry(self._extent, self.resolution)
        points = db.point_matrix()
        # CSR layout: points sorted by composite cell id; each occupied cell
        # owns a contiguous row range of the sorted columns. Coordinates are
        # stored column-contiguous so the hot path runs on 1-D takes and
        # comparisons instead of (rows, 3) fancy indexing.
        nx, ny, nt = self.resolution
        cells = self._cells_of(points).astype(np.int64)
        cell_ids = (cells[:, 0] * ny + cells[:, 1]) * nt + cells[:, 2]
        self._order = np.argsort(cell_ids, kind="stable")
        sorted_ids = cell_ids[self._order]
        unique_ids, starts = np.unique(sorted_ids, return_index=True)
        self._cell_starts = starts.astype(np.int32)
        self._cell_counts = np.diff(np.append(starts, len(points))).astype(np.int32)
        # First sorted row of every spatial column (cx, cy), all time cells
        # included: the columns from (x0, y0) through (x1, y1) are one
        # contiguous row slab, which is what histograms read.
        self._column_starts = np.searchsorted(
            sorted_ids, np.arange(nx * ny + 1, dtype=np.int64) * nt
        )
        # Per-axis coordinates of each occupied cell, for the overlap test
        # (int16: resolutions are far below 2**15 cells per axis).
        self._cell_x = (unique_ids // (ny * nt)).astype(np.int16)
        self._cell_y = ((unique_ids // nt) % ny).astype(np.int16)
        self._cell_t = (unique_ids % nt).astype(np.int16)
        sorted_points = points[self._order]
        self._px = np.ascontiguousarray(sorted_points[:, 0])
        self._py = np.ascontiguousarray(sorted_points[:, 1])
        self._pt = np.ascontiguousarray(sorted_points[:, 2])
        self._owners = db.point_ownership()[self._order].astype(np.int32)
        # Original-order coordinate columns, rebuilt lazily for execution
        # paths that need per-trajectory sequences (similarity interpolation).
        self._orig_cols: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._max_cached = max_cached_results
        # One LRU for every execution path; values are immutable canonical
        # payloads (tuples of frozensets for result sets, read-only arrays
        # for counts / histograms / candidate lists).
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def db(self) -> TrajectoryDatabase | None:
        """The engine's database, or None once it has been garbage-collected."""
        return self._db_ref()

    @classmethod
    def for_database(cls, db: TrajectoryDatabase, **kwargs) -> "QueryEngine":
        """The shared engine of ``db`` (created on first use, then reused).

        Keyed weakly on the database object: engines die with their database,
        and every consumer scoring the same database state hits the same
        memo. ``kwargs`` configure the engine only on first creation; later
        calls return the existing engine unchanged — construct
        :class:`QueryEngine` directly for a private configuration.
        """
        engine = _ENGINES.get(db)
        if engine is None:
            engine = cls(db, **kwargs)
            _ENGINES[db] = engine
        return engine

    def execute(self, kind: str, **params):
        """Answer one service query ``kind`` with its batched method.

        ``range`` and ``count`` take ``boxes``; ``histogram`` and
        ``similarity`` take the keyword arguments of their methods.
        """
        if kind == "range":
            return self.evaluate(params["boxes"])
        method = {
            "count": self.count,
            "histogram": self.histogram,
            "similarity": self.similarity,
        }.get(kind)
        if method is None:
            raise KeyError(f"unknown query kind {kind!r}")
        return method(**params)

    # ---------------------------------------------------------------- execution
    def evaluate(self, workload: "RangeQueryWorkload | Iterable") -> list[set[int]]:
        """Result sets of every query of ``workload`` on the database.

        Identical to ``[range_query(db, q) for q in workload]`` but executed
        as batched vectorized passes, and memoized on the query boxes.
        """
        lo, hi = _workload_bounds(workload)
        key = ("full", lo.tobytes(), hi.tobytes())
        cached = self._cache_get(key)
        if cached is not None:
            return [set(s) for s in cached]
        results = self._evaluate_bounds(lo, hi)
        self._cache_put(key, tuple(frozenset(s) for s in results))
        return results

    def evaluate_state(
        self, workload: "RangeQueryWorkload | Iterable", state: "SimplificationState"
    ) -> list[set[int]]:
        """Evaluate ``workload`` on the simplified view described by ``state``.

        Equivalent to materializing the state and running every query on the
        resulting database, without building any trajectory objects. Memoized
        on (workload, kept rows), so re-evaluating an unchanged state — e.g.
        the endpoints-only reset at the start of every training episode — is
        a cache hit.
        """
        if state.database is not self._db_ref():
            raise ValueError("state does not belong to this engine's database")
        rows = self.state_rows(state)
        lo, hi = _workload_bounds(workload)
        # Rows can be as large as the database; key on a fixed-size digest
        # instead of the raw bytes so the LRU holds no point-scale payloads.
        key = ("state", lo.tobytes(), hi.tobytes(), array_digest(rows))
        cached = self._cache_get(key)
        if cached is not None:
            return [set(s) for s in cached]
        kept = np.zeros(len(self._px), dtype=bool)
        kept[rows] = True
        results = self._evaluate_bounds(lo, hi, kept_sorted=kept[self._order])
        self._cache_put(key, tuple(frozenset(s) for s in results))
        return results

    # --------------------------------------------------------------- aggregates
    def count(self, boxes: Iterable) -> np.ndarray:
        """Point counts inside each box, as an ``(Q,)`` int64 array.

        Identical to ``[count_query_scan(db, b) for b in boxes]``
        (:mod:`repro.queries.aggregate`) but computed in one batched CSR
        sweep over all boxes, and memoized on the box bounds.
        """
        lo, hi = _workload_bounds(boxes)
        key = ("count", lo.tobytes(), hi.tobytes())
        cached = self._cache_get(key)
        if cached is not None:
            return cached.copy()
        counts = np.zeros(len(lo), dtype=np.int64)
        for rows, row_query, inside in self._candidate_passes(lo, hi):
            # Each point lives in exactly one cell, so (query, row) pairs are
            # unique and a bincount over query ids is an exact tally.
            counts += np.bincount(
                row_query[inside], minlength=len(lo)
            ).astype(np.int64)
        counts.setflags(write=False)
        self._cache_put(key, counts)
        return counts.copy()

    def histogram(
        self,
        grid: int = 32,
        box: BoundingBox | None = None,
        normalize: bool = False,
    ) -> np.ndarray:
        """Spatial point-density histogram of shape ``(grid, grid)``.

        Identical to :func:`repro.queries.aggregate.density_histogram_scan`
        over the engine's database, but it reads only the viewport's slab
        of the sorted columns: the rows of the spatial cell columns from the
        box's lower corner cell through its upper one. Cell bounds are
        monotone in the coordinate, so the slab holds every point inside
        the box; the exact containment test of the binning kernel drops the
        rest, and points with a non-finite coordinate stay parked in border
        cells where that test rejects them. ``box`` restricts (spatially)
        which points are rasterized and defaults to the database's bounding
        box; its temporal extent is ignored, matching the reference. A box
        with an infinite spatial bound or span raises ``ValueError``.
        """
        box = box or self._extent
        key = (
            "hist", grid, box.xmin, box.xmax, box.ymin, box.ymax, normalize,
        )
        cached = self._cache_get(key)
        if cached is not None:
            return cached.copy()
        nx, ny, _ = self.resolution
        ox, oy = float(self._origin[0]), float(self._origin[1])
        cx, cy = float(self._cell_size[0]), float(self._cell_size[1])
        first = _axis_cell(box.xmin, ox, cx, nx) * ny + _axis_cell(box.ymin, oy, cy, ny)
        last = _axis_cell(box.xmax, ox, cx, nx) * ny + _axis_cell(box.ymax, oy, cy, ny)
        slab = slice(self._column_starts[first], self._column_starts[last + 1])
        hist = _spatial_raster(self._px[slab], self._py[slab], grid, box)
        if normalize:
            total = hist.sum()
            if total > 0:
                hist /= total
        hist.setflags(write=False)
        self._cache_put(key, hist)
        return hist.copy()

    # ----------------------------------------------------------- kNN candidates
    def knn_candidates(
        self,
        windows: Iterable[tuple[float, float]],
        min_points: int = 2,
    ) -> list[np.ndarray]:
        """Per-window ids of trajectories comparable under a kNN query.

        For each time window ``(ts, te)`` returns the sorted ids of
        trajectories with at least ``min_points`` points whose timestamp
        falls inside ``[ts, te]`` — exactly the trajectories whose window
        restriction :func:`repro.queries.knn.knn_query` can rank; every
        other trajectory's distance is infinite by construction. The filter
        is computed by pruning the CSR layout to the cell ranges overlapping
        each window's time slab (cells straddling the slab boundary are
        included and resolved by the exact per-point test), then counting
        surviving points per owner.

        Exactness: kNN comparability depends only on the temporal axis, so
        this is a true filter, not a heuristic — spatially distant
        trajectories still receive finite (large) EDR / t2vec distances in
        the reference and may legitimately enter a result when little else
        overlaps the window.
        """
        win = np.asarray(list(windows), dtype=float).reshape(-1, 2)
        key = ("knn_candidates", win.tobytes(), min_points)
        cached = self._cache_get(key)
        if cached is not None:
            return [c.copy() for c in cached]
        n_traj = self._n_traj
        extent = self._extent
        # Reuse the sweep with the spatial axes opened to the extent and only
        # the temporal axis verified: a point whose x or y is not finite
        # still counts toward its trajectory's window, as in the reference.
        lo = np.column_stack(
            [
                np.full(len(win), extent.xmin),
                np.full(len(win), extent.ymin),
                win[:, 0],
            ]
        )
        hi = np.column_stack(
            [
                np.full(len(win), extent.xmax),
                np.full(len(win), extent.ymax),
                win[:, 1],
            ]
        )
        # (windows x trajectories) survivor counts; kNN workloads are small
        # (tens of windows), so the dense tally stays tiny next to the
        # point columns.
        counts = np.zeros(len(win) * n_traj, dtype=np.int64)
        for rows, row_query, inside in self._candidate_passes(lo, hi, axes=(2,)):
            idx = row_query[inside].astype(np.int64) * n_traj + self._owners.take(
                rows[inside]
            )
            counts += np.bincount(idx, minlength=len(counts))
        per_window = counts.reshape(len(win), n_traj)
        results = [np.flatnonzero(row >= min_points) for row in per_window]
        for arr in results:
            arr.setflags(write=False)
        self._cache_put(key, tuple(results))
        return [c.copy() for c in results]

    # ---------------------------------------------------------------- similarity
    def similarity(
        self,
        queries: Iterable,
        delta: float,
        time_windows: "Iterable[tuple[float, float] | None] | None" = None,
        n_checkpoints: int = 32,
    ) -> list[set[int]]:
        """Result sets of synchronized-distance queries on the database.

        Identical to ``[similarity_query(db, q, delta, w) for q, w in
        zip(queries, time_windows)]`` (the property-tested reference in
        :mod:`repro.queries.similarity`) but batched: each candidate
        trajectory's positions are interpolated ONCE over the union of all
        queries' checkpoint instants, then every (query, candidate)
        predicate is one broadcasted comparison over the precomputed
        position matrix. Query trajectories are external objects (they need
        not live in the database); results are memoized on the query
        point sets, windows, ``delta``, and ``n_checkpoints``.
        """
        from repro.queries.similarity import query_checkpoints, resolve_time_windows

        if delta < 0:
            raise ValueError("delta must be non-negative")
        queries = list(queries)
        windows = resolve_time_windows(queries, time_windows)
        if any(te < ts for ts, te in windows):
            raise ValueError("empty time window")
        if not queries:
            return []
        key = (
            "similarity",
            float(delta),
            int(n_checkpoints),
            tuple(
                (array_digest(q.points), w) for q, w in zip(queries, windows)
            ),
        )
        cached = self._cache_get(key)
        if cached is not None:
            return [set(s) for s in cached]

        ox, oy, ot = self._original_columns()
        offsets = self._offsets
        # Per-trajectory lifespans straight off the original-order column.
        t_starts = ot[offsets[:-1]]
        t_ends = ot[offsets[1:] - 1]

        # Per-query checkpoints / query positions / query lifespan masks,
        # computed exactly as the reference does.
        cp_list: list[np.ndarray] = []
        qpos_list: list[np.ndarray | None] = []
        alive_list: list[np.ndarray | None] = []
        cand_masks: list[np.ndarray | None] = []
        for q, (ts, te) in zip(queries, windows):
            cps = query_checkpoints(q, ts, te, n_checkpoints)
            cp_list.append(cps)
            if len(cps) == 0:
                qpos_list.append(None)
                alive_list.append(None)
                cand_masks.append(None)
                continue
            qpos_list.append(q.positions_at(cps))
            alive_list.append((cps >= q.times[0]) & (cps <= q.times[-1]))
            # Lifespan-overlap candidate filter, matching the reference scan.
            cand_masks.append((t_ends >= ts) & (t_starts <= te))

        results: list[set[int]] = [set() for _ in queries]
        union_mask = np.zeros(self._n_traj, dtype=bool)
        for mask in cand_masks:
            if mask is not None:
                union_mask |= mask
        cand_ids = np.flatnonzero(union_mask)
        if len(cand_ids) == 0:
            self._cache_put(key, tuple(frozenset(s) for s in results))
            return results

        # ONE interpolation pass per candidate over the union grid of all
        # checkpoint instants (np.interp is pointwise, so values at each
        # instant equal the reference's per-query interpolation). The
        # candidate axis is chunked so the (chunk, grid, 2) position buffer
        # stays bounded however many candidates and checkpoints the batch
        # accumulates.
        grid = np.unique(np.concatenate([c for c in cp_list if len(c)]))
        grid_idx = [
            np.searchsorted(grid, cps) if len(cps) else None  # exact: grid ⊇ cps
            for cps in cp_list
        ]
        chunk = max(1, _ROW_BUDGET // max(len(grid), 1))
        for start in range(0, len(cand_ids), chunk):
            ids_chunk = cand_ids[start : start + chunk]
            pos = np.empty((len(ids_chunk), len(grid), 2))
            for row, tid in enumerate(ids_chunk):
                s, e = offsets[tid], offsets[tid + 1]
                pos[row, :, 0] = np.interp(grid, ot[s:e], ox[s:e])
                pos[row, :, 1] = np.interp(grid, ot[s:e], oy[s:e])
            for qi, (cps, qpos, alive, cmask) in enumerate(
                zip(cp_list, qpos_list, alive_list, cand_masks)
            ):
                if cmask is None:
                    continue
                in_chunk = np.flatnonzero(cmask[ids_chunk])
                if len(in_chunk) == 0:
                    continue
                ids = ids_chunk[in_chunk]
                # (candidates, checkpoints) comparability and gap tests in
                # one broadcasted pass; a candidate matches when it shares
                # at least one comparable instant and never exceeds delta
                # at any of them.
                comparable = (
                    alive[None, :]
                    & (cps[None, :] >= t_starts[ids][:, None])
                    & (cps[None, :] <= t_ends[ids][:, None])
                )
                gaps = np.linalg.norm(
                    pos[np.ix_(in_chunk, grid_idx[qi])] - qpos[None, :, :],
                    axis=2,
                )
                ok = (gaps <= delta) | ~comparable
                match = comparable.any(axis=1) & ok.all(axis=1)
                results[qi].update(int(t) for t in ids[match])
        self._cache_put(key, tuple(frozenset(s) for s in results))
        return results

    def _original_columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate columns in original database row order (cached)."""
        if self._orig_cols is None:
            n = len(self._px)
            ox = np.empty(n)
            oy = np.empty(n)
            ot = np.empty(n)
            ox[self._order] = self._px
            oy[self._order] = self._py
            ot[self._order] = self._pt
            self._orig_cols = (ox, oy, ot)
        return self._orig_cols

    # -------------------------------------------------------- point memberships
    def point_memberships(self, boxes: Iterable) -> tuple[np.ndarray, np.ndarray]:
        """All (point row, box index) containment pairs of the database.

        Returns two aligned arrays ``(rows, box_idx)``: ``rows`` are global
        rows of :meth:`TrajectoryDatabase.point_matrix` (original database
        order) and ``box_idx`` the indices of the boxes containing that
        point, sorted by row then box. One batched CSR sweep replaces the
        per-consumer chunked point-vs-box loops (the greedy QDTS baseline's
        coverage setup runs through this).
        """
        lo, hi = _workload_bounds(boxes)
        parts_r: list[np.ndarray] = []
        parts_q: list[np.ndarray] = []
        for rows, row_query, inside in self._candidate_passes(lo, hi):
            parts_r.append(self._order[rows[inside]])
            parts_q.append(row_query[inside].astype(np.int64))
        if not parts_r:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        flat_rows = np.concatenate(parts_r)
        flat_boxes = np.concatenate(parts_q)
        order = np.lexsort((flat_boxes, flat_rows))
        return flat_rows[order], flat_boxes[order]

    # --------------------------------------------------------- incremental view
    def incremental_view(
        self, workload: "RangeQueryWorkload | Iterable"
    ) -> "IncrementalWorkloadView":
        """A live result-set view of ``workload`` under point insertions.

        The view's :meth:`~IncrementalWorkloadView.reset` is served through
        the engine's memo (so repeated episode resets over the same state
        are cache hits) and :meth:`~IncrementalWorkloadView.notify_insert`
        maintains the per-query result sets in ``O(#queries)`` per inserted
        point. This is the shared store behind
        :class:`repro.core.reward.IncrementalRangeEvaluator`.
        """
        return IncrementalWorkloadView(self, workload)

    def state_rows(self, state: "SimplificationState") -> np.ndarray:
        """Global point-matrix rows kept by ``state`` (sorted, int64)."""
        offsets = self._offsets
        return np.concatenate(
            [
                offsets[tid] + np.asarray(kept, dtype=np.int64)
                for tid, kept in enumerate(state.kept)
            ]
        )

    def _cells_of(self, coords: np.ndarray) -> np.ndarray:
        """Per-axis cell coordinates of ``(n, 3)`` rows, clipped in range.

        Clipped as floats before any integer cast: ``fmax``/``fmin`` map a
        NaN to the border cell and an infinity to the last one, so
        non-finite input never reaches the cast.
        """
        rel = np.floor((coords - self._origin) / self._cell_size)
        return np.fmin(np.fmax(rel, 0), np.array(self.resolution) - 1)

    def _candidate_passes(
        self, lo: np.ndarray, hi: np.ndarray, axes: tuple[int, ...] = (0, 1, 2)
    ):
        """Chunked CSR candidate sweep shared by all batched execution paths.

        Yields ``(rows, row_query, inside)`` per pass: ``rows`` index the
        sorted point columns, ``row_query`` is the query index owning each
        row, and ``inside`` the exact containment mask over ``axes``. One (queries x
        occupied-cells) overlap matrix names every candidate cell; each
        point lives in exactly one cell, so a (query, row) pair is yielded
        at most once across all passes.
        """
        if len(lo) == 0:
            return
        # Boxes disjoint from the extent have empty results; excluding them
        # up front also keeps the clipped cell ranges below from snapping
        # out-of-extent boxes onto border cells.
        extent = self._extent
        extent_lo = np.array([extent.xmin, extent.ymin, extent.tmin])
        extent_hi = np.array([extent.xmax, extent.ymax, extent.tmax])
        alive = ~((hi < extent_lo).any(axis=1) | (lo > extent_hi).any(axis=1))
        lo_cells = self._cells_of(lo).astype(np.int16)
        hi_cells = self._cells_of(hi).astype(np.int16)
        overlap = (
            (self._cell_x >= lo_cells[:, 0:1])
            & (self._cell_x <= hi_cells[:, 0:1])
            & (self._cell_y >= lo_cells[:, 1:2])
            & (self._cell_y <= hi_cells[:, 1:2])
            & (self._cell_t >= lo_cells[:, 2:3])
            & (self._cell_t <= hi_cells[:, 2:3])
        )
        overlap[~alive] = False
        flat = np.flatnonzero(overlap)
        if len(flat) == 0:
            return
        q_idx = (flat // overlap.shape[1]).astype(np.int32)
        c_idx = flat % overlap.shape[1]
        yield from self._expand_pairs(
            q_idx, self._cell_starts[c_idx], self._cell_counts[c_idx], lo, hi, axes
        )

    def _expand_pairs(
        self,
        q_idx: np.ndarray,
        starts: np.ndarray,
        lengths: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        axes: tuple[int, ...],
    ):
        """Expand (query, cell) pairs into verified row passes.

        ``starts[i]``/``lengths[i]`` describe the contiguous row run of a
        candidate cell for query ``q_idx[i]``. Runs are expanded
        "multi-arange" style in passes of at most ~``_ROW_BUDGET`` rows,
        each with the exact containment test.
        """
        pair_ends = np.cumsum(lengths, dtype=np.int64)
        # Column-contiguous per-axis bounds for the 1-D takes below.
        columns = (self._px, self._py, self._pt)
        tests = [
            (
                columns[a],
                np.ascontiguousarray(lo[:, a]),
                np.ascontiguousarray(hi[:, a]),
            )
            for a in axes
        ]
        pair_start = 0
        while pair_start < len(q_idx):
            done = pair_ends[pair_start - 1] if pair_start else 0
            pair_stop = int(
                np.searchsorted(pair_ends, done + _ROW_BUDGET, side="left") + 1
            )
            pairs = slice(pair_start, min(pair_stop, len(q_idx)))
            sub_lengths = lengths[pairs]
            sub_ends = np.cumsum(sub_lengths, dtype=np.int64)
            total = int(sub_ends[-1])
            # rows = for each pair, start + 0..length-1, flattened: one
            # repeat of the rebased starts plus a single arange.
            base = starts[pairs].astype(np.int64) - (sub_ends - sub_lengths)
            rows = np.repeat(base, sub_lengths) + np.arange(total, dtype=np.int64)
            row_query = np.repeat(q_idx[pairs], sub_lengths)
            inside: np.ndarray | None = None
            for axis, alo, ahi in tests:
                coord = axis.take(rows)
                test = (coord >= alo.take(row_query)) & (coord <= ahi.take(row_query))
                inside = test if inside is None else inside & test
            yield rows, row_query, inside
            pair_start = pairs.stop

    def _evaluate_bounds(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        kept_sorted: np.ndarray | None = None,
    ) -> list[set[int]]:
        n_queries = len(lo)
        results: list[set[int]] = [set() for _ in range(n_queries)]
        n_traj = self._n_traj
        hit_pairs: list[np.ndarray] = []
        for rows, row_query, inside in self._candidate_passes(lo, hi):
            if kept_sorted is not None:
                inside = inside & kept_sorted[rows]
            hits = row_query[inside].astype(np.int64) * n_traj + self._owners.take(
                rows[inside]
            )
            if len(hits):
                # Owners are contiguous inside each (query, cell) segment, so
                # adjacent dedup removes most duplicates before the sort-based
                # unique below.
                keep = np.empty(len(hits), dtype=bool)
                keep[0] = True
                np.not_equal(hits[1:], hits[:-1], out=keep[1:])
                hit_pairs.append(hits[keep])
        if not hit_pairs:
            return results
        # Unique (query, trajectory) pairs -> result sets.
        unique = np.unique(np.concatenate(hit_pairs))
        hit_queries = unique // n_traj
        hit_owners = unique % n_traj
        bounds = np.searchsorted(hit_queries, np.arange(n_queries + 1))
        for qi in range(n_queries):
            s, e = bounds[qi], bounds[qi + 1]
            if e > s:
                results[qi] = set(hit_owners[s:e].tolist())
        return results

    # -------------------------------------------------------------------- memo
    def _cache_get(self, key: tuple):
        """The canonical cached payload of ``key``, or None (counts a miss).

        Payloads are immutable canonical forms (tuples of frozensets,
        read-only arrays); callers materialize fresh copies so corrupting a
        returned result cannot poison the memo.
        """
        cached = self._cache.get(key)
        if cached is None:
            self.cache_misses += 1
            return None
        self._cache.move_to_end(key)
        self.cache_hits += 1
        return cached

    def _cache_put(self, key: tuple, payload) -> None:
        self._cache[key] = payload
        while len(self._cache) > self._max_cached:
            self._cache.popitem(last=False)

    def clear_cache(self) -> None:
        """Drop all memoized results (hit/miss counters are kept)."""
        self._cache.clear()


class IncrementalWorkloadView:
    """Live per-query result sets of one workload under point insertions.

    Range results only ever *grow* under insertion (a trajectory matches a
    query once any kept point falls in its box), so the view maintains each
    query's result set exactly in ``O(#queries)`` per inserted point. Full
    recomputation (:meth:`reset`) runs through the owning engine's batched,
    memoized state evaluation — the training evaluator and any other
    consumer of the same engine therefore share one result store.

    Obtain views via :meth:`QueryEngine.incremental_view`.
    """

    __slots__ = ("engine", "workload", "_lo", "_hi", "_results")

    def __init__(
        self, engine: QueryEngine, workload: "RangeQueryWorkload | Iterable"
    ) -> None:
        self.engine = engine
        # The workload is iterated once per reset as well as here; a one-shot
        # iterable would yield zero queries on every later pass, so
        # materialize it unless it is re-iterable already.
        queries = list(workload)
        self.workload = workload if hasattr(workload, "__len__") else queries
        self._lo, self._hi = _workload_bounds(queries)
        self._results: list[set[int]] = [set() for _ in range(len(self._lo))]

    def __len__(self) -> int:
        return len(self._results)

    def reset(self, state: "SimplificationState") -> None:
        """Recompute all result sets for ``state`` (memoized in the engine)."""
        self._results = self.engine.evaluate_state(self.workload, state)

    def notify_insert(self, traj_id: int, point: np.ndarray) -> None:
        """Record that ``point`` of ``traj_id`` entered the simplified view."""
        point = np.asarray(point, dtype=float)
        hits = np.flatnonzero(
            (point >= self._lo).all(axis=1) & (point <= self._hi).all(axis=1)
        )
        for qi in hits:
            self._results[qi].add(traj_id)

    @property
    def result_sets(self) -> list[set[int]]:
        """The live result sets (no copy — mutate only via notify_insert)."""
        return self._results

    @property
    def results(self) -> list[set[int]]:
        """Defensive copies of the current result sets."""
        return [set(s) for s in self._results]
