"""Aggregate (heatmap / count) queries over trajectory databases.

The paper's Remarks (Section III-B) note the simplified database should
support "range query, kNN query, similarity query, clustering, and possibly
others". Density aggregates are the most common "other" in trajectory
analytics — every fleet dashboard renders a heatmap — and they stress
simplification differently from the four paper queries: dropping points in
a cell *directly* lowers its count even when the trajectory set returned by
range queries is unchanged.

Two aggregate flavours are provided:

* :func:`count_query` — point count inside a spatio-temporal box;
* :func:`density_histogram` — the spatial heatmap: per-cell point counts
  over a uniform grid.

Quality of a simplified database's aggregates is measured against the
original with :func:`histogram_similarity` (the histogram intersection, the
standard heatmap-overlap score in ``[0, 1]``).

Both aggregates execute through the database's shared batch engine
(:class:`repro.queries.engine.QueryEngine`): counts run as one CSR cell
sweep over all boxes, and a histogram reads only the viewport's slab of
the cell-sorted coordinate columns (the spatial cell columns from the
box's lower corner through its upper one) and bins it; repeated
aggregation of the same database is a memo hit. The engine, the reference
scan and the service's pending tier all bin through one kernel
(:func:`spatial_bin_counts` wraps it). The original per-trajectory loops
are kept as :func:`count_query_scan` / :func:`density_histogram_scan` —
the reference implementations the engine paths are property-tested
against.
"""

from __future__ import annotations

import numpy as np

from repro.data.bbox import BoundingBox
from repro.data.database import TrajectoryDatabase
from repro.queries.engine import QueryEngine, _spatial_raster


def count_query(
    db: TrajectoryDatabase, box: BoundingBox, engine: QueryEngine | None = None
) -> int:
    """Number of points of ``db`` inside the spatio-temporal ``box``.

    Executes through the shared batch engine (build many boxes and call
    :meth:`QueryEngine.count` directly to amortize over a workload);
    ``engine`` optionally supplies a private engine instead of the
    database's shared one.
    """
    engine = engine or QueryEngine.for_database(db)
    return int(engine.count([box])[0])


def count_query_scan(db: TrajectoryDatabase, box: BoundingBox) -> int:
    """Reference per-trajectory implementation of :func:`count_query`."""
    total = 0
    for traj in db:
        if not box.intersects(traj.bounding_box):
            continue
        total += int(box.contains_points(traj.points).sum())
    return total


def density_histogram(
    db: TrajectoryDatabase,
    grid: int = 32,
    box: BoundingBox | None = None,
    normalize: bool = False,
    engine: QueryEngine | None = None,
) -> np.ndarray:
    """Spatial point-density histogram of shape ``(grid, grid)``.

    Parameters
    ----------
    db:
        The database to rasterize.
    grid:
        Cells per spatial axis.
    box:
        Raster region; defaults to the database's bounding box. Points
        outside are ignored, which makes histograms of a simplified database
        comparable when rasterized over the *original* database's box. Only
        the spatial extent of the box is used.
    normalize:
        Scale the histogram to sum to 1 (a distribution rather than counts).
    engine:
        Optional private :class:`QueryEngine`; defaults to the database's
        shared engine (one binning pass, memoized per ``(grid, box)``).
    """
    engine = engine or QueryEngine.for_database(db)
    return engine.histogram(grid, box, normalize)


def spatial_bin_counts(xy: np.ndarray, grid: int, box: BoundingBox) -> np.ndarray:
    """Bin ``(n, 2)`` spatial points into a ``(grid, grid)`` count raster.

    The density heatmap's binning (truncation toward zero; the closing edge
    folds into the last cell; points outside the box's spatial extent are
    ignored), through the same kernel as :meth:`QueryEngine.histogram`.
    Used by the reference scan and the sharded service's pending-delta
    rasterization, so per-shard partial histograms sum to exactly the
    single-database raster. A box with an infinite spatial bound or span
    raises ``ValueError``.
    """
    xy = np.asarray(xy, dtype=float)
    return _spatial_raster(xy[:, 0], xy[:, 1], grid, box)


def density_histogram_scan(
    db: TrajectoryDatabase,
    grid: int = 32,
    box: BoundingBox | None = None,
    normalize: bool = False,
) -> np.ndarray:
    """Reference per-trajectory implementation of :func:`density_histogram`."""
    box = box or db.bounding_box
    hist = sum(spatial_bin_counts(traj.xy, grid, box) for traj in db)
    if normalize:
        total = hist.sum()
        if total > 0:
            hist /= total
    return hist


def histogram_similarity(truth: np.ndarray, predicted: np.ndarray) -> float:
    """Histogram intersection of two density rasters, in ``[0, 1]``.

    Both rasters are normalized to distributions first, so a uniformly
    down-sampled database (fewer points, same shape) scores high — it is the
    *shape* of the heatmap that analytics consumers care about. Two empty
    rasters agree perfectly.
    """
    truth = np.asarray(truth, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if truth.shape != predicted.shape:
        raise ValueError("histograms must have the same shape")
    t_sum, p_sum = truth.sum(), predicted.sum()
    if t_sum == 0 and p_sum == 0:
        return 1.0
    if t_sum == 0 or p_sum == 0:
        return 0.0
    return float(np.minimum(truth / t_sum, predicted / p_sum).sum())


def heatmap_f1(
    original: TrajectoryDatabase,
    simplified: TrajectoryDatabase,
    grid: int = 32,
) -> float:
    """Heatmap preservation score of a simplified database.

    Rasterizes both databases over the *original*'s bounding box and returns
    their histogram intersection.
    """
    box = original.bounding_box
    return histogram_similarity(
        density_histogram(original, grid, box),
        density_histogram(simplified, grid, box),
    )
