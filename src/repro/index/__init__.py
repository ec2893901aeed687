"""Spatio-temporal indexes.

* :class:`Octree` — the midpoint-split cube tree RL4QDTS uses (Section IV);
* :class:`KDTree` — the median-split alternative the paper leaves as future
  work, interchangeable with the octree (``TREE_INDEXES``);
* :class:`GridIndex` — a uniform grid whose cell geometry
  (:func:`~repro.index.grid.grid_geometry`) the batch query engine's CSR
  sweep shares; :meth:`GridIndex.adaptive` sizes it to a workload;
* :class:`RTree` — an STR bulk-loaded R-tree over trajectory bounding boxes,
  an alternative range-query accelerator;
* :class:`TemporalIndex` — sorted-lifespan interval index pruning the
  time-window tests of kNN / similarity queries (``temporal_index=``).
"""

from repro.index.common import CubeNode, CubeTree
from repro.index.octree import Octree, OctreeNode
from repro.index.kdtree import KDTree
from repro.index.grid import GridIndex, adaptive_resolution, FALLBACK_RESOLUTION
from repro.index.rtree import RTree
from repro.index.temporal import TemporalIndex

TREE_INDEXES = {"octree": Octree, "kdtree": KDTree}

__all__ = [
    "CubeNode",
    "CubeTree",
    "Octree",
    "OctreeNode",
    "KDTree",
    "GridIndex",
    "adaptive_resolution",
    "FALLBACK_RESOLUTION",
    "RTree",
    "TemporalIndex",
    "TREE_INDEXES",
]
