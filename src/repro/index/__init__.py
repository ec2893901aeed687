"""Spatio-temporal indexes.

* :class:`Octree` — the midpoint-split cube tree RL4QDTS uses (Section IV);
* :class:`KDTree` — the median-split alternative the paper leaves as future
  work, interchangeable with the octree (``TREE_INDEXES``);
* :func:`~repro.index.grid.grid_geometry` — the uniform cell geometry of
  the batch query engine's CSR sweep, the query layer's only spatial
  accelerator.
"""

from repro.index.common import CubeNode, CubeTree
from repro.index.octree import Octree, OctreeNode
from repro.index.kdtree import KDTree

TREE_INDEXES = {"octree": Octree, "kdtree": KDTree}

__all__ = [
    "CubeNode",
    "CubeTree",
    "Octree",
    "OctreeNode",
    "KDTree",
    "TREE_INDEXES",
]
