"""Trajectory query operators and quality measures (paper, Section III-B).

Four query types are supported, matching the paper's evaluation:

* :func:`range_query` — spatio-temporal box containment,
* :class:`QueryEngine` — vectorized, memoizing batch execution of whole
  range-query workloads (the training / evaluation hot path),
* :func:`knn_query` — k nearest trajectories under EDR or a learned
  (t2vec-style) similarity,
* :func:`similarity_query` — synchronized-distance threshold match,
* :func:`traclus_cluster` — TRACLUS partition-and-group clustering.

Query accuracy of a simplified database is measured with the F1-score of its
results against the original database's results (:mod:`repro.queries.metrics`).
"""

from repro.queries.range_query import RangeQuery, range_query, range_query_batch
from repro.queries.engine import IncrementalWorkloadView, QueryEngine
from repro.queries.edr import edr_distance, edr_distances_one_to_many
from repro.queries.t2vec import T2VecEmbedder
from repro.queries.knn import knn_query, knn_query_batch
from repro.queries.similarity import similarity_query, similarity_query_batch
from repro.queries.join import distance_join
from repro.queries.clustering import traclus_cluster, TraclusConfig
from repro.queries.aggregate import (
    count_query,
    count_query_scan,
    density_histogram,
    density_histogram_scan,
    histogram_similarity,
    heatmap_f1,
)
from repro.queries.metrics import (
    precision_recall_f1,
    f1_score,
    clustering_pairs,
    clustering_f1,
    jaccard,
    kendall_tau,
    adjusted_rand_index,
)

__all__ = [
    "RangeQuery",
    "range_query",
    "range_query_batch",
    "QueryEngine",
    "IncrementalWorkloadView",
    "edr_distance",
    "edr_distances_one_to_many",
    "T2VecEmbedder",
    "knn_query",
    "knn_query_batch",
    "similarity_query",
    "similarity_query_batch",
    "distance_join",
    "traclus_cluster",
    "TraclusConfig",
    "precision_recall_f1",
    "f1_score",
    "clustering_pairs",
    "clustering_f1",
    "jaccard",
    "kendall_tau",
    "adjusted_rand_index",
    "count_query",
    "count_query_scan",
    "density_histogram",
    "density_histogram_scan",
    "histogram_similarity",
    "heatmap_f1",
]
