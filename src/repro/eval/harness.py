"""Query-accuracy evaluation over the paper's five query tasks.

Given an original database ``D``, an evaluator draws a fixed set of
queries of each task and computes each task's ground truth on ``D`` the
first time that task is scored; :meth:`evaluate` then runs the same queries
on a simplified database ``D'`` and reports the mean F1-score per task
(paper, Section III-B):

* ``range``      — range queries from a workload distribution,
* ``knn_edr``    — kNN under EDR,
* ``knn_t2vec``  — kNN under the learned embedding similarity,
* ``similarity`` — synchronized-distance threshold queries,
* ``clustering`` — TRACLUS pair-counting F1 (on a trajectory subset, since
  segment grouping is quadratic).

The evaluator is built once per experiment and reused across methods and
compression ratios so all methods face identical queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.data.stats import spatial_scale
from repro.queries.clustering import TraclusConfig, traclus_cluster
from repro.queries.engine import QueryEngine
from repro.queries.knn import knn_query_batch
from repro.queries.metrics import clustering_f1, f1_score
from repro.queries.similarity import similarity_query_batch
from repro.queries.t2vec import T2VecEmbedder
from repro.workloads.generators import RangeQueryWorkload

ALL_TASKS = ("range", "knn_edr", "knn_t2vec", "similarity", "clustering")


@dataclass(frozen=True, slots=True)
class QuerySuiteConfig:
    """Sizes and thresholds of the evaluation query suite.

    ``None`` thresholds are derived from the database's spatial extent at
    evaluator construction (mirroring the paper's dataset-relative query
    parameters: 2km boxes, 2km EDR threshold, 5km similarity threshold on a
    ~50km city).
    """

    n_range_queries: int = 50
    range_distribution: str = "data"
    n_knn_queries: int = 8
    k: int = 3
    edr_eps: float | None = None
    n_similarity_queries: int = 8
    similarity_delta: float | None = None
    clustering_subset: int = 25
    traclus_eps: float | None = None
    traclus_min_lns: int = 3
    seed: int = 0


class QueryAccuracyEvaluator:
    """Per-task F1 scoring of simplified databases against ground truth.

    The queries of every task are drawn at construction, in one seeded
    order; each task's truth (and the t2vec :attr:`embedder`) is built on
    first use, so scoring only ``range`` never pays for kNN, similarity or
    clustering truth.
    """

    def __init__(
        self,
        db: TrajectoryDatabase,
        config: QuerySuiteConfig | None = None,
        workload: RangeQueryWorkload | None = None,
    ) -> None:
        self.db = db
        self.config = config or QuerySuiteConfig()
        cfg = self.config
        rng = np.random.default_rng(cfg.seed)
        # Thresholds default to fractions of the characteristic trajectory
        # scale so selectivity survives dataset re-scaling (see
        # repro.data.stats.spatial_scale).
        scale = spatial_scale(db)
        self.edr_eps = cfg.edr_eps if cfg.edr_eps is not None else 0.10 * scale
        self.similarity_delta = (
            cfg.similarity_delta
            if cfg.similarity_delta is not None
            else 0.15 * scale
        )
        traclus_eps = (
            cfg.traclus_eps if cfg.traclus_eps is not None else 0.08 * scale
        )
        self.traclus_config = TraclusConfig(
            eps=traclus_eps, min_lns=cfg.traclus_min_lns
        )

        # --- range queries -------------------------------------------------
        self.workload = workload or RangeQueryWorkload.generate(
            cfg.range_distribution, db, cfg.n_range_queries, seed=cfg.seed
        )

        # --- kNN queries (shared query trajectories for both measures) -----
        # Only trajectories whose central window still contains at least two
        # of their own samples make valid queries: a degenerate window makes
        # knn_query return [] for truth and every method's F1 trivially
        # compares empty sets (e.g. 2-point trajectories, whose middle half
        # contains neither endpoint). Such trajectories are skipped at suite
        # construction rather than scored as vacuous perfect agreement.
        eligible = [
            tid for tid in range(len(db)) if self._valid_knn_query(db[tid])
        ]
        n_knn = min(cfg.n_knn_queries, len(eligible))
        self._knn_query_ids = [
            int(i) for i in rng.choice(eligible, size=n_knn, replace=False)
        ]
        self._knn_windows = [
            self._central_window(db[qid]) for qid in self._knn_query_ids
        ]

        # --- similarity queries --------------------------------------------
        n_sim = min(cfg.n_similarity_queries, len(db))
        self._sim_query_ids = [
            int(i) for i in rng.choice(len(db), size=n_sim, replace=False)
        ]

        # --- clustering ------------------------------------------------------
        n_cluster = min(cfg.clustering_subset, len(db))
        self._cluster_ids = sorted(
            int(i) for i in rng.choice(len(db), size=n_cluster, replace=False)
        )

    # ------------------------------------------------------------ ground truth
    @cached_property
    def _range_truth(self) -> list[set[int]]:
        return QueryEngine.for_database(self.db).evaluate(self.workload)

    @cached_property
    def embedder(self) -> T2VecEmbedder:
        """The t2vec model fitted on the original database."""
        return T2VecEmbedder(seed=self.config.seed).fit(self.db)

    def _knn_truth(self, measure: str, **kwargs) -> list[list[int]]:
        return knn_query_batch(
            self.db,
            [self.db[qid] for qid in self._knn_query_ids],
            self.config.k,
            self._knn_windows,
            measure,
            **kwargs,
        )

    @cached_property
    def _knn_edr_truth(self) -> list[list[int]]:
        return self._knn_truth("edr", eps=self.edr_eps)

    @cached_property
    def _knn_t2vec_truth(self) -> list[list[int]]:
        return self._knn_truth("t2vec", embedder=self.embedder)

    @cached_property
    def _sim_truth(self) -> list[set[int]]:
        # Batched through the shared engine: every candidate is interpolated
        # once over the union of all queries' checkpoints instead of once
        # per (query, candidate) pair.
        return similarity_query_batch(
            self.db,
            [self.db[qid] for qid in self._sim_query_ids],
            self.similarity_delta,
        )

    @cached_property
    def _cluster_truth(self):
        subset = self.db.subset(self._cluster_ids)
        return traclus_cluster(subset, self.traclus_config).clusters

    @staticmethod
    def _central_window(trajectory) -> tuple[float, float]:
        """The middle half of the query trajectory's time span."""
        t0, t1 = float(trajectory.times[0]), float(trajectory.times[-1])
        quarter = 0.25 * (t1 - t0)
        return (t0 + quarter, t1 - quarter)

    @classmethod
    def _valid_knn_query(cls, trajectory) -> bool:
        """Whether the trajectory's central window makes a scoreable query.

        Requires a positive window span and at least two of the
        trajectory's own samples inside it — otherwise the query's window
        restriction is degenerate and its truth is the empty list.
        """
        ts, te = cls._central_window(trajectory)
        if te <= ts:
            return False
        times = trajectory.times
        return int(((times >= ts) & (times <= te)).sum()) >= 2

    # ------------------------------------------------------------------ scoring
    def evaluate(
        self,
        simplified: TrajectoryDatabase,
        tasks: tuple[str, ...] = ALL_TASKS,
        client=None,
    ) -> dict[str, float]:
        """Mean F1 per task of ``simplified`` against the original's truth.

        kNN and similarity queries keep using the *original* query
        trajectories (queries arrive from outside; only the database is
        simplified), matching the paper's setup.

        ``client`` optionally supplies any :class:`repro.client.Client`
        *serving the simplified database* — local, sharded, or remote over
        a socket: the range, kNN-EDR, and similarity tasks are then
        answered through it. With no client, a
        :class:`~repro.client.LocalClient` over ``simplified`` is used, so
        every transport runs the same code path; all transports are
        property-tested bit-identical, so scores never depend on the
        choice. The t2vec kNN task (whose embedder lives in this process)
        and clustering always run locally.
        """
        from repro.client import LocalClient

        if len(simplified) != len(self.db):
            raise ValueError("simplified database must match the original's size")
        if client is not None and client.describe()["trajectories"] != len(
            simplified
        ):
            raise ValueError(
                "the client/service must be built over the simplified "
                f"database ({client.describe()['trajectories']} served vs "
                f"{len(simplified)} simplified trajectories)"
            )
        if client is None:
            # The local client rides the database's SHARED engine, which
            # memoizes per (database, workload): scoring the same
            # simplified database again — e.g. in evaluate_extended —
            # reuses these results.
            client = LocalClient(simplified)
        scores: dict[str, float] = {}
        for task in tasks:
            if task == "range":
                results = client.range(self.workload).result_sets
                scores[task] = float(
                    np.mean(
                        [f1_score(t, r) for t, r in zip(self._range_truth, results)]
                    )
                )
            elif task == "knn_edr":
                scores[task] = self._score_knn(simplified, "edr", client)
            elif task == "knn_t2vec":
                scores[task] = self._score_knn(simplified, "t2vec")
            elif task == "similarity":
                sim_queries = [self.db[qid] for qid in self._sim_query_ids]
                results = client.similarity(
                    sim_queries, self.similarity_delta
                ).result_sets
                scores[task] = float(
                    np.mean(
                        [
                            f1_score(t, r)
                            for t, r in zip(self._sim_truth, results)
                        ]
                    )
                )
            elif task == "clustering":
                subset = simplified.subset(self._cluster_ids)
                predicted = traclus_cluster(subset, self.traclus_config).clusters
                scores[task] = clustering_f1(self._cluster_truth, predicted)
            else:
                raise ValueError(f"unknown task {task!r}; choose from {ALL_TASKS}")
        return scores

    def evaluate_extended(
        self, simplified: TrajectoryDatabase
    ) -> dict[str, float]:
        """Alternative quality metrics beyond the paper's F1 (Eq. 3).

        Returns:

        * ``range_jaccard``   — mean intersection-over-union of range results;
        * ``knn_edr_tau``     — mean Kendall tau of the kNN *rankings* under
          EDR (F1 ignores order; tau detects rank scrambling);
        * ``clustering_ari``  — adjusted Rand index of the TRACLUS partition;
        * ``heatmap``         — histogram intersection of spatial density.

        Used by the metric-sensitivity benchmark to confirm that method
        orderings are not an artifact of the F1 choice.
        """
        if len(simplified) != len(self.db):
            raise ValueError("simplified database must match the original's size")
        from repro.queries.aggregate import heatmap_f1
        from repro.queries.metrics import (
            adjusted_rand_index,
            jaccard,
            kendall_tau,
        )

        results = QueryEngine.for_database(simplified).evaluate(self.workload)
        range_jaccard = float(
            np.mean([jaccard(t, r) for t, r in zip(self._range_truth, results)])
        )

        results = knn_query_batch(
            simplified,
            [self.db[qid] for qid in self._knn_query_ids],
            self.config.k,
            self._knn_windows,
            "edr",
            eps=self.edr_eps,
        )
        taus = [
            kendall_tau(truth, result)
            for truth, result in zip(self._knn_edr_truth, results)
        ]
        # An empty suite is vacuous perfect agreement, matching _score_knn.
        knn_tau = float(np.mean(taus)) if taus else 1.0

        subset = simplified.subset(self._cluster_ids)
        predicted = traclus_cluster(subset, self.traclus_config).clusters
        ari = adjusted_rand_index(self._cluster_truth, predicted)

        return {
            "range_jaccard": range_jaccard,
            "knn_edr_tau": knn_tau,
            "clustering_ari": float(ari),
            # heatmap_f1 rasterizes both databases through their shared
            # engines (one memoized binning pass each).
            "heatmap": heatmap_f1(self.db, simplified),
        }

    def _score_knn(
        self, simplified: TrajectoryDatabase, measure: str, client=None
    ) -> float:
        """Mean kNN F1 over the suite, batched through the shared engine."""
        truths = self._knn_edr_truth if measure == "edr" else self._knn_t2vec_truth
        if not self._knn_query_ids:
            # An empty suite is vacuous perfect agreement; don't put an
            # empty request on the wire (the schema rejects zero queries).
            return 1.0
        if client is not None and measure == "edr":
            results = client.knn(
                [self.db[qid] for qid in self._knn_query_ids],
                self.config.k,
                self._knn_windows,
                eps=self.edr_eps,
            ).neighbors
        else:
            results = knn_query_batch(
                simplified,
                [self.db[qid] for qid in self._knn_query_ids],
                self.config.k,
                self._knn_windows,
                measure,
                eps=self.edr_eps,
                embedder=self.embedder if measure == "t2vec" else None,
            )
        f1s = [
            f1_score(set(truth), set(result))
            for truth, result in zip(truths, results)
        ]
        # An empty suite (no eligible query trajectories) scores as vacuous
        # perfect agreement rather than NaN.
        return float(np.mean(f1s)) if f1s else 1.0
