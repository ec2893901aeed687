"""Incremental reward evaluation (paper, Eq. 10).

The reward of the cooperating agents is the decrease of
``diff(Q(D), Q(D'))`` — the query-result difference between the original and
the simplified database — over a window of ``delta`` insertions. We define
``diff`` as ``1 - mean F1`` over the training workload of range queries.

Re-running the whole workload after every window is what the paper does
conceptually; this evaluator exploits that *insertions only ever grow range
results* (a trajectory matches once any kept point falls in the box) to
maintain every query's precision/recall counters in ``O(#queries)`` per
inserted point, so training rewards are exact yet cheap. The bookkeeping
itself lives in the batch engine's incremental view
(:meth:`repro.queries.engine.QueryEngine.incremental_view`): truth, episode
resets, and live result sets all share the engine's memoized result store,
so this evaluator keeps no parallel per-query sets of its own.
"""

from __future__ import annotations

import numpy as np

from repro.data.database import TrajectoryDatabase
from repro.data.simplification import SimplificationState
from repro.queries.engine import QueryEngine
from repro.queries.metrics import f1_score
from repro.workloads.generators import RangeQueryWorkload


class IncrementalRangeEvaluator:
    """Scores the evolving simplified database through the engine's view."""

    def __init__(
        self,
        db: TrajectoryDatabase,
        workload: RangeQueryWorkload,
    ) -> None:
        if len(workload) == 0:
            raise ValueError("workload must contain at least one query")
        self.db = db
        self.workload = workload
        # Ground truth and episode resets both run through the shared batch
        # engine; its memo makes repeated env construction over the same
        # database + workload (e.g. ratio sweeps) a cache hit.
        self._engine = QueryEngine.for_database(db)
        self._truth: list[set[int]] = self._engine.evaluate(workload)
        self._view = self._engine.incremental_view(workload)

    # ------------------------------------------------------------------- state
    def reset(self, state: SimplificationState) -> None:
        """Recompute result sets from scratch for the given kept points."""
        self._view.reset(state)

    def notify_insert(self, traj_id: int, point: np.ndarray) -> None:
        """Record that ``point`` of ``traj_id`` entered the simplified database."""
        self._view.notify_insert(traj_id, point)

    # ----------------------------------------------------------------- scoring
    def mean_f1(self) -> float:
        """Mean F1 of the current simplified results against the truth."""
        scores = [
            f1_score(truth, result)
            for truth, result in zip(self._truth, self._view.result_sets)
        ]
        return float(np.mean(scores))

    def diff(self) -> float:
        """``diff(Q(D), Q(D'))`` as used in Eq. 10 (lower is better)."""
        return 1.0 - self.mean_f1()

    def exact_diff(self, state: SimplificationState) -> float:
        """``diff`` recomputed from scratch through the batch engine.

        An audit of the incremental counters: evaluates the whole workload on
        ``state`` directly and scores it against the truth, bypassing
        :meth:`notify_insert` bookkeeping entirely.
        """
        results = self._engine.evaluate_state(self.workload, state)
        scores = [
            f1_score(truth, result)
            for truth, result in zip(self._truth, results)
        ]
        return 1.0 - float(np.mean(scores))

    @property
    def truth(self) -> list[set[int]]:
        return [set(s) for s in self._truth]

    @property
    def results(self) -> list[set[int]]:
        return self._view.results
