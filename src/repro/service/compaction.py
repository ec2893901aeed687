"""Pluggable compaction policies for the shard runtimes' base tier.

A :class:`~repro.service.runtime.ShardRuntime` periodically folds its
pending tier into a fresh immutable base (LSM-style). *What* the rebuilt
base contains is this module's concern: a :class:`CompactionPolicy` takes
the staged (merged) base database and returns a :class:`CompactionResult`
— the database to publish plus per-trajectory keep-masks, point/byte
accounting (via :func:`repro.data.codec.storage_report`), and error stats.

Two policies ship:

* :class:`ExactCompaction` — the default; returns the staged database
  unchanged, so the runtime's rebuild is bit-identical to the
  pre-policy behavior (property-tested in ``tests/test_compaction.py``).
* :class:`SimplifyingCompaction` — the paper's algorithms as the storage
  engine: each base rebuild routes the *cold* tier through a
  :class:`~repro.baselines.registry.Simplifier` (RL4QDTS, uniform, or
  greedy QDTS), optionally refined under a per-trajectory error budget.
  The *hot* pending tier is never touched — trajectories stay exact
  until their first fold into the base.

Error-budget semantics: ``error_budget`` is an upper bound on the
per-trajectory simplification error (Eq. 2 of the paper — the max over
simplified segments of the chosen measure from
:mod:`repro.errors.measures`, SED by default), *per compaction pass*
relative to the tier content being folded. After the simplifier proposes
kept points at the configured ratio, :func:`refine_to_budget` splits any
anchor segment whose error exceeds the budget, re-inserting the worst
interior point, until every segment satisfies the bound. The refinement
is monotone: a smaller budget keeps a superset of the points a larger
budget keeps, so storage is non-increasing and the error bound
non-decreasing in the budget. ``error_budget <= 0`` degenerates to exact
(every point kept); ``error_budget=None`` accepts the simplifier's
proposal as-is (ratio-only compaction).

Policies travel to process-executor workers inside the pickled runtime
kwargs, so every policy must be picklable — an
:class:`~repro.baselines.registry.RLSimplifier` built from a saved model
path re-loads the model lazily on the worker side.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.data.codec import RAW_POINT_BYTES, storage_report
from repro.data.database import TrajectoryDatabase
from repro.errors.measures import MEASURES, ped_point_errors, sed_point_errors
from repro.errors.segment import trajectory_error

#: Policy names accepted by ``QueryService(compaction=...)`` and the CLI.
COMPACTION_POLICIES = ("exact", "uniform", "greedy", "rl")


@dataclass(frozen=True)
class CompactionResult:
    """One compaction pass: the database to publish, plus accounting.

    ``keep_masks`` holds one boolean mask per input trajectory (True =
    point kept); ``bytes_before``/``bytes_after`` are delta-encoded sizes
    from :func:`repro.data.codec.storage_report` when the policy measures
    them, raw ``24 B/point`` sizes otherwise. ``max_error`` is the largest
    per-trajectory simplification error introduced by this pass (0.0 for
    an exact pass), measured with ``measure``.
    """

    policy: str
    database: TrajectoryDatabase = field(repr=False)
    keep_masks: tuple[np.ndarray, ...] = field(repr=False)
    points_before: int
    points_after: int
    bytes_before: int
    bytes_after: int
    max_error: float
    error_budget: float | None
    measure: str
    elapsed_s: float

    @property
    def points_dropped(self) -> int:
        return self.points_before - self.points_after

    def counters(self) -> dict:
        """Plain-dict accounting (picklable/JSON-able; crosses the worker pipe
        back to the service's per-shard ``ServiceStats.record_compaction``)."""
        return {
            "policy": self.policy,
            "points_before": self.points_before,
            "points_after": self.points_after,
            "points_dropped": self.points_dropped,
            "bytes_before": self.bytes_before,
            "bytes_after": self.bytes_after,
            "max_error": self.max_error,
            "elapsed_s": self.elapsed_s,
        }


def refine_to_budget(
    points: np.ndarray,
    kept: list[int],
    budget: float,
    measure: str = "sed",
) -> list[int]:
    """Re-insert points until every anchor segment's error is ``<= budget``.

    Starts from a proposed kept-index set (which must contain both
    endpoints) and recursively splits any anchor ``p_s p_e`` whose
    segment error under ``measure`` exceeds ``budget``, at the interior
    point with the largest synchronized deviation (SED/PED) or at the gap
    midpoint for segment-valued measures (DAD/SAD). ``budget <= 0`` keeps
    every point. The split point for a given gap does not depend on the
    budget, so the kept set under a smaller budget is a superset of the
    kept set under a larger one (monotonicity).
    """
    if budget <= 0.0:
        return list(range(len(points)))
    try:
        error_fn = MEASURES[measure]
    except KeyError:
        raise ValueError(
            f"unknown measure {measure!r}; choose from {sorted(MEASURES)}"
        ) from None
    out = sorted(set(int(i) for i in kept))
    stack = [(s, e) for s, e in zip(out, out[1:]) if e - s >= 2]
    while stack:
        s, e = stack.pop()
        if error_fn(points, s, e) <= budget:
            continue
        if measure in ("sed", "ped"):
            errors = (
                sed_point_errors(points, s, e)
                if measure == "sed"
                else ped_point_errors(points, s, e)
            )
            split = s + 1 + int(np.argmax(errors))
        else:
            split = (s + e) // 2
        out.append(split)
        if split - s >= 2:
            stack.append((s, split))
        if e - split >= 2:
            stack.append((split, e))
    return sorted(out)


class CompactionPolicy:
    """Protocol + base class: turn a staged base database into the base to
    publish.

    Subclasses implement :meth:`compact`. ``is_exact`` advertises that the
    policy is the identity (the runtime then skips the construction-time
    pass, preserving the zero-copy snapshot mapping exactly).
    """

    name: str = "abstract"
    is_exact: bool = False

    def compact(
        self, db: TrajectoryDatabase, budget: float | None = None
    ) -> CompactionResult:
        raise NotImplementedError

    def spec(self) -> dict:
        """Describe-able policy configuration (service ``describe()``)."""
        return {"policy": self.name}


class ExactCompaction(CompactionPolicy):
    """The identity policy: keep the staged base unchanged.

    Bit-identical to the pre-policy rebuild — the result's ``database``
    *is* the staged database object, so the runtime's new base tier views
    the staged database's own point matrix, with no copy. Byte accounting defaults to the raw 24 B/point size
    (``measure_bytes=True`` runs the delta codec instead; compaction then
    pays one O(N) encode pass purely for reporting).
    """

    name = "exact"
    is_exact = True

    def __init__(self, measure_bytes: bool = False) -> None:
        self.measure_bytes = measure_bytes

    def compact(
        self, db: TrajectoryDatabase, budget: float | None = None
    ) -> CompactionResult:
        start = time.perf_counter()
        n_points = db.total_points
        nbytes = (
            storage_report(db).encoded_bytes
            if self.measure_bytes
            else RAW_POINT_BYTES * n_points
        )
        return CompactionResult(
            policy=self.name,
            database=db,
            keep_masks=tuple(
                np.ones(len(t), dtype=bool) for t in db.trajectories
            ),
            points_before=n_points,
            points_after=n_points,
            bytes_before=nbytes,
            bytes_after=nbytes,
            max_error=0.0,
            error_budget=budget,
            measure="sed",
            elapsed_s=time.perf_counter() - start,
        )


class SimplifyingCompaction(CompactionPolicy):
    """Route the cold base tier through a simplifier on every rebuild.

    Parameters
    ----------
    simplifier:
        A :class:`~repro.baselines.registry.Simplifier` (or a name from
        :data:`~repro.baselines.registry.SIMPLIFIERS`) proposing kept
        points at ``ratio``.
    error_budget:
        Per-trajectory error bound (see the module docstring). ``None``
        accepts the proposal as-is; ``<= 0`` keeps everything (exact).
    ratio:
        Target compression ratio of the simplifier's proposal.
    measure:
        Error measure from :data:`repro.errors.measures.MEASURES` used
        for both the budget refinement and the reported ``max_error``.
    """

    is_exact = False

    def __init__(
        self,
        simplifier,
        error_budget: float | None = None,
        ratio: float = 0.25,
        measure: str = "sed",
    ) -> None:
        from repro.baselines.registry import make_simplifier

        if measure not in MEASURES:
            raise ValueError(
                f"unknown measure {measure!r}; choose from {sorted(MEASURES)}"
            )
        if not 0.0 < ratio <= 1.0:
            raise ValueError(f"compression ratio must be in (0, 1], got {ratio}")
        self.simplifier = make_simplifier(simplifier)
        self.error_budget = None if error_budget is None else float(error_budget)
        self.ratio = float(ratio)
        self.measure = measure
        self.name = self.simplifier.name

    def spec(self) -> dict:
        return {
            "policy": self.name,
            "error_budget": self.error_budget,
            "ratio": self.ratio,
            "measure": self.measure,
        }

    def compact(
        self, db: TrajectoryDatabase, budget: float | None = None
    ) -> CompactionResult:
        start = time.perf_counter()
        budget = self.error_budget if budget is None else float(budget)
        points_before = db.total_points
        bytes_before = storage_report(db).encoded_bytes
        if budget is not None and budget <= 0.0:
            kept_lists = [list(range(len(t))) for t in db.trajectories]
        else:
            kept_lists = self.simplifier.keep_indices(db, self.ratio)
            if budget is not None:
                kept_lists = [
                    refine_to_budget(t.points, kept, budget, self.measure)
                    for t, kept in zip(db.trajectories, kept_lists)
                ]
        simplified = TrajectoryDatabase(
            [t.subsample(kept) for t, kept in zip(db.trajectories, kept_lists)]
        )
        masks = []
        max_error = 0.0
        for t, kept in zip(db.trajectories, kept_lists):
            mask = np.zeros(len(t), dtype=bool)
            mask[np.asarray(kept, dtype=np.intp)] = True
            masks.append(mask)
            if len(kept) < len(t):
                max_error = max(
                    max_error, trajectory_error(t, kept, self.measure)
                )
        return CompactionResult(
            policy=self.name,
            database=simplified,
            keep_masks=tuple(masks),
            points_before=points_before,
            points_after=simplified.total_points,
            bytes_before=bytes_before,
            bytes_after=storage_report(simplified).encoded_bytes,
            max_error=max_error,
            error_budget=budget,
            measure=self.measure,
            elapsed_s=time.perf_counter() - start,
        )


def make_compaction(
    spec,
    *,
    error_budget: float | None = None,
    ratio: float = 0.25,
    measure: str = "sed",
    model=None,
) -> CompactionPolicy:
    """Build a policy from a name, an instance, or ``None`` (exact).

    ``spec`` is a name from :data:`COMPACTION_POLICIES`, an existing
    :class:`CompactionPolicy` (returned unchanged — the remaining kwargs
    must then be left at their defaults), or ``None``/``"exact"`` for the
    default. ``model`` supplies a trained :class:`~repro.core.rl4qdts.RL4QDTS`
    instance or a saved ``.npz`` path for ``spec="rl"``.
    """
    if spec is None or (isinstance(spec, str) and spec == "exact"):
        return ExactCompaction()
    if isinstance(spec, CompactionPolicy):
        return spec
    if isinstance(spec, str):
        from repro.baselines.registry import make_simplifier

        return SimplifyingCompaction(
            make_simplifier(spec, model=model),
            error_budget=error_budget,
            ratio=ratio,
            measure=measure,
        )
    raise ValueError(
        f"unknown compaction policy {spec!r}; choose from {COMPACTION_POLICIES}"
    )


__all__ = [
    "COMPACTION_POLICIES",
    "CompactionPolicy",
    "CompactionResult",
    "ExactCompaction",
    "SimplifyingCompaction",
    "make_compaction",
    "refine_to_budget",
]
