"""``offline_simplify``: the paper's pipeline, then queries on its output.

The only workload where ``core``, ``rl``, ``index`` (the octree) and the
engine's ``evaluate_state`` / incremental view do the work and ``service``
does none. Set-up is everything between the ``.npz`` on disk and a
queryable simplified database: load, train RL4QDTS, simplify to 5% of the
points, build the in-process client. The same closed-loop traffic as
``serve_miss`` then runs against that client, and the F1 metrics score its
answers against the original database: the paper's promise is a database
that is cheaper to store and query *at preserved query accuracy*.

Scored through ``LocalClient`` rather than ``QueryAccuracyEvaluator``,
whose constructor spends ~25 s at this size on truths nobody reads here.
"""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass

import numpy as np

from repro.baselines import get_baseline, simplify_database
from repro.client import LocalClient
from repro.core import RL4QDTS, RL4QDTSConfig
from repro.data import load_database
from repro.data.simplification import SimplificationState
from repro.errors.measures import sed_error
from repro.index.octree import Octree
from repro.queries.engine import QueryEngine
from repro.queries.metrics import mean_f1
from repro.workloads import RangeQueryWorkload

from . import host, layers
from .data import dataset_path
from .oracle import Scorecard
from .schedule import build_plan, materialize
from .serve import LatRound, Outcome, every_nth_of_each_kind, latency_metrics
from .spec import Sizes

BUDGET_RATIO = 0.05
#: The model seed is part of the program's configuration, not of the
#: traffic: ``--seed`` never changes which points are kept.
TRAIN_CONFIG = RL4QDTSConfig(
    train_db_size=100,
    n_train_databases=3,
    episodes=5,
    train_budget_ratio=BUDGET_RATIO,
    seed=0,
)
BASELINE = "Top-Down(W,SED)"


@dataclass
class Setup:
    """The pieces one set-up produced and what each stage cost."""

    db: object
    model: RL4QDTS
    simplified: object
    stats: object
    client: LocalClient
    stages_s: dict[str, float]
    setup_s: float
    steal: float


def prepare(db_path, spans: layers.SpanLog | None = None) -> Setup:
    """One set-up: from the file on disk to a client over the simplified
    database."""
    marks = [("start", time.perf_counter())]

    def mark(stage: str):
        marks.append((stage, time.perf_counter()))

    with host.StealMeter() as meter:
        db = load_database(db_path)
        mark("data.load")
        QueryEngine.for_database(db)
        mark("queries.engine_build")
        model = RL4QDTS.train(db, config=TRAIN_CONFIG)
        mark("core.train")
        simplified, stats = model.simplify(db, budget_ratio=BUDGET_RATIO, return_stats=True)
        mark("core.simplify")
        client = LocalClient(simplified)
        mark("client.local_build")
    seconds = {}
    for (_, start), (stage, end) in zip(marks, marks[1:]):
        seconds[stage] = end - start
        if spans is not None:
            spans.add("setup", stage, start, end, "setup")
    if spans is not None:
        spans.add("setup", "setup", marks[0][1], marks[-1][1], None)
    return Setup(
        db, model, simplified, stats, client, seconds,
        marks[-1][1] - marks[0][1], meter.share,
    )


def structural_problems(db, simplified) -> list[str]:
    """What must hold of any simplification at this budget."""
    problems = []
    budget = db.budget_for_ratio(BUDGET_RATIO)
    if simplified.total_points != budget:
        problems.append(f"kept {simplified.total_points} points, budget is {budget}")
    if len(simplified) != len(db):
        return problems + ["the simplified database lost trajectories"]
    for original, kept in zip(db, simplified):
        a, b = original.points, kept.points
        if not (np.array_equal(a[0], b[0]) and np.array_equal(a[-1], b[-1])):
            problems.append(f"trajectory {original.traj_id} lost an endpoint")
            break
        # Timestamps increase strictly, so they locate each kept row.
        at = np.searchsorted(a[:, 2], b[:, 2])
        if at.max() >= len(a) or not np.array_equal(a[at], b) or (np.diff(at) <= 0).any():
            problems.append(f"trajectory {original.traj_id} is not a subsequence")
            break
    return problems


def lat_round(client, requests, outcome: Outcome) -> LatRound:
    samples = []
    with host.StealMeter() as meter:
        round_start = time.perf_counter()
        for kind, request in requests:
            outcome.attempted += 1
            start = time.perf_counter()
            try:
                client.execute(request)
            except Exception as exc:  # every failure is counted, none aborts
                outcome.fail(f"{kind}: {type(exc).__name__}: {exc}")
                continue
            samples.append((kind, time.perf_counter() - start))
        wall = time.perf_counter() - round_start
    return LatRound(samples, wall, meter.share)


def run(workload: str, seed: int, sizes: Sizes, traced: bool) -> Outcome:
    outcome = Outcome()
    db_path, generate_s = dataset_path(sizes.trajectories)
    spin_before = host.spin_ms()
    host.require_clean("precondition")

    spans = layers.SpanLog() if traced else None
    setups = [prepare(db_path, spans) for _ in range(1 if traced else sizes.setups)]
    last = setups[-1]
    db, simplified, client = last.db, last.simplified, last.client
    for problem in structural_problems(db, simplified):
        outcome.fail(problem)
    for other in setups[:-1]:
        if not np.array_equal(other.simplified.point_matrix(), simplified.point_matrix()):
            outcome.fail("two set-ups of the same data kept different points")
    outcome.attempted += len(setups)

    plan = build_plan(workload, db, seed, sizes)
    rounds, probes = materialize(plan, db)

    lat_round(client, rounds["warm"], outcome)
    names = ["lat1", "lat2"] if traced else [r.name for r in plan.rounds if r.mode == "lat"]
    lat = [lat_round(client, rounds[name], outcome) for name in names]

    card = Scorecard(exact=False)
    oracle = LocalClient(db)
    score_start = time.perf_counter()
    for kind, request in every_nth_of_each_kind(rounds["lat1"], sizes.check_every):
        outcome.attempted += 1
        card.compare(oracle.execute(request), client.execute(request))
    score_ms = 1000.0 * (time.perf_counter() - score_start)
    try:
        host.require_clean("postcondition")
    except host.HygieneError as exc:
        outcome.fail(str(exc))
    spin_after = host.spin_ms()

    latency, samples = latency_metrics(lat)
    outcome.record.update(
        digest=plan.digest,
        samples=samples,
        checked=card.checked,
        trajectories=len(db),
        points=db.total_points,
        kept_points=simplified.total_points,
        setups=[{"s": s.setup_s, "steal": s.steal, "stages_s": s.stages_s} for s in setups],
        lat_rounds=[{"s": r.wall_s, "steal": r.steal} for r in lat],
        spin_ms=[spin_before, spin_after],
        f1={k: card.mean_f1(k) for k in ("range", "knn", "similarity")},
    )
    if not traced:
        outcome.metrics = {
            "setup_s": host.median_of_clean(
                [s.setup_s for s in setups], [s.steal for s in setups]
            ),
            # One caller in process: the rounds that time each request are
            # also the throughput rounds.
            "qps": host.median_of_clean(
                [len(r.samples) / r.wall_s for r in lat], [r.steal for r in lat]
            ),
            **latency,
            "mem_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "range_f1": card.mean_f1("range"),
            "knn_f1": card.mean_f1("knn"),
            "similarity_f1": card.mean_f1("similarity"),
        }
        return outcome

    metrics = layers.zeros()
    warm = [r for _, r in rounds["warm"]]
    rung0, _ = layers.engine_ladder(simplified, warm, probes, spans, None)
    metrics.update(rung0)
    metrics.update(layers.engine_basics(db))
    metrics.update(pipeline_layers(last))
    untraced, traced_p50 = (np.median([s for _, s in r.samples]) for r in lat)
    metrics.update(
        {
            "data.load_ms": 1000.0 * last.stages_s["data.load"],
            "eval.score_ms": score_ms,
            # In process a traced request is the same call: both rounds ran
            # the identical path, and the ratio says how alike two rounds are.
            "trace.overhead_ratio": float(traced_p50 / untraced),
            **layers.run_context(spin_before, spin_after, generate_s),
        }
    )
    path = layers.trace_path(workload, seed)
    spans.write(path)
    outcome.record["trace_file"] = str(path)
    outcome.metrics = metrics
    return outcome


def pipeline_layers(setup: Setup) -> dict[str, float]:
    """The pipeline's stages, and its public micro-entry-points timed on
    the same inputs."""
    db, model, stats = setup.db, setup.model, setup.stats
    seconds = setup.stages_s
    episodes = TRAIN_CONFIG.n_train_databases * TRAIN_CONFIG.episodes
    metrics = {
        "core.train_s": seconds["core.train"],
        "core.simplify_s": seconds["core.simplify"],
        "core.inserted": stats.inserted,
        "core.windows": stats.windows,
        "core.fallback_inserted": stats.fallback_inserted,
        "core.simplify_us_per_insert": 1e6 * seconds["core.simplify"] / stats.inserted,
        "core.train_ms_per_episode": 1000.0 * seconds["core.train"] / episodes,
    }

    workload = RangeQueryWorkload.from_data_distribution(db, 200, seed=0)
    engine = QueryEngine(db)
    state = SimplificationState(db)
    _, start, end = layers.timed(engine.evaluate_state, workload, state)
    metrics["queries.evaluate_state_ms"] = 1000.0 * (end - start)
    view = engine.incremental_view(workload)
    view.reset(state)
    inserts = [(t.traj_id, t.points[len(t) // 2]) for t in db]
    _, start, end = layers.timed(lambda: [view.notify_insert(i, p) for i, p in inserts])
    metrics["queries.incremental_insert_us"] = 1e6 * (end - start) / len(inserts)

    metrics["index.octree_build_ms"] = layers.median_ms(
        lambda: Octree(db, max_depth=TRAIN_CONFIG.end_level, leaf_capacity=TRAIN_CONFIG.leaf_capacity),
        3,
    )
    metrics["errors.sed_ms"] = layers.median_ms(
        lambda: [sed_error(t.points, 0, len(t) - 1) for t in db], 3
    )
    agent = model.point_agent
    observation = np.zeros(agent.state_dim)
    _, start, end = layers.timed(
        lambda: [agent.act(observation, greedy=True) for _ in range(2000)]
    )
    metrics["rl.act_us"] = 1e6 * (end - start) / 2000
    metrics["rl.learn_ms"] = layers.median_ms(agent.learn, 50)

    baseline, start, end = layers.timed(
        simplify_database, db, BUDGET_RATIO, get_baseline(BASELINE)
    )
    metrics["baselines.topdown_w_sed.simplify_s"] = end - start
    truth = QueryEngine.for_database(db).evaluate(workload)
    got = QueryEngine(baseline).evaluate(workload)
    metrics["baselines.topdown_w_sed.range_f1"] = mean_f1(truth, got)
    return metrics
