"""The RL4QDTS algorithm (paper, Algorithms 1-3).

:class:`RL4QDTS` bundles the two trained agents and exposes:

* :meth:`RL4QDTS.train` — the full training procedure of Section V-A:
  sample training sub-databases, roll ε-greedy episodes with shared
  Δ-window rewards, keep the best-performing parameters;
* :meth:`RL4QDTS.simplify` — Algorithm 1: greedy rollout of the learned
  policies from the endpoints-only database until the budget is exhausted;
* :meth:`RL4QDTS.refine` — the same greedy rollout, started from an
  existing simplification;
* :meth:`save` / :meth:`load` for trained policies.

A model is one :class:`RL4QDTSConfig`, the Table II ablation switches
``use_agent_cube`` / ``use_agent_point`` included: a disabled Agent-Cube
degenerates to sampling a cube at the start level by the query
distribution, and a disabled Agent-Point always inserts the
maximum-``v_s`` candidate. A switch turned off at inference only is
``model.config = replace(model.config, use_agent_cube=False)`` on a
trained model.
"""

from __future__ import annotations

import json
from dataclasses import asdict, field, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.config import RL4QDTSConfig
from repro.core.env import CUBE_N_ACTIONS, CUBE_STATE_DIM, QDTSEnvironment
from repro.core.rollout import RolloutStats, run_episode
from repro.data.database import TrajectoryDatabase
from repro.rl.dqn import DQNAgent, DQNConfig
from repro.rl.policy_gradient import REINFORCEAgent
from repro.workloads.generators import RangeQueryWorkload

WorkloadFactory = Callable[[TrajectoryDatabase, int], RangeQueryWorkload]


def _default_workload_factory(distribution: str, n_queries: int) -> WorkloadFactory:
    def factory(db: TrajectoryDatabase, seed: int) -> RangeQueryWorkload:
        return RangeQueryWorkload.generate(distribution, db, n_queries, seed=seed)

    return factory


def _resolve_budget(
    db: TrajectoryDatabase, budget_ratio: float | None, budget: int | None
) -> int:
    """The absolute budget given exactly one of ``budget_ratio`` / ``budget``."""
    if (budget_ratio is None) == (budget is None):
        raise ValueError("give exactly one of budget_ratio / budget")
    return db.budget_for_ratio(budget_ratio) if budget is None else budget


@dataclass(slots=True)
class TrainingHistory:
    """Per-episode training diagnostics."""

    episode_diffs: list[float] = field(default_factory=list)
    episode_rewards: list[float] = field(default_factory=list)
    best_diff: float = float("inf")


class RL4QDTS:
    """Query-accuracy-driven collective trajectory database simplifier."""

    def __init__(self, config: RL4QDTSConfig | None = None) -> None:
        self.config = config or RL4QDTSConfig()
        seed = self.config.seed
        agent_cls = DQNAgent if self.config.learner == "dqn" else REINFORCEAgent
        self.cube_agent = agent_cls(
            CUBE_STATE_DIM, CUBE_N_ACTIONS, self.config.dqn, seed=seed
        )
        self.point_agent = agent_cls(
            2 * self.config.k_candidates,
            self.config.k_candidates,
            self.config.dqn,
            seed=seed + 1,
        )
        self.history = TrainingHistory()
        self._set_distribution("data")

    def _set_distribution(self, distribution: str) -> None:
        """Train and infer on workloads drawn from a named distribution."""
        self._distribution: str | None = distribution
        self._workload_factory: WorkloadFactory | None = _default_workload_factory(
            distribution, self.config.n_training_queries
        )

    # ---------------------------------------------------------------- training
    @classmethod
    def train(
        cls,
        db: TrajectoryDatabase,
        config: RL4QDTSConfig | None = None,
        distribution: str = "data",
        workload_factory: WorkloadFactory | None = None,
    ) -> "RL4QDTS":
        """Train the two agents on sub-databases sampled from ``db``.

        Parameters
        ----------
        db:
            The training corpus; ``config.n_train_databases`` sub-databases
            of ``config.train_db_size`` trajectories are sampled from it.
        config:
            Hyper-parameters and ablation switches; defaults to
            :class:`RL4QDTSConfig`.
        distribution:
            Workload distribution name used when no factory is given
            (``"data"``, ``"gaussian"``, ``"zipf"``, ``"real"``): a fresh
            workload is generated per training database.
        workload_factory:
            Full custom control over training workload generation:
            ``factory(sub_db, seed) -> RangeQueryWorkload``. One fixed
            workload for every training database (and at test time) is
            ``lambda _db, _seed: workload``.
        """
        model = cls(config)
        cfg = model.config
        if workload_factory is not None:
            model._workload_factory = workload_factory
            model._distribution = None
        else:
            model._set_distribution(distribution)

        rng = np.random.default_rng(cfg.seed)
        best_params: tuple[dict, dict] | None = None
        for db_round in range(cfg.n_train_databases):
            sub_db = db.sample(cfg.train_db_size, rng)
            train_workload = model._workload_factory(
                sub_db, cfg.seed + 1000 + db_round
            )
            env = QDTSEnvironment(
                sub_db,
                train_workload,
                cfg,
                np.random.default_rng(cfg.seed + 2000 + db_round),
            )
            budget = sub_db.budget_for_ratio(cfg.train_budget_ratio)
            for _ in range(cfg.episodes):
                stats = run_episode(
                    env, model.cube_agent, model.point_agent, budget, learn=True
                )
                model.history.episode_diffs.append(stats.final_diff)
                model.history.episode_rewards.append(stats.total_reward)
                # "The best model is chosen during training" (Section V-A).
                if stats.final_diff < model.history.best_diff:
                    model.history.best_diff = stats.final_diff
                    best_params = (
                        model.cube_agent.get_parameters(),
                        model.point_agent.get_parameters(),
                    )
        if best_params is not None:
            model.cube_agent.set_parameters(best_params[0])
            model.point_agent.set_parameters(best_params[1])
        return model

    # --------------------------------------------------------------- inference
    def simplify(
        self,
        db: TrajectoryDatabase,
        budget_ratio: float | None = None,
        budget: int | None = None,
        workload: RangeQueryWorkload | None = None,
        seed: int | None = None,
        return_stats: bool = False,
    ) -> TrajectoryDatabase | tuple[TrajectoryDatabase, RolloutStats]:
        """Algorithm 1: produce the simplified database D'.

        Parameters
        ----------
        db:
            Database to simplify.
        budget_ratio / budget:
            Exactly one must be given: the compression ratio ``r`` or the
            absolute point budget ``W``.
        workload:
            Range queries used for the octree's query annotations and the
            start-level sampling. Defaults to a data-distribution workload
            generated from ``db`` (no knowledge of test queries; Section
            IV-A).
        seed:
            Seed for start-level sampling; defaults to the config seed.
        return_stats:
            Also return the rollout statistics.
        """
        budget = _resolve_budget(db, budget_ratio, budget)
        if budget < 2 * len(db):
            raise ValueError(
                f"budget {budget} cannot cover 2 endpoints per trajectory"
            )
        simplified, stats = self._greedy_rollout(db, budget, workload, seed)
        if return_stats:
            return simplified, stats
        return simplified

    def _inference_workload(
        self, db: TrajectoryDatabase, seed: int
    ) -> RangeQueryWorkload:
        """The default workload of :meth:`simplify` and :meth:`refine`."""
        if self._distribution is not None:
            # A larger inference sample approximates the (known) query
            # distribution better than re-using the training sample size.
            return RangeQueryWorkload.generate(
                self._distribution,
                db,
                self.config.n_inference_queries,
                seed=seed + 5000,
            )
        if self._workload_factory is None:
            raise ValueError(
                "this model was trained on a custom workload that was not "
                "saved with it; pass workload="
            )
        return self._workload_factory(db, seed + 5000)

    def refine(
        self,
        db: TrajectoryDatabase,
        simplified: TrajectoryDatabase,
        budget_ratio: float | None = None,
        budget: int | None = None,
        workload: RangeQueryWorkload | None = None,
        seed: int | None = None,
    ) -> TrajectoryDatabase:
        """Progressively refine an existing simplification to a larger budget.

        Restores ``simplified`` (which must consist of point subsequences of
        ``db``, as produced by any simplifier in this package) into the
        collective state and continues inserting points with the learned
        policies until the new, larger budget is reached. Storage budgets
        can thus be *upgraded* without starting over — the existing points
        are all retained.

        Parameters mirror :meth:`simplify`; the budget must be at least the
        simplified database's current size.
        """
        from repro.errors.segment import _recover_indices

        budget = _resolve_budget(db, budget_ratio, budget)
        if len(simplified) != len(db):
            raise ValueError("databases must align trajectory-by-trajectory")
        if budget < simplified.total_points:
            raise ValueError(
                f"budget {budget} is below the current size "
                f"{simplified.total_points}; refinement only adds points"
            )
        kept = [_recover_indices(db[t.traj_id], t) for t in simplified]
        return self._greedy_rollout(db, budget, workload, seed, kept)[0]

    def _greedy_rollout(
        self,
        db: TrajectoryDatabase,
        budget: int,
        workload: RangeQueryWorkload | None,
        seed: int | None,
        kept: list[list[int]] | None = None,
    ) -> tuple[TrajectoryDatabase, RolloutStats]:
        """Roll the learned policies out greedily up to ``budget``, from the
        endpoints-only database or, given ``kept``, from those indices."""
        seed = self.config.seed if seed is None else seed
        if workload is None:
            workload = self._inference_workload(db, seed)
        env = QDTSEnvironment(
            db, workload, self.config, np.random.default_rng(seed)
        )
        if kept is not None:
            env.load_kept(kept)
        # A new environment starts from the endpoints-only database.
        stats = run_episode(
            env, self.cube_agent, self.point_agent, budget, reset=False
        )
        return env.state.materialize(), stats

    # ------------------------------------------------------------- persistence
    def save(self, path: str | Path) -> None:
        """Save the config, the training distribution's name and both
        agents' parameters (.npz)."""
        payload: dict[str, np.ndarray] = {}
        for prefix, agent in (("cube", self.cube_agent), ("point", self.point_agent)):
            for name, value in agent.get_parameters().items():
                payload[f"{prefix}_{name}"] = value
        meta = {
            "config": asdict(self.config),
            # None: trained on a custom workload, which is not saved.
            "distribution": self._distribution,
        }
        payload["meta_json"] = np.frombuffer(
            json.dumps(meta).encode(), dtype=np.uint8
        )
        np.savez_compressed(path, **payload)

    @classmethod
    def load(cls, path: str | Path) -> "RL4QDTS":
        """Load a model saved by :meth:`save`."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta_json"]).decode())
            fields = meta["config"]
            dqn = DQNConfig(**fields.pop("dqn"))
            # Files written before the ablation switches joined the config
            # keep them beside it.
            for flag in ("use_agent_cube", "use_agent_point"):
                if flag in meta:
                    fields[flag] = meta[flag]
            model = cls(RL4QDTSConfig(dqn=dqn, **fields))
            # Files written before the key existed were trained on "data".
            distribution = meta.get("distribution", "data")
            if distribution is None:
                model._distribution = None
                model._workload_factory = None
            else:
                model._set_distribution(distribution)
            for prefix, agent in (
                ("cube", model.cube_agent),
                ("point", model.point_agent),
            ):
                params = {
                    key[len(prefix) + 1 :]: data[key]
                    for key in data.files
                    if key.startswith(prefix + "_")
                }
                agent.set_parameters(params)
        return model
