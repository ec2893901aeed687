"""Configuration for RL4QDTS (paper, Sections IV-D and V-A).

The paper's hyper-parameters target databases of millions of points
(``S = 9``, ``E = 12``, 1M transitions). This reproduction runs the same
algorithm at laptop scale, so the defaults are correspondingly smaller; every
knob is exposed and the parameter-study benchmark sweeps the important ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rl.dqn import DQNConfig


@dataclass(frozen=True, slots=True)
class RL4QDTSConfig:
    """All hyper-parameters of the RL4QDTS algorithm, the Table II ablation
    switches included: one config names one row of an experiment.

    Attributes
    ----------
    start_level:
        ``S``: Agent-Cube starts its traversal at a node sampled (following
        the query distribution) at this octree level.
    end_level:
        ``E``: maximum traversal depth; reaching it forces a stop. Also the
        octree's maximum build depth.
    k_candidates:
        ``K``: size of Agent-Point's state / action space (paper default 2).
    point_feature:
        Which value ranks Agent-Point's candidates: ``"vs"`` (spatial
        synchronized deviation; the paper's choice) or ``"vt"`` (temporal
        deviation; the design alternative the paper reports as worse).
    delta:
        ``Δ``: number of insertions between reward evaluations (paper: 50).
    n_training_queries:
        Number of range queries in the training workload (paper: 100).
    n_inference_queries:
        Number of range queries sampled at simplification time when no
        explicit workload is passed. A larger sample approximates the query
        *distribution* more faithfully (it is the distribution, not the
        sample, that is assumed known; Section IV-A), improving transfer to
        unseen test queries.
    episodes:
        Training episodes per training database (paper: 5).
    n_train_databases:
        Number of randomly sampled training databases (paper: 12).
    train_db_size:
        Trajectories per training database (paper: 500 for Geolife).
    train_budget_ratio:
        Compression ratio used to roll out training episodes.
    leaf_capacity:
        Octree leaf split threshold.
    index:
        Which cube tree partitions the database: ``"octree"`` (midpoint
        splits; the paper's choice) or ``"kdtree"`` (median splits; the
        alternative the paper leaves as future work).
    learner:
        RL algorithm for both agents: ``"dqn"`` (the paper's choice; set
        ``dqn.double_dqn`` for Double-DQN targets) or ``"reinforce"``
        (the policy-gradient alternative the paper mentions).
    use_agent_cube:
        Ablation switch (Table II). Off, the start-level cube sampled by the
        query distribution is used as is, without Agent-Cube's descent.
    use_agent_point:
        Ablation switch (Table II). Off, the maximum-``v_s`` candidate of
        the chosen cube is inserted, without asking Agent-Point.
    learn_every:
        Environment steps between DQN mini-batch updates.
    dqn:
        DQN hyper-parameters (network width, lr, ε schedule, replay, ...).
    seed:
        Master seed; all per-component generators derive from it.
    """

    start_level: int = 4
    end_level: int = 7
    k_candidates: int = 2
    point_feature: str = "vs"
    delta: int = 25
    n_training_queries: int = 50
    n_inference_queries: int = 200
    episodes: int = 3
    n_train_databases: int = 2
    train_db_size: int = 40
    train_budget_ratio: float = 0.02
    leaf_capacity: int = 16
    index: str = "octree"
    learner: str = "dqn"
    use_agent_cube: bool = True
    use_agent_point: bool = True
    learn_every: int = 4
    dqn: DQNConfig = field(default_factory=DQNConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.start_level < 1:
            raise ValueError("start_level must be >= 1")
        if self.end_level < self.start_level:
            raise ValueError("end_level must be >= start_level")
        if self.k_candidates < 1:
            raise ValueError("k_candidates must be >= 1")
        if self.point_feature not in ("vs", "vt"):
            raise ValueError("point_feature must be 'vs' or 'vt'")
        if self.index not in ("octree", "kdtree"):
            raise ValueError("index must be 'octree' or 'kdtree'")
        if self.learner not in ("dqn", "reinforce"):
            raise ValueError("learner must be 'dqn' or 'reinforce'")
        if self.delta < 1:
            raise ValueError("delta must be >= 1")
        if not 0.0 < self.train_budget_ratio <= 1.0:
            raise ValueError("train_budget_ratio must be in (0, 1]")
