"""The paper's primary contribution: the RL4QDTS algorithm."""

from repro.core.config import RL4QDTSConfig
from repro.core.env import (
    CUBE_N_ACTIONS,
    CUBE_STATE_DIM,
    STOP_ACTION,
    QDTSEnvironment,
)
from repro.core.features import cube_point_state, point_values
from repro.core.reward import IncrementalRangeEvaluator
from repro.core.rollout import RolloutStats, run_episode
from repro.core.rl4qdts import RL4QDTS, TrainingHistory

__all__ = [
    "RL4QDTSConfig",
    "QDTSEnvironment",
    "CUBE_STATE_DIM",
    "CUBE_N_ACTIONS",
    "STOP_ACTION",
    "cube_point_state",
    "point_values",
    "IncrementalRangeEvaluator",
    "RolloutStats",
    "run_episode",
    "RL4QDTS",
    "TrainingHistory",
]
