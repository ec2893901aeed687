"""Evaluation harness: query-accuracy F1 over the paper's five query tasks."""

from repro.eval.harness import QuerySuiteConfig, QueryAccuracyEvaluator, ALL_TASKS
from repro.eval.deformation import mean_sed_deformation, query_deformation
from repro.eval.stats import Summary, summarize, sign_test, bootstrap_diff_ci
from repro.eval.report import ExperimentTable, series_table, format_cell
from repro.eval.experiments import (
    ConfigResult,
    MethodResult,
    TrialResult,
    compare_methods,
    baseline_method,
    grid_search,
    rl4qdts_method,
    score_configs,
)

__all__ = [
    "QuerySuiteConfig",
    "QueryAccuracyEvaluator",
    "ALL_TASKS",
    "mean_sed_deformation",
    "query_deformation",
    "MethodResult",
    "compare_methods",
    "baseline_method",
    "rl4qdts_method",
    "ConfigResult",
    "score_configs",
    "TrialResult",
    "grid_search",
    "Summary",
    "summarize",
    "sign_test",
    "bootstrap_diff_ci",
    "ExperimentTable",
    "series_table",
    "format_cell",
]
