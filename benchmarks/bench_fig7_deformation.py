"""Figure 7 — deformation study.

Measures the mean SED deformation of the trajectories *returned by range
queries* (not of all trajectories): a query-aware simplifier should keep the
queried trajectories better preserved even though error-driven baselines
optimize SED globally. Run for the data and Gaussian query distributions on
the Geolife profile.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import (
    SETTINGS,
    make_workload_factory,
    paper_methods,
    print_series,
)
from repro.eval import query_deformation

_RATIOS = (0.02, 0.045, 0.1)


def _run_deformation(db, rlts_policies, distribution):
    setting = SETTINGS["geolife"]
    eval_workload = make_workload_factory(distribution, setting, db, 100)(db, 0)
    methods = paper_methods(db, setting, distribution, rlts_policies)
    rows = {name: [] for name in methods}
    for ratio in _RATIOS:
        for name, method in methods.items():
            rows[name].append(
                query_deformation(db, method(db, ratio), eval_workload, "sed")
            )
    return rows


@pytest.mark.parametrize("distribution", ["data", "gaussian"])
def bench_fig7_deformation(benchmark, geolife_bench_db, rlts_policies, distribution):
    rows = benchmark.pedantic(
        _run_deformation,
        args=(geolife_bench_db, rlts_policies, distribution),
        rounds=1,
        iterations=1,
    )
    print_series(
        f"Figure 7 ({distribution}): mean SED of query-returned trajectories (m)",
        _RATIOS,
        rows,
    )
    print("paper: RL4QDTS sits below every skyline method at all budgets")

    for method, values in rows.items():
        assert all(v >= 0.0 for v in values), method
        # Deformation shrinks as the budget grows.
        assert values[-1] <= values[0] + 1e-9, method
