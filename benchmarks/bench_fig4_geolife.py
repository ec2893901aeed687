"""Figure 4 — comparison with the skyline on Geolife.

RL4QDTS vs the paper's skyline baselines on the Geolife profile across the
budget sweep, for the data distribution (subfigures a-e) and the Gaussian
distribution (subfigures f-j), each scored on all five query tasks.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import SETTINGS, print_comparison, run_comparison
from repro.eval.experiments import PAPER_SKYLINES


@pytest.mark.parametrize("distribution", ["data", "gaussian"])
def bench_fig4_geolife(benchmark, geolife_bench_db, rlts_policies, distribution):
    ratios, series = benchmark.pedantic(
        run_comparison,
        args=(geolife_bench_db, SETTINGS["geolife"], distribution, rlts_policies),
        rounds=1,
        iterations=1,
    )
    print_comparison(f"Figure 4 Geolife ({distribution})", ratios, series)

    # Structural checks that mirror the paper's claims: every method's range
    # F1 stays in [0, 1] and the budget sweep is not flat for the baselines.
    for task, rows in series.items():
        for method, values in rows.items():
            assert all(0.0 <= v <= 1.0 for v in values), (task, method)
    range_rows = series["range"]
    for method in PAPER_SKYLINES[distribution]:
        assert max(range_rows[method]) > min(range_rows[method]), method
    # At the most generous budget everyone should answer range queries
    # reasonably well (curves converge, as in the paper).
    assert all(values[-1] >= 0.4 for values in range_rows.values())
