"""Failure injection: robustness of the simplifiers to sensor degradation.

An extension beyond the paper's evaluation. Two degradations are injected
into the database *before* simplification:

* **GPS noise** — Gaussian position error on every fix,
* **dropouts** — a fraction of interior fixes missing,

and each simplifier's range-query F1 (against the degraded database's own
truth) is compared to its clean-data score. The interesting question is
whether the method *ranking* survives degradation — a practical concern the
paper does not study.

Also pits the streaming SQUISH extension against its batch counterpart.
"""

from __future__ import annotations

from benchmarks.conftest import SETTINGS, make_evaluator
from repro.baselines import get_baseline, simplify_database, squish
from repro.data import add_gps_noise, drop_points_randomly

_RATIO = 0.045
_METHODS = ("Top-Down(E,PED)", "Bottom-Up(E,SED)")


def _run_robustness(db):
    setting = SETTINGS["geolife"]
    # Degradation scales relative to the data's segment lengths (~8 m).
    variants = {
        "clean": db,
        "noise sigma=15m": add_gps_noise(db, 15.0, seed=1),
        "dropout 30%": drop_points_randomly(db, 0.3, seed=1),
    }
    table: dict[str, dict[str, float]] = {}
    for variant_name, variant_db in variants.items():
        evaluator = make_evaluator(
            variant_db, setting, distribution="data", seed=0
        )
        row: dict[str, float] = {}
        for method in _METHODS:
            simplified = simplify_database(
                variant_db, _RATIO, get_baseline(method)
            )
            row[method] = evaluator.evaluate(simplified, ("range",))["range"]
        row["SQUISH (online)"] = evaluator.evaluate(
            variant_db.map_simplify(
                lambda t: squish(t, max(2, int(_RATIO * len(t))))
            ),
            ("range",),
        )["range"]
        table[variant_name] = row
    return table


def bench_robustness(benchmark, geolife_bench_db):
    table = benchmark.pedantic(
        _run_robustness, args=(geolife_bench_db,), rounds=1, iterations=1
    )

    methods = list(next(iter(table.values())))
    print("\n=== Failure injection: range F1 under sensor degradation ===")
    header = "variant".ljust(18) + "".join(m.rjust(20) for m in methods)
    print(header)
    print("-" * len(header))
    for variant, row in table.items():
        print(
            variant.ljust(18)
            + "".join(f"{row[m]:>20.4f}" for m in methods)
        )

    for variant, row in table.items():
        for method, value in row.items():
            assert 0.0 <= value <= 1.0, (variant, method)
    # Degradation should not catastrophically invert scores: every method
    # still clears half of its clean score under noise.
    for method in methods:
        assert table["noise sigma=15m"][method] >= 0.5 * table["clean"][method]
