"""``agree SET_A SET_B``: do two sets of runs of the same code agree?

A set is a directory of ``--out`` files. For every workload x end-to-end
metric the table shows both medians, both inter-quartile ranges (as a
share of the median), how much worse set B's median is than set A's, and
the bound from ``BENCHMARK.json``. The exit code is non-zero when B is
worse than A by more than a bound anywhere. A spread wider than its bound
is marked ``noisy``: that set cannot resolve a regression of that size.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

from .host import REPO_ROOT


def load_set(directory: Path) -> dict[str, dict[str, list[float]]]:
    """``{workload: {metric: [value per run]}}`` of the untraced runs."""
    values: dict[str, dict[str, list[float]]] = {}
    for path in sorted(directory.glob("*.json")):
        run = json.loads(path.read_text())
        record = run["record"]
        if record["trace"]:
            continue
        per_metric = values.setdefault(record["workload"], {})
        for name, metric in run["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Inter-quartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.suite agree", description=__doc__)
    parser.add_argument("set_a", type=Path)
    parser.add_argument("set_b", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.set_a), load_set(args.set_b)

    disagreements = 0
    print("| workload | metric | median A | IQR A | median B | IQR B | B worse by | bound | |")
    print("|---|---|---|---|---|---|---|---|---|")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va, vb = a.get(workload, {}).get(name), b.get(workload, {}).get(name)
            if not va or not vb:
                print(f"| {workload} | {name} | missing from a set | | | | | {bound:.0%} | FAIL |")
                disagreements += 1
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            sa, sb = spread(va), spread(vb)
            verdict = "ok" if worse <= bound else "FAIL"
            disagreements += worse > bound
            if max(sa, sb) > bound:
                verdict += ", noisy"
            print(
                f"| {workload} | {name} | {ma:.4g} | {sa:.1%} | {mb:.4g} | {sb:.1%} "
                f"| {worse:+.1%} | {bound:.0%} | {verdict} |"
            )
    print(f"{disagreements} disagreement(s)")
    return 1 if disagreements else 0
