"""Command line: one run of one workload, or ``agree`` over two sets of runs."""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

from . import host


def _run(args) -> int:
    from . import offline, serve
    from .spec import END_TO_END, PER_LAYER, sizes_for

    sizes = sizes_for(args.workload, args.seconds)
    module = offline if args.workload == "offline_simplify" else serve
    # A terminated benchmark must still take its servers down: turn
    # SIGTERM into an exit that unwinds through every ``finally``.
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        outcome = module.run(args.workload, args.seed, sizes, bool(args.trace))
    except host.HygieneError as exc:
        print(exc, file=sys.stderr)
        return 3
    finally:
        signal.signal(signal.SIGTERM, previous)

    units = PER_LAYER if args.trace else END_TO_END
    missing = sorted(set(units) - set(outcome.metrics))
    if missing:
        raise RuntimeError(f"{args.workload} did not measure {missing}")
    metrics = {
        name: {"value": float(outcome.metrics[name]), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "host": host.describe(),
        "warnings": outcome.warnings,
        **outcome.record,
    }
    print(f"schedule sha256 {record.get('digest')}")
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:14.6f} {m['unit']}")
    for problem in outcome.problems:
        print(f"FAILED: {problem}")
    for warning in outcome.warnings:
        print(f"WARNING: {warning}")
    print("record " + json.dumps(record, sort_keys=True))
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    if args.out:
        Path(args.out).write_text(json.dumps({**result, "record": record}) + "\n")
    print(line)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "agree":
        from . import agree

        return agree.main(argv[1:])
    # Quiet BLAS before numpy is first imported, and find the program.
    host.quiet_threads()
    if not (host.SRC_DIR / "repro").is_dir():
        print(f"the program under test is missing: {host.SRC_DIR}/repro", file=sys.stderr)
        return 2
    if str(host.SRC_DIR) not in sys.path:
        sys.path.insert(0, str(host.SRC_DIR))
    from .spec import REFERENCE_SECONDS, WORKLOADS

    parser = argparse.ArgumentParser(prog="python3 -m benchmarks.suite", description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1,
                        help="seeds the request schedule (never the data)")
    parser.add_argument("--seconds", type=float, default=REFERENCE_SECONDS,
                        help="scales the request counts; the reference box "
                        "spends about this long in timed rounds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: the "
                        "per-layer metrics and a span file")
    parser.add_argument("--out", help="also write the result and run record here")
    return _run(parser.parse_args(argv))


if __name__ == "__main__":
    # This process owns every process under it: adopt the ones whose parent
    # ends first, and leave only when the last of them has.
    host.adopt_orphans()
    try:
        code = main()
    finally:
        killed = host.reap_children()
        if killed:
            print(f"killed {len(killed)} process(es) that outstayed the run", file=sys.stderr)
    sys.exit(code)
