"""The repo's one repeatable benchmark: four workloads, one metric vocabulary.

Run from the repository root (the entry point puts ``src/`` on the path
itself)::

    python3 -m benchmarks.suite --workload serve_miss --seed 1 --seconds 18 --trace 0
    python3 -m benchmarks.suite --workload serve_miss --seed 1 --seconds 18 --trace 1
    python3 -m benchmarks.suite agree SET_A SET_B

See ``README.md`` in this directory for the workloads, the metrics, what
each per-layer metric is predicted to move, and the measured run-to-run
agreement table.
"""
