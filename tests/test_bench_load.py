"""The open-loop load harness: determinism, provenance, stored quantiles.

The harness's whole value is replayability: the same ``--seed`` must
offer the byte-identical request schedule (proved by the sha256 digest
stored with every run), and every appended run must carry enough
provenance that a latency regression can be attributed. The end-to-end
test actually drives a subprocess ``repro serve --listen`` server twice
and checks both appended records, including that the stored p50/p95/p99
are exactly the quantiles derivable from the stored histogram buckets.
"""

from __future__ import annotations

import argparse
import json

import numpy as np
import pytest

from benchmarks import bench_load
from repro.data import synthetic_database
from repro.obs.metrics import Histogram
from repro.obs.provenance import load_runs, validate_run


def harness_args(**overrides) -> argparse.Namespace:
    base = dict(
        qps=40.0, seed=7, requests=20, clients=2, ingest_ratio=0.1,
        zipf_a=1.5, trajectories=16, shards=2,
        executor="serial", index="grid", store="heap", workers=None,
        server_max_inflight=None,
        rate_profile="constant", rate_amplitude=0.6, rate_period=None,
    )
    base.update(overrides)
    return argparse.Namespace(**base)


def small_db(args):
    return synthetic_database(
        "geolife",
        n_trajectories=args.trajectories,
        points_scale=0.08,
        seed=args.seed,
    )


class TestSchedule:
    def test_same_seed_same_schedule_and_digest(self):
        args = harness_args()
        db = small_db(args)
        s1, p1, d1 = bench_load.build_schedule(db, args)
        s2, p2, d2 = bench_load.build_schedule(db, args)
        assert s1 == s2
        assert p1 == p2
        assert d1 == d2

    def test_different_seed_different_digest(self):
        a1 = harness_args(seed=7)
        a2 = harness_args(seed=8)
        _, _, d1 = bench_load.build_schedule(small_db(a1), a1)
        _, _, d2 = bench_load.build_schedule(small_db(a2), a2)
        assert d1 != d2

    def test_schedule_shape(self):
        args = harness_args(requests=60, ingest_ratio=0.2)
        schedule, pools, digest = bench_load.build_schedule(small_db(args), args)
        assert len(schedule) == 60
        assert len(digest) == 64
        ops = {entry["op"] for entry in schedule}
        assert "ingest" in ops  # 20% of 60 slots: overwhelmingly likely
        assert ops <= {"range", "count", "histogram", "knn",
                       "similarity", "ingest"}
        assert json.dumps({"pools": pools, "schedule": schedule})  # JSON-safe

    def test_zero_ingest_ratio_schedules_no_ingest(self):
        args = harness_args(requests=40, ingest_ratio=0.0)
        schedule, _, _ = bench_load.build_schedule(small_db(args), args)
        assert all(entry["op"] != "ingest" for entry in schedule)


class TestRateProfile:
    def test_constant_offsets_are_the_qps_grid(self):
        args = harness_args(qps=40.0, requests=8)
        offsets = bench_load.arrival_offsets(args, 8)
        assert offsets == [i / 40.0 for i in range(8)]

    def test_diurnal_offsets_deterministic_and_increasing(self):
        args = harness_args(rate_profile="diurnal", requests=50)
        o1 = bench_load.arrival_offsets(args, 50)
        o2 = bench_load.arrival_offsets(args, 50)
        assert o1 == o2
        assert all(b > a for a, b in zip(o1, o1[1:]))

    def test_diurnal_actually_modulates_the_gaps(self):
        args = harness_args(rate_profile="diurnal", rate_amplitude=0.6,
                            qps=40.0, requests=60)
        gaps = np.diff(bench_load.arrival_offsets(args, 60))
        # Peak rate ~ qps*(1+A), trough ~ qps*(1-A): the gap spread must
        # reflect that, not collapse to the constant 1/qps grid.
        assert gaps.min() < 1.0 / (40.0 * 1.3)
        assert gaps.max() > 1.0 / (40.0 * 0.7)

    def test_extreme_amplitude_is_clamped(self):
        args = harness_args(rate_profile="diurnal", rate_amplitude=5.0,
                            requests=40)
        offsets = bench_load.arrival_offsets(args, 40)
        assert all(b > a for a, b in zip(offsets, offsets[1:]))
        assert np.isfinite(offsets).all()

    def test_rate_profile_enters_the_digest(self):
        constant = harness_args()
        diurnal = harness_args(rate_profile="diurnal")
        db = small_db(constant)
        s1, _, d1 = bench_load.build_schedule(db, constant)
        s2, _, d2 = bench_load.build_schedule(db, diurnal)
        assert s1 == s2      # the slot sequence itself is rate-agnostic...
        assert d1 != d2      # ...but the digest covers the arrival process

    def test_unknown_profile_raises(self):
        args = harness_args(rate_profile="square-wave")
        with pytest.raises(ValueError, match="square-wave"):
            bench_load.arrival_offsets(args, 4)


def _fake_run(mode="open-loop", throughput=100.0, scaling=3.0, **config):
    base = {
        "mode": mode, "seed": 7, "qps": 40.0, "requests": 20,
        "clients": 2, "workers": None, "ingest_ratio": 0.1, "zipf_a": 1.5,
        "trajectories": 16, "shards": 2,
        "executor": "serial", "index": "grid", "store": "heap",
        "max_inflight": None, "rate_profile": "constant", "rate_amplitude": 0.6,
        "rate_period": None, "workload_digest": "d" * 64,
    }
    base.update(config)
    run = {"config": base, "throughput_qps": throughput}
    if mode == "sweep":
        run["sweep"] = {"scaling_vs_single": scaling}
    return run


class TestGate:
    def _log(self, path, *runs):
        for run in runs:
            bench_load.log_run(path, "bench_load", run)
        return path

    def test_gate_passes_on_equal_runs(self, tmp_path):
        base = self._log(tmp_path / "base.json", _fake_run())
        new = self._log(tmp_path / "new.json", _fake_run())
        assert bench_load.gate_files(new, base, 0.30) == 0

    def test_gate_fails_on_throughput_regression(self, tmp_path):
        base = self._log(tmp_path / "base.json", _fake_run(throughput=100.0))
        new = self._log(tmp_path / "new.json", _fake_run(throughput=60.0))
        assert bench_load.gate_files(new, base, 0.30) == 1

    def test_gate_tolerates_drop_within_threshold(self, tmp_path):
        base = self._log(tmp_path / "base.json", _fake_run(throughput=100.0))
        new = self._log(tmp_path / "new.json", _fake_run(throughput=80.0))
        assert bench_load.gate_files(new, base, 0.30) == 0

    def test_sweep_runs_gate_on_scaling_not_qps(self, tmp_path):
        # Absolute qps halves (slower machine) but scaling holds: pass.
        base = self._log(
            tmp_path / "base.json",
            _fake_run(mode="sweep", throughput=1000.0, scaling=3.0),
        )
        new = self._log(
            tmp_path / "new.json",
            _fake_run(mode="sweep", throughput=500.0, scaling=2.9),
        )
        assert bench_load.gate_files(new, base, 0.30) == 0
        # Scaling collapse fails even with identical absolute qps.
        collapsed = self._log(
            tmp_path / "collapsed.json",
            _fake_run(mode="sweep", throughput=1000.0, scaling=1.1),
        )
        assert bench_load.gate_files(collapsed, base, 0.30) == 1

    def test_gate_matches_last_baseline_with_same_profile(self, tmp_path):
        base = self._log(
            tmp_path / "base.json",
            _fake_run(throughput=500.0),     # stale fast run
            _fake_run(throughput=100.0),     # latest baseline wins
            _fake_run(throughput=900.0, seed=8),  # different profile
        )
        new = self._log(tmp_path / "new.json", _fake_run(throughput=90.0))
        assert bench_load.gate_files(new, base, 0.30) == 0

    def test_gate_fails_without_matching_baseline(self, tmp_path):
        base = self._log(tmp_path / "base.json", _fake_run(seed=8))
        new = self._log(tmp_path / "new.json", _fake_run(seed=7))
        assert bench_load.gate_files(new, base, 0.30) == 1

    def test_digest_mismatch_warns_but_compares(self, tmp_path, capsys):
        base = self._log(tmp_path / "base.json", _fake_run())
        new = self._log(
            tmp_path / "new.json", _fake_run(workload_digest="e" * 64)
        )
        assert bench_load.gate_files(new, base, 0.30) == 0
        assert "digest differs" in capsys.readouterr().out


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def two_runs(self, tmp_path_factory):
        """Drive the live-server harness twice into one provenance log."""
        out = tmp_path_factory.mktemp("bench") / "BENCH_load.json"
        argv = [
            "--qps", "40", "--seed", "7", "--requests", "12",
            "--trajectories", "16", "--clients", "2",
            "--ingest-ratio", "0.1", "--out", str(out),
        ]
        assert bench_load.main(argv) == 0
        assert bench_load.main(argv) == 0
        return out

    def test_two_runs_appended_with_identical_digest(self, two_runs):
        runs = load_runs(two_runs)
        assert len(runs) == 2
        digests = [r["config"]["workload_digest"] for r in runs]
        assert digests[0] == digests[1]  # identical workload sequence
        for run in runs:
            assert validate_run(run) == []
            assert run["completed"] == 12
            assert run["errors"] == []
            assert run["throughput_qps"] > 0
            assert run["config"]["provenance"]["python"]

    def test_stored_quantiles_derive_from_stored_buckets(self, two_runs):
        for run in load_runs(two_runs):
            hist = Histogram.from_json(run["latency"]["histogram"])
            assert hist.count == run["completed"]
            for q, key in ((0.5, "p50_ms"), (0.95, "p95_ms"), (0.99, "p99_ms")):
                assert run["latency"][key] == pytest.approx(
                    1000.0 * hist.quantile(q), rel=1e-12
                )

    def test_server_metrics_recorded_with_run(self, two_runs):
        run = load_runs(two_runs)[-1]
        summary = run["server_metrics"]["summary"]
        assert summary["requests"] > 0
        assert "histograms" in run["server_metrics"]
        # Per-kind client-side histograms cover every op that completed.
        per_kind_total = sum(
            h["count"] for h in run["latency"]["per_kind"].values()
        )
        assert per_kind_total == run["completed"]

    def test_validate_mode_accepts_the_log(self, two_runs, capsys):
        assert bench_load.validate_file(two_runs) == 0
        broken = json.loads(two_runs.read_text())
        broken["runs"][0]["latency"]["p50_ms"] += 1.0
        bad = two_runs.parent / "broken.json"
        bad.write_text(json.dumps(broken))
        assert bench_load.validate_file(bad) == 1
