"""Smoke test of the benchmark itself: tiny sizes, no timing assertions."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import subprocess
import sys

import pytest

from repro.client import LocalClient
from repro.core import RL4QDTSConfig
from repro.data import synthetic_database

from benchmarks.suite import __main__ as cli
from benchmarks.suite import host, offline, spec
from benchmarks.suite.oracle import Scorecard
from benchmarks.suite.schedule import Materializer, build_plan

EVERY_5TH = dict.fromkeys(spec.EVERY_20TH, 5)
TINY = {
    "serve_miss": spec.Sizes(60, 1, 2, 40, 40, 20, 3, EVERY_5TH),
    "serve_mixed_rw": spec.Sizes(60, 2, 2, 40, 40, 0, 3, EVERY_5TH),
    "offline_simplify": spec.Sizes(60, 2, 2, 120, 0, 20, 3, EVERY_5TH),
}
TINY_TRAINING = RL4QDTSConfig(
    train_db_size=20, n_train_databases=1, episodes=1, train_budget_ratio=0.1, seed=0
)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Tiny sizes, a throw-away cache, and a machine that starts clean
    and must end clean."""
    if host.leftovers():
        pytest.skip("a repro server or shm segment from elsewhere is alive")
    for workload, sizes in TINY.items():
        monkeypatch.setitem(spec.REFERENCE, workload, sizes)
    for name, value in host.THREAD_ENV.items():
        monkeypatch.setenv(name, value)  # so the suite's own setting is undone
    monkeypatch.setattr(offline, "TRAIN_CONFIG", TINY_TRAINING)
    monkeypatch.setattr(host, "CACHE_DIR", tmp_path)
    yield
    assert host.leftovers() == []


def run_cli(capsys, workload: str, trace: int) -> tuple[dict, dict]:
    code = cli.main(
        ["--workload", workload, "--seed", "3", "--seconds", str(spec.REFERENCE_SECONDS), "--trace", str(trace)]
    )
    lines = capsys.readouterr().out.splitlines()
    assert code == 0, lines
    record = json.loads(next(l for l in lines if l.startswith("record ")).removeprefix("record "))
    return json.loads(lines[-1]), record


def test_benchmark_json_names_what_the_suite_prints():
    bench = json.loads((host.REPO_ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(spec.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == spec.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == spec.PER_LAYER
    assert bench["run_seconds"] == spec.REFERENCE_SECONDS
    assert bench["paths"] == [str(host.SUITE_DIR.relative_to(host.REPO_ROOT))]
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer") for e in bench[key]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_the_seed_is_the_schedule(workload):
    db = synthetic_database("geolife", n_trajectories=40, seed=7)
    sizes = spec.Sizes(40, 1, 2, 25, 25, 12, 2, EVERY_5TH)
    first = build_plan(workload, db, 11, sizes)
    assert build_plan(workload, db, 11, sizes).digest == first.digest
    assert build_plan(workload, db, 12, sizes).digest != first.digest
    kinds = [e[0] for r in first.rounds for e in r.entries]
    assert ("ingest" in kinds) == (workload == "serve_mixed_rw")


def test_the_oracle_notices_one_corrupted_reply():
    db = synthetic_database("geolife", n_trajectories=40, seed=7)
    plan = build_plan("serve_miss", db, 1, spec.Sizes(40, 1, 1, 20, 0, 12, 1, EVERY_5TH))
    make = Materializer(db)
    client = LocalClient(db)
    card = Scorecard(exact=True)
    for entry in plan.rounds[1].entries:
        truth = client.execute(make(entry))
        assert card.compare(truth, client.execute(make(entry)))
    assert card.mismatched == 0
    request = make(next(e for e in plan.rounds[1].entries if e[0] == "range"))
    truth = client.execute(request)
    corrupted = dataclasses.replace(
        truth, result_sets=[set(s) ^ {len(db) + 1} for s in truth.result_sets]
    )
    assert not card.compare(truth, corrupted)
    assert card.mismatched == 1


def test_hygiene_trips_on_a_planted_segment():
    planted = host.SHM_DIR / f"repro_suite_smoke_{os.getpid()}"
    planted.write_bytes(b"")
    try:
        with pytest.raises(host.HygieneError, match="precondition failed.*repro_suite_smoke"):
            host.require_clean("precondition")
    finally:
        planted.unlink()


@pytest.mark.parametrize("workload", ["serve_mixed_rw", "offline_simplify"])
def test_end_to_end_run_prints_every_metric_and_is_correct(tiny, capsys, workload):
    result, record = run_cli(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == spec.END_TO_END
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert re.fullmatch(r"[0-9a-f]{64}", record["digest"])
    if workload == "serve_mixed_rw":
        assert record["samples"]["ingest"] > 0  # the data really grew under the oracle


@pytest.mark.parametrize("workload", ["serve_miss", "offline_simplify"])
def test_traced_run_prints_every_layer_and_a_well_formed_span_tree(tiny, capsys, workload):
    result, record = run_cli(capsys, workload, trace=1)
    assert {n: m["unit"] for n, m in result["metrics"].items()} == spec.PER_LAYER
    traces: dict = {}
    with open(record["trace_file"]) as lines:
        for line in lines:
            span = json.loads(line)
            assert set(span) == {"trace_id", "name", "start", "end", "parent"}
            assert span["start"] <= span["end"]
            traces.setdefault(span["trace_id"], []).append(span)
    assert traces
    for spans in traces.values():
        names = [s["name"] for s in spans]
        assert len(names) == len(set(names))
        roots = [s["name"] for s in spans if s["parent"] is None]
        assert roots in (["service.server"], ["queries.engine"], ["setup"])
        assert all(s["parent"] in names for s in spans if s["parent"] is not None)
    if workload == "serve_miss":
        # Rung 3 really contains rung 2, so the codec's share cannot be negative.
        for kind in ("range", "count", "histogram", "knn", "similarity"):
            assert result["metrics"][f"service.requests.{kind}_ms"]["value"] >= 0
            assert result["metrics"][f"service.requests.{kind}_req_bytes"]["value"] > 0


def test_the_command_outlives_everything_under_it():
    """A grandchild whose parent has ended (as a server's resource tracker
    does) is adopted, waited for, and killed when it will not leave."""
    grandchild = (
        "import signal, time; signal.signal(signal.SIGTERM, signal.SIG_IGN); time.sleep(600)"
    )
    child = (
        "import subprocess, sys; "
        f"print(subprocess.Popen([sys.executable, '-c', {grandchild!r}]).pid)"
    )
    script = (
        "import subprocess, sys\n"
        "from benchmarks.suite import host\n"
        "if not host.adopt_orphans(): sys.exit(77)\n"
        f"subprocess.run([sys.executable, '-c', {child!r}], check=True)\n"
        "print(*host.reap_children(grace_s=0.2))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        cwd=host.REPO_ROOT, capture_output=True, text=True, timeout=60,
    )
    if done.returncode == 77:
        pytest.skip("this kernel has no PR_SET_CHILD_SUBREAPER")
    assert done.returncode == 0, done.stderr
    orphan, killed = done.stdout.split()
    assert orphan == killed
    assert not os.path.exists(f"/proc/{orphan}")
