"""Shared fixtures for the test suite.

Fixtures are deliberately small (tens of trajectories, hundreds of points)
so the full suite stays fast; the benchmark harness exercises realistic
scales.
"""

from __future__ import annotations

import base64
import os

import numpy as np
import pytest
from hypothesis import settings

from repro.data import Trajectory, TrajectoryDatabase, synthetic_database
from repro.eval.harness import QueryAccuracyEvaluator
from repro.workloads import RangeQueryWorkload

# Tier-1 is deterministic: every property test draws the same examples on
# every run, so a red test is red every time and a green one stays green.
settings.register_profile("derandomized", derandomize=True)


def pytest_configure(config):
    # ``--hypothesis-profile=default`` (CI's randomized step) still wins.
    if not config.getoption("--hypothesis-profile"):
        settings.load_profile("derandomized")


def repro_shm_segments() -> list[str]:
    """Names of live ``repro_*`` shared-memory segments (POSIX only)."""
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith("repro_"))
    except FileNotFoundError:  # non-POSIX or shm-less container
        return []


def service_segments(service) -> list[str]:
    """The ``/dev/shm`` entries of a ``store="shm"`` service's snapshot
    store — the only segment family a service ever creates."""
    prefix = service._store.prefix
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith(prefix))


@pytest.fixture(scope="session", autouse=True)
def no_shm_leaks():
    """Fail the run if any test leaks a ``repro_*`` shared-memory segment.

    Runs once around the whole session: every store/service/executor test
    is expected to unlink its segments on close, including exception
    paths. Only snapshot stores create segments — shard workers keep
    compacted tiers on their own heap — so killed and watchdog-restarted
    workers have nothing to leak, and each store's close unlinks exactly
    the segments it recorded.
    """
    before = repro_shm_segments()
    yield
    leaked = [name for name in repro_shm_segments() if name not in before]
    assert not leaked, f"leaked shared-memory segments: {leaked}"


def make_trajectory(n: int = 10, seed: int = 0, traj_id: int = 0) -> Trajectory:
    """A random but valid trajectory of ``n`` points."""
    rng = np.random.default_rng(seed)
    xy = rng.uniform(0.0, 100.0, size=(n, 2))
    t = np.cumsum(rng.uniform(1.0, 5.0, size=n))
    return Trajectory(np.column_stack([xy, t]), traj_id=traj_id)


def initial_db(seed: int, n: int = 8) -> TrajectoryDatabase:
    """``n`` random trajectories of 4–11 points, all drawn from ``seed``."""
    return TrajectoryDatabase(
        [make_trajectory(n=4 + (seed + i) % 8, seed=seed + i) for i in range(n)]
    )


def serving_db(n: int, seed: int = 5) -> TrajectoryDatabase:
    """A small synthetic Geolife-profile database of ``n`` trajectories."""
    return synthetic_database(
        "geolife", n_trajectories=n, points_scale=0.05, seed=seed
    )


def knn_suite(db, n_queries: int, seed: int = 1):
    """``n_queries`` distinct query trajectories drawn from ``db``, with
    their central time windows, as the accuracy harness builds them."""
    rng = np.random.default_rng(seed)
    qids = [int(i) for i in rng.choice(len(db), size=n_queries, replace=False)]
    queries = [db[q] for q in qids]
    windows = [QueryAccuracyEvaluator._central_window(q) for q in queries]
    return queries, windows


def shifted_batch(db, n: int, *, seed: int, shift: tuple[float, float]):
    """``n`` ingestable copies of random ``db`` members moved by ``shift``
    in x and y, so they land outside (or at the edge of) the extent."""
    rng = np.random.default_rng(seed)
    offset = np.array([shift[0], shift[1], 0.0])
    return [
        Trajectory(db[int(rng.integers(len(db)))].points + offset)
        for _ in range(n)
    ]


def wire_array(values, dtype: str = "<f8", shape=None) -> dict:
    """A wire array block built by hand: base64 of the C-order little-endian
    bytes, with ``shape`` overriding the true one. Written independently of
    the codec so tests pin the byte layout, not just a round trip."""
    arr = np.asarray(values, dtype=dtype)
    return {
        "shape": list(arr.shape if shape is None else shape),
        "data": base64.b64encode(arr.tobytes()).decode("ascii"),
    }


def hostile_points_payloads() -> list[tuple[str, object, str]]:
    """``(case, points block, error regex)`` for trajectory-point payloads
    every decoder must refuse with a ``RequestError``."""
    rows = [[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]
    good = wire_array(rows)  # 48 bytes, 64 base64 characters

    def with_bits(pattern: int) -> dict:
        """``rows`` with one x replaced by a raw IEEE-754 bit pattern."""
        arr = np.array(rows)
        arr.view(np.uint64)[1, 0] = pattern
        return wire_array(arr)

    return [
        ("non-base64", {**good, "data": "*" * 64}, "not valid base64"),
        ("non-ascii", {**good, "data": "\u00e9" * 64}, "not valid base64"),
        ("truncated mid-quantum", {**good, "data": good["data"][:-3]},
         "not valid base64"),
        ("truncated", {**good, "data": good["data"][:-4]}, "carries 45 bytes"),
        ("length != shape", {**good, "shape": [3, 3]}, "carries 48 bytes"),
        ("rank 1", {**good, "shape": [6]}, "list of 2 non-negative"),
        ("rank 3", {**good, "shape": [2, 3, 1]}, "list of 2 non-negative"),
        ("bool dim", {**good, "shape": [True, 3]}, "list of 2 non-negative"),
        ("negative dims", {**good, "shape": [-2, -3]}, "list of 2 non-negative"),
        ("float dim", {**good, "shape": [2.0, 3]}, "list of 2 non-negative"),
        ("huge shape", {**good, "shape": [2**61, 3]}, "carries 48 bytes"),
        ("wrong columns", wire_array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]),
         r"\[x, y, t\]"),
        ("data not a string", {**good, "data": None}, "base64 string"),
        ("quiet NaN", with_bits(0x7FF8000000000000), "finite"),
        ("signalling NaN", with_bits(0x7FF0000000000001), "finite"),
        ("+Infinity", with_bits(0x7FF0000000000000), "finite"),
        ("-Infinity", with_bits(0xFFF0000000000000), "finite"),
        ("v1 list form", rows, "base64 little-endian <f8"),
    ]


@pytest.fixture
def straight_line_trajectory() -> Trajectory:
    """Ten collinear, regularly sampled points along y = x."""
    xs = np.arange(10.0)
    points = np.column_stack([xs, xs, xs])
    return Trajectory(points)


@pytest.fixture
def zigzag_trajectory() -> Trajectory:
    """A trajectory with alternating sharp detours (hard to simplify)."""
    n = 20
    xs = np.arange(float(n))
    ys = np.where(np.arange(n) % 2 == 0, 0.0, 10.0)
    return Trajectory(np.column_stack([xs, ys, xs]))


@pytest.fixture
def random_trajectory() -> Trajectory:
    return make_trajectory(n=30, seed=42)


@pytest.fixture
def small_db() -> TrajectoryDatabase:
    """A deterministic 12-trajectory database."""
    return TrajectoryDatabase(
        [make_trajectory(n=10 + 2 * i, seed=i, traj_id=i) for i in range(12)]
    )


@pytest.fixture(scope="session")
def geolife_db() -> TrajectoryDatabase:
    """A session-wide synthetic Geolife-profile database."""
    return synthetic_database("geolife", n_trajectories=25, points_scale=0.04, seed=11)


@pytest.fixture(scope="session")
def chengdu_db() -> TrajectoryDatabase:
    """A session-wide synthetic Chengdu-profile database."""
    return synthetic_database("chengdu", n_trajectories=40, points_scale=0.4, seed=13)


@pytest.fixture
def small_workload(small_db) -> RangeQueryWorkload:
    return RangeQueryWorkload.from_data_distribution(small_db, 15, seed=5)
