"""The benchmark's datasets: generated once, cached on disk.

The synthetic generator is the benchmark's load generator, not the
program under test (~2 ms of pure python per trajectory), so its output
is cached under ``.cache/`` and its time is reported apart from set-up.
"""

from __future__ import annotations

import hashlib
import os
import time
from pathlib import Path

from repro.data import save_database, synthetic_database
from repro.data import synthetic as _synthetic

from . import host

PROFILE = "geolife"
#: The data never depends on ``--seed``; only the request schedule does.
DATA_SEED = 7


def dataset_path(n_trajectories: int) -> tuple[Path, float]:
    """The cached ``.npz`` of ``n_trajectories`` and the seconds spent
    generating it in this call (0.0 on a cache hit)."""
    generator = hashlib.sha256(Path(_synthetic.__file__).read_bytes()).hexdigest()
    path = host.CACHE_DIR / (
        f"{PROFILE}-n{n_trajectories}-seed{DATA_SEED}-{generator[:12]}.npz"
    )
    if path.exists():
        return path, 0.0
    host.CACHE_DIR.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    db = synthetic_database(PROFILE, n_trajectories=n_trajectories, seed=DATA_SEED)
    elapsed = time.perf_counter() - start
    # np.savez appends ".npz" to other suffixes, so the temporary keeps it.
    tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
    save_database(db, tmp)
    os.replace(tmp, path)
    return path, elapsed
