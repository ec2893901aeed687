"""The machine under the benchmark: quiet it, describe it, keep it clean.

Nothing here imports numpy at module level: :func:`quiet_threads` has to
run before numpy (and its BLAS) is first imported.
"""

from __future__ import annotations

import collections
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

SUITE_DIR = Path(__file__).resolve().parent
REPO_ROOT = SUITE_DIR.parents[1]
SRC_DIR = REPO_ROOT / "src"
#: Generated datasets and trace files; ignored by git.
CACHE_DIR = SUITE_DIR / ".cache"
SHM_DIR = Path("/dev/shm")

#: BLAS runs one thread per core by default and would oversubscribe the
#: two cores the server's shard workers need.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

#: The showcase serving path of ROADMAP item 1, identical for every
#: ``serve_*`` workload so that only the traffic differs.
SERVER_ARGS = (
    "--shards", "2",
    "--executor", "process",
    "--store", "shm",
    "--workers", "2",
    "--compaction", "exact",
    "--index", "grid",
    "--listen", "127.0.0.1:0",
)


class HygieneError(RuntimeError):
    """A server process or shared-memory segment exists that should not."""


def quiet_threads() -> None:
    """Pin BLAS/OpenMP to one thread in this process and its children."""
    os.environ.update(THREAD_ENV)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC_DIR), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ------------------------------------------------------------------ description
def describe() -> dict:
    """Facts that explain a disagreement between two sets of runs."""
    import importlib.util

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "load1": os.getloadavg()[0],
    }


def spin_ms() -> float:
    """Wall time of a fixed python+numpy computation (~0.25 s when idle).

    Read before and after the timed rounds: a polluted or throttled
    machine shows here before it shows as a mystery in the metrics.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    a = rng.random((160, 160))
    for _ in range(300):
        a = np.sort(a @ a.T / 160.0, axis=1)
    if acc < 0 or not np.isfinite(a).all():  # keep the work observable
        raise AssertionError("spin computation went wrong")
    return 1000.0 * (time.perf_counter() - start)


#: A round or set-up during which the hypervisor took more than this share
#: of the CPUs' time is polluted. A quiet box reads 0-0.3% under load; a
#: burst measured at 36% stretched a 3 s round to 12 s.
STEAL_LIMIT = 0.02


class StealMeter:
    """Share of all CPU time the hypervisor stole while the block ran.

    Steal (``/proc/stat``) is time a virtual CPU was runnable but the host
    ran something else: the one kind of pollution a guest sees directly.
    """

    share = 0.0

    @staticmethod
    def _ticks() -> tuple[int, int]:
        with open("/proc/stat") as stat:
            fields = [int(v) for v in stat.readline().split()[1:9]]
        return fields[7], sum(fields)

    def __enter__(self) -> "StealMeter":
        self._before = self._ticks()
        return self

    def __exit__(self, *exc) -> None:
        steal, ticks = (a - b for a, b in zip(self._ticks(), self._before))
        self.share = steal / ticks if ticks else 0.0


def median_of_clean(values: list[float], steal: list[float]) -> float:
    """Median over the rounds the hypervisor left alone (all, if none)."""
    clean = [v for v, s in zip(values, steal) if s <= STEAL_LIMIT]
    return statistics.median(clean or values)


# ---------------------------------------------------------------------- hygiene
def _is_repro_serve(tokens: list[str]) -> bool:
    return any(
        a == "repro" and b == "serve" for a, b in zip(tokens, tokens[1:])
    )


def leftovers(shm_dir: Path = SHM_DIR) -> list[str]:
    """Every ``repro serve`` process and ``repro_*`` shm segment alive now.

    SIGTERM on a server parent orphans its shard workers (each burning
    CPU) and their segments; six such orphans were measured to turn a
    1.6 ms ``serve_hit`` p50 into 7.0 ms.
    """
    found = [f"shm segment {p}" for p in sorted(shm_dir.glob("repro_*"))]
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            raw = (entry / "cmdline").read_bytes()
        except OSError:
            continue  # the process ended while we were looking
        tokens = raw.decode(errors="replace").split("\0")
        if _is_repro_serve(tokens):
            found.append(f"process {entry.name}: {' '.join(tokens).strip()}")
    return found


def require_clean(when: str, shm_dir: Path = SHM_DIR) -> None:
    found = leftovers(shm_dir)
    if found:
        raise HygieneError(f"{when} failed: " + "; ".join(found))


# ----------------------------------------------------------------------- server
@dataclass
class Server:
    proc: subprocess.Popen
    host: str
    port: int
    #: spawn -> "listening on" line
    boot_s: float
    tail: collections.deque = field(default_factory=lambda: collections.deque(maxlen=40))
    #: the thread that keeps reading the server's output
    drain: threading.Thread | None = None


def start_server(db_path: Path) -> Server:
    """Spawn ``repro serve`` on an ephemeral port; return once it listens."""
    argv = [sys.executable, "-m", "repro", "serve", "--db", str(db_path), *SERVER_ARGS]
    # A shell's background job runs with SIGINT ignored, exec keeps an
    # ignored signal ignored, and python then never raises
    # KeyboardInterrupt: the server would sit through stop_server(). A
    # handler, unlike SIG_IGN, is reset to the default in the child.
    ignored = signal.getsignal(signal.SIGINT) is signal.SIG_IGN
    if ignored:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=child_env(),
            cwd=str(REPO_ROOT),
        )
    finally:
        if ignored:
            signal.signal(signal.SIGINT, signal.SIG_IGN)
    server = Server(proc, "", 0, 0.0)
    deadline = time.monotonic() + 90
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break  # EOF: the server died before listening
        server.tail.append(line.rstrip())
        if line.startswith("listening on "):
            server.boot_s = time.perf_counter() - start
            host, _, port = line.split()[-1].rpartition(":")
            server.host, server.port = host, int(port)
            break
    if not server.port:
        _kill_tree(proc)
        raise RuntimeError(
            "server never printed its listen address:\n" + "\n".join(server.tail)
        )
    # Keep draining so the server can never block on a full pipe.
    server.drain = threading.Thread(
        target=lambda: server.tail.extend(l.rstrip() for l in proc.stdout),
        daemon=True,
    )
    server.drain.start()
    return server


def stop_server(server: Server) -> int:
    """SIGINT (the only signal that takes the shard workers down too), then
    wait for the server *and everything it started* to be gone.

    The server's multiprocessing resource tracker outlives it by design
    (it exits when the last holder of its pipe has), so waiting for the
    parent alone leaves a process behind for a moment, and a zombie for as
    long as the machine's init takes to reap it.
    """
    proc = server.proc
    started = _descendants(proc.pid)
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    try:
        code = proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        _kill_tree(proc)
        code = proc.wait()
    if not wait_gone(started, timeout=10.0):
        _kill(started)
        wait_gone(started, timeout=10.0)
    if server.drain is not None:
        server.drain.join(timeout=10.0)
    proc.stdout.close()
    return code


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name sits in parentheses and may contain spaces.
        ppid = int(stat.rpartition(")")[2].split()[1])
        children.setdefault(ppid, []).append(int(entry.name))
    out, frontier = [], [pid]
    while frontier:
        frontier = [c for p in frontier for c in children.get(p, [])]
        out.extend(frontier)
    return out


def _kill(pids: list[int]) -> None:
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    for pid in pids:
        for segment in SHM_DIR.glob(f"repro_{pid}_*"):
            segment.unlink(missing_ok=True)


def _kill_tree(proc: subprocess.Popen) -> None:
    """Last resort for a server that ignored SIGINT: leave nothing behind."""
    _kill([proc.pid, *_descendants(proc.pid)])


# --------------------------------------------------- nothing outlives the run
def adopt_orphans() -> bool:
    """Make this process the parent of every orphaned descendant, so that
    it can wait for each of them (Linux ``PR_SET_CHILD_SUBREAPER``).

    Without it a process whose parent has ended belongs to the machine's
    init, and stays a zombie until init gets round to it.
    """
    import ctypes

    try:
        libc = ctypes.CDLL(None, use_errno=True)
        return libc.prctl(36, 1, 0, 0, 0) == 0  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        return False


def _gone(pid: int) -> bool:
    """True once ``pid`` has ended and nothing more can be done about it."""
    try:
        reaped, _ = os.waitpid(pid, os.WNOHANG)
        if reaped == pid:
            return True
    except ChildProcessError:
        pass  # not (or not yet) ours to reap
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return True
    state, ppid = stat.rpartition(")")[2].split()[:2]
    # A zombie under another parent has ended; only that parent can reap it.
    return state == "Z" and int(ppid) != os.getpid()


def wait_gone(pids: list[int], timeout: float) -> bool:
    """Wait for every one of ``pids`` to have ended, reaping those that
    :func:`adopt_orphans` made ours."""
    deadline = time.monotonic() + timeout
    left = list(pids)
    while True:
        left = [p for p in left if not _gone(p)]
        if not left or time.monotonic() >= deadline:
            return not left
        time.sleep(0.005)


def reap_children(grace_s: float = 5.0) -> list[int]:
    """The last thing the command does: end and wait for every process
    this one still has under it. Returns the pids that had to be killed.

    Only for a process that owns all of its children (the command line,
    not a test runner): it reaps whatever it finds.
    """
    try:  # our own resource tracker lives until told otherwise
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:
        pass  # a private API: the sweep below covers its absence
    me = os.getpid()
    wait_gone(_descendants(me), grace_s)
    killed = _descendants(me)
    _kill(killed)
    wait_gone(killed, grace_s)
    return killed


def tree_memory_mb(pid: int) -> float:
    """PSS summed over ``pid`` and its descendants, in MiB.

    PSS, not RSS: the shm base tiers are mapped by the parent and by every
    shard worker and must be counted once. Falls back to RSS where the
    kernel has no ``smaps_rollup``.
    """
    total_kb = 0
    for p in [pid, *_descendants(pid)]:
        try:
            text = Path(f"/proc/{p}/smaps_rollup").read_text()
            key = "Pss:"
        except OSError:
            try:
                text = Path(f"/proc/{p}/status").read_text()
            except OSError:
                continue
            key = "VmRSS:"
        for line in text.splitlines():
            if line.startswith(key):
                total_kb += int(line.split()[1])
                break
    return total_kb / 1024.0
