"""Process accounting read straight from ``/proc`` (Linux only).

CPU time of a process tree is kept by ``CpuLedger``. Summing each live
process's own time plus its ``children_user``/``children_system`` is not
enough under Ray: the raylet reaps its workers without waiting for them
(SIGCHLD ignored), so an exited actor's CPU reaches no counter, and a naive
sum over live processes can even go negative when an actor pool exits.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import threading
import time

_TICK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int) -> tuple[int, int, int]:
    """(ppid, start time, utime + stime) of ``pid``, times in clock ticks."""
    with open(f"/proc/{pid}/stat", "rb") as f:
        data = f.read()
    rest = data[data.rindex(b")") + 2 :].split()
    return int(rest[1]), int(rest[19]), int(rest[11]) + int(rest[12])


def _table() -> dict[int, tuple[int, int, int]]:
    out = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                out[int(name)] = _stat(int(name))
            except (OSError, ValueError, IndexError):
                pass  # exited while listing
    return out


def descendants(root: int, table: dict | None = None) -> list[int]:
    table = _table() if table is None else table
    kids: dict[int, list[int]] = {}
    for pid, (ppid, _, _) in table.items():
        kids.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        for child in kids.get(todo.pop(), ()):
            out.append(child)
            todo.append(child)
    return out


class CpuLedger:
    """CPU seconds used by a process and all its descendants, including
    those that have exited. ``sample`` records each process's own CPU time;
    a process that exits keeps its last sampled value, so call ``sample``
    often (``run`` does, from a thread): CPU used after the last sample
    before an exit is lost."""

    def __init__(self, root: int | None = None):
        self.root = os.getpid() if root is None else root
        self._last: dict[tuple[int, int], int] = {}  # (pid, start) → ticks
        self._lock = threading.Lock()

    def sample(self) -> None:
        table = _table()
        with self._lock:
            for pid in descendants(self.root, table) + [self.root]:
                if pid in table:
                    self._last[(pid, table[pid][1])] = table[pid][2]

    def total_s(self, include_root: bool = True) -> float:
        self.sample()
        with self._lock:
            ticks = sum(v for (pid, _), v in self._last.items() if include_root or pid != self.root)
        return ticks / _TICK

    def run(self, stop: threading.Event, every_s: float = 0.2) -> None:
        while not stop.wait(every_s):
            self.sample()


def steal_s() -> float:
    """CPU seconds the hypervisor has taken from this VM, all CPUs."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) / _TICK if len(fields) > 8 else 0.0


def _status_kb(pid: int, key: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith(key):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def rss_mb(pid: int | None = None) -> float:
    return _status_kb(os.getpid() if pid is None else pid, "VmRSS:") / 1024


def peak_rss_mb(pid: int | None = None) -> float:
    return _status_kb(os.getpid() if pid is None else pid, "VmHWM:") / 1024


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS counter at its current RSS."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def workers_peak_rss_mb(root: int | None = None) -> float:
    """Largest peak RSS among the Ray workers and actors under ``root``
    (the processes whose title starts with ``ray::``)."""
    peak = 0.0
    for pid in descendants(os.getpid() if root is None else root):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as f:
                if not f.read(5).startswith(b"ray::"):
                    continue
        except OSError:
            continue
        peak = max(peak, peak_rss_mb(pid))
    return peak


def _gone(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            data = f.read()
    except OSError:
        return True
    return data[data.rindex(b")") + 2 :][:1] == b"Z"


def kill_tree(root: int | None = None, timeout: float = 15.0) -> list[int]:
    """SIGKILL every descendant of ``root``, reap the ones that are our
    children and wait until the others have ended. Returns the pids still
    running at the timeout."""
    root = os.getpid() if root is None else root
    pids = descendants(root)
    for pid in pids:
        try:
            os.kill(pid, 9)
        except OSError:
            pass
    deadline = time.monotonic() + timeout
    left = list(pids)
    while left and time.monotonic() < deadline:
        for pid in left:
            try:
                os.waitpid(pid, os.WNOHANG)
            except OSError:
                pass  # not our child: its new parent reaps it
        left = [p for p in left if not _gone(p)]
        if left:
            time.sleep(0.05)
    return left


def kill_matching(needle: bytes) -> int:
    """Kill processes (other than this one) whose command line contains
    ``needle``; returns how many were signalled."""
    n = 0
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == os.getpid():
            continue
        try:
            with open(f"/proc/{name}/cmdline", "rb") as f:
                if needle in f.read():
                    os.kill(int(name), 9)
                    n += 1
        except OSError:
            pass
    return n


def _nproc() -> int | None:
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def _read(path: str) -> str | None:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return None


def _git_commit(root: str) -> str | None:
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_sha256(root: str, package: str = "jsonld_ex_ray") -> str:
    """Digest of the package's Python sources, which identifies the code
    under test where the checkout is not a git repository."""
    h = hashlib.sha256()
    base = os.path.join(root, package)
    for dirpath, dirnames, filenames in sorted(os.walk(base)):
        dirnames.sort()
        for fn in sorted(filenames):
            if fn.endswith(".py"):
                path = os.path.join(dirpath, fn)
                h.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def host_stamp(root: str, ray_cpus: float | None) -> dict:
    import duckdb
    import polars
    import pyarrow
    import ray

    mem_kb = _status_kb_meminfo()
    return {
        "nproc": _nproc(),
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "schedulable_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "ray_logical_cpus": ray_cpus,
        "ram_gb": round(mem_kb / 1024 / 1024, 2),
        "loadavg": list(os.getloadavg()),
        "python": sys.version.split()[0],
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "polars": polars.__version__,
        "duckdb": duckdb.__version__,
        "git_commit": _git_commit(root),
        "source_sha256": source_sha256(root),
    }


def _status_kb_meminfo() -> int:
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    return 0
