"""Process-tree accounting read from ``/proc``: the benchmark's CPU,
memory and clean-up figures for the driver and the Ray session it
starts."""

from __future__ import annotations

import os
import time

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def _stat(pid: int | str) -> list[bytes] | None:
    """Fields of /proc/<pid>/stat after the command name (field 3 on)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            stat = f.read()
    except OSError:
        return None
    return stat[stat.rfind(b")") + 2:].split()


def descendants(pid: int) -> list[int]:
    """Every process below ``pid`` in the process tree, zombies included."""
    kids: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat(name)
            if fields is not None:
                kids.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), ()):
            out.append(c)
            todo.append(c)
    return out


class CpuMeter:
    """CPU seconds used by this process and every process below it.

    Each process is remembered with the last CPU time read for it, so a
    worker that exits between two readings keeps counting (less the CPU
    it used after the last reading): the total never goes down."""

    def __init__(self):
        self._seen: dict[tuple[int, bytes], int] = {}

    def total_s(self) -> float:
        me = os.getpid()
        for p in [me, *descendants(me)]:
            fields = _stat(p)
            if fields is not None:
                # keyed by (pid, start time) so a reused pid is a new process
                self._seen[(p, fields[19])] = int(fields[11]) + int(fields[12])
        return sum(self._seen.values()) / _CLK_TCK


def peak_rss_mb() -> float:
    """Peak resident memory of this process (VmHWM), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def process_start_monotonic() -> float:
    """``time.monotonic()`` value at which this process started."""
    fields = _stat("self")
    started = int(fields[19]) / _CLK_TCK          # seconds after boot
    since = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    return time.monotonic() - since


def nproc() -> int:
    """Processing units available, as coreutils ``nproc`` counts them:
    ``OMP_NUM_THREADS`` / ``OMP_THREAD_LIMIT`` when set, else the CPU
    affinity mask."""
    n = len(os.sched_getaffinity(0))
    for var, limit in (("OMP_NUM_THREADS", False), ("OMP_THREAD_LIMIT", True)):
        try:
            v = int(os.environ.get(var, "").split(",")[0])
        except ValueError:
            continue
        if v > 0:
            n = min(n, v) if limit else v
    return n


def host_cpu() -> tuple[float, float]:
    """(busy, steal) CPU seconds of the whole host so far, from
    /proc/stat: a run's share of them shows how loaded the machine was."""
    with open("/proc/stat") as f:
        v = [int(x) for x in f.readline().split()[1:]]
    busy = sum(v) - v[3] - v[4] - v[7]          # all but idle, iowait, steal
    return busy / _CLK_TCK, v[7] / _CLK_TCK
