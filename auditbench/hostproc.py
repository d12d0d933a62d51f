"""Readings from ``/proc``: process CPU and memory, host steal time."""

from __future__ import annotations

import time
from dataclasses import dataclass


def cpu_seconds(pid: int) -> float:
    """User + system CPU of every thread of *pid* so far, in ns resolution.

    Reads the process's CPU-time clock (Linux encodes the clock id of
    process *pid* as ``(~pid << 3) | CPUCLOCK_SCHED``); ``/proc/<pid>/stat``
    only counts whole scheduler ticks, too coarse for short windows.
    """
    return time.clock_gettime(((~pid) << 3) | 2)


def memory_kb(pid: int, key: str) -> int:
    """A ``/proc/<pid>/status`` size such as ``VmRSS`` or ``VmHWM``, in kB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(key + ":"):
                return int(line.split()[1])
    raise KeyError(f"{key} not in /proc/{pid}/status")


@dataclass(frozen=True)
class HostTimes:
    """The aggregate ``cpu`` line of ``/proc/stat``."""

    steal: int
    total: int

    @classmethod
    def sample(cls) -> "HostTimes":
        with open("/proc/stat") as handle:
            values = [int(v) for v in handle.readline().split()[1:]]
        # user nice system idle iowait irq softirq steal [guest guest_nice]
        # guest time is already counted in user/nice.
        return cls(steal=values[7] if len(values) > 7 else 0, total=sum(values[:8]))

    def steal_share_since(self, earlier: "HostTimes") -> float:
        """Share of all CPU time the hypervisor took away between two samples."""
        total = self.total - earlier.total
        return (self.steal - earlier.steal) / total if total > 0 else 0.0
