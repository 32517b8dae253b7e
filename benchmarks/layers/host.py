"""What the benchmark reads from the host: memory, speed, and who ran it."""

from __future__ import annotations

import heapq
import os
import platform
import resource
import subprocess
import time
from typing import Any, Dict, List

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def rss_now_kb() -> float:
    """Current resident set of this process."""
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1024.0


def rss_peak_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports kilobytes)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class HostSpeed:
    """How fast this host's CPU is right now, relative to a reference.

    The VMs this runs on change speed under the benchmark: identical
    pure-Python work swings by +-15-35 % for seconds to tens of minutes
    (neighbours on the same cores; CPU time swings with wall time, so it
    is not scheduling).  No estimator over repetitions removes a slow
    phase that outlasts the run, so the time-based end-to-end metrics
    are reported *at reference speed*: a small fixed reference loop —
    heap pushes and pops, dict writes, integer arithmetic, all cache
    resident, so neither the workload's memory footprint nor a change to
    it can move it — is sampled between slices of the measured work
    (:func:`workloads.advance`), and measured seconds are scaled by
    ``speed()`` = reference duration / mean measured duration of one
    loop.  The raw seconds are always reported beside the scaled ones.
    """

    #: Seconds one ``tick`` takes on the reference host (this box in a
    #: calm hour).  Only fixes the scale of the scaled metrics.
    REFERENCE_TICK_S = 0.0013
    _STEPS = 2000

    def __init__(self) -> None:
        self._ticks: List[float] = []
        #: Host seconds spent in ticks: the caller subtracts them from
        #: whatever it is timing around them.
        self.spent_s = 0.0

    def tick(self) -> None:
        """Run the reference loop once and record how long it took."""
        heap: List[tuple] = []
        table: Dict[int, int] = {}
        total = 0
        began = time.perf_counter()
        for i in range(self._STEPS):
            heapq.heappush(heap, (i * 7919 % 1000, i))
            table[i % 97] = i
            if i % 3:
                total += heapq.heappop(heap)[1]
        took = time.perf_counter() - began
        self._ticks.append(took)
        self.spent_s += took

    def speed(self) -> float:
        """Host speed over the ticks since the last call (1.0 = the
        reference host, 0.8 = a fifth slower); forgets those ticks."""
        mean = sum(self._ticks) / len(self._ticks)
        self._ticks.clear()
        return self.REFERENCE_TICK_S / mean


def git_sha() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository
    (the driver's checkout is a plain directory)."""
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int, repeats: Any, scale: float) -> Dict[str, Any]:
    """The manifest block every output carries (ROADMAP aim 4)."""
    import numpy
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "loadavg_1m_at_start": os.getloadavg()[0],
        "seed": seed,
        "repeats": repeats,
        "duration_scale": scale,
    }
