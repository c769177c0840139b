"""Host-side self-profiling: wall clock, CPU time and peak RSS.

The simulators measure *simulated* seconds; this module measures what the
runs cost the *host*, so benchmark artifacts can track the repo's own
compute footprint over time (the ``host_profile`` block in
``results/BENCH_*.json``).  Stdlib-only on purpose: peak RSS comes from
``resource.getrusage`` (``ru_maxrss`` is kilobytes on Linux, bytes on
macOS), not psutil.

Peak RSS is a per-process high-water mark, so concurrent profilers observe
the same peak; ``rss_delta_mb`` (peak minus the value at ``start``) is the
section-attributable figure.  ``children_cpu_s`` is the user + system CPU
time of child processes that ended and were waited for during the section
(``RUSAGE_CHILDREN``): a process-pool sweep's workers, which ``cpu_s`` does
not see.
"""

from __future__ import annotations

import platform
import resource
import time
from typing import Any


def _children_cpu_seconds() -> float:
    """User + system CPU time of every ended, waited-for child process so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    """Process-lifetime peak resident set size, in MiB."""
    maxrss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if platform.system() == "Darwin":  # ru_maxrss is bytes on macOS
        return maxrss / (1024.0 * 1024.0)
    return maxrss / 1024.0


class HostProfiler:
    """Measure one section of host work (context manager or start/stop).

    ::

        with HostProfiler("fig17_sweep") as prof:
            run_cluster_sweep(...)
        artifact["host_profile"] = prof.as_dict()
    """

    def __init__(self, name: str = "run") -> None:
        self.name = name
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.children_cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.rss_delta_mb = 0.0
        self._wall_start: float | None = None
        self._cpu_start = 0.0
        self._children_cpu_start = 0.0
        self._rss_start = 0.0

    def start(self) -> "HostProfiler":
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self._children_cpu_start = _children_cpu_seconds()
        self._rss_start = peak_rss_mb()
        return self

    def stop(self) -> "HostProfiler":
        if self._wall_start is None:
            raise RuntimeError(f"HostProfiler {self.name!r} stopped before start")
        self.wall_s = time.perf_counter() - self._wall_start
        self.cpu_s = time.process_time() - self._cpu_start
        self.children_cpu_s = _children_cpu_seconds() - self._children_cpu_start
        self.peak_rss_mb = peak_rss_mb()
        self.rss_delta_mb = max(self.peak_rss_mb - self._rss_start, 0.0)
        self._wall_start = None
        return self

    def __enter__(self) -> "HostProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the benchmark artifact schema)."""
        return {
            "name": self.name,
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "children_cpu_s": round(self.children_cpu_s, 6),
            "peak_rss_mb": round(self.peak_rss_mb, 3),
            "rss_delta_mb": round(self.rss_delta_mb, 3),
        }
