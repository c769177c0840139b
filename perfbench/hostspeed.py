"""Host-speed normalization for CPU timings taken on a shared host.

On a shared machine the same CPU-bound pass can take 30% more or less CPU
time from one minute to the next, as neighbours load the caches, memory and
clock of the physical cores.  While timed passes run, a profiling timer
interrupts the process every ``INTERVAL_S`` of its CPU time to time a fixed
reference that does not touch ``repro``; the median of those samples,
divided by ``REFERENCE_S``, is the host's slowdown over that pass.  Dividing
a pass's CPU time by it scales the pass to a host on which the reference
takes ``REFERENCE_S`` seconds.

The reference mixes the two kinds of work the simulators do: dict and list
updates on a few cache lines, and a pointer chase around a shuffled ring of
a few MB of Python objects.  Either alone tracks the simulators worse: the
tight loop speeds up far more than they do when a neighbour goes idle, and
the chase slows down far more under a neighbour's cache pressure.  Sampling
costs under 1% of the CPU time it measures, the same share on every run.
"""

from __future__ import annotations

import random
import signal
import statistics
import time
from types import FrameType
from typing import Any

#: CPU time between two samples of the reference.
INTERVAL_S = 0.02
#: Dict and list updates, and ring nodes visited, per sample.
UPDATES = 200
HOPS = 250
#: The reference's duration on the nominal host (one Xeon vCPU at 2.1 GHz).
REFERENCE_S = 1.15e-4


class _Node:
    __slots__ = ("next",)

    def __init__(self) -> None:
        self.next: _Node = self


def _ring(size: int = 1 << 16) -> _Node:
    """A ring of ``size`` nodes in a fixed shuffled order (about 3 MB)."""
    nodes = [_Node() for _ in range(size)]
    order = list(range(size))
    random.Random(0).shuffle(order)
    for here, there in zip(order, order[1:] + order[:1]):
        nodes[here].next = nodes[there]
    return nodes[0]


class HostSpeed:
    """Samples the reference on a CPU-time timer while the block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._node = _ring()
        self._previous: Any = None

    def _sample(self, signum: int, frame: FrameType | None) -> None:
        # The wall clock: the process CPU clock does not advance inside this
        # handler.  A sample the OS interrupts is an outlier the median drops.
        start = time.perf_counter()
        table: dict[int, int] = {}
        window: list[int] = []
        for i in range(UPDATES):
            table[i & 63] = table.get(i & 63, 0) + i
            window.append(i)
            if len(window) > 32:
                window.pop(0)
        node = self._node
        for _ in range(HOPS):
            node = node.next
        self.samples.append(time.perf_counter() - start)
        self._node = node

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self, start: int = 0, stop: int | None = None) -> float:
        """Median of ``samples[start:stop]``, relative to ``REFERENCE_S``."""
        window = self.samples[start:stop]
        if not window:
            raise RuntimeError("no host-speed sample in the window; it ran too briefly")
        return statistics.median(window) / REFERENCE_S
