"""Arrival processes: when requests hit the serving system.

Every process turns a request count and a seed into a sorted, non-negative
list of arrival timestamps (seconds).  The paper's online evaluation uses
Poisson arrivals only; real fleets also see bursty (gamma renewal), diurnal
(time-varying sinusoidal rate), surge (step/ramp) and recorded traffic, so
the scenario engine models each as a first-class, seeded process.

Time-varying processes (diurnal, step/ramp) are simulated by Lewis-Shedler
thinning of a dominating homogeneous Poisson process, which keeps them exact
for any bounded rate function.  ``ReplayArrivals`` replays explicit
timestamps, e.g. loaded from an Azure-LLM-style CSV trace
(:mod:`repro.workloads.trace_io`).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.utils.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # runtime import would close the serving → workloads cycle
    from repro.serving.request import Request


def _accumulate(gaps: np.ndarray) -> list[float]:
    """Sum inter-arrival gaps into arrival times, one Python-float add at a
    time — the accumulation order the golden-regression tests pin
    byte-for-byte.  Do not replace with ``np.cumsum``."""
    arrivals = []
    arrival = 0.0
    for gap in gaps:
        arrival += float(gap)
        arrivals.append(arrival)
    return arrivals


class ArrivalProcess(ABC):
    """Generates arrival timestamps for a trace of ``num_requests`` requests."""

    name: str = "arrival"

    @abstractmethod
    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        """Return ``num_requests`` sorted, non-negative arrival times."""

    def assign(self, requests: Sequence[Request], seed: int = 0) -> list[Request]:
        """Assign this process's arrival times to ``requests``, in place."""
        for request, when in zip(requests, self.times(len(requests), seed)):
            request.arrival_time = when
        return list(requests)

    @classmethod
    def from_qps(cls, qps: float, **params) -> "ArrivalProcess":
        """Build an instance whose *mean* offered load is ``qps``."""
        return cls(qps=qps, **params)  # type: ignore[call-arg]


class PoissonArrivals(ArrivalProcess):
    """Memoryless arrivals at a constant mean rate (the paper's online setting).

    The gap draws and the sequential float accumulation are pinned: seeded
    traces stay byte-identical with the committed baselines (golden-regression
    tests).
    """

    name = "poisson"

    def __init__(self, qps: float) -> None:
        check_positive("qps", qps)
        self.qps = qps

    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        rng = np.random.default_rng(seed)
        return _accumulate(rng.exponential(scale=1.0 / self.qps, size=num_requests))


class GammaBurstArrivals(ArrivalProcess):
    """Bursty renewal process with gamma-distributed inter-arrival gaps.

    ``burstiness`` is the squared coefficient of variation of the gaps
    (1.0 degenerates to Poisson; larger values cluster arrivals into bursts
    separated by lulls while keeping the same mean rate).
    """

    name = "gamma-burst"

    def __init__(self, qps: float, burstiness: float = 4.0) -> None:
        check_positive("qps", qps)
        check_positive("burstiness", burstiness)
        self.qps = qps
        self.burstiness = burstiness

    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        rng = np.random.default_rng(seed)
        shape = 1.0 / self.burstiness
        scale = self.burstiness / self.qps  # mean gap stays 1/qps
        return _accumulate(rng.gamma(shape, scale, size=num_requests))


def _thinned_poisson(
    rate_fn: Callable[[float], float],
    rate_max: float,
    num_requests: int,
    rng: np.random.Generator,
) -> list[float]:
    """Lewis-Shedler thinning of a dominating Poisson(rate_max) process."""
    times: list[float] = []
    now = 0.0
    while len(times) < num_requests:
        now += float(rng.exponential(1.0 / rate_max))
        if float(rng.uniform()) * rate_max <= rate_fn(now):
            times.append(now)
    return times


class DiurnalArrivals(ArrivalProcess):
    """Non-homogeneous Poisson arrivals with a sinusoidal (diurnal) rate.

    The instantaneous rate is ``qps * (1 + depth * sin(2*pi*t / period))``,
    so the mean rate over a full period is ``qps``.  ``depth`` must stay
    below 1.0 so the rate never reaches zero.
    """

    name = "diurnal"

    def __init__(self, qps: float, period: float = 600.0, depth: float = 0.6) -> None:
        check_positive("qps", qps)
        check_positive("period", period)
        if not 0.0 <= depth < 1.0:
            raise ValueError(f"depth must be within [0, 1), got {depth}")
        self.qps = qps
        self.period = period
        self.depth = depth

    def rate(self, t: float) -> float:
        return self.qps * (1.0 + self.depth * math.sin(2.0 * math.pi * t / self.period))

    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        rng = np.random.default_rng(seed)
        rate_max = self.qps * (1.0 + self.depth)
        return _thinned_poisson(self.rate, rate_max, num_requests, rng)


class StepSurgeArrivals(ArrivalProcess):
    """Step/ramp load surge: a base rate that ramps up to a surge and back.

    The rate is ``base_qps`` until ``surge_start``, ramps linearly over
    ``ramp`` seconds to ``surge_qps``, holds for ``surge_duration``, then
    ramps back down — the incident-traffic pattern routers and autoscalers
    must absorb.  ``ramp=0`` gives a pure step.
    """

    name = "step-surge"

    def __init__(
        self,
        qps: float,
        surge_factor: float = 3.0,
        surge_start: float = 30.0,
        surge_duration: float = 60.0,
        ramp: float = 0.0,
    ) -> None:
        check_positive("qps", qps)
        check_positive("surge_factor", surge_factor)
        check_non_negative("surge_start", surge_start)
        check_positive("surge_duration", surge_duration)
        check_non_negative("ramp", ramp)
        self.qps = qps
        self.surge_factor = surge_factor
        self.surge_start = surge_start
        self.surge_duration = surge_duration
        self.ramp = ramp

    @property
    def surge_qps(self) -> float:
        return self.qps * self.surge_factor

    def rate(self, t: float) -> float:
        start, ramp = self.surge_start, self.ramp
        plateau_end = start + ramp + self.surge_duration
        if t < start or t >= plateau_end + ramp:
            return self.qps
        if t < start + ramp:  # ramp up
            return self.qps + (self.surge_qps - self.qps) * (t - start) / ramp
        if t < plateau_end:  # surge plateau
            return self.surge_qps
        return self.surge_qps - (self.surge_qps - self.qps) * (t - plateau_end) / ramp

    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        rng = np.random.default_rng(seed)
        return _thinned_poisson(self.rate, max(self.qps, self.surge_qps), num_requests, rng)


class ReplayArrivals(ArrivalProcess):
    """Deterministic replay of explicit timestamps (e.g. a recorded trace)."""

    name = "replay"

    def __init__(self, timestamps: Sequence[float]) -> None:
        if not timestamps:
            raise ValueError("ReplayArrivals requires at least one timestamp")
        ordered = [float(t) for t in timestamps]
        if any(t < 0.0 for t in ordered):
            raise ValueError("replay timestamps must be non-negative")
        if ordered != sorted(ordered):
            raise ValueError("replay timestamps must be sorted")
        self.timestamps = ordered

    @classmethod
    def from_qps(cls, qps: float, **params) -> "ReplayArrivals":
        raise TypeError("ReplayArrivals replays fixed timestamps; it has no rate")

    def times(self, num_requests: int, seed: int = 0) -> list[float]:
        if num_requests > len(self.timestamps):
            raise ValueError(
                f"replay trace has {len(self.timestamps)} timestamps, "
                f"{num_requests} requested"
            )
        return self.timestamps[:num_requests]


ARRIVAL_PROCESSES: dict[str, type[ArrivalProcess]] = {
    PoissonArrivals.name: PoissonArrivals,
    GammaBurstArrivals.name: GammaBurstArrivals,
    DiurnalArrivals.name: DiurnalArrivals,
    StepSurgeArrivals.name: StepSurgeArrivals,
    ReplayArrivals.name: ReplayArrivals,
}


def get_arrival_process(name: str, qps: float, **params) -> ArrivalProcess:
    """Build a registered arrival process at mean rate ``qps``."""
    key = name.lower()
    if key not in ARRIVAL_PROCESSES:
        raise ValueError(
            f"unknown arrival process {name!r}; choose from {sorted(ARRIVAL_PROCESSES)}"
        )
    return ARRIVAL_PROCESSES[key].from_qps(qps, **params)
