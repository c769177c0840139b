"""Serving-level metrics: throughput, TTFT, TBT, request latency and stalls.

These are the metrics of the paper's end-to-end evaluation (Figure 12,
Tables 5–7, Figure 15): requests per minute for offline serving, and P50/P99
time-to-first-token, time-between-tokens, end-to-end latency plus the fraction
of requests experiencing at least one generation stall for online serving.

Multi-tenant traces (``Request.tenant`` set) can additionally be sliced per
tenant (:func:`compute_tenant_metrics`) and held to TTFT/TBT SLO targets.
Two attainment definitions coexist, and the distinction matters whenever
admission control sheds traffic:

* :func:`slo_attainment` — *offered-traffic goodput*: attained requests over
  **all** requests handed in.  Rejected and unfinished requests count as
  misses, so shedding can never inflate the number.
* :func:`finished_slo_attainment` — the historical finished-only ratio,
  kept under an explicit name for drained-trace comparisons (it equals the
  goodput there, and only there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.serving.request import Request
from repro.utils.stats import percentiles

# Stall thresholds (seconds) used in Tables 5 and 6.
STALL_THRESHOLDS = (0.2, 0.5)


@dataclass(frozen=True)
class ServingMetrics:
    """Aggregate metrics of one serving run."""

    num_requests: int
    makespan: float
    num_iterations: int
    requests_per_minute: float
    ttft_p50: float
    ttft_p99: float
    tbt_p50: float
    tbt_p99: float
    latency_p50: float
    latency_p99: float
    stall_fraction_200ms: float
    stall_fraction_500ms: float
    hybrid_iteration_fraction: float
    # Memory-pressure counters (zero unless preemption/prefix caching is on;
    # kept out of as_row() so pre-existing result artifacts are unchanged).
    num_preemptions: int = 0
    preempted_request_fraction: float = 0.0
    cached_prefix_tokens: int = 0
    # Offered-traffic accounting (kept out of as_row() for the same reason):
    # ``num_requests`` stays the finished count the latency stats describe;
    # ``num_offered`` is everything handed in and ``num_rejected`` the
    # admission-control sheds among them.
    num_offered: int = 0
    num_rejected: int = 0

    def as_row(self) -> dict[str, float]:
        """Flat dictionary view, convenient for printing benchmark tables."""
        return {
            "requests": self.num_requests,
            "makespan_s": round(self.makespan, 2),
            "req_per_min": round(self.requests_per_minute, 2),
            "ttft_p50_s": round(self.ttft_p50, 3),
            "ttft_p99_s": round(self.ttft_p99, 3),
            "tbt_p50_s": round(self.tbt_p50, 4),
            "tbt_p99_s": round(self.tbt_p99, 4),
            "latency_p50_s": round(self.latency_p50, 2),
            "latency_p99_s": round(self.latency_p99, 2),
            "stalls_200ms_pct": round(self.stall_fraction_200ms * 100, 2),
            "stalls_500ms_pct": round(self.stall_fraction_500ms * 100, 2),
        }


def compute_metrics(
    requests: Sequence[Request],
    makespan: float,
    num_iterations: int,
    hybrid_iterations: int = 0,
) -> ServingMetrics:
    """Aggregate per-request records into :class:`ServingMetrics`.

    Only finished requests contribute latency statistics; the throughput
    numerator is the number of finished requests.  A slice with zero
    finished requests (e.g. a fully-shed tenant under admission control)
    aggregates to zeroed latency/throughput stats rather than raising —
    only an empty request list is a caller error.
    """
    if not requests:
        raise ValueError("compute_metrics() requires at least one request")
    finished = [r for r in requests if r.is_finished]
    if not finished:
        return ServingMetrics(
            num_requests=0,
            makespan=makespan,
            num_iterations=num_iterations,
            requests_per_minute=0.0,
            ttft_p50=0.0,
            ttft_p99=0.0,
            tbt_p50=0.0,
            tbt_p99=0.0,
            latency_p50=0.0,
            latency_p99=0.0,
            stall_fraction_200ms=0.0,
            stall_fraction_500ms=0.0,
            hybrid_iteration_fraction=(
                hybrid_iterations / num_iterations if num_iterations else 0.0
            ),
            num_preemptions=sum(r.preemption_count for r in requests),
            preempted_request_fraction=(
                sum(1 for r in requests if r.preemption_count) / len(requests)
            ),
            cached_prefix_tokens=sum(r.cached_prefix_tokens_total for r in requests),
            num_offered=len(requests),
            num_rejected=sum(1 for r in requests if r.is_rejected),
        )
    ttft_p50, ttft_p99 = percentiles([r.ttft for r in finished], (50, 99))
    latency_p50, latency_p99 = percentiles([r.e2e_latency for r in finished], (50, 99))
    tbt_count = sum(len(r.token_intervals) for r in finished)
    tbt_samples = np.fromiter(
        itertools.chain.from_iterable(r.token_intervals for r in finished),
        dtype=np.float64,
        count=tbt_count,
    )
    tbt_p50, tbt_p99 = percentiles(tbt_samples if tbt_count else [0.0], (50, 99))
    max_tbts = [r.max_tbt() for r in finished]
    stall_200 = sum(1 for stall in max_tbts if stall > STALL_THRESHOLDS[0]) / len(finished)
    stall_500 = sum(1 for stall in max_tbts if stall > STALL_THRESHOLDS[1]) / len(finished)
    throughput = len(finished) / makespan * 60.0 if makespan > 0 else 0.0
    hybrid_fraction = hybrid_iterations / num_iterations if num_iterations else 0.0
    # Preemption/cache counters aggregate over *all* requests handed in
    # (== finished on every drained run), not just the finished subset the
    # latency stats use.
    num_preemptions = sum(r.preemption_count for r in requests)
    preempted_fraction = sum(1 for r in requests if r.preemption_count) / len(requests)
    cached_tokens = sum(r.cached_prefix_tokens_total for r in requests)
    return ServingMetrics(
        num_preemptions=num_preemptions,
        preempted_request_fraction=preempted_fraction,
        cached_prefix_tokens=cached_tokens,
        num_offered=len(requests),
        num_rejected=sum(1 for r in requests if r.is_rejected),
        num_requests=len(finished),
        makespan=makespan,
        num_iterations=num_iterations,
        requests_per_minute=throughput,
        ttft_p50=ttft_p50,
        ttft_p99=ttft_p99,
        tbt_p50=tbt_p50,
        tbt_p99=tbt_p99,
        latency_p50=latency_p50,
        latency_p99=latency_p99,
        stall_fraction_200ms=stall_200,
        stall_fraction_500ms=stall_500,
        hybrid_iteration_fraction=hybrid_fraction,
    )


# ------------------------------------------------------------ multi-tenant

#: Tenant key used for requests without a tenant tag.
UNTAGGED_TENANT = "default"


def slice_by_tenant(requests: Sequence[Request]) -> dict[str, list[Request]]:
    """Group requests by tenant name (untagged requests under ``"default"``)."""
    groups: dict[str, list[Request]] = {}
    for request in requests:
        groups.setdefault(request.tenant or UNTAGGED_TENANT, []).append(request)
    return dict(sorted(groups.items()))


def compute_tenant_metrics(
    requests: Sequence[Request],
    makespan: float,
) -> dict[str, ServingMetrics]:
    """Slice one run's requests per tenant and aggregate each slice.

    Every slice uses the *run-wide* makespan, so per-tenant
    ``requests_per_minute`` values sum to the fleet throughput and latency
    tails are comparable across tenants.  Iteration counts are a run-level
    quantity with no per-tenant decomposition — every slice reports
    ``num_iterations == 0`` so no iteration-derived rate can silently use a
    run-level count against a tenant-level numerator (previously the
    run-wide count was copied into every slice).
    """
    return {
        tenant: compute_metrics(group, makespan=makespan, num_iterations=0)
        for tenant, group in slice_by_tenant(requests).items()
    }


def _attains(request: Request, ttft_target_s: float, tbt_target_s: float) -> bool:
    return (
        request.is_finished
        and request.ttft <= ttft_target_s
        and not request.experienced_stall(tbt_target_s)
    )


def slo_attainment(
    requests: Sequence[Request],
    ttft_target_s: float,
    tbt_target_s: float,
) -> float:
    """Offered-traffic goodput: fraction of **all** requests meeting both targets.

    A request attains its SLO when it finished with TTFT at most
    ``ttft_target_s`` and no decode interval exceeding ``tbt_target_s``.
    Rejected (shed) and unfinished requests count as misses — the denominator
    is the offered traffic, so admission control can never *inflate* this
    number by shedding (the historical finished-only ratio did exactly that;
    it survives as :func:`finished_slo_attainment`).  A fully-shed slice
    scores 0.0 rather than raising.
    """
    if not requests:
        raise ValueError("slo_attainment() requires at least one request")
    attained = sum(1 for r in requests if _attains(r, ttft_target_s, tbt_target_s))
    return attained / len(requests)


def finished_slo_attainment(
    requests: Sequence[Request],
    ttft_target_s: float,
    tbt_target_s: float,
) -> float:
    """Fraction of *finished* requests meeting both latency targets.

    The historical attainment definition.  On a fully-drained trace with no
    shedding it equals :func:`slo_attainment`; under shedding or partial
    drains it conditions on having finished, which over-states delivered
    service quality — use it only to ask "of the work we completed, how much
    met its targets", never to compare policies that shed.
    """
    finished = [r for r in requests if r.is_finished]
    if not finished:
        raise ValueError(
            "finished_slo_attainment() requires at least one finished request"
        )
    attained = sum(1 for r in finished if _attains(r, ttft_target_s, tbt_target_s))
    return attained / len(finished)
