"""Edge-case tests for workload statistics and serving metrics.

Covers the degenerate inputs that aggregate reporting must survive: single
request traces, all-decode (minimal-prefill) traces, single-token decodes
with no TBT samples, tiny percentile sample sets, and the pure-prefill
convention of ``WorkloadStats.mean_pd_ratio`` (excluded, not clamped).
"""

from __future__ import annotations

import math

import pytest

from repro.serving.metrics import (
    compute_metrics,
    compute_tenant_metrics,
    finished_slo_attainment,
    slice_by_tenant,
    slo_attainment,
)
from repro.serving.request import Request
from repro.utils.stats import percentile
from repro.workloads import describe_workload


def finished_request(
    request_id: int = 0,
    prefill: int = 64,
    decode: int = 4,
    arrival: float = 0.0,
    step: float = 0.05,
    tenant: str | None = None,
) -> Request:
    """Manufacture a finished request with evenly spaced decode tokens."""
    request = Request(
        request_id=request_id,
        prefill_tokens=prefill,
        decode_tokens=decode,
        arrival_time=arrival,
        tenant=tenant,
    )
    now = arrival + step
    request.advance_prefill(prefill, now=now)  # produces the first token
    for _ in range(decode - 1):
        now += step
        request.advance_decode(now=now)
    assert request.is_finished
    return request


class TestDescribeWorkloadEdges:
    def test_single_request(self):
        stats = describe_workload([Request(0, prefill_tokens=100, decode_tokens=25)])
        assert stats.num_requests == 1
        assert stats.mean_context_tokens == 125.0
        assert stats.mean_prefill_tokens == 100.0
        assert stats.mean_decode_tokens == 25.0
        assert stats.mean_pd_ratio == 4.0

    def test_all_decode_trace(self):
        """Minimal prefill, decode-dominated requests: ratio stays tiny but exact."""
        requests = [Request(i, prefill_tokens=1, decode_tokens=500) for i in range(4)]
        stats = describe_workload(requests)
        assert stats.mean_decode_tokens == 500.0
        assert stats.mean_pd_ratio == pytest.approx(1 / 500)

    def test_pure_prefill_requests_excluded_from_ratio(self):
        """Zero-decode requests are excluded from mean_pd_ratio, not clamped.

        The old clamp (``np.maximum(decodes, 1.0)``) silently reported
        prefill/1 for pure-prefill requests, overstating the mean ratio.
        """
        normal = Request(0, prefill_tokens=100, decode_tokens=50)
        pure_prefill = Request(1, prefill_tokens=4096, decode_tokens=1)
        pure_prefill.decode_tokens = 0  # loaded/external traces can carry zero decodes
        stats = describe_workload([normal, pure_prefill])
        assert stats.mean_pd_ratio == 2.0  # not (2.0 + 4096/1) / 2
        assert stats.mean_decode_tokens == 25.0  # still counts toward token means

    def test_all_pure_prefill_ratio_is_nan(self):
        request = Request(0, prefill_tokens=128, decode_tokens=1)
        request.decode_tokens = 0
        stats = describe_workload([request])
        assert math.isnan(stats.mean_pd_ratio)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            describe_workload([])


class TestComputeMetricsEdges:
    def test_single_request(self):
        request = finished_request(decode=4, step=0.05)
        metrics = compute_metrics([request], makespan=0.2, num_iterations=4)
        assert metrics.num_requests == 1
        assert metrics.ttft_p50 == pytest.approx(0.05)
        assert metrics.ttft_p99 == pytest.approx(0.05)
        assert metrics.latency_p50 == pytest.approx(0.2)
        assert metrics.requests_per_minute == pytest.approx(1 / 0.2 * 60)
        assert metrics.tbt_p50 == pytest.approx(0.05)

    def test_single_token_decodes_have_no_tbt_samples(self):
        """All-prefill iterations: one output token, no decode intervals."""
        requests = [finished_request(i, decode=1) for i in range(3)]
        assert all(not r.tbt_samples for r in requests)
        metrics = compute_metrics(requests, makespan=1.0, num_iterations=3)
        assert metrics.tbt_p50 == 0.0
        assert metrics.tbt_p99 == 0.0
        assert metrics.stall_fraction_200ms == 0.0

    def test_zero_finished_aggregates_to_zeroed_stats(self):
        """A slice with no finished requests (e.g. fully shed) must not raise.

        Previously this was a ``ValueError``, which meant any fully-shed
        tenant crashed per-tenant aggregation under admission control.
        """
        metrics = compute_metrics([Request(0, 10, 10)], makespan=1.0, num_iterations=0)
        assert metrics.num_requests == 0
        assert metrics.num_offered == 1
        assert metrics.requests_per_minute == 0.0
        assert metrics.ttft_p99 == 0.0
        assert metrics.latency_p99 == 0.0

    def test_zero_finished_still_counts_rejections(self):
        shed = Request(0, 10, 10, arrival_time=1.0)
        shed.reject(now=1.5)
        metrics = compute_metrics([shed], makespan=2.0, num_iterations=0)
        assert metrics.num_offered == 1
        assert metrics.num_rejected == 1

    def test_empty_request_list_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([], makespan=1.0, num_iterations=0)

    def test_offered_counts_on_drained_trace(self):
        metrics = compute_metrics([finished_request()], makespan=1.0, num_iterations=1)
        assert metrics.num_offered == 1
        assert metrics.num_rejected == 0
        assert metrics.num_requests == 1

    def test_zero_iterations_hybrid_fraction(self):
        metrics = compute_metrics([finished_request()], makespan=1.0, num_iterations=0)
        assert metrics.hybrid_iteration_fraction == 0.0


class TestPercentileEdges:
    def test_single_sample_is_every_percentile(self):
        for pct in (0, 1, 50, 99, 100):
            assert percentile([7.5], pct) == 7.5

    def test_two_samples_interpolate(self):
        assert percentile([0.0, 1.0], 50) == pytest.approx(0.5)
        assert percentile([0.0, 1.0], 99) == pytest.approx(0.99)
        assert percentile([0.0, 1.0], 0) == 0.0
        assert percentile([0.0, 1.0], 100) == 1.0

    def test_p99_of_small_sample_is_near_max(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 99) == pytest.approx(3.97)
        assert percentile(values, 99) <= max(values)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)
        with pytest.raises(ValueError):
            percentile([], 50)


class TestTenantSlicingEdges:
    def test_untagged_requests_land_in_default(self):
        requests = [finished_request(0), finished_request(1, tenant="chat")]
        groups = slice_by_tenant(requests)
        assert sorted(groups) == ["chat", "default"]
        tenant_metrics = compute_tenant_metrics(requests, makespan=1.0)
        assert tenant_metrics["chat"].num_requests == 1
        assert tenant_metrics["default"].num_requests == 1

    def test_single_tenant_slice_matches_whole(self):
        requests = [finished_request(i, tenant="only") for i in range(3)]
        whole = compute_metrics(requests, makespan=2.0, num_iterations=0)
        sliced = compute_tenant_metrics(requests, makespan=2.0)["only"]
        assert sliced.ttft_p99 == whole.ttft_p99
        assert sliced.requests_per_minute == whole.requests_per_minute

    def test_tenant_slices_zero_their_iteration_count(self):
        """Iteration counts are run-level: no slice may carry the run's count.

        The old behaviour copied the run-wide ``num_iterations`` into every
        per-tenant slice, so any per-tenant iteration-derived rate silently
        divided a tenant numerator by a fleet denominator.
        """
        requests = [
            finished_request(0, tenant="chat"),
            finished_request(1, tenant="batch"),
        ]
        for metrics in compute_tenant_metrics(requests, makespan=1.0).values():
            assert metrics.num_iterations == 0
            assert metrics.hybrid_iteration_fraction == 0.0


class TestSLOAttainmentEdges:
    def test_attainment_bounds(self):
        request = finished_request(step=0.05)
        assert slo_attainment([request], ttft_target_s=0.1, tbt_target_s=0.1) == 1.0
        assert slo_attainment([request], ttft_target_s=0.01, tbt_target_s=0.1) == 0.0

    def test_offered_traffic_counts_unfinished_as_misses(self):
        """Goodput denominator is offered traffic; unfinished = miss, not crash."""
        unfinished = Request(0, 10, 10)
        assert slo_attainment([unfinished], 1.0, 1.0) == 0.0
        mixed = [finished_request(1, step=0.01), unfinished]
        assert slo_attainment(mixed, ttft_target_s=0.1, tbt_target_s=0.1) == 0.5

    def test_shedding_cannot_inflate_goodput(self):
        """The finished-only ratio inflates under shedding; goodput must not.

        Shed the slow request and the finished-only number jumps to 1.0 while
        the offered-traffic goodput correctly stays at 1/2 — the exact
        accounting bug this split exists to pin.
        """
        fast = finished_request(0, step=0.01)
        slow = finished_request(1, step=5.0)
        assert slo_attainment([fast, slow], 0.1, 0.1) == 0.5
        shed = Request(2, 10, 10, arrival_time=0.0)
        shed.reject(now=0.0)
        assert slo_attainment([fast, shed], 0.1, 0.1) == 0.5
        assert finished_slo_attainment([fast, shed], 0.1, 0.1) == 1.0

    def test_fully_shed_slice_scores_zero(self):
        shed = Request(0, 10, 10)
        shed.reject(now=0.0)
        assert slo_attainment([shed], 1.0, 1.0) == 0.0

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            slo_attainment([], 1.0, 1.0)
        with pytest.raises(ValueError):
            finished_slo_attainment([], 1.0, 1.0)

    def test_finished_only_requires_a_finished_request(self):
        with pytest.raises(ValueError):
            finished_slo_attainment([Request(0, 10, 10)], 1.0, 1.0)

    def test_definitions_agree_on_drained_traces(self):
        requests = [finished_request(i, step=0.02 * (i + 1)) for i in range(4)]
        targets = dict(ttft_target_s=0.05, tbt_target_s=0.05)
        assert slo_attainment(requests, **targets) == finished_slo_attainment(
            requests, **targets
        )
