"""Tests for the paper's workload generators (``repro.workloads``)."""

from __future__ import annotations

import pytest

from repro.cluster.sweep import ClusterSweepPoint, run_sweep_point
from repro.workloads import (
    ArxivShape,
    InternalShape,
    PoissonArrivals,
    describe_workload,
    pd_ratio_workload,
    uniform_workload,
)


class TestUniformWorkloads:
    def test_uniform_workload(self):
        requests = uniform_workload(10, prefill_tokens=16384, decode_tokens=1024)
        assert len(requests) == 10
        assert all(r.prefill_tokens == 16384 and r.decode_tokens == 1024 for r in requests)
        assert all(r.arrival_time == 0.0 for r in requests)
        assert len({r.request_id for r in requests}) == 10

    def test_pd_ratio_workload(self):
        requests = pd_ratio_workload(5, total_tokens=16500, pd_ratio=10)
        request = requests[0]
        assert request.prefill_tokens + request.decode_tokens == pytest.approx(16500, abs=2)
        assert request.prefill_tokens / request.decode_tokens == pytest.approx(10, rel=0.05)

    def test_pd_ratio_extremes(self):
        heavy_prefill = pd_ratio_workload(1, 16384, pd_ratio=24)[0]
        heavy_decode = pd_ratio_workload(1, 16384, pd_ratio=2)[0]
        assert heavy_prefill.decode_tokens < heavy_decode.decode_tokens


class TestPaperWorkloads:
    def test_internal_workload_statistics(self):
        """Matches the published statistics: mean context ~10.5K, mean decode ~331."""
        stats = describe_workload(InternalShape().build(2048, seed=0))
        assert stats.mean_context_tokens == pytest.approx(10_500, rel=0.12)
        assert stats.mean_decode_tokens == pytest.approx(331, rel=0.35)
        assert stats.mean_pd_ratio < 40

    def test_arxiv_workload_statistics(self):
        """Mean context ~9.5K and ~42% more decode tokens than the internal workload."""
        arxiv_stats = describe_workload(ArxivShape().build(2048, seed=1))
        internal_stats = describe_workload(InternalShape().build(2048, seed=0))
        assert arxiv_stats.mean_context_tokens == pytest.approx(9_500, rel=0.12)
        assert arxiv_stats.mean_decode_tokens > 1.2 * internal_stats.mean_decode_tokens

    def test_context_lengths_within_paper_range(self):
        for request in InternalShape().build(512, seed=2):
            total = request.prefill_tokens + request.decode_tokens
            assert 4096 * 0.9 <= total <= 32768 * 1.1

    def test_deterministic_given_seed(self):
        a = InternalShape().build(64, seed=7)
        b = InternalShape().build(64, seed=7)
        assert [(r.prefill_tokens, r.decode_tokens) for r in a] == [
            (r.prefill_tokens, r.decode_tokens) for r in b
        ]

    def test_different_seeds_differ(self):
        a = InternalShape().build(64, seed=1)
        b = InternalShape().build(64, seed=2)
        assert [(r.prefill_tokens, r.decode_tokens) for r in a] != [
            (r.prefill_tokens, r.decode_tokens) for r in b
        ]

    def test_get_workload(self):
        """Sweep points name the paper's traces by their historical labels: a
        labelled point serves its scenario's trace, as the named point does."""
        labels = (("internal", "enterprise-internal"), ("arxiv", "arxiv-summarization"))
        for label, scenario in labels:
            by_label, by_name = (
                run_sweep_point(
                    ClusterSweepPoint(num_replicas=2, workload=name, requests_per_replica=8, seed=3)
                )
                for name in (label, scenario)
            )
            assert by_label["workload"] == label
            assert {**by_label, "workload": scenario} == by_name
        with pytest.raises(ValueError):
            run_sweep_point(ClusterSweepPoint(num_replicas=1, workload="sharegpt"))


class TestPoissonArrivals:
    def test_arrivals_are_increasing(self):
        requests = PoissonArrivals(2.0).assign(uniform_workload(100, 1000, 10), seed=0)
        arrivals = [r.arrival_time for r in requests]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] > 0

    def test_mean_rate_close_to_qps(self):
        requests = PoissonArrivals(1.1).assign(uniform_workload(2000, 1000, 10), seed=3)
        duration = requests[-1].arrival_time
        assert 2000 / duration == pytest.approx(1.1, rel=0.1)

    def test_invalid_qps(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0.0)

    def test_describe_empty_rejected(self):
        with pytest.raises(ValueError):
            describe_workload([])
