"""Tests for the linear-operator roofline cost model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.models import linear_ops
from repro.models.linear_ops import PEAK_GEMM_EFFICIENCY, LinearOpCostModel, gemm_efficiency
from repro.models.config import paper_deployment


@pytest.fixture(scope="module")
def cost_model(llama3_deployment):
    return LinearOpCostModel(llama3_deployment)


class TestCalibrationConstants:
    """Each constant stays in the range its params field once enforced at
    construction: outside it a time turns NaN or a division fails mid-run."""

    @pytest.mark.parametrize(
        "name", ["PEAK_GEMM_EFFICIENCY", "HBM_EFFICIENCY", "ALLREDUCE_EFFICIENCY"]
    )
    def test_fraction(self, name):
        assert 0.0 < getattr(linear_ops, name) <= 1.0

    def test_ramp_tokens_is_a_count(self):
        ramp = linear_ops.GEMM_EFFICIENCY_RAMP_TOKENS
        assert isinstance(ramp, int) and ramp >= 1

    def test_elementwise_passes_positive(self):
        assert 0.0 < linear_ops.ELEMENTWISE_PASSES < math.inf

    def test_kernel_overhead_non_negative(self):
        assert 0.0 <= linear_ops.KERNEL_OVERHEAD < math.inf


class TestGemmEfficiency:
    def test_ramps_with_tokens(self):
        assert gemm_efficiency(1) < gemm_efficiency(64) < gemm_efficiency(512)

    def test_caps_at_peak(self):
        assert gemm_efficiency(10_000) == pytest.approx(PEAK_GEMM_EFFICIENCY)


class TestOperatorCosts:
    def test_zero_tokens_is_free(self, cost_model):
        assert cost_model.pre_attention_time(0) == 0.0
        assert cost_model.ffn_time(0) == 0.0
        assert cost_model.others_time(0) == 0.0

    def test_costs_monotone_in_tokens(self, cost_model):
        for fn in (
            cost_model.pre_attention_time,
            cost_model.post_attention_time,
            cost_model.ffn_time,
            cost_model.others_time,
        ):
            assert fn(4096) >= fn(1024) >= fn(64)

    def test_ffn_dominates_projections(self, cost_model):
        """Figure 4: the FFN is the largest linear operator for Llama-3-8B."""
        tokens = 1024
        assert cost_model.ffn_time(tokens) > cost_model.pre_attention_time(tokens)
        assert cost_model.ffn_time(tokens) > cost_model.post_attention_time(tokens)

    def test_small_batches_are_bandwidth_bound(self, cost_model, llama3_deployment):
        """A decode-only batch of a few tokens is limited by weight reads, so the
        time barely changes with the token count."""
        assert cost_model.ffn_time(8) == pytest.approx(cost_model.ffn_time(1), rel=0.05)

    def test_large_batches_are_compute_bound(self, cost_model):
        assert cost_model.ffn_time(8192) > 3 * cost_model.ffn_time(256)

    def test_tensor_parallel_allreduce_cost(self, llama3_deployment):
        tp2 = LinearOpCostModel(llama3_deployment)
        tp1 = LinearOpCostModel(paper_deployment("yi-6b"))
        # The TP-2 deployment pays an all-reduce in "others"; TP-1 does not.
        assert tp2.others_time(1024) > tp1.others_time(1024)

    def test_negative_tokens_rejected(self, cost_model):
        with pytest.raises(ValueError):
            cost_model.pre_attention_time(-1)


class TestBreakdown:
    def test_breakdown_total(self, cost_model):
        breakdown = cost_model.layer_breakdown(512)
        assert breakdown.total == pytest.approx(
            breakdown.pre_attention + breakdown.post_attention + breakdown.ffn + breakdown.others
        )

    def test_breakdown_dict_keys(self, cost_model):
        assert set(cost_model.layer_breakdown(128).as_dict()) == {
            "pre_attention",
            "post_attention",
            "ffn",
            "others",
        }

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 16384))
    def test_breakdown_positive(self, cost_model, tokens):
        breakdown = cost_model.layer_breakdown(tokens)
        assert breakdown.pre_attention > 0
        assert breakdown.ffn > 0
        assert breakdown.total > 0
