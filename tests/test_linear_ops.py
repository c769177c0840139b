"""Tests for the linear-operator roofline cost model."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.models.linear_ops import LinearCostParams, LinearOpCostModel
from repro.models.config import paper_deployment


@pytest.fixture(scope="module")
def cost_model(llama3_deployment):
    return LinearOpCostModel(llama3_deployment)


class TestParams:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("gemm_efficiency_ramp_tokens", 0),
            ("gemm_efficiency_ramp_tokens", 0.5),
            ("peak_gemm_efficiency", float("nan")),
            ("peak_gemm_efficiency", 1.2),
            ("hbm_efficiency", 0.0),
            ("allreduce_efficiency", -0.5),
            ("elementwise_passes", 0.0),
            ("kernel_overhead", -1e-6),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        """Each value once produced a NaN time or a ZeroDivisionError mid-run."""
        with pytest.raises(ValueError, match=field):
            LinearCostParams(**{field: value})


class TestGemmEfficiency:
    def test_ramps_with_tokens(self):
        params = LinearCostParams()
        assert params.gemm_efficiency(1) < params.gemm_efficiency(64) < params.gemm_efficiency(512)

    def test_caps_at_peak(self):
        params = LinearCostParams()
        assert params.gemm_efficiency(10_000) == pytest.approx(params.peak_gemm_efficiency)


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
