"""Tests for per-iteration runtime composition (Figure 4 machinery)."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.models.transformer import (
    OPERATION_ORDER,
    SCHEDULER_OVERHEAD,
    IterationBreakdown,
    IterationCostModel,
)
from repro.serving.attention_backend import FASerialBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.request import Request


@pytest.fixture(scope="module")
def iteration_model(llama3_deployment):
    return IterationCostModel(llama3_deployment)


class TestIterationBreakdown:
    def test_fractions_sum_to_one(self, iteration_model):
        breakdown = iteration_model.iteration_breakdown(
            num_tokens=1084, prefill_attention_per_layer=3e-4, decode_attention_per_layer=2e-4
        )
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_operation_order_matches_paper(self):
        assert OPERATION_ORDER == (
            "pre_projection",
            "prefill_attention",
            "decode_attention",
            "post_projection",
            "ffn",
            "others",
        )

    def test_layers_multiply_attention(self, iteration_model, llama3_deployment):
        breakdown = iteration_model.iteration_breakdown(512, 1e-4, 0.0)
        assert breakdown.prefill_attention == pytest.approx(
            1e-4 * llama3_deployment.model.num_layers
        )

    def test_attention_total(self, iteration_model):
        """Each attention row is its per-layer time times the layer count."""
        breakdown = iteration_model.iteration_breakdown(512, 1e-4, 2e-4)
        layers = iteration_model.deployment.model.num_layers
        assert breakdown.decode_attention == pytest.approx(2e-4 * layers)
        assert breakdown.prefill_attention + breakdown.decode_attention == pytest.approx(
            3e-4 * layers
        )

    def test_attention_fraction_grows_with_context(self, iteration_model):
        """Figure 4: attention dominates at long context lengths."""
        short = iteration_model.iteration_breakdown(1084, 5e-5, 5e-5)
        long = iteration_model.iteration_breakdown(1084, 8e-4, 6e-4)
        short_frac = short.fractions()
        long_frac = long.fractions()
        short_attention = short_frac["prefill_attention"] + short_frac["decode_attention"]
        long_attention = long_frac["prefill_attention"] + long_frac["decode_attention"]
        assert long_attention > 0.5
        assert long_attention > short_attention

    def test_scheduler_overhead_included(self, iteration_model, llama3_deployment):
        others = iteration_model.linear_breakdown(128).others
        layers = llama3_deployment.model.num_layers
        breakdown = iteration_model.iteration_breakdown(128, 0.0, 0.0)
        assert breakdown.others == others * layers + SCHEDULER_OVERHEAD

    def test_scheduler_overhead_non_negative(self):
        assert 0.0 <= SCHEDULER_OVERHEAD < float("inf")

    def test_iteration_time_matches_breakdown(self, iteration_model):
        """A serving engine's iteration time is the total of the breakdown of
        its backend's attention estimate, for a hybrid batch."""

        def hybrid_batch() -> ScheduledBatch:
            decoding = Request(request_id=1, prefill_tokens=255, decode_tokens=8)
            decoding.advance_prefill(255, now=0.0)
            prefilling = Request(request_id=0, prefill_tokens=512, decode_tokens=8)
            return ScheduledBatch(prefill_items=[(prefilling, 512)], decode_requests=[decoding])

        engine = InferenceEngine(FASerialBackend(iteration_model.deployment))
        estimate = engine.backend.estimate(hybrid_batch())
        breakdown = iteration_model.iteration_breakdown(
            513, estimate.prefill_time, estimate.decode_time
        )
        result = engine.execute(hybrid_batch())
        assert (result.num_tokens, result.is_hybrid) == (513, True)
        assert result.duration == breakdown.total

    def test_negative_attention_rejected(self, iteration_model):
        with pytest.raises(ValueError):
            iteration_model.iteration_breakdown(128, -1e-4, 0.0)

    def test_as_dict_round_trip(self, iteration_model):
        breakdown = iteration_model.iteration_breakdown(256, 1e-4, 1e-4)
        as_dict = breakdown.as_dict()
        assert set(as_dict) == set(OPERATION_ORDER)
        assert sum(as_dict.values()) == pytest.approx(breakdown.total)


NON_NEGATIVE = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)


class TestBreakdownRecord:
    @given(st.tuples(*[NON_NEGATIVE] * len(OPERATION_ORDER)))
    def test_total_is_the_sum_over_operation_order(self, values):
        breakdown = IterationBreakdown(*values)
        expected = sum(getattr(breakdown, op) for op in OPERATION_ORDER)
        assert breakdown.total.hex() == expected.hex()

    def test_fields_follow_operation_order_and_are_immutable(self):
        breakdown = IterationBreakdown(1.0, 2.0, 3.0, 4.0, 5.0, 6.0)
        assert IterationBreakdown._fields == OPERATION_ORDER
        assert breakdown.as_dict() == dict(zip(OPERATION_ORDER, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)))
        with pytest.raises(AttributeError):
            breakdown.ffn = 0.0
