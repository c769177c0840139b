"""Roofline cost model for the linear (non-attention) operators of an iteration.

Hybrid batching exists precisely because linear operators are linear: prefill
and decode tokens can share one pass over the model weights.  The cost of a
linear operator for ``n`` tokens is therefore modelled as the roofline
maximum of

* compute time: ``2 * params * n / (peak_flops * gemm_efficiency(n))``, and
* memory time: weight bytes (plus activation traffic) over HBM bandwidth,

which captures the regime change the paper relies on: decode-only batches are
weight-bandwidth bound, while batches with a prefill chunk are compute bound.
Tensor-parallel all-reduces and element-wise "others" (norms, rotary,
residuals) are accounted separately so that Figure 4's breakdown can be
reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import Deployment
from repro.utils.validation import check_non_negative


# Calibration constants of the linear-operator roofline (A100 defaults).
PEAK_GEMM_EFFICIENCY = 0.80
GEMM_EFFICIENCY_RAMP_TOKENS = 256
HBM_EFFICIENCY = 0.88
ELEMENTWISE_PASSES = 6.0
ALLREDUCE_EFFICIENCY = 0.75
KERNEL_OVERHEAD = 8e-6


def gemm_efficiency(num_tokens: int) -> float:
    """Achieved fraction of peak tensor throughput for a GEMM over ``num_tokens`` rows."""
    if num_tokens <= 0:
        return PEAK_GEMM_EFFICIENCY
    ramp = min(1.0, num_tokens / GEMM_EFFICIENCY_RAMP_TOKENS)
    # Even a single-token GEMM achieves some fraction of peak through weight reuse
    # across the hidden dimension; the ramp mainly reflects tensor-core tiling.
    return PEAK_GEMM_EFFICIENCY * max(0.15, ramp)


@dataclass(frozen=True)
class LinearBreakdown:
    """Per-layer linear-operator times (seconds) for one iteration."""

    pre_attention: float
    post_attention: float
    ffn: float
    others: float

    @property
    def total(self) -> float:
        return self.pre_attention + self.post_attention + self.ffn + self.others

    def as_dict(self) -> dict[str, float]:
        return {
            "pre_attention": self.pre_attention,
            "post_attention": self.post_attention,
            "ffn": self.ffn,
            "others": self.others,
        }


class LinearOpCostModel:
    """Cost model for the non-attention operators of one transformer layer."""

    def __init__(self, deployment: Deployment) -> None:
        self.deployment = deployment

    # ------------------------------------------------------------------ core

    def _gemm_time(self, weight_params: float, num_tokens: int) -> float:
        """Roofline time of one GEMM: ``num_tokens`` rows against ``weight_params`` weights."""
        check_non_negative("num_tokens", num_tokens)
        if num_tokens == 0:
            return 0.0
        spec = self.deployment.gpu
        model = self.deployment.model
        flops = 2.0 * weight_params * num_tokens
        weight_bytes = weight_params * model.dtype_bytes
        activation_bytes = (
            num_tokens * self.deployment.model.hidden_size * model.dtype_bytes * 2
        )
        compute_time = flops / (spec.tensor_flops * gemm_efficiency(num_tokens))
        memory_time = (weight_bytes + activation_bytes) / (spec.hbm_bandwidth * HBM_EFFICIENCY)
        return max(compute_time, memory_time) + KERNEL_OVERHEAD

    # ------------------------------------------------------------- operators

    def pre_attention_time(self, num_tokens: int) -> float:
        """QKV projection for ``num_tokens`` tokens on one TP shard."""
        model = self.deployment.model
        qkv_params = model.hidden_size * (model.q_size + 2 * model.kv_size)
        return self._gemm_time(qkv_params / self.deployment.tensor_parallel, num_tokens)

    def post_attention_time(self, num_tokens: int) -> float:
        """Attention output projection for ``num_tokens`` tokens on one TP shard."""
        model = self.deployment.model
        out_params = model.q_size * model.hidden_size
        return self._gemm_time(out_params / self.deployment.tensor_parallel, num_tokens)

    def ffn_time(self, num_tokens: int) -> float:
        """Gated FFN (gate, up, down projections) for ``num_tokens`` tokens on one shard."""
        model = self.deployment.model
        return self._gemm_time(
            model.ffn_params_per_layer / self.deployment.tensor_parallel, num_tokens
        )

    def others_time(self, num_tokens: int) -> float:
        """Element-wise operators plus tensor-parallel collectives for one layer."""
        if num_tokens == 0:
            return 0.0
        model = self.deployment.model
        spec = self.deployment.gpu
        elementwise_bytes = (
            ELEMENTWISE_PASSES * num_tokens * model.hidden_size * model.dtype_bytes
        )
        elementwise_time = elementwise_bytes / (spec.hbm_bandwidth * HBM_EFFICIENCY)
        allreduce_time = 0.0
        if self.deployment.tensor_parallel > 1:
            # Two all-reduces per layer (after attention and after the FFN).
            payload = num_tokens * model.hidden_size * model.dtype_bytes
            tp = self.deployment.tensor_parallel
            ring_factor = 2.0 * (tp - 1) / tp
            allreduce_time = (
                2.0
                * payload
                * ring_factor
                / (self.deployment.interconnect_bandwidth * ALLREDUCE_EFFICIENCY)
            )
        return elementwise_time + allreduce_time + KERNEL_OVERHEAD

    # ------------------------------------------------------------- breakdown

    def layer_breakdown(self, num_tokens: int) -> LinearBreakdown:
        """All linear-operator times for one layer processing ``num_tokens`` tokens."""
        return LinearBreakdown(
            pre_attention=self.pre_attention_time(num_tokens),
            post_attention=self.post_attention_time(num_tokens),
            ffn=self.ffn_time(num_tokens),
            others=self.others_time(num_tokens),
        )
