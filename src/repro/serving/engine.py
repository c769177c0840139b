"""Inference engine: turns a scheduled batch into an iteration duration.

The engine composes the linear-operator roofline model with the attention
backend's estimate to produce the wall-clock time of one iteration, exactly
the composition shown in the paper's Figure 3/Figure 4.  A step costs O(1)
model evaluations: the backend estimates attention from the scheduled batch
directly (no :class:`~repro.attention.workload.HybridBatch` is built), and
the iteration model memoizes the linear operators per token count.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.models.config import Deployment
from repro.models.transformer import IterationCostModel
from repro.serving.attention_backend import AttentionBackend
from repro.serving.batch import ScheduledBatch


@dataclass(frozen=True)
class IterationResult:
    """Outcome of executing one iteration."""

    duration: float
    num_tokens: int
    is_hybrid: bool


class InferenceEngine:
    """Computes iteration durations for scheduled batches."""

    def __init__(self, deployment: Deployment, backend: AttentionBackend) -> None:
        self.deployment = deployment
        self.backend = backend
        self.iteration_model = IterationCostModel(deployment)
        self.total_iterations = 0
        self.hybrid_iterations = 0

    def execute(self, batch: ScheduledBatch) -> IterationResult:
        """Estimate the duration of one iteration over ``batch``."""
        if batch.is_empty:
            raise ValueError("cannot execute an empty batch")
        estimate = self.backend.estimate(batch)
        num_tokens = batch.total_tokens
        duration = self.iteration_model.iteration_breakdown(
            num_tokens, estimate.prefill_time, estimate.decode_time
        ).total
        self.total_iterations += 1
        is_hybrid = batch.is_hybrid
        if is_hybrid:
            self.hybrid_iterations += 1
        return IterationResult(duration, num_tokens, is_hybrid)
