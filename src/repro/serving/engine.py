"""Inference engine: turns a scheduled batch into an iteration duration.

The engine composes the linear-operator roofline model with the attention
backend's estimate to produce the wall-clock time of one iteration, exactly
the composition shown in the paper's Figure 3/Figure 4.  A step costs O(1)
model evaluations: the backend estimates attention from the scheduled batch
directly (no :class:`~repro.attention.workload.HybridBatch` is built), and
the iteration model memoizes the linear operators per token count.
:meth:`InferenceEngine.rerun_durations` prices a steady decode batch's
re-runs through the same breakdown, without a backend estimate per step.

An engine is built on a backend and serves that backend's deployment.  Both
memos are pure functions of the deployment and their keys and the engine
keeps no per-replica state, so a topology builds one engine per deployment
and every replica of that deployment runs on it
(:mod:`repro.cluster.topology`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

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
    """Computes iteration durations for scheduled batches on ``backend``'s deployment."""

    def __init__(self, backend: AttentionBackend) -> None:
        self.backend = backend
        self.iteration_model = IterationCostModel(backend.deployment)

    def execute(self, batch: ScheduledBatch) -> IterationResult:
        """Estimate the duration of one iteration over ``batch``."""
        if batch.is_empty:
            raise ValueError("cannot execute an empty batch")
        estimate = self.backend.estimate(batch)
        num_tokens = batch.total_tokens
        duration = self.iteration_model.iteration_breakdown(
            num_tokens, estimate.prefill_time, estimate.decode_time
        ).total
        return IterationResult(duration, num_tokens, batch.is_hybrid)

    def rerun_durations(self, batch: ScheduledBatch) -> Iterator[float]:
        """Durations of successive re-runs of a decode-only ``batch``.

        Each equals, bit for bit, what :meth:`execute` returns for that
        re-run: the same breakdown of the backend's re-run decode time.
        """
        num_tokens = batch.total_tokens
        breakdown = self.iteration_model.iteration_breakdown
        for decode_time in self.backend.rerun_decode_times(batch):
            yield breakdown(num_tokens, 0.0, decode_time).total
