"""Scheduled batches: the scheduler's output, consumed by the inference engine."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk
from repro.serving.request import Request


@dataclass
class ScheduledBatch:
    """The work selected for one iteration.

    Attributes:
        prefill_items: ``(request, chunk_tokens)`` pairs — the prompt tokens
            each prefilling request processes this iteration.
        decode_requests: Requests that generate one output token this iteration.
        preempted: ``(request, lost_prefill_tokens)`` pairs the scheduler
            evicted while forming this batch (preemption-with-recompute);
            the runtime uses them to fix its load counters and emit events.
        prefix_hits: ``(request, cached_tokens)`` pairs for admissions whose
            prompt prefix was (partially) served from the KV prefix cache.
        admission_blocked: Why the scheduler stopped admitting from the
            waiting queue while forming this batch (one of the
            ``BLOCKED_*`` constants in :mod:`repro.serving.scheduler`), or
            ``None`` when nothing was left waiting.  A replica re-runs a
            steady decode batch past a waiting queue only when it is set
            (``ReplicaRuntime.steady_batch``).
        decode_sums: ``(count, Σ context, min context)`` of the decodes,
            taken by the first estimate (:meth:`context_sums`); a replica
            that re-runs the batch advances them.
    """

    prefill_items: list[tuple[Request, int]] = field(default_factory=list)
    decode_requests: list[Request] = field(default_factory=list)
    preempted: list[tuple[Request, int]] = field(default_factory=list)
    prefix_hits: list[tuple[Request, int]] = field(default_factory=list)
    admission_blocked: str | None = None
    decode_sums: tuple[int, int, int] | None = None

    def context_sums(self) -> tuple[int, int, int]:
        """``decode_sums``, taken from the decodes' contexts on first use."""
        if self.decode_sums is None:
            contexts = [request.context_tokens for request in self.decode_requests]
            self.decode_sums = (len(contexts), sum(contexts), min(contexts))
        return self.decode_sums

    def advance_decode_sums(self) -> None:
        """Carry the decode sums past one step in which every decode ran."""
        if self.decode_sums is not None:
            count, context_sum, min_context = self.decode_sums
            self.decode_sums = (count, context_sum + count, min_context + 1)

    @property
    def is_empty(self) -> bool:
        return not self.prefill_items and not self.decode_requests

    @property
    def num_prefill_tokens(self) -> int:
        return sum(tokens for _, tokens in self.prefill_items)

    @property
    def num_decode_tokens(self) -> int:
        return len(self.decode_requests)

    @property
    def total_tokens(self) -> int:
        return self.num_prefill_tokens + self.num_decode_tokens

    @property
    def is_hybrid(self) -> bool:
        return bool(self.prefill_items) and bool(self.decode_requests)

    def to_hybrid_batch(self) -> HybridBatch:
        """Convert to the attention-level :class:`HybridBatch` description."""
        if self.is_empty:
            raise ValueError("cannot convert an empty ScheduledBatch")
        prefills = tuple(
            PrefillChunk(chunk_tokens=tokens, prior_tokens=request.prefill_done_tokens)
            for request, tokens in self.prefill_items
        )
        decodes = tuple(
            DecodeRequest(context_tokens=max(1, request.context_tokens))
            for request in self.decode_requests
        )
        return HybridBatch(prefills=prefills, decodes=decodes)

    def describe(self) -> str:
        """One-line description used by verbose simulation output."""
        prefill = ",".join(f"r{r.request_id}:{t}" for r, t in self.prefill_items)
        return (
            f"Batch(prefill=[{prefill}] decode_bs={len(self.decode_requests)} "
            f"tokens={self.total_tokens})"
        )
