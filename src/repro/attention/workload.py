"""Hybrid-batch workload descriptions.

A *hybrid batch* (paper §2.1) is the unit of attention work in
chunked-prefill serving: one (occasionally more) prefill chunk of a new
request plus the single-token decode steps of every running request.  These
dataclasses describe such batches purely in terms of token counts; the cost
models translate them into CTA-level work and the numerical kernels translate
them into actual tensors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class PrefillChunk:
    """One chunk of a (possibly chunked) prefill.

    Attributes:
        chunk_tokens: Number of new query tokens processed in this iteration.
        prior_tokens: Tokens of the same request already processed in earlier
            chunks (their KV is in the cache and must be re-read).
    """

    chunk_tokens: int
    prior_tokens: int = 0

    def __post_init__(self) -> None:
        check_positive("chunk_tokens", self.chunk_tokens)
        check_non_negative("prior_tokens", self.prior_tokens)

    @property
    def total_context(self) -> int:
        """KV length visible to the last query token of the chunk."""
        return self.prior_tokens + self.chunk_tokens


@dataclass(frozen=True)
class DecodeRequest:
    """One request in its decode phase: a single query token over its context."""

    context_tokens: int

    def __post_init__(self) -> None:
        check_positive("context_tokens", self.context_tokens)


@dataclass(frozen=True)
class HybridBatch:
    """The attention workload of one hybrid-batching iteration."""

    prefills: tuple[PrefillChunk, ...] = ()
    decodes: tuple[DecodeRequest, ...] = ()

    def __post_init__(self) -> None:
        if not self.prefills and not self.decodes:
            raise ValueError("a HybridBatch must contain at least one prefill or decode")

    # ------------------------------------------------------------ properties

    @property
    def has_prefill(self) -> bool:
        return bool(self.prefills)

    @property
    def has_decode(self) -> bool:
        return bool(self.decodes)

    @property
    def is_hybrid(self) -> bool:
        """True when the batch mixes prefill and decode work."""
        return self.has_prefill and self.has_decode

    @property
    def num_prefill_tokens(self) -> int:
        return sum(chunk.chunk_tokens for chunk in self.prefills)

    @property
    def num_decode_tokens(self) -> int:
        return len(self.decodes)

    @property
    def total_tokens(self) -> int:
        """Tokens fed to the linear operators this iteration."""
        return self.num_prefill_tokens + self.num_decode_tokens

    @property
    def decode_batch_size(self) -> int:
        return len(self.decodes)

    # ------------------------------------------------------------- builders

    @classmethod
    def uniform(
        cls,
        chunk_tokens: int,
        prefill_context: int,
        decode_batch_size: int,
        decode_context: int,
    ) -> "HybridBatch":
        """Common benchmark shape: one prefill chunk plus a uniform decode batch.

        ``prefill_context`` is the total context of the prefill request once
        this chunk completes, so ``prior_tokens = prefill_context - chunk_tokens``.
        """
        check_positive("chunk_tokens", chunk_tokens)
        if prefill_context < chunk_tokens:
            raise ValueError(
                f"prefill_context ({prefill_context}) must be >= chunk_tokens ({chunk_tokens})"
            )
        prefills = (
            PrefillChunk(chunk_tokens=chunk_tokens, prior_tokens=prefill_context - chunk_tokens),
        )
        decodes = tuple(
            DecodeRequest(context_tokens=decode_context) for _ in range(decode_batch_size)
        )
        if decode_batch_size == 0:
            return cls(prefills=prefills, decodes=())
        return cls(prefills=prefills, decodes=decodes)

    @classmethod
    def prefill_only(cls, chunk_tokens: int, prior_tokens: int = 0) -> "HybridBatch":
        return cls(prefills=(PrefillChunk(chunk_tokens, prior_tokens),), decodes=())

    @classmethod
    def decode_only(cls, context_lengths: Iterable[int]) -> "HybridBatch":
        return cls(prefills=(), decodes=tuple(DecodeRequest(c) for c in context_lengths))


def chunked_prefill_sequence(prompt_tokens: int, chunk_size: int) -> list[PrefillChunk]:
    """Split a prompt into the sequence of chunks Sarathi-style scheduling produces."""
    check_positive("prompt_tokens", prompt_tokens)
    check_positive("chunk_size", chunk_size)
    chunks: list[PrefillChunk] = []
    done = 0
    while done < prompt_tokens:
        size = min(chunk_size, prompt_tokens - done)
        chunks.append(PrefillChunk(chunk_tokens=size, prior_tokens=done))
        done += size
    return chunks


def hybrid_chunk_sweep(
    prompt_tokens: int,
    chunk_size: int,
    decode_batch_size: int,
    decode_context: int,
) -> list[HybridBatch]:
    """The batches seen while chunk-prefilling one prompt next to a steady decode pool.

    This is the Figure 6 workload: every chunk of a ``prompt_tokens`` prompt is
    co-scheduled with ``decode_batch_size`` decodes of ``decode_context`` tokens.
    """
    batches = []
    for chunk in chunked_prefill_sequence(prompt_tokens, chunk_size):
        decodes = tuple(DecodeRequest(decode_context) for _ in range(decode_batch_size))
        batches.append(HybridBatch(prefills=(chunk,), decodes=decodes))
    return batches


def table1_configs() -> dict[str, HybridBatch]:
    """The three hybrid-batch configurations of Table 1 (used by Figure 1).

    C0 is memory-bound (small chunk, many decodes), C1 is balanced and C2 is
    compute-bound (large chunk).
    """
    return {
        "C0": HybridBatch.uniform(
            chunk_tokens=1024,
            prefill_context=12 * 1024,
            decode_batch_size=80,
            decode_context=12 * 1024,
        ),
        "C1": HybridBatch.uniform(
            chunk_tokens=12 * 1024,
            prefill_context=12 * 1024,
            decode_batch_size=220,
            decode_context=12 * 1024,
        ),
        "C2": HybridBatch.uniform(
            chunk_tokens=16 * 1024,
            prefill_context=16 * 1024,
            decode_batch_size=250,
            decode_context=12 * 1024,
        ),
    }


def describe(batch: HybridBatch) -> str:
    """One-line human readable description of a batch (used in benchmark output)."""
    parts = []
    for chunk in batch.prefills:
        parts.append(f"prefill(chunk={chunk.chunk_tokens}, ctx={chunk.total_context})")
    if batch.decodes:
        contexts = [d.context_tokens for d in batch.decodes]
        parts.append(
            f"decode(bs={len(contexts)}, ctx~{sum(contexts) // len(contexts)})"
        )
    return " + ".join(parts)
