"""Request-shape models: what each request asks the system to compute.

The paper evaluates two shapes (the internal enterprise trace and
arXiv-Summarization); production fleets mix many more.  Each model here is a
seeded generator of ``(prefill_tokens, decode_tokens)`` pairs reproducing a
characteristic mix:

* ``internal`` / ``arxiv`` — the paper's Table 5/6 traces (their RNG call
  sequence is pinned: seeded traces stay byte-identical with the committed
  baselines).
* ``long-summarization`` — very long documents, medium summaries.
* ``short-chat`` — short prompts, chatty decodes (decode-bound).
* ``rag`` — retrieval-augmented generation: huge stuffed-context prefill,
  tiny extractive answer (prefill-bound).
* ``code-completion`` — medium file context, very short completions at high
  request rate.

Offline fixed-shape helpers (``uniform_workload``, ``pd_ratio_workload``) and
the workload statistics (:func:`describe_workload`) also live here.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.serving.request import Request
from repro.utils.validation import check_positive


# ------------------------------------------------------------------ stats


@dataclass(frozen=True)
class WorkloadStats:
    """Summary statistics of a generated workload (for validation and reporting)."""

    num_requests: int
    mean_context_tokens: float
    mean_prefill_tokens: float
    mean_decode_tokens: float
    mean_pd_ratio: float

    def as_dict(self) -> dict[str, float]:
        return {
            "num_requests": self.num_requests,
            "mean_context_tokens": round(self.mean_context_tokens, 1),
            "mean_prefill_tokens": round(self.mean_prefill_tokens, 1),
            "mean_decode_tokens": round(self.mean_decode_tokens, 1),
            "mean_pd_ratio": round(self.mean_pd_ratio, 2),
        }


def describe_workload(requests: list[Request]) -> WorkloadStats:
    """Compute :class:`WorkloadStats` for a request list.

    Convention: ``mean_pd_ratio`` averages ``prefill/decode`` over requests
    with at least one decode token; pure-prefill requests (``decode == 0``)
    are *excluded* from the ratio rather than clamped to a fake denominator
    of 1, and the ratio is ``nan`` when no request decodes.  They still count
    toward the token means.
    """
    if not requests:
        raise ValueError("describe_workload() requires at least one request")
    prefills = np.array([r.prefill_tokens for r in requests], dtype=float)
    decodes = np.array([r.decode_tokens for r in requests], dtype=float)
    decoding = decodes > 0
    if decoding.any():
        mean_pd_ratio = float(np.mean(prefills[decoding] / decodes[decoding]))
    else:
        mean_pd_ratio = float("nan")
    return WorkloadStats(
        num_requests=len(requests),
        mean_context_tokens=float(np.mean(prefills + decodes)),
        mean_prefill_tokens=float(np.mean(prefills)),
        mean_decode_tokens=float(np.mean(decodes)),
        mean_pd_ratio=mean_pd_ratio,
    )


# ----------------------------------------------------------------- offline


def uniform_workload(
    num_requests: int, prefill_tokens: int, decode_tokens: int
) -> list[Request]:
    """Fixed-shape requests, all arriving at time zero (Figure 12 style)."""
    check_positive("num_requests", num_requests)
    return [
        Request(
            request_id=i,
            prefill_tokens=prefill_tokens,
            decode_tokens=decode_tokens,
            arrival_time=0.0,
        )
        for i in range(num_requests)
    ]


def pd_ratio_workload(
    num_requests: int, total_tokens: int, pd_ratio: float
) -> list[Request]:
    """Requests of a fixed total length split by a prefill:decode token ratio.

    Used by Figure 15: e.g. ``total_tokens ≈ 16.5K`` and ``pd_ratio = 10``
    gives ≈ 15K prefill tokens and ≈ 1.5K decode tokens per request.
    """
    check_positive("num_requests", num_requests)
    check_positive("total_tokens", total_tokens)
    check_positive("pd_ratio", pd_ratio)
    decode = max(1, int(round(total_tokens / (pd_ratio + 1.0))))
    prefill = max(1, total_tokens - decode)
    return [
        Request(request_id=i, prefill_tokens=prefill, decode_tokens=decode, arrival_time=0.0)
        for i in range(num_requests)
    ]


# ----------------------------------------------------------- shape models


def _lognormal_clipped(
    rng: np.random.Generator,
    num_samples: int,
    mean: float,
    low: float,
    high: float,
    sigma: float,
) -> np.ndarray:
    """Log-normal samples with the given mean, rejection-clipped to [low, high]."""
    mu = np.log(mean) - 0.5 * sigma**2
    samples = rng.lognormal(mean=mu, sigma=sigma, size=num_samples * 4)
    samples = samples[(samples >= low) & (samples <= high)]
    while samples.size < num_samples:
        extra = rng.lognormal(mean=mu, sigma=sigma, size=num_samples * 4)
        extra = extra[(extra >= low) & (extra <= high)]
        samples = np.concatenate([samples, extra])
    return samples[:num_samples]


def _sample_context_lengths(
    rng: np.random.Generator,
    num_requests: int,
    mean_tokens: float,
    min_tokens: int,
    max_tokens: int,
) -> np.ndarray:
    """Log-normal context lengths clipped to the paper's 4K–32K range."""
    return _lognormal_clipped(rng, num_requests, mean_tokens, min_tokens, max_tokens, sigma=0.55)


def _pairs_from_contexts(
    contexts: np.ndarray, pd_ratios: np.ndarray
) -> list[tuple[int, int]]:
    """Split sampled context lengths into (prefill, decode) by P:D ratio."""
    pairs = []
    for context, ratio in zip(contexts, pd_ratios):
        decode = max(1, int(round(context / (ratio + 1.0))))
        prefill = max(1, int(round(context)) - decode)
        pairs.append((prefill, decode))
    return pairs


class ShapeModel(ABC):
    """A seeded generator of request shapes (token counts, no arrival times)."""

    name: str = "shape"

    @abstractmethod
    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        """Return ``num_requests`` deterministic ``(prefill, decode)`` pairs."""

    def build(
        self,
        num_requests: int,
        seed: int = 0,
        id_offset: int = 0,
        tenant: str | None = None,
    ) -> list[Request]:
        """Materialise the shape mix as zero-arrival :class:`Request` objects."""
        check_positive("num_requests", num_requests)
        return [
            Request(
                request_id=id_offset + i,
                prefill_tokens=prefill,
                decode_tokens=decode,
                arrival_time=0.0,
                tenant=tenant,
            )
            for i, (prefill, decode) in enumerate(self.pairs(num_requests, seed))
        ]


class InternalShape(ShapeModel):
    """The paper's internal enterprise trace (Table 5): mean context ≈ 10.5K,
    P:D in 0–40 with a prefill-heavy skew (mean decode ≈ 331 tokens)."""

    name = "internal"

    def __init__(self, mean_context_tokens: float = 10_500.0) -> None:
        self.mean_context_tokens = mean_context_tokens

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        contexts = _sample_context_lengths(
            rng, num_requests, self.mean_context_tokens, 4096, 32768
        )
        # Beta-skewed P:D ratios in (0, 40], mean ≈ 30 so the mean decode length ≈ 330.
        pd_ratios = 40.0 * rng.beta(4.0, 1.3, size=num_requests)
        return _pairs_from_contexts(contexts, pd_ratios)


class ArxivShape(ShapeModel):
    """arXiv-Summarization (Table 6): mean context ≈ 9.5K, P:D in 0–50,
    ~42% more decode tokens per request than the internal trace (mean ≈ 470)."""

    name = "arxiv"

    def __init__(self, mean_context_tokens: float = 9_500.0) -> None:
        self.mean_context_tokens = mean_context_tokens

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        contexts = _sample_context_lengths(
            rng, num_requests, self.mean_context_tokens, 4096, 32768
        )
        # Mean ratio ≈ 19 gives a mean decode length of roughly 470 tokens at 9.5K context.
        pd_ratios = 50.0 * rng.beta(2.3, 3.7, size=num_requests)
        return _pairs_from_contexts(contexts, pd_ratios)


class LongSummarizationShape(ShapeModel):
    """Long-context summarization: 8K–32K documents, medium summaries."""

    name = "long-summarization"

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        contexts = _lognormal_clipped(rng, num_requests, 20_000.0, 8192, 32768, sigma=0.4)
        # Ratio mean ≈ 24 -> mean summary length ≈ 800 tokens at 20K context.
        pd_ratios = 40.0 * rng.beta(3.5, 2.3, size=num_requests)
        return _pairs_from_contexts(contexts, pd_ratios)


class ShortChatShape(ShapeModel):
    """Interactive chat: short prompts, chatty decodes (decode-bound)."""

    name = "short-chat"

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        prefills = _lognormal_clipped(rng, num_requests, 600.0, 32, 2048, sigma=0.7)
        decodes = _lognormal_clipped(rng, num_requests, 220.0, 16, 1024, sigma=0.6)
        return [
            (max(1, int(round(p))), max(1, int(round(d))))
            for p, d in zip(prefills, decodes)
        ]


class RAGShape(ShapeModel):
    """Retrieval-augmented generation: huge stuffed-context prefill, tiny
    extractive answer — the most prefill-bound mix in the registry."""

    name = "rag"

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        prefills = _lognormal_clipped(rng, num_requests, 14_000.0, 6144, 32768, sigma=0.45)
        decodes = _lognormal_clipped(rng, num_requests, 64.0, 8, 256, sigma=0.6)
        return [
            (max(1, int(round(p))), max(1, int(round(d))))
            for p, d in zip(prefills, decodes)
        ]


class SharedPrefixShape(ShapeModel):
    """Base for shape mixes whose prompts share a hot set of prefixes.

    Every request's prompt is (shared prefix of ``prefix_tokens``) + (unique
    suffix); ``build`` tags requests with deterministic ``prefix_id`` values
    so the prefix-caching KV allocator can share the prefix blocks.  Group
    membership is drawn from its own RNG stream (``seed + 7919``), so
    ``pairs`` alone reproduces the token shapes for generic consumers
    (e.g. tenant composition, which drops the prefix tags).
    """

    name = "shared-prefix"
    num_prefixes: int = 4
    prefix_tokens: int = 2048

    def _suffixes(self, rng: np.random.Generator, num_requests: int) -> np.ndarray:
        raise NotImplementedError

    def _decodes(self, rng: np.random.Generator, num_requests: int) -> np.ndarray:
        raise NotImplementedError

    def _group_weights(self) -> np.ndarray:
        """Popularity of each prefix group (uniform unless overridden)."""
        return np.full(self.num_prefixes, 1.0 / self.num_prefixes)

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        suffixes = self._suffixes(rng, num_requests)
        decodes = self._decodes(rng, num_requests)
        return [
            (self.prefix_tokens + max(1, int(round(s))), max(1, int(round(d))))
            for s, d in zip(suffixes, decodes)
        ]

    def groups(self, num_requests: int, seed: int = 0) -> np.ndarray:
        """Deterministic prefix-group assignment for ``num_requests`` requests."""
        rng = np.random.default_rng(seed + 7919)
        return rng.choice(self.num_prefixes, size=num_requests, p=self._group_weights())

    def build(
        self,
        num_requests: int,
        seed: int = 0,
        id_offset: int = 0,
        tenant: str | None = None,
    ) -> list[Request]:
        groups = self.groups(num_requests, seed)
        return [
            Request(
                request_id=id_offset + i,
                prefill_tokens=prefill,
                decode_tokens=decode,
                arrival_time=0.0,
                tenant=tenant,
                prefix_id=f"{self.name}/p{groups[i]}",
                prefix_tokens=self.prefix_tokens,
            )
            for i, (prefill, decode) in enumerate(self.pairs(num_requests, seed))
        ]


class SharedPrefixChatShape(SharedPrefixShape):
    """Chat behind a handful of long system prompts (agent/assistant products):
    every conversation stuffs the same ~2K-token system prompt, followed by a
    short user turn and a chatty decode."""

    name = "shared-prefix-chat"
    num_prefixes = 4
    prefix_tokens = 2048

    def _suffixes(self, rng, num_requests):
        return _lognormal_clipped(rng, num_requests, 300.0, 16, 2048, sigma=0.7)

    def _decodes(self, rng, num_requests):
        return _lognormal_clipped(rng, num_requests, 200.0, 16, 1024, sigma=0.6)


class RagCorpusShape(SharedPrefixShape):
    """RAG over a shared corpus: a hot set of documents is stuffed verbatim
    into many prompts (Zipf-skewed popularity), each followed by a short
    query and an extractive answer — prefill-bound, highly shareable."""

    name = "rag-corpus"
    num_prefixes = 8
    prefix_tokens = 6144

    def _group_weights(self) -> np.ndarray:
        ranks = np.arange(1, self.num_prefixes + 1, dtype=float)
        weights = 1.0 / ranks  # Zipf(1) popularity over the hot documents
        return weights / weights.sum()

    def _suffixes(self, rng, num_requests):
        return _lognormal_clipped(rng, num_requests, 256.0, 32, 1024, sigma=0.5)

    def _decodes(self, rng, num_requests):
        return _lognormal_clipped(rng, num_requests, 64.0, 8, 256, sigma=0.6)


class CodeCompletionShape(ShapeModel):
    """IDE code completion: medium file context, very short completions."""

    name = "code-completion"

    def pairs(self, num_requests: int, seed: int = 0) -> list[tuple[int, int]]:
        check_positive("num_requests", num_requests)
        rng = np.random.default_rng(seed)
        prefills = _lognormal_clipped(rng, num_requests, 2_500.0, 256, 8192, sigma=0.6)
        decodes = _lognormal_clipped(rng, num_requests, 40.0, 4, 160, sigma=0.55)
        return [
            (max(1, int(round(p))), max(1, int(round(d))))
            for p, d in zip(prefills, decodes)
        ]


SHAPES: dict[str, type[ShapeModel]] = {
    InternalShape.name: InternalShape,
    ArxivShape.name: ArxivShape,
    LongSummarizationShape.name: LongSummarizationShape,
    ShortChatShape.name: ShortChatShape,
    RAGShape.name: RAGShape,
    CodeCompletionShape.name: CodeCompletionShape,
    SharedPrefixChatShape.name: SharedPrefixChatShape,
    RagCorpusShape.name: RagCorpusShape,
}


def get_shape(name: str) -> ShapeModel:
    """Instantiate a registered shape model by name."""
    key = name.lower()
    if key not in SHAPES:
        raise ValueError(f"unknown shape model {name!r}; choose from {sorted(SHAPES)}")
    return SHAPES[key]()
