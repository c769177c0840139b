"""Attention backends used by the serving engine.

The serving engine needs per-layer attention times for every iteration's
batch.  A backend supplies them from the analytic model: an end-to-end run
evaluates tens of thousands of iterations, and the differential oracle
``analytic_vs_simulated`` (:mod:`repro.verify.oracles`) pins that model to the
event-driven GPU engine.  Backends correspond to the serving systems the paper
compares:

* ``FASerialBackend``  — Sarathi / vLLM baseline: independently optimized
  FlashAttention prefill and decode kernels run back to back.
* ``PODBackend``       — Sarathi+POD: the fused POD-Attention kernel for
  hybrid batches, specialized kernels otherwise.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.attention.analytic import analytic_attention_times
from repro.attention.cost_model import AttentionCostParams
from repro.attention.workload import HybridBatch
from repro.models.config import Deployment


@dataclass(frozen=True)
class AttentionEstimate:
    """Per-layer attention times for one iteration (seconds)."""

    prefill_time: float
    decode_time: float

    @property
    def total(self) -> float:
        return self.prefill_time + self.decode_time


def _quantized_signature(batch: HybridBatch) -> tuple:
    """Cache key for attention estimates: batches of near-identical shape share one entry."""

    def bucket(value: int, width: int) -> int:
        # Zero is reserved for "no work of this kind": a nonzero value is
        # floored to the first bucket rather than rounded down to 0, so a
        # hybrid batch with a couple of short-context decodes can never share
        # a cache entry with a prefill-only batch (whose decode_time is 0).
        if not value:
            return 0
        return max(width, int(round(value / width)) * width)

    prefill_sig = tuple(
        (bucket(chunk.chunk_tokens, 64), bucket(chunk.prior_tokens, 256))
        for chunk in batch.prefills
    )
    if batch.decodes:
        mean_ctx = sum(d.context_tokens for d in batch.decodes) / len(batch.decodes)
        decode_sig = (bucket(len(batch.decodes), 4), bucket(int(mean_ctx), 256))
    else:
        decode_sig = (0, 0)
    return (prefill_sig, decode_sig)


class AttentionBackend(ABC):
    """Supplies per-layer attention times for scheduled batches."""

    name: str = "base"

    def __init__(
        self,
        deployment: Deployment,
        params: AttentionCostParams | None = None,
    ) -> None:
        self.deployment = deployment
        self.params = params or AttentionCostParams()
        self._cache: dict[tuple, AttentionEstimate] = {}

    def estimate(self, batch: HybridBatch) -> AttentionEstimate:
        """Per-layer attention estimate for ``batch`` (memoised on batch shape)."""
        key = _quantized_signature(batch)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._estimate_uncached(batch)
            self._cache[key] = cached
        return cached

    @abstractmethod
    def _estimate_uncached(self, batch: HybridBatch) -> AttentionEstimate: ...

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    def use_shared_cache(self, cache: dict) -> None:
        """Adopt ``cache`` as this backend's estimate memo.

        Estimates are pure functions of the quantized batch signature, so
        backends that agree on (class, params, deployment) can share
        one memo; a cluster fleet uses this to stop every replica from
        re-deriving the same estimates (the dominant sweep cost at scale).
        """
        cache.update(self._cache)
        self._cache = cache


class FASerialBackend(AttentionBackend):
    """Independently optimized FlashAttention prefill + decode kernels (baseline)."""

    name = "FA_Serial"

    def _estimate_uncached(self, batch: HybridBatch) -> AttentionEstimate:
        times = analytic_attention_times(self.deployment, batch, self.params)
        return AttentionEstimate(prefill_time=times.prefill_time, decode_time=times.decode_time)


class PODBackend(AttentionBackend):
    """POD-Attention fused kernel for hybrid batches, specialized kernels otherwise."""

    name = "POD"

    def _estimate_uncached(self, batch: HybridBatch) -> AttentionEstimate:
        times = analytic_attention_times(self.deployment, batch, self.params)
        if not batch.is_hybrid:
            return AttentionEstimate(
                prefill_time=times.prefill_time, decode_time=times.decode_time
            )
        # Attribute the fused time to the two phases in proportion to their
        # serial estimates so iteration breakdowns stay meaningful.
        serial = max(times.serial_time, 1e-12)
        prefill_share = times.prefill_time / serial
        return AttentionEstimate(
            prefill_time=times.fused_time * prefill_share,
            decode_time=times.fused_time * (1.0 - prefill_share),
        )


def share_estimate_caches(backends) -> None:
    """Point identically-configured backends at one shared estimate memo.

    Grouping key is (class, params, deployment): backends that agree on all
    three compute identical estimates for identical signatures.  Note the
    signature is *quantized*, so a bucket is seeded by whichever concrete
    batch reaches it first — with a shared memo that is fleet-global rather
    than per-replica order, which can shift estimates within the
    quantization tolerance versus unshared caches (runs stay deterministic).
    """
    caches: dict[tuple, dict] = {}
    for backend in backends:
        key = (type(backend), backend.params, backend.deployment)
        backend.use_shared_cache(caches.setdefault(key, {}))


BACKENDS = {
    "fa_serial": FASerialBackend,
    "pod": PODBackend,
}


def get_backend(
    name: str,
    deployment: Deployment,
    params: AttentionCostParams | None = None,
) -> AttentionBackend:
    """Instantiate a backend by short name (``"fa_serial"`` or ``"pod"``)."""
    key = name.lower()
    if key not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
    return BACKENDS[key](deployment, params)
