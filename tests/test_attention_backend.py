"""Regression tests for the attention-estimate cache.

Pins the estimator bug fixed alongside the cluster hot-path refactor: the
quantized cache key used to bucket 1-2 short-context decodes to ``(0, 0)`` —
the *no-decodes* signature — so a hybrid batch could return a cached
prefill-only estimate with ``decode_time == 0``.

Plus the fleet-shared estimate memo (``share_estimate_caches``) introduced
for cluster sweeps.
"""

from __future__ import annotations

import pytest

from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk
from repro.serving.attention_backend import (
    FASerialBackend,
    PODBackend,
    _quantized_signature,
    share_estimate_caches,
)

PREFILL_ONLY = HybridBatch.prefill_only(1024)
#: The collision shape: 1-2 decodes whose context rounds down below every
#: bucket width used by the signature.
SMALL_HYBRID = HybridBatch(
    prefills=(PrefillChunk(chunk_tokens=1024),),
    decodes=(DecodeRequest(context_tokens=100),),
)


class TestQuantizedSignature:
    def test_small_hybrid_does_not_collide_with_prefill_only(self):
        """The pre-fix key bucketed (1 decode, ctx<128) to (0, 0) == no decodes."""
        assert _quantized_signature(SMALL_HYBRID) != _quantized_signature(PREFILL_ONLY)

    @pytest.mark.parametrize("num_decodes", [1, 2])
    @pytest.mark.parametrize("context", [1, 64, 127])
    def test_nonzero_decode_load_never_buckets_to_zero(self, num_decodes, context):
        decodes = tuple(DecodeRequest(context_tokens=context) for _ in range(num_decodes))
        batch = HybridBatch(prefills=(PrefillChunk(chunk_tokens=256),), decodes=decodes)
        _, decode_sig = _quantized_signature(batch)
        assert decode_sig[0] > 0, "decode count bucketed to 0"
        assert decode_sig[1] > 0, "decode context bucketed to 0"

    def test_small_prior_tokens_never_bucket_to_zero(self):
        with_prior = HybridBatch.prefill_only(256, prior_tokens=100)
        without_prior = HybridBatch.prefill_only(256, prior_tokens=0)
        assert _quantized_signature(with_prior) != _quantized_signature(without_prior)

    def test_near_identical_batches_still_share_a_bucket(self):
        a = HybridBatch.uniform(1024, 8192, 32, 8000)
        b = HybridBatch.uniform(1024, 8192, 33, 8010)
        assert _quantized_signature(a) == _quantized_signature(b)

    def test_cached_hybrid_estimate_has_decode_time(self, llama3_deployment):
        """The observable bug: a hybrid batch served a cached prefill-only
        estimate (decode_time == 0) when the prefill-only batch came first."""
        backend = PODBackend(llama3_deployment)
        backend.estimate(PREFILL_ONLY)
        estimate = backend.estimate(SMALL_HYBRID)
        assert estimate.decode_time > 0.0
        assert backend.cache_size == 2


class TestSharedEstimateCache:
    def test_identical_backends_share_entries(self, llama3_deployment):
        first = PODBackend(llama3_deployment)
        second = PODBackend(llama3_deployment)
        share_estimate_caches([first, second])
        estimate = first.estimate(SMALL_HYBRID)
        assert second.cache_size == 1
        assert second.estimate(SMALL_HYBRID) is estimate

    def test_differently_configured_backends_do_not_share(self, llama3_deployment):
        serial = FASerialBackend(llama3_deployment)
        pod = PODBackend(llama3_deployment)
        share_estimate_caches([serial, pod])
        serial.estimate(SMALL_HYBRID)
        assert pod.cache_size == 0

    def test_existing_entries_survive_sharing(self, llama3_deployment):
        first = PODBackend(llama3_deployment)
        warm = first.estimate(SMALL_HYBRID)
        second = PODBackend(llama3_deployment)
        share_estimate_caches([first, second])
        assert second.estimate(SMALL_HYBRID) is warm
