"""Tests for hybrid-batch workload descriptions."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.attention.workload import (
    DecodeRequest,
    HybridBatch,
    PrefillChunk,
    chunked_prefill_sequence,
    describe,
    hybrid_chunk_sweep,
    table1_configs,
)


class TestPrefillChunk:
    def test_total_context(self):
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=1024)
        assert chunk.total_context == 1536

    def test_rejects_zero_chunk(self):
        with pytest.raises(ValueError):
            PrefillChunk(chunk_tokens=0)

    def test_rejects_negative_prior(self):
        with pytest.raises(ValueError):
            PrefillChunk(chunk_tokens=1, prior_tokens=-1)


class TestDecodeRequest:
    def test_rejects_zero_context(self):
        with pytest.raises(ValueError):
            DecodeRequest(context_tokens=0)


class TestHybridBatch:
    def test_requires_some_work(self):
        with pytest.raises(ValueError):
            HybridBatch()

    def test_uniform_builder(self):
        batch = HybridBatch.uniform(
            chunk_tokens=512, prefill_context=2048, decode_batch_size=4, decode_context=1024
        )
        assert batch.is_hybrid
        assert batch.num_prefill_tokens == 512
        assert batch.prefills[0].prior_tokens == 1536
        assert batch.num_decode_tokens == 4
        assert batch.total_tokens == 516

    def test_uniform_rejects_context_smaller_than_chunk(self):
        with pytest.raises(ValueError):
            HybridBatch.uniform(
                chunk_tokens=2048, prefill_context=1024, decode_batch_size=1, decode_context=1024
            )

    def test_prefill_only(self):
        batch = HybridBatch.prefill_only(chunk_tokens=256)
        assert batch.has_prefill and not batch.has_decode and not batch.is_hybrid

    def test_decode_only(self):
        batch = HybridBatch.decode_only([100, 200, 300])
        assert batch.decode_batch_size == 3
        assert not batch.is_hybrid

    def test_describe_mentions_both_phases(self):
        batch = HybridBatch.uniform(512, 2048, 8, 4096)
        text = describe(batch)
        assert "prefill" in text and "decode" in text


class TestChunkedPrefillSequence:
    def test_exact_division(self):
        chunks = chunked_prefill_sequence(2048, 512)
        assert len(chunks) == 4
        assert all(chunk.chunk_tokens == 512 for chunk in chunks)
        assert [chunk.prior_tokens for chunk in chunks] == [0, 512, 1024, 1536]

    def test_remainder_chunk(self):
        chunks = chunked_prefill_sequence(1000, 512)
        assert [c.chunk_tokens for c in chunks] == [512, 488]

    def test_single_chunk(self):
        chunks = chunked_prefill_sequence(100, 512)
        assert len(chunks) == 1

    @given(st.integers(1, 40_000), st.integers(1, 4096))
    def test_chunks_cover_prompt_exactly(self, prompt, chunk_size):
        chunks = chunked_prefill_sequence(prompt, chunk_size)
        assert sum(c.chunk_tokens for c in chunks) == prompt
        # prior_tokens is the running prefix sum.
        running = 0
        for chunk in chunks:
            assert chunk.prior_tokens == running
            running += chunk.chunk_tokens


class TestSweepsAndConfigs:
    def test_hybrid_chunk_sweep(self):
        batches = hybrid_chunk_sweep(
            prompt_tokens=4096, chunk_size=1024, decode_batch_size=8, decode_context=4096
        )
        assert len(batches) == 4
        assert all(batch.is_hybrid for batch in batches)
        assert batches[-1].prefills[0].prior_tokens == 3072

    def test_table1_configs(self):
        configs = table1_configs()
        assert set(configs) == {"C0", "C1", "C2"}
        assert configs["C0"].decode_batch_size == 80
        assert configs["C1"].num_prefill_tokens == 12 * 1024
        assert configs["C2"].prefills[0].total_context == 16 * 1024
