"""Tests for the tile-level attention cost model."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.attention import cost_model
from repro.attention.cost_model import (
    CTAAggregate,
    FA_DECODE_TILE,
    FA_PREFILL_TILE,
    TileShape,
    batch_decode_aggregate,
    batch_decode_ctas,
    batch_prefill_aggregate,
    batch_prefill_ctas,
    decode_cta_works,
    decode_splits,
    default_decode_splits,
    default_prefill_splits,
    effective_bytes,
    effective_prefill_flops,
    prefill_base_cta_count,
    prefill_cta_works,
)
from repro.attention.metrics import theoretical_minimum_time
from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk
from repro.gpu.config import a100_sxm_80gb
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG


def _batch_total(deployment, batch):
    """Prefill plus decode aggregate of a batch at the default FA tiles."""
    return batch_prefill_aggregate(deployment, batch).merge(
        batch_decode_aggregate(deployment, batch)
    )


class TestPrefillCTACounts:
    def test_one_cta_per_head_and_tile(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=1024, prior_tokens=0)
        base = prefill_base_cta_count(llama3_deployment, chunk, FA_PREFILL_TILE)
        # 16 query heads per GPU (TP=2), 1024/128 = 8 query tiles.
        assert base == 16 * 8

    def test_works_length_includes_splits(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=4096)
        works = prefill_cta_works(llama3_deployment, chunk, FA_PREFILL_TILE, num_splits=3)
        assert len(works) == 16 * 4 * 3
        assert all(w.tag == PREFILL_TAG for w in works)

    def test_paper_decode_cta_claim_for_yi(self, yi_deployment):
        """Paper §3.2: each decode request of Yi-6B uses 4 CTAs (one per KV head)."""
        decodes = tuple(DecodeRequest(16384) for _ in range(54))
        assert len(decode_cta_works(yi_deployment, decodes)) == 54 * 4


class TestPrefillCosts:
    def test_prefill_is_compute_dominated(self, llama3_deployment):
        """Prefill attention: large FLOPs, tiny DRAM traffic (Figure 1, <5% BW)."""
        chunk = PrefillChunk(chunk_tokens=2048, prior_tokens=10240)
        works = prefill_cta_works(llama3_deployment, chunk)
        spec = llama3_deployment.gpu
        compute_time = sum(w.flops for w in works) / spec.tensor_flops
        memory_time = sum(w.dram_bytes for w in works) / spec.hbm_bandwidth
        assert memory_time < 0.15 * compute_time

    def test_flops_grow_with_context(self, llama3_deployment):
        short = prefill_cta_works(llama3_deployment, PrefillChunk(1024, 1024))
        long = prefill_cta_works(llama3_deployment, PrefillChunk(1024, 15360))
        assert sum(w.flops for w in long) > 2 * sum(w.flops for w in short)

    def test_causal_growth_within_chunk(self, llama3_deployment):
        """Later query tiles of a full prefill see more KV than earlier tiles."""
        chunk = PrefillChunk(4096, 0)
        works = prefill_cta_works(llama3_deployment, chunk)
        # Head 0 is the first q_tiles × splits CTAs (one split here); a tile's
        # FLOPs are proportional to the KV extent it reads.
        head0 = works[: math.ceil(chunk.chunk_tokens / FA_PREFILL_TILE.tile_q)]
        flops = [w.flops for w in head0]
        assert flops == sorted(flops)
        assert flops[-1] > flops[0]

    def test_splits_add_memory_traffic(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=8192)
        single = prefill_cta_works(llama3_deployment, chunk, num_splits=1)
        split = prefill_cta_works(llama3_deployment, chunk, num_splits=4)
        assert sum(w.dram_bytes for w in split) > sum(w.dram_bytes for w in single)
        # Total FLOPs are (approximately) preserved by splitting.
        assert sum(w.flops for w in split) == pytest.approx(
            sum(w.flops for w in single), rel=0.01
        )

    def test_mha_model_has_more_kv_traffic_than_gqa(self, llama3_deployment):
        from repro.models.config import paper_deployment

        llama2 = paper_deployment("llama-2-7b")
        chunk = PrefillChunk(chunk_tokens=1024, prior_tokens=15360)
        gqa_bytes = sum(w.dram_bytes for w in prefill_cta_works(llama3_deployment, chunk))
        mha_bytes = sum(w.dram_bytes for w in prefill_cta_works(llama2, chunk))
        assert mha_bytes > 2 * gqa_bytes

    def test_kv_past_usable_l2_is_reread(self, llama3_deployment):
        """80% of the A100's 40 MiB L2 holds KV.  A 32K-token context on 4 KV
        heads (2 KiB per token) is twice that, so each of its 64 MiB is read
        from DRAM 1.25 (cold misses) x 2 (overflow) times."""
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=32256)
        cap = cost_model._prefill_dram_kv_cap(llama3_deployment, chunk, q_tiles=4, num_splits=1)
        assert cap == pytest.approx(64 * 2**20 * 1.25 * 2, rel=1e-12)


class TestDecodeCosts:
    def test_decode_is_memory_dominated(self, llama3_deployment):
        decodes = tuple(DecodeRequest(12288) for _ in range(64))
        works = decode_cta_works(llama3_deployment, decodes, FA_DECODE_TILE)
        spec = llama3_deployment.gpu
        compute_time = sum(w.flops for w in works) / spec.tensor_flops
        memory_time = sum(w.dram_bytes for w in works) / spec.hbm_bandwidth
        assert compute_time < memory_time

    def test_kv_bytes_scale_with_context_and_batch(self, llama3_deployment):
        small = decode_cta_works(llama3_deployment, tuple(DecodeRequest(4096) for _ in range(16)))
        large = decode_cta_works(llama3_deployment, tuple(DecodeRequest(8192) for _ in range(32)))
        assert sum(w.dram_bytes for w in large) == pytest.approx(
            4 * sum(w.dram_bytes for w in small), rel=0.05
        )

    def test_padding_waste_scales_with_tile_q(self, llama3_deployment):
        """Figure 10a: decode compute grows proportionally with the QSL tile length."""
        decodes = tuple(DecodeRequest(4096) for _ in range(32))
        flops = {}
        for tile_q in (16, 64, 128):
            works = decode_cta_works(
                llama3_deployment, decodes, TileShape(tile_q=tile_q, tile_kv=64)
            )
            flops[tile_q] = sum(w.flops for w in works)
        assert flops[64] == pytest.approx(4 * flops[16], rel=0.01)
        assert flops[128] == pytest.approx(8 * flops[16], rel=0.01)

    def test_tile_q_does_not_change_memory_traffic(self, llama3_deployment):
        """Figure 10b: shrinking the decode tile does not change KV bytes read."""
        decodes = tuple(DecodeRequest(4096) for _ in range(32))
        small = decode_cta_works(llama3_deployment, decodes, TileShape(16, 64))
        big = decode_cta_works(llama3_deployment, decodes, TileShape(128, 64))
        assert sum(w.dram_bytes for w in small) == pytest.approx(
            sum(w.dram_bytes for w in big), rel=0.01
        )

    def test_decode_tag(self, llama3_deployment):
        works = decode_cta_works(llama3_deployment, (DecodeRequest(1024),))
        assert all(w.tag == DECODE_TAG for w in works)


class TestSplitHeuristics:
    def test_no_split_for_large_batches(self, llama3_deployment):
        decodes = tuple(DecodeRequest(8192) for _ in range(64))
        assert default_decode_splits(llama3_deployment, decodes, FA_DECODE_TILE) == 1

    def test_splits_for_small_batches(self, llama3_deployment):
        decodes = tuple(DecodeRequest(8192) for _ in range(4))
        splits = default_decode_splits(llama3_deployment, decodes, FA_DECODE_TILE)
        assert splits > 1

    def test_decode_splits_stop_at_the_cap(self, llama3_deployment):
        """The presets (84-132 SMs, at least 4 KV heads per GPU) ask for at most
        33 splits; a 1,024-SM GPU asks one long decode for 256 and gets the cap."""
        wide = replace(llama3_deployment, gpu=replace(a100_sxm_80gb(), num_sms=1024))
        assert decode_splits(wide, 1, 16384, FA_DECODE_TILE) == 64

    def test_prefill_split_cap(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=15872)
        uncapped = default_prefill_splits(llama3_deployment, chunk, FA_PREFILL_TILE)
        capped = default_prefill_splits(llama3_deployment, chunk, FA_PREFILL_TILE, max_ctas=2 * 108)
        base = prefill_base_cta_count(llama3_deployment, chunk, FA_PREFILL_TILE)
        assert base * capped <= 2 * 108
        assert capped <= uncapped

    def test_no_prefill_split_for_long_chunks(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=8192, prior_tokens=0)
        assert default_prefill_splits(llama3_deployment, chunk, FA_PREFILL_TILE) == 1


class TestCTALayout:
    def test_builders_expand_one_cta_per_row(self, llama3_deployment):
        """Prefill: q_heads repeats of the tile sequence, each tile repeated per
        split.  Decode: each request's CTA repeated kv_heads × splits times."""
        splits = 3
        chunk = PrefillChunk(chunk_tokens=300, prior_tokens=1000)
        prefill = prefill_cta_works(llama3_deployment, chunk, FA_PREFILL_TILE, num_splits=splits)
        q_tiles = math.ceil(chunk.chunk_tokens / FA_PREFILL_TILE.tile_q)
        head = prefill[: q_tiles * splits]
        tiles = head[::splits]
        assert head == [cta for cta in tiles for _ in range(splits)]
        assert prefill == head * llama3_deployment.q_heads_per_gpu
        assert len({cta.flops for cta in tiles}) == q_tiles

        decodes = tuple(DecodeRequest(context) for context in (1000, 5000, 300))
        decode = decode_cta_works(llama3_deployment, decodes, FA_DECODE_TILE, num_splits=splits)
        copies = llama3_deployment.kv_heads_per_gpu * splits
        requests = decode[::copies]
        assert decode == [cta for cta in requests for _ in range(copies)]
        assert requests[1].flops > requests[0].flops > requests[2].flops


class TestBatchHelpers:
    def test_batch_helpers_empty_sides(self, llama3_deployment):
        prefill_only = HybridBatch.prefill_only(512)
        assert batch_decode_ctas(llama3_deployment, prefill_only) == []
        assert len(batch_prefill_ctas(llama3_deployment, prefill_only)) > 0
        decode_only = HybridBatch.decode_only([1024] * 4)
        assert batch_prefill_ctas(llama3_deployment, decode_only) == []
        assert len(batch_decode_ctas(llama3_deployment, decode_only)) > 0

    def test_batch_flops_and_bytes_positive(self, llama3_deployment, small_hybrid_batch):
        total = _batch_total(llama3_deployment, small_hybrid_batch)
        assert total.total_flops > 0 and total.total_dram_bytes > 0

    @settings(max_examples=15, deadline=None)
    @given(
        chunk=st.sampled_from([256, 512, 1024]),
        extra=st.integers(0, 12288),
        decode_bs=st.integers(0, 64),
        decode_ctx=st.sampled_from([1024, 4096, 12288]),
    )
    def test_costs_are_finite_and_nonnegative(
        self, llama3_deployment, chunk, extra, decode_bs, decode_ctx
    ):
        batch = HybridBatch.uniform(
            chunk_tokens=chunk,
            prefill_context=chunk + extra,
            decode_batch_size=decode_bs,
            decode_context=decode_ctx,
        )
        total = _batch_total(llama3_deployment, batch)
        assert math.isfinite(total.total_flops) and total.total_flops > 0
        assert math.isfinite(total.total_dram_bytes) and total.total_dram_bytes > 0


class TestCTAAggregates:
    """The closed-form aggregates (the analytic hot path) must agree with a
    reduction of the object-based CTA builders on every batch shape."""

    BATCHES = [
        HybridBatch.uniform(1024, 12288, 64, 12288),
        HybridBatch.uniform(512, 4096, 3, 100),  # sub-bucket decode load
        HybridBatch.uniform(33, 77, 1, 60),  # partial tiles everywhere
        HybridBatch.prefill_only(2048, prior_tokens=6000),
        HybridBatch.decode_only([100, 5000, 16384]),
    ]

    @pytest.mark.parametrize("batch", BATCHES, ids=range(len(BATCHES)))
    def test_prefill_aggregate_matches_works(self, llama3_deployment, batch):
        reference = CTAAggregate.of(
            batch_prefill_ctas(llama3_deployment, batch, tile=FA_PREFILL_TILE)
        )
        aggregate = batch_prefill_aggregate(llama3_deployment, batch, tile=FA_PREFILL_TILE)
        assert aggregate.count == reference.count
        assert aggregate.total_flops == pytest.approx(reference.total_flops, rel=1e-12)
        assert aggregate.total_dram_bytes == pytest.approx(
            reference.total_dram_bytes, rel=1e-12
        )
        assert aggregate.max_fixed_time == reference.max_fixed_time

    @pytest.mark.parametrize("batch", BATCHES, ids=range(len(BATCHES)))
    def test_decode_aggregate_matches_works(self, llama3_deployment, batch):
        reference = CTAAggregate.of(
            batch_decode_ctas(llama3_deployment, batch, tile=FA_DECODE_TILE)
        )
        aggregate = batch_decode_aggregate(llama3_deployment, batch, tile=FA_DECODE_TILE)
        assert aggregate.count == reference.count
        assert aggregate.total_flops == pytest.approx(reference.total_flops, rel=1e-12)
        assert aggregate.total_dram_bytes == pytest.approx(
            reference.total_dram_bytes, rel=1e-12
        )

    @settings(max_examples=20, deadline=None)
    @given(
        chunk=st.sampled_from([128, 256, 1024]),
        extra=st.integers(0, 12288),
        decode_bs=st.integers(0, 64),
        decode_ctx=st.integers(1, 16384),
        splits=st.sampled_from([None, 1, 4]),
    )
    def test_aggregates_match_works_fuzzed(
        self, llama3_deployment, chunk, extra, decode_bs, decode_ctx, splits
    ):
        batch = HybridBatch.uniform(
            chunk_tokens=chunk,
            prefill_context=chunk + extra,
            decode_batch_size=decode_bs,
            decode_context=decode_ctx,
        )
        for build_works, build_aggregate, tile in (
            (batch_prefill_ctas, batch_prefill_aggregate, FA_PREFILL_TILE),
            (batch_decode_ctas, batch_decode_aggregate, FA_DECODE_TILE),
        ):
            reference = CTAAggregate.of(
                build_works(llama3_deployment, batch, tile=tile, num_splits=splits)
            )
            aggregate = build_aggregate(llama3_deployment, batch, tile=tile, num_splits=splits)
            assert aggregate.count == reference.count
            assert aggregate.total_flops == pytest.approx(reference.total_flops, rel=1e-12)
            assert aggregate.total_dram_bytes == pytest.approx(
                reference.total_dram_bytes, rel=1e-12
            )

    @pytest.mark.parametrize("batch", BATCHES, ids=range(len(BATCHES)))
    def test_theoretical_minimum_time_sums_the_aggregates(self, llama3_deployment, batch):
        total = _batch_total(llama3_deployment, batch)
        spec = llama3_deployment.gpu
        assert theoretical_minimum_time(llama3_deployment, batch) == max(
            total.total_flops / spec.tensor_flops, total.total_dram_bytes / spec.hbm_bandwidth
        )

    def test_empty_and_merge(self):
        empty = CTAAggregate.empty()
        assert empty.count == 0 and CTAAggregate.of([]) == empty
        merged = empty.merge(
            CTAAggregate(count=2, total_flops=1.0, total_dram_bytes=2.0, max_fixed_time=0.5)
        )
        assert merged.count == 2 and merged.max_fixed_time == 0.5


class TestCalibrationConstants:
    """Each constant stays in the range its params field once enforced at
    construction: outside it an estimate turns negative, NaN or silently
    clamped."""

    @pytest.mark.parametrize(
        "name",
        [
            "PREFILL_TENSOR_EFFICIENCY",
            "DECODE_TENSOR_EFFICIENCY",
            "HBM_EFFICIENCY",
            "L2_USABLE_FRACTION",
        ],
    )
    def test_fraction(self, name):
        assert 0.0 < getattr(cost_model, name) <= 1.0

    @pytest.mark.parametrize("name", ["PARTIAL_ACCUMULATOR_BYTES", "MAX_KV_SPLITS"])
    def test_count(self, name):
        value = getattr(cost_model, name)
        assert isinstance(value, int) and value >= 1

    @pytest.mark.parametrize(
        "name",
        [
            "COLD_MISS_FACTOR",
            "FLASH_DECODING_WAVE_TARGET",
            "HFUSE_OVERHEAD_FACTOR",
            "FI_DECODE_BANDWIDTH_BONUS",
        ],
    )
    def test_positive(self, name):
        assert 0.0 < getattr(cost_model, name) < math.inf

    def test_cta_fixed_overhead_non_negative(self):
        assert 0.0 <= cost_model.CTA_FIXED_OVERHEAD < math.inf


class TestEffectiveCosts:
    def test_effective_bytes_inflates(self):
        """Attention traffic moves at 90% of the HBM bandwidth spec."""
        assert effective_bytes(90.0) == pytest.approx(100.0)

    def test_small_prefill_tiles_less_efficient(self):
        assert effective_prefill_flops(100.0, tile_q=64) > effective_prefill_flops(
            100.0, tile_q=128
        )
