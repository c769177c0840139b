"""Tests for the tile-level attention cost model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.attention.cost_model import (
    AttentionCostParams,
    CTAAggregate,
    FA_DECODE_TILE,
    FA_PREFILL_TILE,
    TileShape,
    batch_decode_aggregate,
    batch_decode_ctas,
    batch_prefill_aggregate,
    batch_prefill_ctas,
    decode_base_cta_count,
    decode_cta_works,
    default_decode_splits,
    default_prefill_splits,
    prefill_base_cta_count,
    prefill_cta_works,
)
from repro.attention.metrics import theoretical_minimum_time
from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk
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
        assert decode_base_cta_count(yi_deployment, decodes) == 54 * 4


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
        params = AttentionCostParams()
        assert default_decode_splits(llama3_deployment, decodes, FA_DECODE_TILE, params) == 1

    def test_splits_for_small_batches(self, llama3_deployment):
        decodes = tuple(DecodeRequest(8192) for _ in range(4))
        params = AttentionCostParams()
        splits = default_decode_splits(llama3_deployment, decodes, FA_DECODE_TILE, params)
        assert splits > 1

    def test_prefill_split_cap(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=512, prior_tokens=15872)
        params = AttentionCostParams()
        uncapped = default_prefill_splits(llama3_deployment, chunk, FA_PREFILL_TILE, params)
        capped = default_prefill_splits(
            llama3_deployment, chunk, FA_PREFILL_TILE, params, max_ctas=2 * 108
        )
        base = prefill_base_cta_count(llama3_deployment, chunk, FA_PREFILL_TILE)
        assert base * capped <= 2 * 108
        assert capped <= uncapped

    def test_no_prefill_split_for_long_chunks(self, llama3_deployment):
        chunk = PrefillChunk(chunk_tokens=8192, prior_tokens=0)
        params = AttentionCostParams()
        assert default_prefill_splits(llama3_deployment, chunk, FA_PREFILL_TILE, params) == 1


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


class TestParams:
    @pytest.mark.parametrize(
        ("field", "value"),
        [
            ("cta_fixed_overhead", -1.0),
            ("hbm_efficiency", math.nan),
            ("hbm_efficiency", 0.0),
            ("prefill_tensor_efficiency", 1.5),
            ("decode_tensor_efficiency", math.inf),
            ("l2_usable_fraction", 0.0),
            ("max_kv_splits", 0),
            ("partial_accumulator_bytes", 0.5),
            ("cold_miss_factor", 0.0),
            ("flash_decoding_wave_target", -1.0),
            ("hfuse_overhead_factor", math.nan),
            ("fi_decode_bandwidth_bonus", 0.0),
        ],
    )
    def test_rejects_out_of_range_values(self, field, value):
        """Each value once produced a negative, NaN or silently clamped estimate."""
        with pytest.raises(ValueError, match=field):
            AttentionCostParams(**{field: value})

    def test_effective_bytes_inflates(self):
        params = AttentionCostParams(hbm_efficiency=0.8)
        assert params.effective_bytes(80.0) == pytest.approx(100.0)

    def test_small_prefill_tiles_less_efficient(self):
        params = AttentionCostParams()
        assert params.effective_prefill_flops(100.0, tile_q=64) > params.effective_prefill_flops(
            100.0, tile_q=128
        )
