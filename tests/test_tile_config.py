"""Tests for the POD-Attention kernel configurations."""

from __future__ import annotations

import dataclasses

import pytest

from repro.attention.cost_model import TileShape
from repro.attention.workload import HybridBatch
from repro.core.tile_config import (
    POD_CONFIGS,
    PREFILL_SPLIT_WAVE_LIMIT,
    estimate_phase_costs,
    pod_config_2_ctas_per_sm,
    pod_config_4_ctas_per_sm,
    pod_config_8_ctas_per_sm,
    select_pod_config,
)
from repro.gpu.occupancy import max_resident_ctas
from repro.gpu.kernel import Kernel
from repro.gpu.cta import CTAWork


def _occupancy(spec, config):
    probe = Kernel.from_ctas(
        "probe",
        [CTAWork(flops=1.0, dram_bytes=1.0)],
        threads_per_cta=config.profile.threads_per_cta,
        shared_mem_per_cta=config.profile.shared_mem_bytes,
        registers_per_thread=config.profile.registers_per_thread,
    )
    return max_resident_ctas(spec, probe)


class TestConfigs:
    def test_2cta_config_achieves_its_occupancy(self, a100):
        config = pod_config_2_ctas_per_sm()
        assert _occupancy(a100, config) == 2

    def test_4cta_config_achieves_its_occupancy(self, a100):
        config = pod_config_4_ctas_per_sm()
        assert _occupancy(a100, config) == 4

    def test_8cta_config_is_constructible(self, a100):
        config = pod_config_8_ctas_per_sm()
        assert _occupancy(a100, config) >= 4

    def test_decode_tiles_use_minimum_cutlass_tile(self):
        for factory in POD_CONFIGS.values():
            assert factory().decode_tile.tile_q == 16

    def test_larger_prefill_tile_in_2cta_config(self):
        assert (
            pod_config_2_ctas_per_sm().prefill_tile.tile_q
            > pod_config_4_ctas_per_sm().prefill_tile.tile_q
        )

    def test_max_prefill_ctas_limit(self, a100):
        config = pod_config_2_ctas_per_sm()
        assert config.max_prefill_ctas(a100) == 2 * a100.num_sms

    def test_prefill_split_wave_limit_positive(self):
        assert 0.0 < PREFILL_SPLIT_WAVE_LIMIT < float("inf")

    def test_rejects_invalid_ctas_per_sm(self):
        config = pod_config_2_ctas_per_sm()
        with pytest.raises(ValueError):
            dataclasses.replace(config, ctas_per_sm=3)

    def test_rejects_tiny_decode_tile(self):
        config = pod_config_2_ctas_per_sm()
        with pytest.raises(ValueError):
            dataclasses.replace(config, decode_tile=TileShape(tile_q=8, tile_kv=32))


class TestSelection:
    def test_prefill_dominant_selects_2_ctas(self, llama3_deployment):
        """Long-context, small-decode batches are prefill dominant → 2 CTAs/SM (Fig. 13)."""
        batch = HybridBatch.uniform(
            chunk_tokens=16384, prefill_context=16384, decode_batch_size=8, decode_context=2048
        )
        assert select_pod_config(llama3_deployment, batch).ctas_per_sm == 2

    def test_decode_dominant_selects_4_ctas(self, llama3_deployment):
        batch = HybridBatch.uniform(
            chunk_tokens=512, prefill_context=2048, decode_batch_size=200, decode_context=8192
        )
        assert select_pod_config(llama3_deployment, batch).ctas_per_sm == 4

    def test_estimate_phase_costs_positive(self, llama3_deployment, small_hybrid_batch):
        prefill_time, decode_time = estimate_phase_costs(llama3_deployment, small_hybrid_batch)
        assert prefill_time > 0 and decode_time > 0

    def test_estimates_scale_with_work(self, llama3_deployment):
        small = HybridBatch.uniform(512, 2048, 8, 2048)
        large = HybridBatch.uniform(2048, 8192, 64, 8192)
        assert estimate_phase_costs(llama3_deployment, large)[0] > estimate_phase_costs(
            llama3_deployment, small
        )[0]
        assert estimate_phase_costs(llama3_deployment, large)[1] > estimate_phase_costs(
            llama3_deployment, small
        )[1]
