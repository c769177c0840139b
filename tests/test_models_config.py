"""Tests for model configurations and deployments."""

from __future__ import annotations

import dataclasses

import pytest

from repro.models.config import (
    Deployment,
    MODEL_PRESETS,
    get_model,
    llama2_7b,
    llama3_8b,
    paper_deployment,
    yi_6b,
)


class TestModelPresets:
    def test_paper_table4_head_counts(self):
        """Table 4: 32 query heads everywhere; 4 / 32 / 8 KV heads."""
        assert yi_6b().num_q_heads == 32 and yi_6b().num_kv_heads == 4
        assert llama2_7b().num_q_heads == 32 and llama2_7b().num_kv_heads == 32
        assert llama3_8b().num_q_heads == 32 and llama3_8b().num_kv_heads == 8

    def test_group_sizes(self):
        assert yi_6b().group_size == 8
        assert llama2_7b().group_size == 1
        assert llama3_8b().group_size == 4

    def test_layer_counts(self):
        for preset in (yi_6b, llama2_7b, llama3_8b):
            assert preset().num_layers == 32

    def test_total_params_in_expected_range(self):
        assert 5.5e9 < yi_6b().total_params < 7e9
        assert 6e9 < llama2_7b().total_params < 7.5e9
        assert 7e9 < llama3_8b().total_params < 9e9

    def test_kv_bytes_per_token(self):
        # Llama-3-8B fp16: 8 KV heads x 128 dims x 2 (K and V) x 2 bytes x 32 layers = 128 KiB.
        assert llama3_8b().kv_bytes_per_token == 8 * 128 * 2 * 2 * 32

    def test_gqa_reduces_kv_cache(self):
        assert llama3_8b().kv_bytes_per_token < llama2_7b().kv_bytes_per_token

    def test_get_model(self):
        assert get_model("Llama-3-8B").name == "Llama-3-8B"
        with pytest.raises(ValueError):
            get_model("gpt-5")

    def test_registry(self):
        assert set(MODEL_PRESETS) == {"yi-6b", "llama-2-7b", "llama-3-8b"}

    def test_invalid_head_ratio_rejected(self):
        with pytest.raises(ValueError):
            dataclasses.replace(llama3_8b(), num_kv_heads=5)


class TestDeployment:
    def test_paper_deployments(self):
        """Table 4: Yi-6B on 1 GPU, the Llama models on 2 GPUs."""
        assert paper_deployment("yi-6b").tensor_parallel == 1
        assert paper_deployment("llama-2-7b").tensor_parallel == 2
        assert paper_deployment("llama-3-8b").tensor_parallel == 2

    def test_per_gpu_heads(self, llama3_deployment):
        assert llama3_deployment.q_heads_per_gpu == 16
        assert llama3_deployment.kv_heads_per_gpu == 4
        assert llama3_deployment.group_size == 4

    def test_tp_must_divide_heads(self, a100):
        with pytest.raises(ValueError):
            Deployment(model=yi_6b(), gpu=a100, tensor_parallel=3)

    def test_kv_cache_capacity_positive(self, llama3_deployment):
        capacity = llama3_deployment.kv_cache_capacity_tokens()
        assert capacity > 100_000

    def test_kv_cache_capacity_zero_when_memory_too_small(self, llama3_deployment):
        assert llama3_deployment.kv_cache_capacity_tokens(gpu_memory_bytes=1e9) == 0

    def test_params_per_layer_split_by_tp(self, llama3_deployment):
        """Tensor parallelism splits the weights over the GPUs: a memory whose
        budget holds three quarters of Llama-3-8B's weights leaves no KV cache
        on one GPU and some on each of two."""
        model = llama3_deployment.model
        memory = (
            0.75 * model.total_params * model.dtype_bytes
            / llama3_deployment.memory_budget_fraction
        )
        single = dataclasses.replace(llama3_deployment, tensor_parallel=1)
        assert single.kv_cache_capacity_tokens(memory) == 0
        assert llama3_deployment.kv_cache_capacity_tokens(memory) > 0
