"""Tests for the GPU specifications."""

from __future__ import annotations

import dataclasses

import pytest

from repro.gpu.config import GPUSpec, GPU_PRESETS, a100_sxm_80gb, a6000, get_gpu, h100_sxm_80gb


class TestA100Preset:
    def test_sm_count(self, a100):
        assert a100.num_sms == 108

    def test_per_sm_throughput(self, a100):
        assert a100.tensor_flops_per_sm == pytest.approx(a100.tensor_flops / 108)

    def test_hbm_saturation_needs_many_sms(self, a100):
        # The key property for SM-level co-location: one SM cannot saturate HBM.
        assert 30 < a100.hbm_bandwidth / a100.sm_mem_bandwidth < a100.num_sms

    def test_shared_mem_limits(self, a100):
        assert a100.max_shared_mem_per_cta <= a100.shared_mem_per_sm


class TestOtherPresets:
    def test_h100_is_bigger_than_a100(self, a100):
        h100 = h100_sxm_80gb()
        assert h100.tensor_flops > a100.tensor_flops
        assert h100.hbm_bandwidth > a100.hbm_bandwidth

    def test_a6000_is_smaller_than_a100(self, a100):
        small = a6000()
        assert small.hbm_bandwidth < a100.hbm_bandwidth

    def test_all_presets_constructible(self):
        for name in GPU_PRESETS:
            spec = get_gpu(name)
            assert isinstance(spec, GPUSpec)

    def test_get_gpu_unknown(self):
        with pytest.raises(ValueError, match="unknown GPU"):
            get_gpu("tpu-v9")

    def test_get_gpu_case_insensitive(self):
        assert get_gpu("A100").name == a100_sxm_80gb().name


class TestScaled:
    def test_scaling_doubles_resources(self, a100):
        doubled = a100.scaled(2.0)
        assert doubled.num_sms == 2 * a100.num_sms
        assert doubled.tensor_flops == pytest.approx(2 * a100.tensor_flops)
        assert doubled.hbm_bandwidth == pytest.approx(2 * a100.hbm_bandwidth)

    def test_scaling_preserves_per_sm_bandwidth_cap(self, a100):
        assert a100.scaled(2.0).sm_mem_bandwidth == a100.sm_mem_bandwidth

    def test_scaling_rejects_non_positive(self, a100):
        with pytest.raises(ValueError):
            a100.scaled(0.0)

    def test_custom_name(self, a100):
        assert a100.scaled(0.5, name="half").name == "half"


class TestValidation:
    def test_rejects_zero_sms(self, a100):
        with pytest.raises(ValueError):
            dataclasses.replace(a100, num_sms=0)

    def test_rejects_zero_bandwidth(self, a100):
        with pytest.raises(ValueError):
            dataclasses.replace(a100, hbm_bandwidth=0)

    def test_frozen(self, a100):
        with pytest.raises(dataclasses.FrozenInstanceError):
            a100.num_sms = 1
