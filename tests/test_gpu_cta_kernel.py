"""Tests for CTA work descriptions and kernel/launch abstractions."""

from __future__ import annotations

import pytest

from repro.gpu.cta import CTAWork, DECODE_TAG, PREFILL_TAG
from repro.gpu.kernel import Kernel, KernelLaunch


class TestCTAWork:
    def test_basic_construction(self):
        work = CTAWork(flops=1e9, dram_bytes=1e6, tag=PREFILL_TAG)
        assert work.flops == 1e9
        assert work.tag == PREFILL_TAG
        assert not work.is_empty

    def test_empty(self):
        assert CTAWork(flops=0, dram_bytes=0).is_empty

    def test_rejects_negative_flops(self):
        with pytest.raises(ValueError):
            CTAWork(flops=-1, dram_bytes=0)

    def test_rejects_negative_bytes(self):
        with pytest.raises(ValueError):
            CTAWork(flops=0, dram_bytes=-1)

    def test_rejects_invalid_fraction(self):
        with pytest.raises(ValueError):
            CTAWork(flops=1, dram_bytes=1, max_compute_fraction=1.5)

    def test_rejects_zero_compute_cap_with_compute_work(self):
        with pytest.raises(ValueError):
            CTAWork(flops=1, dram_bytes=0, max_compute_fraction=0.0)

    def test_scaled(self):
        work = CTAWork(flops=100, dram_bytes=10, fixed_time=1.0)
        scaled = work.scaled(2.0)
        assert scaled.flops == 200
        assert scaled.dram_bytes == 20
        assert scaled.fixed_time == 2.0

    def test_merged_with_sums_work(self):
        a = CTAWork(flops=100, dram_bytes=10, tag=PREFILL_TAG, fixed_time=1.0)
        b = CTAWork(flops=1, dram_bytes=1000, tag=DECODE_TAG, fixed_time=2.0)
        merged = a.merged_with(b)
        assert merged.flops == 101
        assert merged.dram_bytes == 1010
        assert merged.fixed_time == 2.0
        assert merged.tag == f"{PREFILL_TAG}+{DECODE_TAG}"

    def test_merged_with_custom_tag(self):
        merged = CTAWork(flops=1, dram_bytes=1).merged_with(CTAWork(flops=1, dram_bytes=1), tag="x")
        assert merged.tag == "x"


class TestKernel:
    def _work(self):
        return CTAWork(flops=1.0, dram_bytes=1.0)

    def test_from_ctas(self):
        kernel = Kernel.from_ctas(
            "k", [self._work()] * 3, threads_per_cta=128, shared_mem_per_cta=1024
        )
        assert kernel.num_ctas == 3
        assert kernel.work_for(1, sm_id=0).flops == 1.0

    def test_from_ctas_rejects_empty(self):
        with pytest.raises(ValueError):
            Kernel.from_ctas("k", [], threads_per_cta=128, shared_mem_per_cta=0)

    def test_requires_exactly_one_work_source(self):
        with pytest.raises(ValueError):
            Kernel(name="k", num_ctas=1, threads_per_cta=128, shared_mem_per_cta=0)

    def test_cta_count_mismatch(self):
        with pytest.raises(ValueError):
            Kernel(
                name="k",
                num_ctas=2,
                threads_per_cta=128,
                shared_mem_per_cta=0,
                ctas=[self._work()],
            )

    def test_binder_kernel(self):
        calls = []

        def binder(sm_id, dispatch_index):
            calls.append((sm_id, dispatch_index))
            return CTAWork(flops=float(sm_id), dram_bytes=float(dispatch_index))

        kernel = Kernel.with_binder("b", 4, binder, threads_per_cta=64, shared_mem_per_cta=0)
        work = kernel.work_for(2, sm_id=7)
        assert work.flops == 7.0
        assert work.dram_bytes == 2.0
        assert calls == [(7, 2)]

    def test_totals_for_static_kernel(self):
        kernel = Kernel.from_ctas(
            "k", [CTAWork(flops=2, dram_bytes=3)] * 4, threads_per_cta=64, shared_mem_per_cta=0
        )
        assert kernel.total_flops() == 8
        assert kernel.total_dram_bytes() == 12

    def test_totals_for_binder_kernel_are_zero(self):
        kernel = Kernel.with_binder(
            "b",
            2,
            lambda s, d: CTAWork(flops=1, dram_bytes=1),
            threads_per_cta=64,
            shared_mem_per_cta=0,
        )
        assert kernel.total_flops() == 0.0


class TestKernelLaunch:
    def test_default_stream(self):
        kernel = Kernel.from_ctas(
            "k", [CTAWork(flops=1, dram_bytes=1)], threads_per_cta=64, shared_mem_per_cta=0
        )
        assert KernelLaunch(kernel).stream == 0

    def test_rejects_negative_stream(self):
        kernel = Kernel.from_ctas(
            "k", [CTAWork(flops=1, dram_bytes=1)], threads_per_cta=64, shared_mem_per_cta=0
        )
        with pytest.raises(ValueError):
            KernelLaunch(kernel, stream=-1)
