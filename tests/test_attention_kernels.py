"""Tests for the baseline attention kernel builders."""

from __future__ import annotations

import pytest

from repro.attention.cost_model import (
    FA_DECODE_PROFILE,
    FA_DECODE_TILE,
    FA_PREFILL_PROFILE,
    FA_PREFILL_TILE,
    FI_DECODE_TILE,
    batch_decode_ctas,
    batch_prefill_ctas,
)
from repro.attention.executors import FAHFuse, FASerial, FIBatched, FISerial
from repro.attention.kernels import (
    fa_decode_kernel,
    fa_prefill_kernel,
    fi_batched_kernel,
    fi_decode_kernel,
    fi_prefill_kernel,
    hfuse_kernel,
)
from repro.attention.workload import HybridBatch
from repro.bench.sweeps import figure11_sweep
from repro.gpu.cta import CTAWork
from repro.gpu.occupancy import max_resident_ctas


class TestFAKernels:
    def test_prefill_kernel_counts(self, llama3_deployment, small_hybrid_batch):
        kernel = fa_prefill_kernel(llama3_deployment, small_hybrid_batch)
        assert kernel is not None
        # chunk 512 -> 4 query tiles x 16 heads, possibly KV-split to fill SMs.
        assert kernel.num_ctas % (4 * 16) == 0
        assert kernel.threads_per_cta == FA_PREFILL_PROFILE.threads_per_cta

    def test_decode_kernel_counts(self, llama3_deployment, small_hybrid_batch):
        kernel = fa_decode_kernel(llama3_deployment, small_hybrid_batch)
        assert kernel is not None
        assert kernel.num_ctas % (24 * 4) == 0  # 24 decodes x 4 KV heads per GPU

    def test_prefill_kernel_none_when_no_prefill(self, llama3_deployment):
        batch = HybridBatch.decode_only([1024] * 8)
        assert fa_prefill_kernel(llama3_deployment, batch) is None

    def test_decode_kernel_none_when_no_decode(self, llama3_deployment):
        batch = HybridBatch.prefill_only(512)
        assert fa_decode_kernel(llama3_deployment, batch) is None

    def test_prefill_and_decode_cannot_coreside(self, llama3_deployment, small_hybrid_batch):
        """Independently optimized kernels are register-hungry: one prefill CTA plus
        one decode CTA exceed the register file, which is why kernel-parallel
        (streams) execution cannot co-locate them (paper §3.2)."""
        spec = llama3_deployment.gpu
        prefill_regs = FA_PREFILL_PROFILE.registers_per_thread * FA_PREFILL_PROFILE.threads_per_cta
        decode_regs = FA_DECODE_PROFILE.registers_per_thread * FA_DECODE_PROFILE.threads_per_cta
        assert prefill_regs + decode_regs > spec.registers_per_sm

    def test_kernels_are_schedulable(self, llama3_deployment, small_hybrid_batch):
        spec = llama3_deployment.gpu
        for builder in (fa_prefill_kernel, fa_decode_kernel, fi_prefill_kernel, fi_decode_kernel):
            kernel = builder(llama3_deployment, small_hybrid_batch)
            assert max_resident_ctas(spec, kernel) >= 1


class TestFlashInferKernels:
    def test_fi_decode_slightly_faster_than_fa(self, llama3_deployment, small_hybrid_batch):
        fa = fa_decode_kernel(llama3_deployment, small_hybrid_batch)
        fi = fi_decode_kernel(llama3_deployment, small_hybrid_batch)
        assert fi.total_dram_bytes() < fa.total_dram_bytes()

    def test_fi_decode_bandwidth_bonus(self, llama3_deployment, small_hybrid_batch):
        """FI's better-tuned decode kernel moves its CTAs' bytes 4% faster."""
        fi = fi_decode_kernel(llama3_deployment, small_hybrid_batch)
        ctas = batch_decode_ctas(llama3_deployment, small_hybrid_batch, tile=FI_DECODE_TILE)
        assert [cta.dram_bytes for cta in fi.ctas] == pytest.approx(
            [cta.dram_bytes / 1.04 for cta in ctas], rel=1e-12
        )

    def test_fi_batched_single_kernel_contains_both(self, llama3_deployment, small_hybrid_batch):
        kernel = fi_batched_kernel(llama3_deployment, small_hybrid_batch)
        tags = {cta.tag for cta in kernel.ctas}
        assert tags == {"prefill", "decode"}

    def test_fi_batched_wastes_decode_compute(self, llama3_deployment, small_hybrid_batch):
        """Running decodes through the 128-row prefill tile inflates decode FLOPs."""
        batched = fi_batched_kernel(llama3_deployment, small_hybrid_batch)
        decode = fi_decode_kernel(llama3_deployment, small_hybrid_batch)
        batched_decode_flops = sum(c.flops for c in batched.ctas if c.tag == "decode")
        assert batched_decode_flops > 4 * decode.total_flops()


class TestHFuseKernel:
    def test_fused_cta_count_is_max_of_both(self, llama3_deployment, small_hybrid_batch):
        prefill = fa_prefill_kernel(llama3_deployment, small_hybrid_batch)
        decode = fa_decode_kernel(llama3_deployment, small_hybrid_batch)
        fused = hfuse_kernel(llama3_deployment, small_hybrid_batch)
        assert fused.num_ctas == max(prefill.num_ctas, decode.num_ctas)

    def test_fused_resources_are_summed(self, llama3_deployment, small_hybrid_batch):
        fused = hfuse_kernel(llama3_deployment, small_hybrid_batch)
        assert fused.threads_per_cta == (
            FA_PREFILL_PROFILE.threads_per_cta + FA_DECODE_PROFILE.threads_per_cta
        )
        assert fused.shared_mem_per_cta == (
            FA_PREFILL_PROFILE.shared_mem_bytes + FA_DECODE_PROFILE.shared_mem_bytes
        )

    def test_fused_registers_fit_register_file(self, llama3_deployment, small_hybrid_batch):
        fused = hfuse_kernel(llama3_deployment, small_hybrid_batch)
        spec = llama3_deployment.gpu
        assert fused.registers_per_thread * fused.threads_per_cta <= spec.registers_per_sm

    def test_fused_work_exceeds_sum_due_to_overhead(self, llama3_deployment, small_hybrid_batch):
        prefill = fa_prefill_kernel(llama3_deployment, small_hybrid_batch)
        decode = fa_decode_kernel(llama3_deployment, small_hybrid_batch)
        fused = hfuse_kernel(llama3_deployment, small_hybrid_batch)
        assert fused.total_flops() >= prefill.total_flops()
        assert fused.total_dram_bytes() >= decode.total_dram_bytes()

    def test_falls_back_for_prefill_only_batch(self, llama3_deployment):
        batch = HybridBatch.prefill_only(1024)
        fused = hfuse_kernel(llama3_deployment, batch)
        assert fused is not None
        assert all("+" not in cta.tag for cta in fused.ctas)

    def test_none_for_empty(self, llama3_deployment):
        # hfuse_kernel on a decode-only batch returns the decode works unfused.
        batch = HybridBatch.decode_only([2048] * 4)
        fused = hfuse_kernel(llama3_deployment, batch)
        assert fused is not None
        assert {cta.tag for cta in fused.ctas} == {"decode"}


def _value(work: CTAWork) -> tuple:
    return (
        work.flops,
        work.dram_bytes,
        work.tag,
        work.fixed_time,
        work.max_compute_fraction,
        work.max_mem_fraction,
    )


class TestSharedWork:
    """The builders share one ``CTAWork`` per distinct row: the engine
    describes each distinct object once per run."""

    def test_uniform_decode_kernels_hold_one_work(self, llama3_deployment, small_hybrid_batch):
        for builder in (fa_decode_kernel, fi_decode_kernel):
            kernel = builder(llama3_deployment, small_hybrid_batch)
            assert kernel.num_ctas == 24 * 4 * 2
            assert len({id(work) for work in kernel.ctas}) == 1

    @pytest.mark.parametrize(
        "executor", (FASerial, FISerial, FIBatched, FAHFuse), ids=lambda e: e.name
    )
    def test_one_object_per_distinct_row_on_figure11(self, llama3_deployment, executor):
        for point in figure11_sweep(max_points=24, seed=0):
            for launch in executor().build_launches(llama3_deployment, point.to_batch()):
                works = launch.kernel.ctas
                assert len({id(work) for work in works}) == len({_value(w) for w in works})

    def test_hfuse_fuses_each_distinct_pair_once(self, llama3_deployment, small_hybrid_batch):
        batch = small_hybrid_batch
        prefill = batch_prefill_ctas(llama3_deployment, batch, tile=FA_PREFILL_TILE)
        decode = batch_decode_ctas(llama3_deployment, batch, tile=FA_DECODE_TILE)
        pairs = {(id(p), id(d)) for p, d in zip(prefill, decode)}
        surplus = {id(work) for work in prefill[len(decode) :] + decode[len(prefill) :]}
        fused = hfuse_kernel(llama3_deployment, batch)
        assert len({id(work) for work in fused.ctas}) == len(pairs) + len(surplus) < len(fused.ctas)
