"""Closed-form (analytic) attention time estimates.

The event-driven GPU simulator is the ground truth but costs milliseconds per
batch; the end-to-end serving simulator needs attention times for tens of
thousands of iterations.  This module provides roofline-style closed forms
built from the *same* per-CTA cost model, so the two paths agree to within a
modest tolerance (validated by ``tests/test_analytic_vs_sim.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attention.cost_model import (
    AttentionCostParams,
    CTAAggregate,
    FA_DECODE_PROFILE,
    FA_DECODE_TILE,
    FA_PREFILL_PROFILE,
    FA_PREFILL_TILE,
    batch_decode_aggregate,
    batch_prefill_aggregate,
)
from repro.attention.workload import HybridBatch
from repro.gpu.cta import CTAWork
from repro.gpu.kernel import Kernel
from repro.gpu.occupancy import max_resident_ctas
from repro.models.config import Deployment


@dataclass(frozen=True)
class AnalyticAttentionTimes:
    """Per-layer attention times estimated analytically (seconds)."""

    prefill_time: float
    decode_time: float
    serial_time: float
    fused_time: float

    @property
    def speedup(self) -> float:
        """Estimated speedup of fused (POD) execution over serial execution."""
        if self.fused_time <= 0:
            return 0.0
        return self.serial_time / self.fused_time


def _kernel_time(
    deployment: Deployment,
    aggregate: CTAAggregate,
    occupancy: int,
    overlap_efficiency: float = 1.0,
) -> float:
    """Roofline time of one kernel given its CTA aggregate and per-SM occupancy."""
    if not aggregate.count:
        return 0.0
    spec = deployment.gpu
    total_flops = aggregate.total_flops
    total_bytes = aggregate.total_dram_bytes
    fixed = aggregate.max_fixed_time

    occupancy = max(1, occupancy)
    slots_per_wave = occupancy * spec.num_sms
    waves = aggregate.count / slots_per_wave
    # SMs actively streaming memory in the steady state bound achievable bandwidth.
    active_sms = min(spec.num_sms, math.ceil(aggregate.count / occupancy))
    bandwidth = min(spec.hbm_bandwidth, active_sms * spec.sm_mem_bandwidth)
    compute_sms = min(spec.num_sms, aggregate.count)
    compute = spec.tensor_flops_per_sm * compute_sms

    ideal = max(total_flops / compute, total_bytes / bandwidth)
    # Wave quantization: the last, partially filled wave still takes a full
    # wave's time for the dominant resource.
    if waves > 0:
        quantization = math.ceil(waves) / waves
        # Quantization matters most when there are few waves.
        ideal *= min(quantization, 2.0)
    return ideal / overlap_efficiency + fixed + spec.kernel_launch_overhead


def _occupancy_for(deployment: Deployment, threads: int, shared_mem: int, regs: int) -> int:
    probe = Kernel.from_ctas(
        "probe",
        [CTAWork(flops=1.0, dram_bytes=1.0)],
        threads_per_cta=threads,
        shared_mem_per_cta=shared_mem,
        registers_per_thread=regs,
    )
    return max_resident_ctas(deployment.gpu, probe)


def _prefill_time(
    deployment: Deployment, batch: HybridBatch, params: AttentionCostParams | None = None
) -> float:
    """Analytic estimate of the FA prefill kernel's time for this batch."""
    params = params or AttentionCostParams()
    works = batch_prefill_aggregate(deployment, batch, tile=FA_PREFILL_TILE, params=params)
    occupancy = _occupancy_for(
        deployment,
        FA_PREFILL_PROFILE.threads_per_cta,
        FA_PREFILL_PROFILE.shared_mem_bytes,
        FA_PREFILL_PROFILE.registers_per_thread,
    )
    return _kernel_time(deployment, works, occupancy)


def _decode_time(
    deployment: Deployment, batch: HybridBatch, params: AttentionCostParams | None = None
) -> float:
    """Analytic estimate of the FA decode kernel's time for this batch."""
    params = params or AttentionCostParams()
    works = batch_decode_aggregate(deployment, batch, tile=FA_DECODE_TILE, params=params)
    occupancy = _occupancy_for(
        deployment,
        FA_DECODE_PROFILE.threads_per_cta,
        FA_DECODE_PROFILE.shared_mem_bytes,
        FA_DECODE_PROFILE.registers_per_thread,
    )
    return _kernel_time(deployment, works, occupancy)


def analytic_attention_times(
    deployment: Deployment,
    batch: HybridBatch,
    params: AttentionCostParams | None = None,
    fused_overlap_efficiency: float = 0.92,
) -> AnalyticAttentionTimes:
    """Analytic per-layer attention times for serial (FA) and fused (POD) execution.

    ``fused_overlap_efficiency`` accounts for imperfect overlap in the fused
    kernel (dispatch ramp-up, tail effects); its default is calibrated against
    the event-driven simulator.
    """
    params = params or AttentionCostParams()
    prefill_time = _prefill_time(deployment, batch, params)
    decode_time = _decode_time(deployment, batch, params)
    serial_time = prefill_time + decode_time

    # Fused: POD's decode tiles shrink to 16 query rows, removing most of the
    # redundant decode compute, and both resources are driven concurrently.
    from repro.core.tile_config import select_pod_config  # local import to avoid a cycle

    config = select_pod_config(deployment, batch)
    prefill_works = batch_prefill_aggregate(
        deployment,
        batch,
        tile=config.prefill_tile,
        params=params,
        max_prefill_ctas=config.max_prefill_ctas(deployment.gpu),
    )
    decode_works = batch_decode_aggregate(
        deployment, batch, tile=config.decode_tile, params=params
    )
    if not prefill_works.count and not decode_works.count:
        fused_time = 0.0
    else:
        spec = deployment.gpu
        total_flops = prefill_works.total_flops + decode_works.total_flops
        total_bytes = prefill_works.total_dram_bytes + decode_works.total_dram_bytes
        # Decode units are packed into physical CTAs (virtual decode CTAs), so
        # the number of SMs concurrently streaming memory — and therefore the
        # achievable bandwidth — is bounded by the physical decode CTA count.
        physical_decode_ctas = math.ceil(decode_works.count / config.virtual_decode_factor)
        streaming_sms = min(spec.num_sms, max(1, physical_decode_ctas) + len(batch.prefills))
        available_bandwidth = min(spec.hbm_bandwidth, streaming_sms * spec.sm_mem_bandwidth)
        fused_time = (
            max(total_flops / spec.tensor_flops, total_bytes / available_bandwidth)
            / fused_overlap_efficiency
            + spec.kernel_launch_overhead
        )
        # The fused kernel can never beat the better of the two phase-specific
        # lower bounds on its dominant resource.
        fused_time = max(
            fused_time,
            prefill_works.total_flops / spec.tensor_flops,
            decode_works.total_dram_bytes / spec.hbm_bandwidth,
        )
    # Fusion never helps a single-phase batch; fall back to the specialized kernel.
    if not batch.has_prefill:
        fused_time = decode_time
    elif not batch.has_decode:
        fused_time = prefill_time
    else:
        fused_time = min(fused_time, serial_time)
    return AnalyticAttentionTimes(
        prefill_time=prefill_time,
        decode_time=decode_time,
        serial_time=serial_time,
        fused_time=fused_time,
    )
