"""Closed-form (analytic) attention time estimates.

The event-driven GPU simulator is the ground truth but costs milliseconds per
batch; the end-to-end serving simulator needs attention times for every
iteration it serves.  This module provides roofline-style closed forms built
from the *same* per-CTA cost model, so the two paths agree to within a modest
tolerance (validated by ``tests/test_analytic_vs_sim.py``).

The arithmetic lives in plain-number helpers: :func:`kernel_time` prices one
kernel from its CTA count, FLOPs and bytes (split into the part the CTA
count fixes, :func:`kernel_shape`, and :func:`priced_kernel_time`), and
:func:`fused_time` prices POD's fused kernel from its prefill and decode
aggregates.
:func:`analytic_attention_times` is the reference: it sums a materialised
batch's CTA rows and feeds them to the helpers.  The serving backends
(:mod:`repro.serving.attention_backend`) feed the same helpers from memoized
prefill aggregates and closed-form decode sums, and
:func:`repro.verify.oracles.estimate_equivalence` holds every serving step to
the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.attention.cost_model import (
    CTAAggregate,
    FA_DECODE_PROFILE,
    FA_DECODE_TILE,
    FA_PREFILL_PROFILE,
    FA_PREFILL_TILE,
    ResourceProfile,
    batch_decode_aggregate,
    batch_prefill_aggregate,
)
from repro.attention.workload import HybridBatch
from repro.gpu.config import GPUSpec
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


#: Overlap efficiency of the fused kernel (dispatch ramp-up, tail effects),
#: calibrated against the event-driven simulator.
FUSED_OVERLAP_EFFICIENCY = 0.92


def kernel_shape(spec: GPUSpec, count: int, occupancy: int) -> tuple[float, float, float, float]:
    """The part of :func:`kernel_time` that a kernel's CTA count and occupancy fix.

    Returns (compute, bandwidth, wave factor, launch overhead):
    :func:`priced_kernel_time` turns it into a time for any FLOP and byte
    totals, so a caller pricing many kernels of one shape builds it once.
    """
    occupancy = max(1, occupancy)
    slots_per_wave = occupancy * spec.num_sms
    waves = count / slots_per_wave
    # SMs actively streaming memory in the steady state bound achievable bandwidth.
    active_sms = min(spec.num_sms, math.ceil(count / occupancy))
    bandwidth = min(spec.hbm_bandwidth, active_sms * spec.sm_mem_bandwidth)
    compute_sms = min(spec.num_sms, count)
    compute = spec.tensor_flops_per_sm * compute_sms
    # Wave quantization: the last, partially filled wave still takes a full
    # wave's time for the dominant resource.  It matters most when there are
    # few waves.
    factor = min(math.ceil(waves) / waves, 2.0) if waves > 0 else 1.0
    return compute, bandwidth, factor, spec.kernel_launch_overhead


def priced_kernel_time(
    shape: tuple[float, float, float, float],
    flops: float,
    dram_bytes: float,
    fixed_time: float,
) -> float:
    """Roofline time of a kernel of ``shape`` (see :func:`kernel_shape`)."""
    compute, bandwidth, factor, launch_overhead = shape
    return max(flops / compute, dram_bytes / bandwidth) * factor + fixed_time + launch_overhead


def kernel_time(
    spec: GPUSpec,
    count: int,
    flops: float,
    dram_bytes: float,
    fixed_time: float,
    occupancy: int,
) -> float:
    """Roofline time of one kernel of ``count`` CTAs at ``occupancy`` CTAs per SM."""
    if not count:
        return 0.0
    return priced_kernel_time(kernel_shape(spec, count, occupancy), flops, dram_bytes, fixed_time)


def fused_time(
    spec: GPUSpec,
    num_prefills: int,
    prefill_flops: float,
    prefill_bytes: float,
    decode_count: int,
    decode_flops: float,
    decode_bytes: float,
    virtual_decode_factor: int,
    serial_time: float,
) -> float:
    """Time of POD's fused kernel on a hybrid batch, given its POD-tile aggregates.

    POD's decode tiles shrink to 16 query rows, removing most of the redundant
    decode compute, and both resources are driven concurrently; the result
    never exceeds the back-to-back ``serial_time``.
    """
    total_flops = prefill_flops + decode_flops
    total_bytes = prefill_bytes + decode_bytes
    # Decode units are packed into physical CTAs (virtual decode CTAs), so
    # the number of SMs concurrently streaming memory — and therefore the
    # achievable bandwidth — is bounded by the physical decode CTA count.
    physical_decode_ctas = math.ceil(decode_count / virtual_decode_factor)
    streaming_sms = min(spec.num_sms, max(1, physical_decode_ctas) + num_prefills)
    available_bandwidth = min(spec.hbm_bandwidth, streaming_sms * spec.sm_mem_bandwidth)
    fused = (
        max(total_flops / spec.tensor_flops, total_bytes / available_bandwidth)
        / FUSED_OVERLAP_EFFICIENCY
        + spec.kernel_launch_overhead
    )
    # The fused kernel can never beat the better of the two phase-specific
    # lower bounds on its dominant resource.
    fused = max(
        fused,
        prefill_flops / spec.tensor_flops,
        decode_bytes / spec.hbm_bandwidth,
    )
    return min(fused, serial_time)


def _occupancy_for(deployment: Deployment, profile: ResourceProfile) -> int:
    probe = Kernel.from_ctas(
        "probe",
        [CTAWork(flops=1.0, dram_bytes=1.0)],
        threads_per_cta=profile.threads_per_cta,
        shared_mem_per_cta=profile.shared_mem_bytes,
        registers_per_thread=profile.registers_per_thread,
    )
    return max_resident_ctas(deployment.gpu, probe)


def fa_occupancy(deployment: Deployment) -> tuple[int, int]:
    """CTAs per SM of the FA prefill and FA decode kernels on ``deployment``'s GPU."""
    return (
        _occupancy_for(deployment, FA_PREFILL_PROFILE),
        _occupancy_for(deployment, FA_DECODE_PROFILE),
    )


def _phase_time(deployment: Deployment, aggregate: CTAAggregate, occupancy: int) -> float:
    return kernel_time(
        deployment.gpu,
        aggregate.count,
        aggregate.total_flops,
        aggregate.total_dram_bytes,
        aggregate.max_fixed_time,
        occupancy,
    )


def analytic_attention_times(deployment: Deployment, batch: HybridBatch) -> AnalyticAttentionTimes:
    """Analytic per-layer attention times for serial (FA) and fused (POD) execution.

    The reference evaluation: it sums the batch's CTA rows (one per prefill
    query tile and one per decode) and feeds the aggregates to
    :func:`kernel_time` and :func:`fused_time`.
    """
    prefill_occupancy, decode_occupancy = fa_occupancy(deployment)
    prefill_time = _phase_time(
        deployment,
        batch_prefill_aggregate(deployment, batch, tile=FA_PREFILL_TILE),
        prefill_occupancy,
    )
    decode_time = _phase_time(
        deployment,
        batch_decode_aggregate(deployment, batch, tile=FA_DECODE_TILE),
        decode_occupancy,
    )
    serial_time = prefill_time + decode_time

    # Fusion never helps a single-phase batch: it runs the specialized kernel.
    fused = serial_time
    if batch.is_hybrid:
        from repro.core.tile_config import select_pod_config  # local import to avoid a cycle

        config = select_pod_config(deployment, batch)
        prefill_works = batch_prefill_aggregate(
            deployment,
            batch,
            tile=config.prefill_tile,
            max_prefill_ctas=config.max_prefill_ctas(deployment.gpu),
        )
        decode_works = batch_decode_aggregate(deployment, batch, tile=config.decode_tile)
        fused = fused_time(
            deployment.gpu,
            len(batch.prefills),
            prefill_works.total_flops,
            prefill_works.total_dram_bytes,
            decode_works.count,
            decode_works.total_flops,
            decode_works.total_dram_bytes,
            config.virtual_decode_factor,
            serial_time,
        )
    return AnalyticAttentionTimes(
        prefill_time=prefill_time,
        decode_time=decode_time,
        serial_time=serial_time,
        fused_time=fused,
    )
