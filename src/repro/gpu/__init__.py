"""Simulated GPU execution substrate.

This package models the parts of a GPU that the POD-Attention argument
depends on: SMs with private compute and a capped draw on shared HBM
bandwidth, an occupancy-limited hardware CTA scheduler, streams, wave
quantization, and an activity-based energy model.
"""

from repro.gpu.atomics import AtomicCounter, AtomicCounterArray
from repro.gpu.config import GPUSpec, GPU_PRESETS, a100_sxm_80gb, a6000, get_gpu, h100_sxm_80gb
from repro.gpu.cta import CTAWork, DECODE_TAG, PREFILL_TAG
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import CTABinder, Kernel, KernelLaunch
from repro.gpu.occupancy import (
    OccupancyReport,
    max_resident_ctas,
    occupancy_report,
    wave_quantization_loss,
    waves_required,
)
from repro.gpu.result import CTARecord, ExecutionResult, KernelResult

__all__ = [
    "AtomicCounter",
    "AtomicCounterArray",
    "GPUSpec",
    "GPU_PRESETS",
    "a100_sxm_80gb",
    "a6000",
    "get_gpu",
    "h100_sxm_80gb",
    "CTAWork",
    "DECODE_TAG",
    "PREFILL_TAG",
    "ExecutionEngine",
    "CTABinder",
    "Kernel",
    "KernelLaunch",
    "OccupancyReport",
    "max_resident_ctas",
    "occupancy_report",
    "wave_quantization_loss",
    "waves_required",
    "CTARecord",
    "ExecutionResult",
    "KernelResult",
]
