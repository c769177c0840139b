"""Concurrent-execution methods evaluated in the paper's §3 case study.

Each method runs the compute-bound and memory-bound micro-benchmark kernels
(``repro.fusion.microbench``) using one of the strategies of Table 2:

* ``serial``       — the two kernels back to back on one stream;
* ``streams``      — the two kernels on different streams (kernel-parallel);
* ``cta_parallel`` — one fused kernel, operations bound statically by CTA id;
* ``warp_parallel``— one fused kernel, each CTA runs both operations
  (HFuse-style horizontal fusion, with the straggler effect);
* ``intra_thread`` — each thread alternates operations, but CTA-level barriers
  serialise part of the work;
* ``sm_aware``     — one fused kernel with runtime operation binding via the
  SM-aware scheduler (the mechanism POD-Attention is built on);
* ``oracle``       — the analytic lower bound with perfect overlap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.scheduling_policy import ProportionalPolicy, SchedulingPolicy
from repro.core.sm_aware import PREFILL, SMAwareScheduler
from repro.fusion.microbench import (
    CTAS_PER_KERNEL,
    REGISTERS_PER_THREAD,
    SHARED_MEM_PER_CTA,
    THREADS_PER_CTA,
    MicrobenchConfig,
    compute_ctas,
    compute_kernel,
    ideal_times,
    memory_ctas,
    memory_kernel,
)
from repro.gpu.config import GPUSpec
from repro.gpu.cta import CTAWork
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import Kernel, KernelLaunch

FUSION_METHODS = (
    "serial",
    "streams",
    "cta_parallel",
    "warp_parallel",
    "intra_thread",
    "sm_aware",
)

#: Fraction of the shorter operation that intra-thread fusion cannot hide
#: behind its CTA-level barriers (paper §3.1).
BARRIER_SERIAL_FRACTION = 0.75


@dataclass(frozen=True)
class FusionRunResult:
    """Runtime of one method at one micro-benchmark configuration."""

    method: str
    total_time: float
    compute_utilization: float
    memory_utilization: float

    @property
    def total_time_ms(self) -> float:
        return self.total_time * 1e3


def _engine(spec: GPUSpec) -> ExecutionEngine:
    return ExecutionEngine(spec, record_ctas=False)


def _summarize(method: str, execution) -> FusionRunResult:
    return FusionRunResult(
        method=method,
        total_time=execution.total_time,
        compute_utilization=execution.compute_utilization,
        memory_utilization=execution.memory_utilization,
    )


def run_serial(spec: GPUSpec, config: MicrobenchConfig) -> FusionRunResult:
    """Both kernels on the same stream: no overlap at all."""
    launches = [
        KernelLaunch(compute_kernel(config), stream=0),
        KernelLaunch(memory_kernel(config), stream=0),
    ]
    return _summarize("serial", _engine(spec).run(launches))


def run_streams(spec: GPUSpec, config: MicrobenchConfig) -> FusionRunResult:
    """Kernel-parallel execution on two streams (no co-location guarantee)."""
    launches = [
        KernelLaunch(compute_kernel(config), stream=0),
        KernelLaunch(memory_kernel(config), stream=1),
    ]
    return _summarize("streams", _engine(spec).run(launches))


def _fused_kernel_static(config: MicrobenchConfig, ordering: str) -> Kernel:
    compute = compute_ctas(config)
    memory = memory_ctas(config)
    if ordering == "blocked":
        ctas = compute + memory
    else:  # pairwise interleave
        ctas = [cta for pair in zip(compute, memory) for cta in pair]
    return Kernel.from_ctas(
        f"fused_{ordering}",
        ctas,
        threads_per_cta=THREADS_PER_CTA,
        shared_mem_per_cta=SHARED_MEM_PER_CTA,
        registers_per_thread=REGISTERS_PER_THREAD,
    )


def run_cta_parallel(spec: GPUSpec, config: MicrobenchConfig) -> FusionRunResult:
    """CTA-parallel fusion with static (launch-time) operation binding."""
    kernel = _fused_kernel_static(config, ordering="blocked")
    return _summarize("cta_parallel", _engine(spec).run_kernel(kernel))


def run_warp_parallel(spec: GPUSpec, config: MicrobenchConfig) -> FusionRunResult:
    """Warp-parallel (HFuse-style) fusion: each CTA carries both operations."""
    # Every CTA of each micro-benchmark kernel shares one work, so one merge
    # serves every fused CTA.
    fused = compute_ctas(config)[0].merged_with(memory_ctas(config)[0], tag="compute+memory")
    kernel = Kernel.from_ctas(
        "fused_warp",
        [fused] * CTAS_PER_KERNEL,
        threads_per_cta=THREADS_PER_CTA * 2,
        shared_mem_per_cta=SHARED_MEM_PER_CTA * 2,
        registers_per_thread=REGISTERS_PER_THREAD,
    )
    return _summarize("warp_parallel", _engine(spec).run_kernel(kernel))


def run_intra_thread(spec: GPUSpec, config: MicrobenchConfig) -> FusionRunResult:
    """Intra-thread fusion: instructions interleave but barriers serialise a fraction.

    Each thread alternates between the two operations, but the CTA-level sync
    barrier after every pass prevents instructions on opposite sides of a
    barrier from overlapping (paper §3.1): :data:`BARRIER_SERIAL_FRACTION` of
    the shorter operation cannot be hidden.
    """
    compute_time, memory_time = ideal_times(spec, config)
    # Barriers serialise a fraction of the shorter operation: while a thread
    # waits at a barrier for its memory (or compute) segment, the other
    # resource sits idle.  Model this by adding the serialised time as extra
    # demand on the *dominant* resource, which is what determines the runtime.
    serialized_time = BARRIER_SERIAL_FRACTION * min(compute_time, memory_time)
    n = CTAS_PER_KERNEL
    if compute_time >= memory_time:
        extra_flops = serialized_time * spec.cuda_core_flops / n
        extra_bytes = 0.0
    else:
        extra_flops = 0.0
        extra_bytes = serialized_time * spec.hbm_bandwidth / n

    def fuse(c: CTAWork, m: CTAWork) -> CTAWork:
        merged = c.merged_with(m, tag="intra_thread")
        return CTAWork(
            flops=merged.flops + extra_flops,
            dram_bytes=merged.dram_bytes + extra_bytes,
            tag="intra_thread",
            fixed_time=merged.fixed_time,
            meta={"pipe": "cuda"},
        )

    fused = fuse(compute_ctas(config)[0], memory_ctas(config)[0])
    kernel = Kernel.from_ctas(
        "fused_intra_thread",
        [fused] * CTAS_PER_KERNEL,
        threads_per_cta=THREADS_PER_CTA,
        shared_mem_per_cta=SHARED_MEM_PER_CTA * 2,
        registers_per_thread=REGISTERS_PER_THREAD,
    )
    return _summarize("intra_thread", _engine(spec).run_kernel(kernel))


def run_sm_aware(
    spec: GPUSpec, config: MicrobenchConfig, policy: SchedulingPolicy | None = None
) -> FusionRunResult:
    """CTA-parallel fusion with SM-aware runtime operation binding (ours)."""
    compute = compute_ctas(config)
    memory = memory_ctas(config)
    scheduler = SMAwareScheduler(
        num_sms=spec.num_sms,
        num_prefill_ctas=len(compute),
        num_decode_ctas=len(memory),
        policy=policy or ProportionalPolicy(),
    )

    def binder(sm_id: int, dispatch_index: int) -> CTAWork:
        # The scheduler's "prefill" slot plays the role of the compute-bound
        # operation and "decode" the memory-bound one.
        assignment = scheduler.assign(sm_id)
        if assignment.op == PREFILL:
            return compute[assignment.cta_id]
        return memory[assignment.cta_id]

    kernel = Kernel.with_binder(
        "fused_sm_aware",
        num_ctas=len(compute) + len(memory),
        binder=binder,
        threads_per_cta=THREADS_PER_CTA,
        shared_mem_per_cta=SHARED_MEM_PER_CTA,
        registers_per_thread=REGISTERS_PER_THREAD,
    )
    return _summarize("sm_aware", _engine(spec).run_kernel(kernel))


def oracle_time(spec: GPUSpec, config: MicrobenchConfig) -> float:
    """Perfect-overlap lower bound: both kernels' dominant resources run concurrently."""
    compute_flops = config.compute_flops_total + config.memory_flops_total
    total_bytes = config.compute_bytes_total + config.memory_bytes_total
    return max(compute_flops / spec.cuda_core_flops, total_bytes / spec.hbm_bandwidth)


def run_method(spec: GPUSpec, config: MicrobenchConfig, method: str) -> FusionRunResult:
    """Run one named method (see :data:`FUSION_METHODS`)."""
    runners = {
        "serial": run_serial,
        "streams": run_streams,
        "cta_parallel": run_cta_parallel,
        "warp_parallel": run_warp_parallel,
        "intra_thread": run_intra_thread,
        "sm_aware": run_sm_aware,
    }
    if method not in runners:
        raise ValueError(f"unknown fusion method {method!r}; choose from {FUSION_METHODS}")
    return runners[method](spec, config)


def run_all_methods(spec: GPUSpec, config: MicrobenchConfig) -> dict[str, FusionRunResult]:
    """Run every concurrent-execution method on one configuration (Figure 7 column)."""
    return {method: run_method(spec, config, method) for method in FUSION_METHODS}
