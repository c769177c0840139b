"""Synthetic compute-bound and memory-bound kernels (paper §3.3, Figure 7).

The paper studies concurrent-execution methods with a micro-benchmark: a
compute-bound kernel that repeatedly multiplies array elements by a scalar and
a memory-bound kernel that repeatedly adds three arrays, with a CTA-level
barrier after every pass.  These builders produce the equivalent CTA-level
workloads for the simulated GPU (on the CUDA-core pipe — the micro-benchmark
does not use tensor cores).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.config import GPUSpec
from repro.gpu.cta import CTAWork
from repro.gpu.kernel import Kernel
from repro.utils.units import KB
from repro.utils.validation import check_positive

COMPUTE_TAG = "compute"
MEMORY_TAG = "memory"


# Fixed shape of the micro-benchmark: 2^24 fp32 elements per kernel, spread
# over 864 small CTAs (eight per A100 SM).
ELEMENTS = 1 << 24
ELEMENT_BYTES = 4
MEMORY_PASSES = 8
ARRAYS_PER_MEMORY_PASS = 4  # three reads plus one write
CTAS_PER_KERNEL = 864
THREADS_PER_CTA = 256
SHARED_MEM_PER_CTA = 8 * KB
REGISTERS_PER_THREAD = 32
BARRIER_OVERHEAD = 2.0e-8
#: Compute iterations at which the calibrated kernels take equal time (Figure 7).
EQUAL_AT_ITERATIONS = 100


@dataclass(frozen=True)
class MicrobenchConfig:
    """The two knobs of the fusion micro-benchmark that Figure 7 varies.

    Defaults are calibrated so that at ``compute_iterations = 100`` the two
    kernels take (approximately) equal time when executed serially — matching
    the crossover the paper places at 100 iterations in Figure 7.
    """

    compute_iterations: int = 100
    flops_per_iteration: int = 12

    def __post_init__(self) -> None:
        check_positive("compute_iterations", self.compute_iterations)

    # ------------------------------------------------------------ totals

    @property
    def compute_flops_total(self) -> float:
        """A short arithmetic loop body per element per compute iteration."""
        return float(ELEMENTS) * self.compute_iterations * self.flops_per_iteration

    @property
    def compute_bytes_total(self) -> float:
        """The compute kernel streams its array in and out once."""
        return 2.0 * ELEMENTS * ELEMENT_BYTES

    @property
    def memory_bytes_total(self) -> float:
        """Three source arrays read and one destination written per pass."""
        return float(ELEMENTS) * ELEMENT_BYTES * ARRAYS_PER_MEMORY_PASS * MEMORY_PASSES

    @property
    def memory_flops_total(self) -> float:
        """Two adds per element per pass — negligible but nonzero."""
        return 2.0 * ELEMENTS * MEMORY_PASSES


def calibrated_config(spec: GPUSpec) -> MicrobenchConfig:
    """Build a config whose serial compute and memory kernel times match at the crossover.

    The compute loop body (FLOPs per iteration) is chosen so that the
    compute-bound kernel's ideal time equals the memory-bound kernel's ideal
    time at ``compute_iterations == EQUAL_AT_ITERATIONS`` — the crossover the
    paper places at 100 iterations in Figure 7.
    """
    memory_time = MicrobenchConfig().memory_bytes_total / spec.hbm_bandwidth
    flops_per_iteration = max(
        1, round(memory_time * spec.cuda_core_flops / (ELEMENTS * EQUAL_AT_ITERATIONS))
    )
    return MicrobenchConfig(
        compute_iterations=EQUAL_AT_ITERATIONS, flops_per_iteration=flops_per_iteration
    )


# ----------------------------------------------------------------- CTA builders


def compute_ctas(config: MicrobenchConfig) -> list[CTAWork]:
    """CTA workloads of the compute-bound kernel: one shared work, as every CTA's is equal."""
    n = CTAS_PER_KERNEL
    work = CTAWork(
        flops=config.compute_flops_total / n,
        dram_bytes=config.compute_bytes_total / n,
        tag=COMPUTE_TAG,
        fixed_time=BARRIER_OVERHEAD * config.compute_iterations,
        meta={"pipe": "cuda"},
    )
    return [work] * n


def memory_ctas(config: MicrobenchConfig) -> list[CTAWork]:
    """CTA workloads of the memory-bound kernel: one shared work, as every CTA's is equal."""
    n = CTAS_PER_KERNEL
    work = CTAWork(
        flops=config.memory_flops_total / n,
        dram_bytes=config.memory_bytes_total / n,
        tag=MEMORY_TAG,
        fixed_time=BARRIER_OVERHEAD * MEMORY_PASSES,
        meta={"pipe": "cuda"},
    )
    return [work] * n


def compute_kernel(config: MicrobenchConfig, name: str = "compute_bound") -> Kernel:
    """The compute-bound kernel as a launchable :class:`Kernel`."""
    return Kernel.from_ctas(
        name,
        compute_ctas(config),
        threads_per_cta=THREADS_PER_CTA,
        shared_mem_per_cta=SHARED_MEM_PER_CTA,
        registers_per_thread=REGISTERS_PER_THREAD,
    )


def memory_kernel(config: MicrobenchConfig, name: str = "memory_bound") -> Kernel:
    """The memory-bound kernel as a launchable :class:`Kernel`."""
    return Kernel.from_ctas(
        name,
        memory_ctas(config),
        threads_per_cta=THREADS_PER_CTA,
        shared_mem_per_cta=SHARED_MEM_PER_CTA,
        registers_per_thread=REGISTERS_PER_THREAD,
    )


def ideal_times(spec: GPUSpec, config: MicrobenchConfig) -> tuple[float, float]:
    """(compute kernel, memory kernel) ideal isolated runtimes on ``spec``."""
    compute_time = max(
        config.compute_flops_total / spec.cuda_core_flops,
        config.compute_bytes_total / spec.hbm_bandwidth,
    )
    memory_time = max(
        config.memory_flops_total / spec.cuda_core_flops,
        config.memory_bytes_total / spec.hbm_bandwidth,
    )
    return compute_time, memory_time
