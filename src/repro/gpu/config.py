"""GPU hardware specifications used by the execution simulator.

The simulator is an abstract model of an NVIDIA-style GPU: an array of
streaming multiprocessors (SMs), each with private compute throughput and a
bounded draw on the shared high-bandwidth memory (HBM).  Only the parameters
that matter for the prefill/decode overlap argument are modelled:

* total tensor-core throughput and its per-SM share (compute ceiling),
* total HBM bandwidth and the per-SM draw cap (a single SM cannot saturate
  HBM on its own, which is why decode needs many SMs),
* shared-memory / thread / register budgets that bound CTA occupancy,
* kernel-launch overhead and a simple activity-based power model.

Numbers for the presets are taken from public spec sheets and
micro-benchmarking literature; they are first-order approximations, which is
all the reproduction requires.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from repro.utils.units import GIGA, KB, TERA
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class GPUSpec:
    """Static description of a GPU for the execution simulator.

    Attributes:
        name: Human-readable device name.
        num_sms: Number of streaming multiprocessors.
        tensor_flops: Total FP16 tensor-core throughput of the device, FLOP/s.
        cuda_core_flops: Total FP32 CUDA-core throughput, FLOP/s (used by the
            fusion micro-benchmark which does not use tensor cores).
        hbm_bandwidth: Total DRAM bandwidth in bytes/s.
        sm_mem_bandwidth: Maximum DRAM bandwidth a single SM can draw, bytes/s.
        l2_bytes: L2 cache capacity in bytes (used by kernel cost models to
            decide which K/V reads hit in cache).
        shared_mem_per_sm: Usable shared memory per SM in bytes.
        max_shared_mem_per_cta: Maximum shared memory a single CTA may request.
        max_threads_per_sm: Thread residency limit per SM.
        max_ctas_per_sm: Hard CTA residency limit per SM.
        registers_per_sm: 32-bit registers per SM.
        kernel_launch_overhead: Host-side latency added per kernel launch, s.
        idle_power: Device idle power draw, watts.
        compute_power: Additional power at 100% tensor-core utilization, watts.
        mem_power: Additional power at 100% HBM utilization, watts.
    """

    name: str
    num_sms: int
    tensor_flops: float
    cuda_core_flops: float
    hbm_bandwidth: float
    sm_mem_bandwidth: float
    l2_bytes: int
    shared_mem_per_sm: int
    max_shared_mem_per_cta: int
    max_threads_per_sm: int
    max_ctas_per_sm: int
    registers_per_sm: int
    kernel_launch_overhead: float
    idle_power: float
    compute_power: float
    mem_power: float

    def __post_init__(self) -> None:
        check_positive("num_sms", self.num_sms)
        check_positive("tensor_flops", self.tensor_flops)
        check_positive("cuda_core_flops", self.cuda_core_flops)
        check_positive("hbm_bandwidth", self.hbm_bandwidth)
        check_positive("sm_mem_bandwidth", self.sm_mem_bandwidth)
        check_positive("shared_mem_per_sm", self.shared_mem_per_sm)
        check_positive("max_threads_per_sm", self.max_threads_per_sm)
        check_positive("max_ctas_per_sm", self.max_ctas_per_sm)

    @property
    def tensor_flops_per_sm(self) -> float:
        """Per-SM tensor-core throughput in FLOP/s."""
        return self.tensor_flops / self.num_sms

    @property
    def cuda_flops_per_sm(self) -> float:
        """Per-SM CUDA-core throughput in FLOP/s."""
        return self.cuda_core_flops / self.num_sms

    @property
    def sms_to_saturate_hbm(self) -> float:
        """How many SMs must actively stream memory to saturate HBM."""
        return self.hbm_bandwidth / self.sm_mem_bandwidth

    def scaled(self, factor: float, name: str | None = None) -> "GPUSpec":
        """Return a spec with compute, bandwidth and SM count scaled by ``factor``.

        Useful for modelling tensor-parallel shards (per-GPU work on N GPUs) or
        hypothetical larger devices in sensitivity studies.
        """
        check_positive("factor", factor)
        return replace(
            self,
            name=name or f"{self.name}-x{factor:g}",
            num_sms=max(1, int(round(self.num_sms * factor))),
            tensor_flops=self.tensor_flops * factor,
            cuda_core_flops=self.cuda_core_flops * factor,
            hbm_bandwidth=self.hbm_bandwidth * factor,
            l2_bytes=int(self.l2_bytes * factor),
        )

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready mapping; every field is a scalar, so this is exact."""
        return {spec_field.name: getattr(self, spec_field.name) for spec_field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "GPUSpec":
        """Inverse of :meth:`to_dict` (exact round-trip)."""
        return cls(**{spec_field.name: data[spec_field.name] for spec_field in fields(cls)})


def a100_sxm_80gb() -> GPUSpec:
    """NVIDIA A100-SXM4-80GB, the GPU used throughout the paper."""
    return GPUSpec(
        name="A100-SXM4-80GB",
        num_sms=108,
        tensor_flops=312 * TERA,
        cuda_core_flops=19.5 * TERA,
        hbm_bandwidth=2039 * GIGA,
        # A single A100 SM sustains roughly 30 GB/s of DRAM traffic, so on the
        # order of 65-70 SMs are needed to saturate HBM.  This is the property
        # that makes SM-level co-location matter.
        sm_mem_bandwidth=31 * GIGA,
        l2_bytes=40 * 1024 * KB,
        shared_mem_per_sm=164 * KB,
        max_shared_mem_per_cta=163 * KB,
        max_threads_per_sm=2048,
        max_ctas_per_sm=32,
        registers_per_sm=65536,
        kernel_launch_overhead=4e-6,
        idle_power=90.0,
        compute_power=240.0,
        mem_power=70.0,
    )


def h100_sxm_80gb() -> GPUSpec:
    """NVIDIA H100-SXM5-80GB (used only for forward-looking sensitivity runs)."""
    return GPUSpec(
        name="H100-SXM5-80GB",
        num_sms=132,
        tensor_flops=989 * TERA,
        cuda_core_flops=66.9 * TERA,
        hbm_bandwidth=3350 * GIGA,
        sm_mem_bandwidth=42 * GIGA,
        l2_bytes=50 * 1024 * KB,
        shared_mem_per_sm=228 * KB,
        max_shared_mem_per_cta=227 * KB,
        max_threads_per_sm=2048,
        max_ctas_per_sm=32,
        registers_per_sm=65536,
        kernel_launch_overhead=4e-6,
        idle_power=100.0,
        compute_power=420.0,
        mem_power=110.0,
    )


def a6000() -> GPUSpec:
    """NVIDIA RTX A6000 (a smaller device useful for scale-down experiments)."""
    return GPUSpec(
        name="RTX-A6000",
        num_sms=84,
        tensor_flops=155 * TERA,
        cuda_core_flops=38.7 * TERA,
        hbm_bandwidth=768 * GIGA,
        sm_mem_bandwidth=18 * GIGA,
        l2_bytes=6 * 1024 * KB,
        shared_mem_per_sm=100 * KB,
        max_shared_mem_per_cta=99 * KB,
        max_threads_per_sm=1536,
        max_ctas_per_sm=16,
        registers_per_sm=65536,
        kernel_launch_overhead=4e-6,
        idle_power=60.0,
        compute_power=200.0,
        mem_power=40.0,
    )


GPU_PRESETS = {
    "a100": a100_sxm_80gb,
    "h100": h100_sxm_80gb,
    "a6000": a6000,
}


def get_gpu(name: str) -> GPUSpec:
    """Look up a GPU preset by short name (``a100``, ``h100``, ``a6000``)."""
    key = name.lower()
    if key not in GPU_PRESETS:
        raise ValueError(f"unknown GPU preset {name!r}; choose from {sorted(GPU_PRESETS)}")
    return GPU_PRESETS[key]()
