"""Result records produced by the GPU execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class KernelResult:
    """Timing of a single kernel launch within an execution."""

    name: str
    stream: int
    start_time: float
    end_time: float
    num_ctas: int

    @property
    def duration(self) -> float:
        """Wall-clock duration of the kernel (first dispatch to last retirement)."""
        return self.end_time - self.start_time


@dataclass(frozen=True)
class CTARecord:
    """Per-CTA trace entry: where a CTA ran, what it did and when."""

    kernel: str
    dispatch_index: int
    sm_id: int
    tag: str
    start_time: float
    end_time: float
    flops: float
    dram_bytes: float

    @property
    def duration(self) -> float:
        return self.end_time - self.start_time


@dataclass
class ExecutionResult:
    """Outcome of executing a set of kernel launches on the simulated GPU.

    All utilizations are averages over the makespan (``total_time``), relative
    to the device peaks, matching how the paper reports Figure 1.
    """

    total_time: float
    kernels: list[KernelResult]
    compute_utilization: float
    memory_utilization: float
    flops_executed: float
    bytes_moved: float
    energy_joules: float
    tag_flops: dict[str, float] = field(default_factory=dict)
    tag_bytes: dict[str, float] = field(default_factory=dict)
    colocation_fraction: float = 0.0
    avg_resident_ctas: float = 0.0
    cta_records: list[CTARecord] = field(default_factory=list)

    def kernel_named(self, name: str) -> KernelResult:
        """Return the (first) kernel result with the given name."""
        for kernel in self.kernels:
            if kernel.name == name:
                return kernel
        raise KeyError(f"no kernel named {name!r} in result")

    @property
    def total_ctas(self) -> int:
        return sum(k.num_ctas for k in self.kernels)

    def ctas_on_sm(self, sm_id: int) -> list[CTARecord]:
        """All CTA records that executed on a given SM."""
        return [record for record in self.cta_records if record.sm_id == sm_id]

    def summary(self) -> dict[str, float]:
        """Compact dictionary view used by benchmarks and examples."""
        return {
            "total_time_ms": self.total_time * 1e3,
            "compute_utilization": self.compute_utilization,
            "memory_utilization": self.memory_utilization,
            "energy_joules": self.energy_joules,
            "colocation_fraction": self.colocation_fraction,
            "avg_resident_ctas": self.avg_resident_ctas,
        }
