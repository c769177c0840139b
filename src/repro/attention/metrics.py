"""Result records and metrics for attention execution strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attention.cost_model import batch_decode_aggregate, batch_prefill_aggregate
from repro.attention.workload import HybridBatch
from repro.gpu.result import ExecutionResult
from repro.models.config import Deployment


@dataclass
class AttentionRunResult:
    """Outcome of computing one hybrid batch's attention with some strategy."""

    strategy: str
    total_time: float
    compute_utilization: float
    memory_utilization: float
    energy_joules: float
    colocation_fraction: float = 0.0
    prefill_time: float | None = None
    decode_time: float | None = None
    execution: ExecutionResult | None = field(default=None, repr=False)

    @property
    def total_time_ms(self) -> float:
        return self.total_time * 1e3

    def speedup_over(self, baseline: "AttentionRunResult") -> float:
        """Relative speedup of this strategy over ``baseline`` (>0 means faster)."""
        if self.total_time <= 0:
            raise ValueError("cannot compute speedup for a zero-time result")
        return baseline.total_time / self.total_time - 1.0

    def as_row(self) -> dict[str, float | str]:
        return {
            "strategy": self.strategy,
            "time_ms": round(self.total_time_ms, 4),
            "compute_util": round(self.compute_utilization, 3),
            "memory_util": round(self.memory_utilization, 3),
            "energy_j": round(self.energy_joules, 4),
            "colocation": round(self.colocation_fraction, 3),
        }


def theoretical_minimum_time(deployment: Deployment, batch: HybridBatch) -> float:
    """Lower bound on attention time: both resources perfectly overlapped.

    The paper reports that POD-Attention reaches within 10% of this bound for a
    quarter of the evaluated hybrid batches.
    """
    total = batch_prefill_aggregate(deployment, batch).merge(
        batch_decode_aggregate(deployment, batch)
    )
    spec = deployment.gpu
    return max(total.total_flops / spec.tensor_flops, total.total_dram_bytes / spec.hbm_bandwidth)
