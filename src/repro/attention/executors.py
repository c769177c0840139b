"""Execution strategies for hybrid-batch attention (the paper's baselines).

Every strategy turns a :class:`HybridBatch` into kernel launches, runs them on
the simulated GPU, and reports an :class:`AttentionRunResult`.  The strategies
mirror Table 3 / §5.1 of the paper:

* ``FA_Serial``   — FlashAttention prefill and decode kernels back to back.
* ``FA_Streams``  — the same two kernels on different CUDA streams.
* ``FA_HFuse``    — the two kernels horizontally fused (warp-parallel).
* ``FI_Serial``   — FlashInfer prefill + decode kernels back to back.
* ``FI_Batched``  — both operations through FlashInfer's prefill kernel.

POD-Attention itself implements the same interface in
:class:`repro.core.pod_kernel.PODAttention`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.attention.kernels import (
    fa_decode_kernel,
    fa_prefill_kernel,
    fi_batched_kernel,
    fi_decode_kernel,
    fi_prefill_kernel,
    hfuse_kernel,
)
from repro.attention.metrics import AttentionRunResult
from repro.attention.workload import HybridBatch
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.result import ExecutionResult
from repro.models.config import Deployment


class AttentionExecutor(ABC):
    """Base class for attention execution strategies."""

    name: str = "base"

    @abstractmethod
    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        """Build the kernel launches this strategy issues for ``batch``."""

    def run(
        self,
        deployment: Deployment,
        batch: HybridBatch,
        engine: ExecutionEngine | None = None,
    ) -> AttentionRunResult:
        """Execute the strategy on the simulated GPU and summarise the result."""
        engine = engine or ExecutionEngine(deployment.gpu)
        launches = self.build_launches(deployment, batch)
        if not launches:
            raise ValueError(f"{self.name}: batch produced no attention work")
        execution = engine.run(launches)
        return self._summarise(execution)

    # ------------------------------------------------------------------ utils

    def _summarise(self, execution: ExecutionResult) -> AttentionRunResult:
        prefill_time = None
        decode_time = None
        for kernel in execution.kernels:
            if "prefill" in kernel.name.lower():
                prefill_time = kernel.duration
            elif "decode" in kernel.name.lower():
                decode_time = kernel.duration
        return AttentionRunResult(
            strategy=self.name,
            total_time=execution.total_time,
            compute_utilization=execution.compute_utilization,
            memory_utilization=execution.memory_utilization,
            energy_joules=execution.energy_joules,
            colocation_fraction=execution.colocation_fraction,
            prefill_time=prefill_time,
            decode_time=decode_time,
            execution=execution,
        )

    @staticmethod
    def _launches(kernels: list[Kernel | None], streams: list[int]) -> list[KernelLaunch]:
        launches = []
        for kernel, stream in zip(kernels, streams):
            if kernel is not None:
                launches.append(KernelLaunch(kernel=kernel, stream=stream))
        return launches


class FASerial(AttentionExecutor):
    """FlashAttention prefill and decode kernels executed back to back (FA_Serial)."""

    name = "FA_Serial"

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        prefill = fa_prefill_kernel(deployment, batch)
        decode = fa_decode_kernel(deployment, batch)
        return self._launches([prefill, decode], [0, 0])


class FAStreams(AttentionExecutor):
    """FlashAttention prefill and decode kernels on two CUDA streams (FA_Streams)."""

    name = "FA_Streams"

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        prefill = fa_prefill_kernel(deployment, batch)
        decode = fa_decode_kernel(deployment, batch)
        return self._launches([prefill, decode], [0, 1])


class FAHFuse(AttentionExecutor):
    """Horizontally fused (warp-parallel) FlashAttention kernels (FA_HFuse)."""

    name = "FA_HFuse"

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        kernel = hfuse_kernel(deployment, batch)
        return self._launches([kernel], [0])


class FISerial(AttentionExecutor):
    """FlashInfer prefill and decode kernels executed back to back (FI_Serial)."""

    name = "FI_Serial"

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        prefill = fi_prefill_kernel(deployment, batch)
        decode = fi_decode_kernel(deployment, batch)
        return self._launches([prefill, decode], [0, 0])


class FIBatched(AttentionExecutor):
    """Prefill and decode both computed by FlashInfer's prefill kernel (FI_Batched)."""

    name = "FI_Batched"

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        kernel = fi_batched_kernel(deployment, batch)
        return self._launches([kernel], [0])
