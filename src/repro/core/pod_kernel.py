"""The POD-Attention fused kernel (the paper's primary contribution).

``build_pod_kernel`` assembles a single kernel that computes both the prefill
and the decode attention of a hybrid batch:

1. prefill tile work is generated with the configuration's prefill tile shape
   and with KV splits limited to two waves (§4.2.4);
2. decode tile work is generated with the 16-row decode tile (§4.2.1) and
   grouped into *virtual CTAs* so that several one-warp decode units share the
   shared-memory allocation of one physical CTA (§4.2.3);
3. the kernel is launched with ``num_prefill_ctas + num_decode_ctas`` generic
   CTAs whose work is bound at dispatch time by the SM-aware scheduler
   (§4.1 / Figure 9), guaranteeing prefill/decode co-location on every SM.

:class:`PODAttention` wraps this into the same executor interface as the
baselines in ``repro.attention.executors`` so it can be compared and plugged
into the serving stack.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attention.cost_model import batch_decode_ctas, batch_prefill_ctas
from repro.attention.executors import AttentionExecutor
from repro.attention.kernels import fa_decode_kernel, fa_prefill_kernel
from repro.attention.metrics import AttentionRunResult
from repro.attention.workload import HybridBatch
from repro.core.scheduling_policy import ProportionalPolicy, SchedulingPolicy
from repro.core.sm_aware import DECODE, PREFILL, SMAwareScheduler
from repro.core.tile_config import PODConfig, select_pod_config
from repro.gpu.cta import CTAWork
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.models.config import Deployment


def group_virtual_decode_ctas(
    decode_units: list[CTAWork], virtual_factor: int
) -> list[CTAWork]:
    """Pack ``virtual_factor`` one-warp decode work units into each physical CTA.

    Each physical decode CTA of the fused kernel hosts several *virtual CTAs*
    (one warp each) so that the decode side does not waste the shared-memory
    allocation sized for prefill (§4.2.3).
    """
    if virtual_factor <= 0:
        raise ValueError(f"virtual_factor must be > 0, got {virtual_factor}")
    # Groups of the same shared units (a request's copies) share one CTA.
    shared: dict[tuple[int, ...], CTAWork] = {}
    grouped: list[CTAWork] = []
    for start in range(0, len(decode_units), virtual_factor):
        chunk = decode_units[start : start + virtual_factor]
        key = tuple(map(id, chunk))
        work = shared.get(key)
        if work is None:
            work = shared[key] = CTAWork(
                flops=sum(unit.flops for unit in chunk),
                dram_bytes=sum(unit.dram_bytes for unit in chunk),
                tag=DECODE,
                fixed_time=max(unit.fixed_time for unit in chunk),
                meta={"virtual_units": len(chunk)},
            )
        grouped.append(work)
    return grouped


@dataclass
class PODKernelPlan:
    """Everything needed to launch (and audit) one POD-Attention kernel."""

    kernel: Kernel
    scheduler: SMAwareScheduler
    config: PODConfig
    num_prefill_ctas: int
    num_decode_ctas: int

    @property
    def total_ctas(self) -> int:
        return self.num_prefill_ctas + self.num_decode_ctas


def build_pod_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    config: PODConfig | None = None,
    policy: SchedulingPolicy | None = None,
    limit_prefill_splits: bool = True,
    name: str = "POD_Attention",
) -> PODKernelPlan:
    """Build the fused POD-Attention kernel for a hybrid batch.

    Raises ``ValueError`` for non-hybrid batches: POD falls back to the
    specialized kernels in that case (handled by :class:`PODAttention`).
    """
    if not batch.is_hybrid:
        raise ValueError("POD-Attention fuses prefill and decode; batch is not hybrid")
    config = config or select_pod_config(deployment, batch)
    policy = policy or ProportionalPolicy()

    max_prefill = config.max_prefill_ctas(deployment.gpu) if limit_prefill_splits else None
    prefill_works = batch_prefill_ctas(
        deployment, batch, tile=config.prefill_tile, max_prefill_ctas=max_prefill
    )
    decode_units = batch_decode_ctas(deployment, batch, tile=config.decode_tile)
    decode_works = group_virtual_decode_ctas(decode_units, config.virtual_decode_factor)

    scheduler = SMAwareScheduler(
        num_sms=deployment.gpu.num_sms,
        num_prefill_ctas=len(prefill_works),
        num_decode_ctas=len(decode_works),
        policy=policy,
    )

    def binder(sm_id: int, dispatch_index: int) -> CTAWork:
        assignment = scheduler.assign(sm_id)
        if assignment.op == PREFILL:
            return prefill_works[assignment.cta_id]
        return decode_works[assignment.cta_id]

    kernel = Kernel.with_binder(
        name=name,
        num_ctas=len(prefill_works) + len(decode_works),
        binder=binder,
        threads_per_cta=config.profile.threads_per_cta,
        shared_mem_per_cta=config.profile.shared_mem_bytes,
        registers_per_thread=config.profile.registers_per_thread,
        meta={"config": config.name, "policy": policy.name},
    )
    return PODKernelPlan(
        kernel=kernel,
        scheduler=scheduler,
        config=config,
        num_prefill_ctas=len(prefill_works),
        num_decode_ctas=len(decode_works),
    )


class PODAttention(AttentionExecutor):
    """POD-Attention executor: fused prefill/decode attention with SM-aware scheduling.

    For non-hybrid batches (prefill-only or decode-only) there is nothing to
    fuse, so the executor falls back to the specialized FlashAttention kernel —
    matching how the integrated serving system behaves.
    """

    name = "POD"

    def __init__(
        self,
        config: PODConfig | None = None,
        policy: SchedulingPolicy | None = None,
        limit_prefill_splits: bool = True,
    ) -> None:
        self.config = config
        self.policy = policy
        self.limit_prefill_splits = limit_prefill_splits
        self.last_plan: PODKernelPlan | None = None

    def build_launches(self, deployment: Deployment, batch: HybridBatch) -> list[KernelLaunch]:
        if not batch.is_hybrid:
            kernel = (
                fa_prefill_kernel(deployment, batch)
                if batch.has_prefill
                else fa_decode_kernel(deployment, batch)
            )
            self.last_plan = None
            return [KernelLaunch(kernel=kernel, stream=0)] if kernel else []
        plan = build_pod_kernel(
            deployment,
            batch,
            config=self.config,
            policy=self.policy,
            limit_prefill_splits=self.limit_prefill_splits,
        )
        self.last_plan = plan
        return [KernelLaunch(kernel=plan.kernel, stream=0)]

    def run(
        self,
        deployment: Deployment,
        batch: HybridBatch,
        engine: ExecutionEngine | None = None,
    ) -> AttentionRunResult:
        result = super().run(deployment, batch, engine)
        if self.last_plan is not None:
            # Prefer the scheduler's own co-location accounting: it reflects the
            # runtime binding decisions exactly.
            result.colocation_fraction = max(
                result.colocation_fraction, self.last_plan.scheduler.colocation_fraction()
            )
        return result
