"""Builders for the baseline attention kernels (FlashAttention / FlashInfer / HFuse).

Each builder turns a :class:`HybridBatch` into a :class:`repro.gpu.Kernel`
whose CTAs carry the tile-level costs produced by ``repro.attention.cost_model``.
The POD-Attention fused kernel lives in ``repro.core`` — these are the
independently optimized kernels the paper compares against.
"""

from __future__ import annotations

from dataclasses import replace

from repro.attention.cost_model import (
    FA_DECODE_PROFILE,
    FA_DECODE_TILE,
    FA_PREFILL_PROFILE,
    FA_PREFILL_TILE,
    FI_DECODE_BANDWIDTH_BONUS,
    FI_DECODE_PROFILE,
    FI_DECODE_TILE,
    FI_PREFILL_PROFILE,
    FI_PREFILL_TILE,
    HFUSE_OVERHEAD_FACTOR,
    ResourceProfile,
    TileShape,
    batch_decode_ctas,
    batch_prefill_ctas,
)
from repro.attention.workload import HybridBatch
from repro.gpu.cta import CTAWork
from repro.gpu.kernel import Kernel
from repro.models.config import Deployment


def _kernel_from_works(
    name: str, works: list[CTAWork], profile: ResourceProfile, meta: dict | None = None
) -> Kernel | None:
    if not works:
        return None
    return Kernel.from_ctas(
        name=name,
        ctas=works,
        threads_per_cta=profile.threads_per_cta,
        shared_mem_per_cta=profile.shared_mem_bytes,
        registers_per_thread=profile.registers_per_thread,
        meta=meta or {},
    )


# ----------------------------------------------------------------- FlashAttention


def fa_prefill_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_PREFILL_TILE,
    num_splits: int | None = None,
    profile: ResourceProfile = FA_PREFILL_PROFILE,
    name: str = "FA_prefill",
) -> Kernel | None:
    """FlashAttention-2 prefill kernel for the batch's prefill chunk(s)."""
    works = batch_prefill_ctas(deployment, batch, tile=tile, num_splits=num_splits)
    return _kernel_from_works(name, works, profile, meta={"tile": (tile.tile_q, tile.tile_kv)})


def fa_decode_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_DECODE_TILE,
    num_splits: int | None = None,
    profile: ResourceProfile = FA_DECODE_PROFILE,
    name: str = "FA_decode",
) -> Kernel | None:
    """FlashAttention decode kernel (FlashDecoding KV splits, padded query tile)."""
    works = batch_decode_ctas(deployment, batch, tile=tile, num_splits=num_splits)
    return _kernel_from_works(name, works, profile, meta={"tile": (tile.tile_q, tile.tile_kv)})


# ------------------------------------------------------------------- FlashInfer


def fi_prefill_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    name: str = "FI_prefill",
) -> Kernel | None:
    """FlashInfer prefill kernel (same tiling family as FA prefill)."""
    return fa_prefill_kernel(
        deployment, batch, tile=FI_PREFILL_TILE, profile=FI_PREFILL_PROFILE, name=name
    )


def fi_decode_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    name: str = "FI_decode",
) -> Kernel | None:
    """FlashInfer decode kernel: smaller query tile, less redundant compute than FA.

    FlashInfer's decode kernel is modestly better tuned than FlashAttention's
    (§5.1), modelled as a small effective-bandwidth bonus on its memory traffic.
    """
    # One faster work per distinct decode work, so a row's copies stay shared.
    faster: dict[int, CTAWork] = {}
    works = []
    for work in batch_decode_ctas(deployment, batch, tile=FI_DECODE_TILE):
        fast = faster.get(id(work))
        if fast is None:
            fast = replace(work, dram_bytes=work.dram_bytes / FI_DECODE_BANDWIDTH_BONUS)
            faster[id(work)] = fast
        works.append(fast)
    return _kernel_from_works(
        name,
        works,
        FI_DECODE_PROFILE,
        meta={"tile": (FI_DECODE_TILE.tile_q, FI_DECODE_TILE.tile_kv)},
    )


def fi_batched_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    name: str = "FI_batched",
) -> Kernel | None:
    """FlashInfer 'batched' mode: prefill *and* decode run through the prefill kernel.

    This is the "easiest way" to compute a hybrid batch (paper §5.1): decode
    queries get padded up to the prefill kernel's 128-row tile, producing large
    redundant compute that interferes with the co-running prefill at long
    context lengths.
    """
    prefill_works = batch_prefill_ctas(deployment, batch, tile=FI_PREFILL_TILE)
    # The prefill kernel neither shrinks its query tile nor KV-splits the
    # decode requests, so decodes inherit the 128-row tile's redundant compute
    # and one CTA per (request, KV head).
    decode_works = batch_decode_ctas(
        deployment,
        batch,
        tile=TileShape(tile_q=FI_PREFILL_TILE.tile_q, tile_kv=FI_PREFILL_TILE.tile_kv),
        num_splits=1,
    )
    works = prefill_works + decode_works
    return _kernel_from_works(name, works, FI_PREFILL_PROFILE, meta={"mode": "batched"})


# ------------------------------------------------------------------------ HFuse


def hfuse_kernel(
    deployment: Deployment,
    batch: HybridBatch,
    name: str = "FA_HFuse",
) -> Kernel | None:
    """Warp-parallel (horizontally fused) FA prefill+decode kernel.

    HFuse staples one prefill CTA and one decode CTA together: the fused CTA
    uses the *sum* of both thread counts and shared-memory footprints, its
    register budget is squeezed to fit the register file, and — crucially — it
    occupies its SM slot until both halves finish.  That is the straggler
    problem of paper §3.1.
    """
    prefill_works = batch_prefill_ctas(deployment, batch, tile=FA_PREFILL_TILE)
    decode_works = batch_decode_ctas(deployment, batch, tile=FA_DECODE_TILE)
    if not prefill_works and not decode_works:
        return None
    if not prefill_works or not decode_works:
        # Nothing to fuse: fall back to whichever side exists.
        works = prefill_works or decode_works
        profile = FA_PREFILL_PROFILE if prefill_works else FA_DECODE_PROFILE
        return _kernel_from_works(name, works, profile)

    # One fused CTA per distinct (prefill, decode) pair of shared works.
    pairs: dict[tuple[int, int], CTAWork] = {}
    fused: list[CTAWork] = []
    for prefill, decode in zip(prefill_works, decode_works):
        merged = pairs.get((id(prefill), id(decode)))
        if merged is None:
            # Fused CTAs pay for register spills and cross-half barrier
            # interference on top of the straggler effect the engine models.
            merged = prefill.merged_with(decode, tag="prefill+decode").scaled(HFUSE_OVERHEAD_FACTOR)
            pairs[(id(prefill), id(decode))] = merged
        fused.append(merged)
    # The longer side's surplus runs unfused.
    pairs_end = len(fused)
    fused += prefill_works[pairs_end:] + decode_works[pairs_end:]

    threads = FA_PREFILL_PROFILE.threads_per_cta + FA_DECODE_PROFILE.threads_per_cta
    shared_mem = FA_PREFILL_PROFILE.shared_mem_bytes + FA_DECODE_PROFILE.shared_mem_bytes
    # The fused kernel must fit the register file; HFuse caps per-thread
    # registers (possibly spilling), which is part of why it underperforms.
    max_regs_per_thread = deployment.gpu.registers_per_sm // threads
    registers = min(
        max_regs_per_thread,
        max(FA_PREFILL_PROFILE.registers_per_thread, FA_DECODE_PROFILE.registers_per_thread),
    )
    profile = ResourceProfile(
        threads_per_cta=threads, shared_mem_bytes=shared_mem, registers_per_thread=registers
    )
    return _kernel_from_works(name, fused, profile, meta={"mode": "hfuse"})
