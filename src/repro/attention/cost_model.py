"""Tile-level cost model: hybrid batches → per-CTA FLOP/byte workloads.

This module translates attention tile schedules into the :class:`CTAWork`
units consumed by the GPU execution engine and into the :class:`CTAAggregate`
totals consumed by the analytic model.  It encodes the facts the paper's
argument is built on:

* prefill attention performs ``4 * tile_q * kv * head_dim`` FLOPs per CTA and
  re-reads KV that mostly hits in L2 → compute-bound, negligible DRAM traffic;
* decode attention streams every request's KV exactly once from DRAM and pads
  its single query row up to the kernel's QSL tile length → memory-bound, with
  *redundant compute proportional to the tile length* (Figure 10);
* FlashDecoding-style KV splits add parallelism at the cost of extra partial
  output / query traffic (Table 8);
* grouped-query attention determines how many query heads share one KV head,
  and therefore both the padding waste and the L2 reuse factor.

Each phase computes its per-CTA cost once, as one row per distinct CTA: a
prefill query tile has ``q_heads × splits`` identical CTAs and a decode
request ``kv_heads × splits``.  The same rows feed both paths: the CTA
builders expand them for the engine and the aggregates sum them.  Every copy
of a row, and every row equal to it, is one shared :class:`CTAWork`, which the
engine describes once per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk
from repro.gpu.cta import CTAWork, DECODE_TAG, PREFILL_TAG
from repro.models.config import Deployment
from repro.utils.units import KB
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class ResourceProfile:
    """Per-CTA resource footprint of a kernel (drives occupancy and co-residency)."""

    threads_per_cta: int
    shared_mem_bytes: int
    registers_per_thread: int

    def __post_init__(self) -> None:
        check_positive("threads_per_cta", self.threads_per_cta)
        check_positive("shared_mem_bytes", self.shared_mem_bytes)
        check_positive("registers_per_thread", self.registers_per_thread)


# Footprints of the independently optimized kernels.  FlashAttention-style
# kernels are register- and shared-memory-hungry: a prefill CTA effectively
# owns its SM, and a prefill CTA plus a decode CTA cannot co-reside (their
# combined register demand exceeds the register file).  This is what limits
# kernel-parallel (streams) overlap in practice and what POD-Attention's
# hand-tuned footprints (repro.core.tile_config) are designed to avoid.
FA_PREFILL_PROFILE = ResourceProfile(
    threads_per_cta=256, shared_mem_bytes=72 * KB, registers_per_thread=224
)
FA_DECODE_PROFILE = ResourceProfile(
    threads_per_cta=256, shared_mem_bytes=48 * KB, registers_per_thread=128
)
FI_PREFILL_PROFILE = ResourceProfile(
    threads_per_cta=256, shared_mem_bytes=72 * KB, registers_per_thread=216
)
FI_DECODE_PROFILE = ResourceProfile(
    threads_per_cta=128, shared_mem_bytes=40 * KB, registers_per_thread=128
)


@dataclass(frozen=True)
class TileShape:
    """Query-tile length (QSL dimension) and KV-tile length of a kernel."""

    tile_q: int
    tile_kv: int

    def __post_init__(self) -> None:
        check_positive("tile_q", self.tile_q)
        check_positive("tile_kv", self.tile_kv)


# Default tile shapes.  FA/FI prefill kernels use a 128-row query tile; the FA
# decode kernel pads its queries to a 64-row tile (paper §4.2.1), the FlashInfer
# decode kernel uses a smaller tile, and FI_Batched pushes decodes through the
# 128-row prefill tile.
FA_PREFILL_TILE = TileShape(tile_q=128, tile_kv=64)
FA_DECODE_TILE = TileShape(tile_q=64, tile_kv=128)
FI_PREFILL_TILE = TileShape(tile_q=128, tile_kv=64)
FI_DECODE_TILE = TileShape(tile_q=16, tile_kv=64)
MIN_DECODE_TILE_Q = 16  # minimum QSL tile CUTLASS supports on A100 tensor ops


# Calibration constants (A100).  Each assumption lives here and nowhere else,
# so the engine's kernels, the analytic reference and the serving backends
# cannot disagree on it.
# Achieved fraction of peak tensor throughput for large prefill tiles.
PREFILL_TENSOR_EFFICIENCY = 0.75
# Padded decode GEMMs run close to peak on the padded shape.
DECODE_TENSOR_EFFICIENCY = 0.95
# Achieved fraction of the HBM bandwidth spec.
HBM_EFFICIENCY = 0.90
# Fraction of L2 usable for KV reuse, and the cold/conflict miss factor.
L2_USABLE_FRACTION = 0.80
COLD_MISS_FACTOR = 1.25
# Fixed per-CTA latency (scheduling, prologue/epilogue, softmax rescale).
CTA_FIXED_OVERHEAD = 2.0e-6
# FlashDecoding reduction: partial outputs are written/read in fp32.
PARTIAL_ACCUMULATOR_BYTES = 4
# Split heuristic targets (in units of device waves of CTAs).
FLASH_DECODING_WAVE_TARGET = 1.0
MAX_KV_SPLITS = 64
# HFuse (warp-parallel fusion) pays for register spills and cross-half
# barrier interference inside the fused CTA (paper §3.1).
HFUSE_OVERHEAD_FACTOR = 1.15
# FlashInfer's decode kernel is slightly better tuned than FA's
# (paper §5.1: "FI_Serial has better optimized decode kernels").
FI_DECODE_BANDWIDTH_BONUS = 1.04


def effective_bytes(raw_bytes: float) -> float:
    """Convert nominal bytes into 'effective' bytes at the spec bandwidth."""
    return raw_bytes / HBM_EFFICIENCY


def effective_prefill_flops(raw_flops: float, tile_q: int) -> float:
    """Convert raw FLOPs into effective FLOPs at the spec peak for prefill tiles."""
    efficiency = PREFILL_TENSOR_EFFICIENCY
    if tile_q < 128:
        # Smaller tiles lose some tensor-core efficiency (more epilogues,
        # less register-level reuse).
        efficiency *= 0.9
    return raw_flops / efficiency


def effective_decode_flops(raw_flops: float) -> float:
    return raw_flops / DECODE_TENSOR_EFFICIENCY


def _round_up(value: int, multiple: int) -> int:
    return ((value + multiple - 1) // multiple) * multiple


# --------------------------------------------------------------------------
# Rows: one per distinct CTA
# --------------------------------------------------------------------------
#
# A row is the (effective FLOPs, effective DRAM bytes) of one distinct CTA; each
# phase's row function also returns how many identical copies each row stands
# for.  The builders expand rows into a kernel's launch layout for the engine,
# and the aggregates sum them for the analytic model (which only needs a
# kernel's CTA count, FLOPs, bytes and fixed time), so the two cannot diverge.

_Row = tuple[float, float]


@dataclass(frozen=True)
class CTAAggregate:
    """Reduction of a CTA work list: count plus the resource totals."""

    count: int
    total_flops: float
    total_dram_bytes: float
    max_fixed_time: float

    @classmethod
    def empty(cls) -> "CTAAggregate":
        return cls(count=0, total_flops=0.0, total_dram_bytes=0.0, max_fixed_time=0.0)

    @classmethod
    def of(cls, works: list[CTAWork]) -> "CTAAggregate":
        """Reduce an explicit work list (reference for the row sums)."""
        if not works:
            return cls.empty()
        return cls(
            count=len(works),
            total_flops=sum(w.flops for w in works),
            total_dram_bytes=sum(w.dram_bytes for w in works),
            max_fixed_time=max(w.fixed_time for w in works),
        )

    def merge(self, other: "CTAAggregate") -> "CTAAggregate":
        return CTAAggregate(
            count=self.count + other.count,
            total_flops=self.total_flops + other.total_flops,
            total_dram_bytes=self.total_dram_bytes + other.total_dram_bytes,
            max_fixed_time=max(self.max_fixed_time, other.max_fixed_time),
        )


def _ctas(rows: list[_Row], tag: str) -> list[CTAWork]:
    """One :class:`CTAWork` per row, equal rows sharing one object; the
    builders repeat it for every copy."""
    shared: dict[_Row, CTAWork] = {}
    works = []
    for row in rows:
        work = shared.get(row)
        if work is None:
            flops, dram = row
            work = CTAWork(flops=flops, dram_bytes=dram, tag=tag, fixed_time=CTA_FIXED_OVERHEAD)
            shared[row] = work
        works.append(work)
    return works


def _aggregate(rows: list[_Row], copies: int) -> CTAAggregate:
    """Sum the rows, each counted ``copies`` times, in row order."""
    count = len(rows) * copies
    return CTAAggregate(
        count=count,
        total_flops=sum((flops * copies for flops, _ in rows), 0.0),
        total_dram_bytes=sum((dram * copies for _, dram in rows), 0.0),
        max_fixed_time=CTA_FIXED_OVERHEAD if count else 0.0,
    )


# --------------------------------------------------------------------------
# Prefill
# --------------------------------------------------------------------------


def prefill_base_cta_count(deployment: Deployment, chunk: PrefillChunk, tile: TileShape) -> int:
    """CTAs of a prefill chunk before KV splitting: one per (query head, query tile)."""
    q_tiles = math.ceil(chunk.chunk_tokens / tile.tile_q)
    return deployment.q_heads_per_gpu * q_tiles


def default_prefill_splits(
    deployment: Deployment,
    chunk: PrefillChunk,
    tile: TileShape,
    max_ctas: int | None = None,
) -> int:
    """FlashAttention's FlashDecoding-style split heuristic for chunked prefills.

    The stock heuristic splits the KV dimension until there is roughly one CTA
    per SM (one full wave).  ``max_ctas`` optionally caps the resulting CTA
    count — POD-Attention's *limited splits* optimization (paper §4.2.4) caps
    it at two full waves.
    """
    base = prefill_base_cta_count(deployment, chunk, tile)
    target = deployment.gpu.num_sms * FLASH_DECODING_WAVE_TARGET
    if base >= target:
        splits = 1
    else:
        splits = math.ceil(target / base)
    kv_tiles = max(1, chunk.total_context // tile.tile_kv)
    splits = max(1, min(splits, MAX_KV_SPLITS, kv_tiles))
    if max_ctas is not None and base * splits > max_ctas:
        splits = max(1, max_ctas // base)
    return splits


def _prefill_dram_kv_cap(
    deployment: Deployment,
    chunk: PrefillChunk,
    q_tiles: int,
    num_splits: int,
) -> float:
    """L2 reuse model: the most KV bytes a chunk's CTAs pull from DRAM.

    Every CTA of a KV head group streams that head's visible KV.  The unique
    KV working set usually fits (or nearly fits) in L2, so DRAM traffic is
    far below the nominal sum of per-CTA reads.
    """
    model = deployment.model
    unique_kv_bytes = (
        chunk.total_context * model.head_dim * 2 * model.dtype_bytes
        * deployment.kv_heads_per_gpu
    )
    l2_capacity = L2_USABLE_FRACTION * deployment.gpu.l2_bytes
    if unique_kv_bytes <= l2_capacity:
        return unique_kv_bytes * COLD_MISS_FACTOR
    readers_per_kv_head = q_tiles * deployment.group_size * num_splits
    return unique_kv_bytes * min(
        float(readers_per_kv_head),
        COLD_MISS_FACTOR * unique_kv_bytes / l2_capacity,
    )


def _prefill_tile_kv_extent(chunk: PrefillChunk, tile: TileShape, q_tile_idx: int) -> int:
    """Causal KV extent of one query tile (keys visible to its highest row)."""
    kv_extent = min(
        chunk.total_context,
        chunk.prior_tokens + (q_tile_idx + 1) * tile.tile_q,
    )
    return min(chunk.total_context, _round_up(kv_extent, tile.tile_kv))


def _prefill_rows(
    deployment: Deployment,
    chunk: PrefillChunk,
    tile: TileShape,
    num_splits: int,
) -> tuple[list[_Row], int]:
    """One row per query tile of a chunk, and its copies (``q_heads × splits``).

    A CTA pads its query rows to the full tile length and reads one of
    ``num_splits`` equal slices of its tile's causal KV extent, so the CTAs of
    one tile are identical across query heads and KV splits.
    """
    model = deployment.model
    head_dim = model.head_dim
    dtype = model.dtype_bytes
    q_tiles = math.ceil(chunk.chunk_tokens / tile.tile_q)
    copies = deployment.q_heads_per_gpu * num_splits

    q_rows = tile.tile_q  # kernels pad the last tile to full tile length
    split = num_splits > 1
    q_bytes = q_rows * head_dim * dtype
    out_bytes = q_rows * head_dim * (PARTIAL_ACCUMULATOR_BYTES if split else dtype)
    # Partial outputs are re-read by the reduction pass.
    extra_split_bytes = q_rows * head_dim * PARTIAL_ACCUMULATOR_BYTES if split else 0.0
    base_dram = effective_bytes(q_bytes + out_bytes + extra_split_bytes)

    tiles: list[_Row] = []  # (effective FLOPs, nominal KV bytes) of each query tile
    nominal_total = 0.0
    for q_tile_idx in range(q_tiles):
        kv_span = _prefill_tile_kv_extent(chunk, tile, q_tile_idx) / num_splits
        raw_flops = 4.0 * q_rows * kv_span * head_dim
        kv_bytes = kv_span * head_dim * 2 * dtype
        tiles.append((effective_prefill_flops(raw_flops, tile.tile_q), kv_bytes))
        nominal_total += kv_bytes * copies

    # Distribute the modelled DRAM KV traffic across CTAs in proportion to
    # their nominal reads.
    kv_cap = _prefill_dram_kv_cap(deployment, chunk, q_tiles, num_splits)
    scale = min(nominal_total, kv_cap) / nominal_total
    rows = [(flops, base_dram + effective_bytes(kv * scale)) for flops, kv in tiles]
    return rows, copies


def prefill_cta_works(
    deployment: Deployment,
    chunk: PrefillChunk,
    tile: TileShape = FA_PREFILL_TILE,
    num_splits: int = 1,
    tag: str = PREFILL_TAG,
) -> list[CTAWork]:
    """Per-CTA work of one prefill chunk's attention.

    CTAs are laid out as ``(q_head, q_tile, kv_split)`` in row-major order,
    matching how FlashAttention-2 parallelises chunked prefill: ``q_heads``
    repeats of the query-tile sequence, each tile repeated ``num_splits`` times.
    """
    num_splits = max(1, num_splits)
    rows, _ = _prefill_rows(deployment, chunk, tile, num_splits)
    head = [cta for cta in _ctas(rows, tag) for _ in range(num_splits)]
    return head * deployment.q_heads_per_gpu


def prefill_cta_aggregate(
    deployment: Deployment,
    chunk: PrefillChunk,
    tile: TileShape = FA_PREFILL_TILE,
    num_splits: int = 1,
) -> CTAAggregate:
    """Reduction of :func:`prefill_cta_works`, summed over its rows."""
    rows, copies = _prefill_rows(deployment, chunk, tile, max(1, num_splits))
    return _aggregate(rows, copies)


# --------------------------------------------------------------------------
# Decode
# --------------------------------------------------------------------------


def default_decode_splits(
    deployment: Deployment,
    decodes: tuple[DecodeRequest, ...],
    tile: TileShape,
) -> int:
    """FlashDecoding split heuristic: split the KV dimension until SMs are filled."""
    if not decodes:
        return 1
    min_context = min(d.context_tokens for d in decodes)
    return decode_splits(deployment, len(decodes), min_context, tile)


def decode_splits(
    deployment: Deployment,
    num_decodes: int,
    min_context: int,
    tile: TileShape,
) -> int:
    """:func:`default_decode_splits` from the decode count and shortest context alone."""
    base = num_decodes * deployment.kv_heads_per_gpu
    if base == 0:
        return 1
    target = deployment.gpu.num_sms * FLASH_DECODING_WAVE_TARGET
    if base >= target:
        return 1
    kv_tiles = max(1, min_context // tile.tile_kv)
    return max(1, min(math.ceil(target / base), MAX_KV_SPLITS, kv_tiles))


def _decode_rows(
    deployment: Deployment,
    decodes: tuple[DecodeRequest, ...],
    tile: TileShape,
    num_splits: int,
) -> tuple[list[_Row], int]:
    """One row per decode request, and its copies (``kv_heads × splits``).

    Each CTA streams its KV slice exactly once from DRAM (no cross-request
    reuse) and performs matmuls padded to ``tile.tile_q`` query rows — the
    padding waste that POD eliminates by shrinking the decode tile to 16 rows.
    """
    model = deployment.model
    head_dim = model.head_dim
    dtype = model.dtype_bytes
    group_size = deployment.group_size

    padded_rows = max(tile.tile_q, group_size)
    q_bytes = group_size * head_dim * dtype
    out_bytes = group_size * head_dim * (PARTIAL_ACCUMULATOR_BYTES if num_splits > 1 else dtype)
    rows: list[_Row] = []
    for request in decodes:
        kv_span = request.context_tokens / num_splits
        flops = effective_decode_flops(4.0 * padded_rows * kv_span * head_dim)
        kv_bytes = kv_span * head_dim * 2 * dtype
        rows.append((flops, effective_bytes(kv_bytes + q_bytes + out_bytes)))
    return rows, deployment.kv_heads_per_gpu * num_splits


def decode_shape(
    deployment: Deployment,
    num_decodes: int,
    num_splits: int,
    tile: TileShape,
) -> tuple[int, int, float, int, int, int, int]:
    """The part of :func:`decode_aggregate_from_sums` that the decode count
    and KV splits fix.

    Returns (CTA count, splits, 4 × padded query rows, head dim, dtype
    bytes, query and output bytes of every decode, copies per decode);
    :func:`decode_context_totals` adds the sum of the contexts.
    """
    model = deployment.model
    head_dim = model.head_dim
    group_size = deployment.group_size

    padded_rows = max(tile.tile_q, group_size)
    q_bytes = group_size * head_dim * model.dtype_bytes
    out_bytes = group_size * head_dim * (
        PARTIAL_ACCUMULATOR_BYTES if num_splits > 1 else model.dtype_bytes
    )
    copies = deployment.kv_heads_per_gpu * num_splits
    return (
        num_decodes * copies,
        num_splits,
        4.0 * padded_rows,
        head_dim,
        model.dtype_bytes,
        num_decodes * (q_bytes + out_bytes),
        copies,
    )


def decode_context_totals(
    shape: tuple[int, int, float, int, int, int, int], context_sum: int
) -> tuple[float, float]:
    """(FLOPs, DRAM bytes) of a decode batch of ``shape`` (see
    :func:`decode_shape`) whose contexts sum to ``context_sum``."""
    _, splits, row_flops, head_dim, dtype, fixed_bytes, copies = shape
    kv_span = context_sum / splits
    flops = effective_decode_flops(row_flops * kv_span * head_dim)
    dram = effective_bytes(kv_span * head_dim * 2 * dtype + fixed_bytes)
    return flops * copies, dram * copies


def decode_aggregate_from_sums(
    deployment: Deployment,
    num_decodes: int,
    context_sum: int,
    min_context: int,
    tile: TileShape,
) -> tuple[int, float, float]:
    """(CTA count, FLOPs, DRAM bytes) of a decode batch from three numbers.

    Every term of :func:`_decode_rows` is affine in the request's context and
    the split heuristic reads only the decode count and the shortest context,
    so (count, sum of contexts, minimum context) fixes the sum of the rows
    exactly; only the rounding of the sum differs.  Serving steps call this
    instead of materialising one row per decode.
    """
    splits = decode_splits(deployment, num_decodes, min_context, tile)
    shape = decode_shape(deployment, num_decodes, splits, tile)
    flops, dram = decode_context_totals(shape, context_sum)
    return shape[0], flops, dram


def decode_cta_works(
    deployment: Deployment,
    decodes: tuple[DecodeRequest, ...],
    tile: TileShape = FA_DECODE_TILE,
    num_splits: int = 1,
    tag: str = DECODE_TAG,
) -> list[CTAWork]:
    """Per-CTA work of a decode batch's attention.

    CTAs are laid out as ``(request, kv_head, kv_split)``: each request's CTA
    repeated ``kv_heads × num_splits`` times.
    """
    rows, copies = _decode_rows(deployment, decodes, tile, max(1, num_splits))
    return [cta for cta in _ctas(rows, tag) for _ in range(copies)]


def decode_cta_aggregate(
    deployment: Deployment,
    decodes: tuple[DecodeRequest, ...],
    tile: TileShape = FA_DECODE_TILE,
    num_splits: int = 1,
) -> CTAAggregate:
    """Reduction of :func:`decode_cta_works`, summed over its rows."""
    rows, copies = _decode_rows(deployment, decodes, tile, max(1, num_splits))
    return _aggregate(rows, copies)


# --------------------------------------------------------------------------
# Batch-level helpers
# --------------------------------------------------------------------------


def _chunk_splits(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape,
    num_splits: int | None,
    max_prefill_ctas: int | None,
) -> Iterator[tuple[PrefillChunk, int]]:
    """Each prefill chunk with its KV splits: ``num_splits``, else the heuristic."""
    for chunk in batch.prefills:
        if num_splits is None:
            yield chunk, default_prefill_splits(deployment, chunk, tile, max_prefill_ctas)
        else:
            yield chunk, num_splits


def batch_prefill_ctas(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_PREFILL_TILE,
    num_splits: int | None = None,
    max_prefill_ctas: int | None = None,
) -> list[CTAWork]:
    """All prefill CTAs of a hybrid batch (empty list when it has no prefill)."""
    return [
        cta
        for chunk, splits in _chunk_splits(deployment, batch, tile, num_splits, max_prefill_ctas)
        for cta in prefill_cta_works(deployment, chunk, tile, splits)
    ]


def batch_prefill_aggregate(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_PREFILL_TILE,
    num_splits: int | None = None,
    max_prefill_ctas: int | None = None,
) -> CTAAggregate:
    """Aggregate of every prefill CTA in a batch (see :func:`batch_prefill_ctas`)."""
    aggregate = CTAAggregate.empty()
    for chunk, splits in _chunk_splits(deployment, batch, tile, num_splits, max_prefill_ctas):
        aggregate = aggregate.merge(prefill_cta_aggregate(deployment, chunk, tile, splits))
    return aggregate


def batch_decode_ctas(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_DECODE_TILE,
    num_splits: int | None = None,
) -> list[CTAWork]:
    """All decode CTAs of a hybrid batch (empty list when it has no decodes)."""
    if num_splits is None:
        num_splits = default_decode_splits(deployment, batch.decodes, tile)
    return decode_cta_works(deployment, batch.decodes, tile, num_splits)


def batch_decode_aggregate(
    deployment: Deployment,
    batch: HybridBatch,
    tile: TileShape = FA_DECODE_TILE,
    num_splits: int | None = None,
) -> CTAAggregate:
    """Aggregate of every decode CTA in a batch (see :func:`batch_decode_ctas`)."""
    if num_splits is None:
        num_splits = default_decode_splits(deployment, batch.decodes, tile)
    return decode_cta_aggregate(deployment, batch.decodes, tile, num_splits)
