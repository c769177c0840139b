"""Attention backends used by the serving engine.

The serving engine needs per-layer attention times for every iteration's
batch.  A backend supplies them from the analytic model, exactly and at O(1)
per step: the decode side follows in closed form from the decode count, the
sum of their contexts and the shortest context, and each prefill chunk's
FA-tile and POD-tile aggregates are memoized per backend on
``(chunk_tokens, prior_tokens)``.  Both feed the plain-number helpers of
:mod:`repro.attention.analytic` that :func:`analytic_attention_times` uses;
:meth:`AttentionBackend.reference` runs that row-summing reference on a
materialised :class:`HybridBatch`, and the oracle
:func:`repro.verify.oracles.estimate_equivalence` holds every serving step to
it.  Backends correspond to the serving systems the paper compares:

* ``FASerialBackend``  — Sarathi / vLLM baseline: independently optimized
  FlashAttention prefill and decode kernels run back to back.
* ``PODBackend``       — Sarathi+POD: the fused POD-Attention kernel for
  hybrid batches, specialized kernels otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attention.analytic import (
    analytic_attention_times,
    fa_occupancy,
    fused_time,
    kernel_time,
)
from repro.attention.cost_model import (
    FA_DECODE_TILE,
    FA_PREFILL_TILE,
    AttentionCostParams,
    decode_aggregate_from_sums,
    default_prefill_splits,
    prefill_cta_aggregate,
)
from repro.attention.workload import HybridBatch, PrefillChunk
from repro.core.tile_config import (
    POD_CONFIGS,
    chunk_phase_flops,
    phase_costs,
    pod_ctas_per_sm,
)
from repro.models.config import Deployment
from repro.serving.batch import ScheduledBatch


@dataclass(frozen=True)
class AttentionEstimate:
    """Per-layer attention times for one iteration (seconds)."""

    prefill_time: float
    decode_time: float

    @property
    def total(self) -> float:
        return self.prefill_time + self.decode_time


def _fused_split(prefill_time: float, decode_time: float, fused: float) -> AttentionEstimate:
    """Attribute a fused kernel's time to the two phases in proportion to their
    serial estimates, so iteration breakdowns stay meaningful."""
    prefill_share = prefill_time / max(prefill_time + decode_time, 1e-12)
    return AttentionEstimate(
        prefill_time=fused * prefill_share, decode_time=fused * (1.0 - prefill_share)
    )


class AttentionBackend:
    """Supplies per-layer attention times for scheduled batches."""

    name: str = "base"
    #: Whether hybrid batches run as one fused kernel rather than back to back.
    fuses: bool = False

    def __init__(
        self,
        deployment: Deployment,
        params: AttentionCostParams | None = None,
    ) -> None:
        self.deployment = deployment
        self.params = params or AttentionCostParams()
        self._occupancy = fa_occupancy(deployment)
        self._pod_configs = {ctas: POD_CONFIGS[ctas]() for ctas in (2, 4)}
        # (chunk_tokens, prior_tokens) -> (phase FLOPs, FA-tile CTA count,
        # FLOPs, DRAM bytes, KV splits); with POD's CTAs per SM appended to the
        # key -> (FLOPs, DRAM bytes) under that configuration's tile.
        self._prefill_memo: dict[tuple[int, int], tuple[float, int, float, float, int]] = {}
        self._pod_prefill_memo: dict[tuple[int, int, int], tuple[float, float]] = {}

    def _fa_prefill_entry(self, key: tuple[int, int]) -> tuple[float, int, float, float, int]:
        deployment, params = self.deployment, self.params
        chunk = PrefillChunk(chunk_tokens=key[0], prior_tokens=key[1])
        splits = default_prefill_splits(deployment, chunk, FA_PREFILL_TILE, params)
        aggregate = prefill_cta_aggregate(deployment, chunk, FA_PREFILL_TILE, splits, params)
        entry = self._prefill_memo[key] = (
            chunk_phase_flops(deployment, key[0], key[1]),
            aggregate.count,
            aggregate.total_flops,
            aggregate.total_dram_bytes,
            splits,
        )
        return entry

    def _pod_prefill_entry(self, key: tuple[int, int, int]) -> tuple[float, float]:
        deployment, params = self.deployment, self.params
        config = self._pod_configs[key[2]]
        chunk = PrefillChunk(chunk_tokens=key[0], prior_tokens=key[1])
        tile = config.prefill_tile
        splits = default_prefill_splits(
            deployment, chunk, tile, params, config.max_prefill_ctas(deployment.gpu)
        )
        fa_entry = self._prefill_memo[key[:2]]
        # The 2-CTA configuration keeps FA's tile; unless its wave cap binds,
        # its aggregate is the FA one already built for this chunk.
        if tile == FA_PREFILL_TILE and splits == fa_entry[4]:
            entry = (fa_entry[2], fa_entry[3])
        else:
            aggregate = prefill_cta_aggregate(deployment, chunk, tile, splits, params)
            entry = (aggregate.total_flops, aggregate.total_dram_bytes)
        self._pod_prefill_memo[key] = entry
        return entry

    def estimate(self, batch: ScheduledBatch) -> AttentionEstimate:
        """Per-layer attention estimate for one scheduled batch.

        Equal, within float rounding of the decode sums, to :meth:`reference`
        on ``batch.to_hybrid_batch()``.  The decode side reads the sums the
        batch carries (:meth:`ScheduledBatch.context_sums`).
        """
        deployment, params = self.deployment, self.params
        spec = deployment.gpu
        fixed = params.cta_fixed_overhead
        memo = self._prefill_memo
        keys = []
        phase_flops = 0.0
        prefill_time = 0.0
        if batch.prefill_items:
            count, flops, dram = 0, 0.0, 0.0
            for request, tokens in batch.prefill_items:
                key = (tokens, request.prefill_done_tokens)
                entry = memo.get(key) or self._fa_prefill_entry(key)
                keys.append(key)
                phase_flops += entry[0]
                count += entry[1]
                flops += entry[2]
                dram += entry[3]
            prefill_time = kernel_time(spec, count, flops, dram, fixed, self._occupancy[0])
        decode_time = 0.0
        decodes = batch.decode_requests
        if decodes:
            num_decodes, context_sum, min_context = batch.context_sums()
            count, flops, dram = decode_aggregate_from_sums(
                deployment, num_decodes, context_sum, min_context, FA_DECODE_TILE, params
            )
            decode_time = kernel_time(spec, count, flops, dram, fixed, self._occupancy[1])
        if not (self.fuses and keys and decodes):
            return AttentionEstimate(prefill_time=prefill_time, decode_time=decode_time)

        ctas = pod_ctas_per_sm(*phase_costs(deployment, phase_flops, context_sum))
        config = self._pod_configs[ctas]
        pod_memo = self._pod_prefill_memo
        prefill_flops, prefill_dram = 0.0, 0.0
        for key in keys:
            pod_key = (key[0], key[1], ctas)
            pod_entry = pod_memo.get(pod_key) or self._pod_prefill_entry(pod_key)
            prefill_flops += pod_entry[0]
            prefill_dram += pod_entry[1]
        count, flops, dram = decode_aggregate_from_sums(
            deployment, num_decodes, context_sum, min_context, config.decode_tile, params
        )
        fused = fused_time(
            spec,
            len(keys),
            prefill_flops,
            prefill_dram,
            count,
            flops,
            dram,
            config.virtual_decode_factor,
            prefill_time + decode_time,
        )
        return _fused_split(prefill_time, decode_time, fused)

    def reference(self, batch: HybridBatch) -> AttentionEstimate:
        """The estimate :meth:`estimate` must match, from the row-summing reference."""
        times = analytic_attention_times(self.deployment, batch, self.params)
        if not (self.fuses and batch.is_hybrid):
            return AttentionEstimate(prefill_time=times.prefill_time, decode_time=times.decode_time)
        return _fused_split(times.prefill_time, times.decode_time, times.fused_time)


class FASerialBackend(AttentionBackend):
    """Independently optimized FlashAttention prefill + decode kernels (baseline)."""

    name = "FA_Serial"


class PODBackend(AttentionBackend):
    """POD-Attention fused kernel for hybrid batches, specialized kernels otherwise."""

    name = "POD"
    fuses = True


BACKENDS = {
    "fa_serial": FASerialBackend,
    "pod": PODBackend,
}


def get_backend(
    name: str,
    deployment: Deployment,
    params: AttentionCostParams | None = None,
) -> AttentionBackend:
    """Instantiate a backend by short name (``"fa_serial"`` or ``"pod"``)."""
    key = name.lower()
    if key not in BACKENDS:
        raise ValueError(f"unknown backend {name!r}; choose from {sorted(BACKENDS)}")
    return BACKENDS[key](deployment, params)
