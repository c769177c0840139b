"""POD-Attention kernel configurations (paper §4.2).

POD-Attention hand-tunes the per-CTA footprint of the fused kernel so that
multiple CTAs — a mix of prefill and decode — can be resident on every SM:

* the **2 CTAs/SM** configuration keeps the large 128-row prefill tile
  (best for prefill-dominant batches, which want maximum tensor-core
  efficiency and shared memory per CTA);
* the **4 CTAs/SM** configuration shrinks tiles and thread counts so that
  more CTAs fit per SM, allowing finer-grained prefill:decode mixes
  (best for decode-dominant batches);
* decode tiles are shrunk to 16 query rows in both configurations, the
  minimum CUTLASS tile, removing the redundant compute that would otherwise
  steal tensor cores from co-located prefill (§4.2.1);
* decode CTAs are further divided into *virtual CTAs* of one warp each so
  that decode does not over-allocate shared memory (§4.2.3);
* prefill KV splits are limited to two full waves (§4.2.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attention.cost_model import MIN_DECODE_TILE_Q, ResourceProfile, TileShape
from repro.attention.workload import HybridBatch
from repro.gpu.config import GPUSpec
from repro.models.config import Deployment
from repro.utils.units import KB
from repro.utils.validation import check_in_choices, check_positive

#: Limited splits (§4.2.4): prefill KV splits stop at this many full waves of CTAs.
PREFILL_SPLIT_WAVE_LIMIT = 2.0


@dataclass(frozen=True)
class PODConfig:
    """One POD-Attention kernel configuration."""

    ctas_per_sm: int
    prefill_tile: TileShape
    decode_tile: TileShape
    profile: ResourceProfile
    virtual_decode_factor: int = 4

    def __post_init__(self) -> None:
        check_in_choices("ctas_per_sm", self.ctas_per_sm, (2, 4, 8))
        check_positive("virtual_decode_factor", self.virtual_decode_factor)
        if self.decode_tile.tile_q < MIN_DECODE_TILE_Q:
            raise ValueError(
                f"decode tile_q must be >= {MIN_DECODE_TILE_Q} (CUTLASS minimum), "
                f"got {self.decode_tile.tile_q}"
            )

    def max_prefill_ctas(self, spec: GPUSpec) -> int:
        """Limit on prefill CTAs implied by the limited-splits optimization (§4.2.4)."""
        return int(PREFILL_SPLIT_WAVE_LIMIT * spec.num_sms)

    @property
    def name(self) -> str:
        return f"pod-{self.ctas_per_sm}cta"


def pod_config_2_ctas_per_sm() -> PODConfig:
    """2 CTAs/SM: large prefill tiles, for prefill-dominant hybrid batches."""
    return PODConfig(
        ctas_per_sm=2,
        prefill_tile=TileShape(tile_q=128, tile_kv=64),
        decode_tile=TileShape(tile_q=16, tile_kv=64),
        profile=ResourceProfile(
            threads_per_cta=256, shared_mem_bytes=80 * KB, registers_per_thread=128
        ),
        virtual_decode_factor=4,
    )


def pod_config_4_ctas_per_sm() -> PODConfig:
    """4 CTAs/SM: smaller tiles, finer prefill:decode mixing for decode-heavy batches."""
    return PODConfig(
        ctas_per_sm=4,
        prefill_tile=TileShape(tile_q=64, tile_kv=32),
        decode_tile=TileShape(tile_q=16, tile_kv=32),
        profile=ResourceProfile(
            threads_per_cta=128, shared_mem_bytes=40 * KB, registers_per_thread=120
        ),
        virtual_decode_factor=4,
    )


def pod_config_8_ctas_per_sm() -> PODConfig:
    """8 CTAs/SM: explored in the paper and found rarely beneficial; kept for ablations."""
    return PODConfig(
        ctas_per_sm=8,
        prefill_tile=TileShape(tile_q=32, tile_kv=32),
        decode_tile=TileShape(tile_q=16, tile_kv=32),
        profile=ResourceProfile(
            threads_per_cta=128, shared_mem_bytes=20 * KB, registers_per_thread=64
        ),
        virtual_decode_factor=2,
    )


POD_CONFIGS = {
    2: pod_config_2_ctas_per_sm,
    4: pod_config_4_ctas_per_sm,
    8: pod_config_8_ctas_per_sm,
}


def chunk_phase_flops(deployment: Deployment, chunk_tokens: int, prior_tokens: int) -> float:
    """Attention FLOPs of one prefill chunk at its queries' average causal extent."""
    avg_kv = prior_tokens + chunk_tokens / 2.0
    return 4.0 * chunk_tokens * avg_kv * deployment.model.head_dim * deployment.q_heads_per_gpu


def phase_costs(
    deployment: Deployment, prefill_flops: float, decode_context_sum: int
) -> tuple[float, float]:
    """(prefill compute seconds, decode memory seconds) from a batch's two sums."""
    model = deployment.model
    spec = deployment.gpu
    decode_bytes = (
        decode_context_sum * model.head_dim * 2 * model.dtype_bytes * deployment.kv_heads_per_gpu
    )
    return prefill_flops / spec.tensor_flops, decode_bytes / spec.hbm_bandwidth


def estimate_phase_costs(deployment: Deployment, batch: HybridBatch) -> tuple[float, float]:
    """Rough (prefill compute seconds, decode memory seconds) estimate for a batch.

    Used only to pick between the 2- and 4-CTAs/SM configurations, mirroring
    the runtime heuristic the paper describes in §4.2.2/§5.4.1.
    """
    prefill_flops = 0.0
    for chunk in batch.prefills:
        prefill_flops += chunk_phase_flops(deployment, chunk.chunk_tokens, chunk.prior_tokens)
    context_sum = sum(decode.context_tokens for decode in batch.decodes)
    return phase_costs(deployment, prefill_flops, context_sum)


def pod_ctas_per_sm(prefill_time: float, decode_time: float) -> int:
    """The runtime choice (§4.2.2): 2 CTAs/SM when prefill dominates, else 4."""
    return 2 if prefill_time >= decode_time else 4


def select_pod_config(deployment: Deployment, batch: HybridBatch) -> PODConfig:
    """Pick the POD configuration at runtime, as POD-Attention does (§4.2.2).

    Prefill-dominant batches use 2 CTAs/SM (larger tiles); otherwise 4 CTAs/SM
    (finer co-scheduling granularity).
    """
    return POD_CONFIGS[pod_ctas_per_sm(*estimate_phase_costs(deployment, batch))]()
