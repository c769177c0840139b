"""POD-Attention: fused prefill/decode attention with SM-aware CTA scheduling."""

from repro.core.fused_numeric import (
    DecodeSequence,
    FusedNumericResult,
    fused_reference,
    pod_fused_attention_numeric,
)
from repro.core.pod_kernel import (
    PODAttention,
    PODKernelPlan,
    build_pod_kernel,
    group_virtual_decode_ctas,
)
from repro.core.scheduling_policy import (
    FiftyFiftyPolicy,
    POLICIES,
    ProportionalPolicy,
    SchedulingPolicy,
    get_policy,
)
from repro.core.sm_aware import Assignment, DECODE, PREFILL, SMAwareScheduler
from repro.core.tile_config import (
    PODConfig,
    POD_CONFIGS,
    estimate_phase_costs,
    pod_config_2_ctas_per_sm,
    pod_config_4_ctas_per_sm,
    pod_config_8_ctas_per_sm,
    select_pod_config,
)

__all__ = [
    "DecodeSequence",
    "FusedNumericResult",
    "fused_reference",
    "pod_fused_attention_numeric",
    "PODAttention",
    "PODKernelPlan",
    "build_pod_kernel",
    "group_virtual_decode_ctas",
    "FiftyFiftyPolicy",
    "POLICIES",
    "ProportionalPolicy",
    "SchedulingPolicy",
    "get_policy",
    "Assignment",
    "DECODE",
    "PREFILL",
    "SMAwareScheduler",
    "PODConfig",
    "POD_CONFIGS",
    "estimate_phase_costs",
    "pod_config_2_ctas_per_sm",
    "pod_config_4_ctas_per_sm",
    "pod_config_8_ctas_per_sm",
    "select_pod_config",
]
