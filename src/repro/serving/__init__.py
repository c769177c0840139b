"""LLM serving substrate: requests, KV cache, schedulers, engine and replica runtime."""

from repro.serving.attention_backend import (
    AttentionBackend,
    AttentionEstimate,
    BACKENDS,
    FASerialBackend,
    PODBackend,
    get_backend,
)
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine, IterationResult
from repro.serving.kv_cache import (
    KVCacheConfig,
    KVCacheManager,
    KVCacheStats,
    prefix_block_hashes,
)
from repro.serving.metrics import (
    STALL_THRESHOLDS,
    MemoryPressureStats,
    ServingMetrics,
    compute_memory_pressure,
    compute_metrics,
    compute_tenant_metrics,
    finished_slo_attainment,
    slice_by_tenant,
    slo_attainment,
)
from repro.serving.replica import RELEASE_MODES, ReplicaRuntime, StepOutcome
from repro.serving.request import Request, RequestState, make_requests
from repro.serving.scheduler import Scheduler, SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler

__all__ = [
    "AttentionBackend",
    "AttentionEstimate",
    "BACKENDS",
    "FASerialBackend",
    "PODBackend",
    "get_backend",
    "ScheduledBatch",
    "InferenceEngine",
    "IterationResult",
    "KVCacheConfig",
    "KVCacheManager",
    "KVCacheStats",
    "prefix_block_hashes",
    "STALL_THRESHOLDS",
    "ServingMetrics",
    "MemoryPressureStats",
    "compute_memory_pressure",
    "compute_metrics",
    "compute_tenant_metrics",
    "finished_slo_attainment",
    "slice_by_tenant",
    "slo_attainment",
    "RELEASE_MODES",
    "ReplicaRuntime",
    "StepOutcome",
    "Request",
    "RequestState",
    "make_requests",
    "Scheduler",
    "SchedulerLimits",
    "SarathiScheduler",
    "VLLMScheduler",
]
