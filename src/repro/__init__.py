"""POD-Attention reproduction library.

A pure-Python reproduction of *POD-Attention: Unlocking Full Prefill-Decode
Overlap for Faster LLM Inference* (ASPLOS 2025) on a simulated GPU substrate.
The README's "Architecture map" lists the subsystems, and its "Benchmarks →
paper figures" table maps every table and figure to the benchmark that
regenerates it.

Public API highlights:

* :mod:`repro.gpu` — the simulated GPU (SMs, CTAs, streams, occupancy, energy).
* :mod:`repro.attention` — hybrid-batch workloads, exact tiled attention
  numerics, and the FlashAttention/FlashInfer/HFuse baseline strategies.
* :mod:`repro.core` — POD-Attention itself: SM-aware CTA scheduling, tile
  configurations, virtual decode CTAs, split limiting, the fused kernel.
* :mod:`repro.models` / :mod:`repro.serving` — the LLM serving stack
  (vLLM and Sarathi-Serve schedulers, KV cache, engine, workload traces).
* :mod:`repro.fusion` — the §3 concurrent-execution case study.
* :mod:`repro.cluster` / :mod:`repro.planner` — multi-replica fleets
  (homogeneous or heterogeneous ``ReplicaSpec`` mixes), routing, serving
  economics, and the SLO/cost capacity planner.
* :mod:`repro.cli` — the ``repro`` operator CLI (``python -m repro``).
"""

from repro.attention.workload import DecodeRequest, HybridBatch, PrefillChunk, table1_configs
from repro.attention.executors import FAHFuse, FASerial, FAStreams, FIBatched, FISerial
from repro.attention.metrics import AttentionRunResult, theoretical_minimum_time
from repro.core.pod_kernel import PODAttention, build_pod_kernel
from repro.core.sm_aware import SMAwareScheduler
from repro.core.tile_config import PODConfig, select_pod_config
from repro.cluster.simulator import ClusterSimulator
from repro.gpu.config import GPUSpec, a100_sxm_80gb, get_gpu
from repro.gpu.engine import ExecutionEngine
from repro.models.config import (
    ClusterSpec,
    Deployment,
    ModelConfig,
    ReplicaSpec,
    get_model,
    paper_deployment,
    replica_specs_from_mix,
)
from repro.planner import PlanCandidate, PlannerConfig, PlanResult, capacity_plan
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.workloads.scenario import SCENARIOS, build_scenario, run_scenario

__version__ = "1.0.0"

__all__ = [
    "DecodeRequest",
    "HybridBatch",
    "PrefillChunk",
    "table1_configs",
    "FAHFuse",
    "FASerial",
    "FAStreams",
    "FIBatched",
    "FISerial",
    "AttentionRunResult",
    "theoretical_minimum_time",
    "PODAttention",
    "build_pod_kernel",
    "SMAwareScheduler",
    "PODConfig",
    "select_pod_config",
    "GPUSpec",
    "a100_sxm_80gb",
    "get_gpu",
    "ExecutionEngine",
    "Deployment",
    "ModelConfig",
    "get_model",
    "paper_deployment",
    "SarathiScheduler",
    "VLLMScheduler",
    # Fleets, economics and capacity planning
    "ClusterSimulator",
    "ClusterSpec",
    "ReplicaSpec",
    "replica_specs_from_mix",
    "PlannerConfig",
    "PlanCandidate",
    "PlanResult",
    "capacity_plan",
    # Workload scenarios
    "SCENARIOS",
    "build_scenario",
    "run_scenario",
    "__version__",
]
