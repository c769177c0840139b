"""Row builders for the Figure 17 scenario sweep.

Shared by ``benchmarks/test_fig17_scenario_sweep.py`` (which generates the
full committed artifact) and ``tests/test_golden_results.py`` (which re-pins
a subset of its rows), so the row schema, serving-system matrix and the
sweep's parameters (32 requests, seed 21, chunk 1024) have exactly one
definition.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.topology import ColocatedTopology
from repro.models.config import Deployment
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler

#: The sweep's fixed parameters (also the golden test's recompute inputs).
FIG17_NUM_REQUESTS = 32
FIG17_SEED = 21
FIG17_CHUNK_SIZE = 1024
FIG17_SYSTEMS = ("vLLM", "Sarathi", "Sarathi+POD")

#: The scenarios fig17 sweeps — pinned to the registry as of the artifact's
#: baselining, so later scenario additions (e.g. the fig19 memory-pressure
#: family) do not silently change the committed fig17 artifact.
FIG17_SCENARIOS = (
    "enterprise-internal",
    "arxiv-summarization",
    "long-summarization-burst",
    "short-chat-diurnal",
    "rag-burst",
    "code-completion-surge",
    "multi-tenant-slo",
)


def scenario_system_simulator(
    deployment: Deployment,
    system: str,
    chunk_size: int = FIG17_CHUNK_SIZE,
) -> ClusterSimulator:
    """A fresh single-replica simulator for one of the sweep's three systems."""
    if system not in FIG17_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {FIG17_SYSTEMS}")
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=(
            VLLMScheduler if system == "vLLM" else lambda: SarathiScheduler(chunk_size=chunk_size)
        ),
        backend_builder=PODBackend if system == "Sarathi+POD" else FASerialBackend,
    )
    return ClusterSimulator(topology)


def scenario_single_replica_row(
    deployment: Deployment,
    scenario: str,
    system: str,
    num_requests: int = FIG17_NUM_REQUESTS,
    seed: int = FIG17_SEED,
    chunk_size: int = FIG17_CHUNK_SIZE,
) -> dict[str, Any]:
    """One ``mode="single"`` row of the Figure 17 table."""
    from repro.workloads.scenario import build_scenario, get_scenario

    simulator = scenario_system_simulator(deployment, system, chunk_size)
    result = simulator.run(build_scenario(scenario, num_requests=num_requests, seed=seed))
    metrics = result.metrics.fleet
    return {
        "scenario": scenario,
        "mode": "single",
        "system": system,
        "qps": get_scenario(scenario).qps,
        "requests": metrics.num_requests,
        "req_per_min": round(metrics.requests_per_minute, 2),
        "ttft_p50_s": round(metrics.ttft_p50, 3),
        "ttft_p99_s": round(metrics.ttft_p99, 3),
        "tbt_p99_s": round(metrics.tbt_p99, 4),
        "latency_p99_s": round(metrics.latency_p99, 2),
        "stalls_200ms_pct": round(metrics.stall_fraction_200ms * 100, 2),
    }


def scenario_cluster_row(sweep_row: Mapping[str, Any], num_replicas: int) -> dict[str, Any]:
    """Map one cluster-sweep result row into the Figure 17 table schema."""
    return {
        "scenario": sweep_row["workload"],
        "mode": f"cluster-x{num_replicas}",
        "system": "Sarathi+POD",
        "qps": sweep_row["qps"],
        "requests": sweep_row["requests"],
        "req_per_min": sweep_row["req_per_min"],
        "ttft_p50_s": sweep_row["ttft_p50_s"],
        "ttft_p99_s": sweep_row["ttft_p99_s"],
        "tbt_p99_s": sweep_row["tbt_p99_s"],
        "latency_p99_s": sweep_row["latency_p99_s"],
        "stalls_200ms_pct": sweep_row["stalls_200ms_pct"],
        "util_mean": sweep_row["util_mean"],
    }
