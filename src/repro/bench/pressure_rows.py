"""Row builders for the Figure 19 KV memory-pressure sweep.

Shared by ``benchmarks/test_fig19_memory_pressure.py`` (which generates the
committed artifact) and the unit tests that re-pin subsets of its rows, so
the row schema and the sweep's parameters (48 requests, seed 19, chunk 1024)
have exactly one definition.

The sweep crosses KV capacity x prefix caching on/off x preemption on/off on
the shared-prefix scenarios (``shared-prefix-chat``, ``rag-corpus``), plus a
4-replica cluster comparison of prefix-affinity routing against its
prefix-oblivious baselines.
"""

from __future__ import annotations

from typing import Any

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.topology import ColocatedTopology
from repro.models.config import Deployment
from repro.serving.attention_backend import PODBackend
from repro.serving.kv_cache import KVCacheConfig
from repro.serving.metrics import compute_memory_pressure
from repro.serving.scheduler_sarathi import SarathiScheduler

#: The sweep's fixed parameters.
FIG19_NUM_REQUESTS = 48
FIG19_SEED = 19
FIG19_CHUNK_SIZE = 1024

#: KV capacities swept per scenario (tokens): tight / constrained / ample,
#: chosen around each scenario's working set (mean context ~2.5K and ~6.7K).
FIG19_CAPACITIES: dict[str, tuple[int, ...]] = {
    "shared-prefix-chat": (8192, 16384, 65536),
    "rag-corpus": (16384, 32768, 131072),
}

#: Cluster-comparison parameters (the prefix-affinity routing story).
FIG19_CLUSTER_REPLICAS = 4
FIG19_CLUSTER_REQUESTS = 96
FIG19_CLUSTER_QPS = 20.0
FIG19_CLUSTER_CAPACITY = 16384
FIG19_CLUSTER_ROUTERS = ("round-robin", "least-tokens", "prefix-affinity")


def _flag(value: bool) -> str:
    return "on" if value else "off"


def memory_pressure_simulator(
    deployment: Deployment,
    capacity_tokens: int,
    prefix_caching: bool,
    preemption: bool,
    chunk_size: int = FIG19_CHUNK_SIZE,
    recorder: Any | None = None,
) -> ClusterSimulator:
    """A Sarathi+POD single-replica stack with an explicit KV memory mode."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=chunk_size, preemption=preemption),
        backend_builder=PODBackend,
        kv_config=KVCacheConfig(
            capacity_tokens=capacity_tokens,
            block_size=16,
            enable_prefix_caching=prefix_caching,
        ),
    )
    return ClusterSimulator(topology, recorder=recorder)


def fig19_single_row(
    deployment: Deployment,
    scenario: str,
    capacity_tokens: int,
    prefix_caching: bool,
    preemption: bool,
    num_requests: int = FIG19_NUM_REQUESTS,
    seed: int = FIG19_SEED,
) -> dict[str, Any]:
    """One ``mode="single"`` row of the Figure 19 table."""
    simulator = memory_pressure_simulator(
        deployment, capacity_tokens, prefix_caching, preemption
    )
    result = simulator.run_scenario(scenario, num_requests=num_requests, seed=seed)
    pressure = compute_memory_pressure(result.requests, result.kv_stats)
    row: dict[str, Any] = {
        "scenario": scenario,
        "mode": "single",
        "capacity_tokens": capacity_tokens,
        "prefix_caching": _flag(prefix_caching),
        "preemption": _flag(preemption),
        "router": "-",
    }
    row.update(result.metrics.fleet.as_row())
    row.update(pressure.as_row())
    return row


def fig19_cluster_row(
    deployment: Deployment,
    scenario: str,
    router: str,
    capacity_tokens: int = FIG19_CLUSTER_CAPACITY,
    num_replicas: int = FIG19_CLUSTER_REPLICAS,
    num_requests: int = FIG19_CLUSTER_REQUESTS,
    qps: float = FIG19_CLUSTER_QPS,
    seed: int = FIG19_SEED,
) -> dict[str, Any]:
    """One prefix-caching cluster row: router policy vs fleet-wide hit rate."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=num_replicas,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=FIG19_CHUNK_SIZE),
        backend_builder=PODBackend,
        kv_config=KVCacheConfig(
            capacity_tokens=capacity_tokens, block_size=16, enable_prefix_caching=True
        ),
    )
    result = ClusterSimulator(topology, router=router).run_scenario(
        scenario, num_requests=num_requests, seed=seed, qps=qps
    )
    pressure = compute_memory_pressure(result.requests, result.kv_stats)
    row: dict[str, Any] = {
        "scenario": scenario,
        "mode": f"cluster-x{num_replicas}",
        "capacity_tokens": capacity_tokens,
        "prefix_caching": "on",
        "preemption": "off",
        "router": router,
    }
    row.update(result.metrics.fleet.as_row())
    row.update(pressure.as_row())
    return row
