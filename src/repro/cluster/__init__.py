"""Cluster-scale serving: multi-replica routing, P/D disaggregation, sweeps.

Builds on the single-replica serving substrate (``repro.serving``): a
:class:`ClusterSimulator` interleaves N :class:`~repro.serving.replica.
ReplicaRuntime` instances under one global clock, router policies spread a
shared arrival trace across them, and topologies choose between colocated
hybrid replicas (the POD-Attention serving model) and disaggregated
prefill/decode pools with an explicit KV-transfer cost.  ``repro.cluster.
sweep`` fans configuration grids across processes.
"""

from repro.cluster.control import (
    AdmissionPolicy,
    AutoscalerPolicy,
    ControlPlane,
    DEFAULT_SHED_THRESHOLDS,
    tiers_from_slos,
)
from repro.cluster.metrics import ClusterMetrics, ReplicaStats, compute_cluster_metrics
from repro.cluster.router import (
    LeastOutstandingRequestsRouter,
    LeastOutstandingTokensRouter,
    PrefillAwareRouter,
    PrefixAffinityRouter,
    ReplicaLoad,
    ROUTERS,
    RoundRobinRouter,
    RouterPolicy,
    get_router,
)
from repro.cluster.simulator import ClusterResult, ClusterSimulator
from repro.cluster.sweep import (
    ClusterSweepPoint,
    run_cluster_sweep,
    run_sweep_point,
)
from repro.cluster.topology import (
    ColocatedTopology,
    DecodePoolScheduler,
    DisaggregatedTopology,
    KVTransferModel,
    PrefillPoolScheduler,
    topology_from_spec,
)

__all__ = [
    "AdmissionPolicy",
    "AutoscalerPolicy",
    "ControlPlane",
    "DEFAULT_SHED_THRESHOLDS",
    "tiers_from_slos",
    "ClusterMetrics",
    "ReplicaStats",
    "compute_cluster_metrics",
    "LeastOutstandingRequestsRouter",
    "LeastOutstandingTokensRouter",
    "PrefillAwareRouter",
    "PrefixAffinityRouter",
    "ReplicaLoad",
    "ROUTERS",
    "RoundRobinRouter",
    "RouterPolicy",
    "get_router",
    "ClusterResult",
    "ClusterSimulator",
    "ClusterSweepPoint",
    "run_cluster_sweep",
    "run_sweep_point",
    "ColocatedTopology",
    "DecodePoolScheduler",
    "DisaggregatedTopology",
    "KVTransferModel",
    "PrefillPoolScheduler",
    "topology_from_spec",
]
