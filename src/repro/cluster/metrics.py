"""Cluster-level metrics: fleet throughput/latency plus per-replica utilization.

The fleet-level numbers reuse :func:`repro.serving.metrics.compute_metrics`
over every request in the trace with the cluster-wide makespan, so they are
directly comparable with single-replica runs (Tables 5–6).  On top of that,
each replica reports its iteration count, busy time and utilization, and
disaggregated runs report KV-transfer volume — the quantities that show where
a topology or router policy loses its hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.serving.metrics import ServingMetrics, compute_metrics, compute_tenant_metrics
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request

if TYPE_CHECKING:
    from repro.cluster.control import FleetState


@dataclass(frozen=True)
class ReplicaStats:
    """Per-replica accounting of one cluster run.

    The economics fields (``cost_per_hour``, ``active_seconds``,
    ``cost_usd``) default to zero and stay out of :meth:`as_row` so
    pre-existing result artifacts remain byte-identical.
    """

    replica_id: int
    role: str  # "hybrid" | "prefill" | "decode"
    num_iterations: int
    busy_time: float
    utilization: float  # busy_time / cluster makespan
    requests_released: int
    cost_per_hour: float = 0.0
    active_seconds: float = 0.0
    cost_usd: float = 0.0

    def as_row(self) -> dict[str, Any]:
        return {
            "replica": self.replica_id,
            "role": self.role,
            "iterations": self.num_iterations,
            "busy_s": round(self.busy_time, 2),
            "utilization": round(self.utilization, 4),
            "released": self.requests_released,
        }


@dataclass(frozen=True)
class ClusterMetrics:
    """Aggregate metrics of one cluster simulation."""

    fleet: ServingMetrics
    replicas: tuple[ReplicaStats, ...]
    topology: str
    router: str
    num_kv_transfers: int = 0
    total_kv_transfer_time: float = 0.0
    #: Tenant → fleet-level metrics over that tenant's slice of the trace;
    #: empty for untagged (single-tenant) workloads.
    per_tenant: Mapping[str, ServingMetrics] = field(default_factory=dict)
    # Control-plane accounting (defaults describe a static fleet; kept out of
    # as_row() so pre-existing result artifacts stay byte-identical).
    #: Provisioned replica-time: Σ over replicas of (retire − activate), the
    #: cost side of the autoscaling trade-off.  Equals
    #: ``num_replicas * makespan`` for a static fleet.
    replica_seconds: float = 0.0
    num_scale_ups: int = 0
    num_scale_downs: int = 0
    #: Largest concurrently provisioned (live + warming) fleet size.
    peak_replicas: int = 0
    # Serving economics (defaults describe a fleet with no pricing attached;
    # kept out of as_row() so pre-existing result artifacts stay
    # byte-identical — read them via economics_row()).
    #: Dollars billed for the run: Σ over replicas of active-time × rate.
    cost_usd: float = 0.0
    #: Tokens delivered (prefill + decode) by finished requests.
    total_tokens: int = 0
    #: Whole-fleet burn rate while fully provisioned, USD/hour.
    fleet_cost_per_hour: float = 0.0

    @property
    def num_replicas(self) -> int:
        return len(self.replicas)

    @property
    def usd_per_1k_tokens(self) -> float:
        """Serving cost per thousand delivered tokens (0 when nothing priced)."""
        if self.total_tokens <= 0:
            return 0.0
        return self.cost_usd / self.total_tokens * 1000.0

    @property
    def mean_utilization(self) -> float:
        return sum(r.utilization for r in self.replicas) / len(self.replicas)

    @property
    def min_utilization(self) -> float:
        return min(r.utilization for r in self.replicas)

    @property
    def max_utilization(self) -> float:
        return max(r.utilization for r in self.replicas)

    @property
    def utilization_imbalance(self) -> float:
        """Max/mean replica utilization (1.0 = perfectly balanced fleet)."""
        mean = self.mean_utilization
        return self.max_utilization / mean if mean > 0 else 0.0

    @property
    def mean_kv_transfer_time(self) -> float:
        if self.num_kv_transfers == 0:
            return 0.0
        return self.total_kv_transfer_time / self.num_kv_transfers

    def as_row(self) -> dict[str, Any]:
        """Flat view for benchmark tables (one row per cluster configuration)."""
        return {
            "topology": self.topology,
            "router": self.router,
            "replicas": self.num_replicas,
            "req_per_min": round(self.fleet.requests_per_minute, 2),
            "ttft_p50_s": round(self.fleet.ttft_p50, 3),
            "ttft_p99_s": round(self.fleet.ttft_p99, 3),
            "tbt_p99_s": round(self.fleet.tbt_p99, 4),
            "latency_p50_s": round(self.fleet.latency_p50, 2),
            "latency_p99_s": round(self.fleet.latency_p99, 2),
            "stalls_200ms_pct": round(self.fleet.stall_fraction_200ms * 100, 2),
            "util_mean": round(self.mean_utilization, 3),
            "util_min": round(self.min_utilization, 3),
            "util_max": round(self.max_utilization, 3),
            "kv_transfers": self.num_kv_transfers,
            "kv_transfer_ms_mean": round(self.mean_kv_transfer_time * 1e3, 2),
        }

    def control_row(self) -> dict[str, Any]:
        """Flat control-plane view: offered vs delivered traffic and fleet cost."""
        offered = self.fleet.num_offered
        return {
            "offered": offered,
            "finished": self.fleet.num_requests,
            "rejected": self.fleet.num_rejected,
            "shed_pct": round(
                self.fleet.num_rejected / offered * 100 if offered else 0.0, 2
            ),
            "replica_seconds": round(self.replica_seconds, 2),
            "peak_replicas": self.peak_replicas,
            "scale_ups": self.num_scale_ups,
            "scale_downs": self.num_scale_downs,
        }

    def economics_row(self) -> dict[str, Any]:
        """Flat dollar-accounting view (fig21 / planner tables)."""
        return {
            "cost_usd": round(self.cost_usd, 6),
            "usd_per_1k_tokens": round(self.usd_per_1k_tokens, 6),
            "fleet_usd_per_hour": round(self.fleet_cost_per_hour, 2),
            "replica_seconds": round(self.replica_seconds, 2),
            "tokens": self.total_tokens,
        }

    def tenant_rows(self) -> list[dict[str, Any]]:
        """One flat row per tenant (empty list for untagged workloads)."""
        return [
            {
                "tenant": tenant,
                "requests": metrics.num_requests,
                "req_per_min": round(metrics.requests_per_minute, 2),
                "ttft_p50_s": round(metrics.ttft_p50, 3),
                "ttft_p99_s": round(metrics.ttft_p99, 3),
                "tbt_p99_s": round(metrics.tbt_p99, 4),
                "latency_p99_s": round(metrics.latency_p99, 2),
                "stalls_200ms_pct": round(metrics.stall_fraction_200ms * 100, 2),
            }
            for tenant, metrics in self.per_tenant.items()
        ]


def compute_cluster_metrics(
    requests: Sequence[Request],
    replicas: Sequence[ReplicaRuntime],
    makespan: float,
    topology: str,
    router: str,
    num_kv_transfers: int = 0,
    total_kv_transfer_time: float = 0.0,
    replica_costs: Mapping[int, float] | None = None,
    fleet: FleetState | None = None,
) -> ClusterMetrics:
    """Aggregate a cluster run into :class:`ClusterMetrics`.

    ``fleet`` is an elastic run's lifecycle ledger; ``None`` describes a
    static fleet, whose every replica serves (and is billed) for the whole
    makespan.  ``replica_costs`` maps replica id → USD/hour; with it set,
    every replica is billed for its active time and the fleet totals land in
    ``cost_usd`` / ``usd_per_1k_tokens``.
    """
    fleet_metrics = compute_metrics(
        requests,
        makespan=makespan,
        num_iterations=sum(r.engine.total_iterations for r in replicas),
        hybrid_iterations=sum(r.engine.hybrid_iterations for r in replicas),
    )
    costs = replica_costs or {}
    active = fleet.active_seconds(makespan) if fleet is not None else {}
    stats_list = []
    for r in replicas:
        rate = costs.get(r.replica_id, 0.0)
        seconds = active.get(r.replica_id, makespan)
        stats_list.append(
            ReplicaStats(
                replica_id=r.replica_id,
                role=r.role,
                num_iterations=r.engine.total_iterations,
                busy_time=r.busy_time,
                utilization=r.busy_time / makespan if makespan > 0 else 0.0,
                requests_released=len(r.released),
                cost_per_hour=rate,
                active_seconds=seconds,
                cost_usd=rate * seconds / 3600.0,
            )
        )
    stats = tuple(stats_list)
    per_tenant: dict[str, ServingMetrics] = {}
    if any(r.tenant for r in requests):
        per_tenant = compute_tenant_metrics(requests, makespan=makespan)
    total_tokens = sum(r.total_tokens for r in requests if r.is_finished)
    return ClusterMetrics(
        fleet=fleet_metrics,
        replicas=stats,
        topology=topology,
        router=router,
        num_kv_transfers=num_kv_transfers,
        total_kv_transfer_time=total_kv_transfer_time,
        per_tenant=per_tenant,
        replica_seconds=(
            len(replicas) * makespan if fleet is None else sum(active.values())
        ),
        num_scale_ups=fleet.num_scale_ups if fleet is not None else 0,
        num_scale_downs=fleet.num_scale_downs if fleet is not None else 0,
        peak_replicas=fleet.peak_replicas if fleet is not None else len(replicas),
        cost_usd=sum(stat.cost_usd for stat in stats),
        total_tokens=total_tokens,
        fleet_cost_per_hour=sum(costs.values()),
    )

