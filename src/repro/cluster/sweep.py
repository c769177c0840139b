"""Parallel cluster sweeps: replica-count × router × topology × load grids.

Each grid point is a self-contained, picklable description of one cluster
simulation (model and workload by name, scalar knobs only), so the runner can
fan points across processes with ``concurrent.futures.ProcessPoolExecutor`` —
the parallel-rollout pattern — while staying runnable serially for debugging
(``parallel=False``) or inside environments without fork.  A point runs
through :func:`repro.workloads.scenario.run_scenario` on the
:class:`~repro.models.config.ClusterSpec` it describes, the path every
scenario run takes.

Offered load scales with the fleet: a point at ``qps_per_replica`` and
``num_replicas`` replays ``requests_per_replica * num_replicas`` requests at
``qps_per_replica * num_replicas`` QPS, keeping per-replica pressure constant
so throughput/latency comparisons across cluster sizes are iso-load.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Sequence

from repro.models.config import ClusterSpec, paper_deployment
from repro.utils.validation import check_positive
from repro.workloads.scenario import run_scenario

#: Historical sweep labels of the paper's two traces -> their scenarios.  Rows
#: keep the label (fig16/fig18 read ``workload=arxiv``).
WORKLOAD_LABELS = {"arxiv": "arxiv-summarization", "internal": "enterprise-internal"}


@dataclass(frozen=True)
class ClusterSweepPoint:
    """One cluster configuration in a sweep (fully picklable)."""

    num_replicas: int
    router: str = "round-robin"
    topology: str = "colocated"
    model: str = "llama-3-8b"
    workload: str = "arxiv"
    qps_per_replica: float = 0.85
    requests_per_replica: int = 24
    chunk_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("num_replicas", self.num_replicas)
        check_positive("qps_per_replica", self.qps_per_replica)
        check_positive("requests_per_replica", self.requests_per_replica)

    @property
    def num_requests(self) -> int:
        return self.num_replicas * self.requests_per_replica

    @property
    def qps(self) -> float:
        return self.qps_per_replica * self.num_replicas

    def label(self) -> str:
        return f"{self.topology}/{self.router}/x{self.num_replicas}@{self.qps:.2f}qps"


def run_sweep_point(point: ClusterSweepPoint) -> dict[str, Any]:
    """Simulate one grid point and return a flat result row.

    ``point.workload`` is any scenario from ``repro.workloads.SCENARIOS`` (or
    a label in :data:`WORKLOAD_LABELS`), whose own arrival process is scaled
    to the point's fleet-wide QPS.
    """
    spec = ClusterSpec(
        paper_deployment(point.model), num_replicas=point.num_replicas, topology=point.topology
    )
    result = run_scenario(
        WORKLOAD_LABELS.get(point.workload, point.workload),
        spec=spec,
        num_requests=point.num_requests,
        seed=point.seed,
        qps=point.qps,
        router=point.router,
        chunk_size=point.chunk_size,
    )
    row: dict[str, Any] = {
        "model": point.model,
        "workload": point.workload,
        "qps": round(point.qps, 3),
        "requests": point.num_requests,
        "gpus": spec.total_gpus,
    }
    row.update(result.metrics.as_row())
    return row


def run_cluster_sweep(
    points: Sequence[ClusterSweepPoint],
    max_workers: int | None = None,
    parallel: bool = True,
) -> list[dict[str, Any]]:
    """Run every grid point, fanning across processes when ``parallel``.

    Results come back in input order regardless of completion order.  Serial
    execution is used automatically for trivial grids or ``max_workers=1``.
    """
    points = list(points)
    if not points:
        return []
    if not parallel or max_workers == 1 or len(points) == 1:
        return [run_sweep_point(point) for point in points]
    if max_workers is None:
        max_workers = min(len(points), os.cpu_count() or 2)
    with ProcessPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(run_sweep_point, points))
