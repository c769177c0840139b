"""Sweep generators shared by benchmarks (notably the Figure 11 batch sweep
and the cluster-scaling grid)."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.attention.workload import HybridBatch
from repro.cluster.sweep import ClusterSweepPoint


@dataclass(frozen=True)
class SweepPoint:
    """One hybrid-batch configuration in a sweep."""

    context_length: int
    chunk_size: int
    decode_batch_size: int

    def to_batch(self) -> HybridBatch:
        return HybridBatch.uniform(
            chunk_tokens=self.chunk_size,
            prefill_context=self.context_length,
            decode_batch_size=self.decode_batch_size,
            decode_context=self.context_length,
        )


def figure11_sweep(
    context_lengths: tuple[int, ...] = (4096, 8192, 12288, 16384, 20480),
    chunk_sizes: tuple[int, ...] = (512, 1024, 2048),
    decode_batch_sizes: tuple[int, ...] = (16, 32, 64, 128, 192, 250),
    max_points: int | None = None,
    seed: int = 0,
) -> list[SweepPoint]:
    """The hybrid-batch sweep of §5.1 (context 4K–20K, chunk 512–2K, varying batch).

    The paper sweeps over a thousand batches; ``max_points`` lets benchmarks
    subsample the grid (deterministically) to keep runtimes reasonable; each
    benchmark's docstring states the sample it draws.
    """
    points = [
        SweepPoint(context_length=ctx, chunk_size=min(chunk, ctx), decode_batch_size=bs)
        for ctx, chunk, bs in product(context_lengths, chunk_sizes, decode_batch_sizes)
    ]
    # Deduplicate (chunk may have been clamped to the context length).
    unique: dict[tuple[int, int, int], SweepPoint] = {
        (p.context_length, p.chunk_size, p.decode_batch_size): p for p in points
    }
    points = list(unique.values())
    if max_points is not None and len(points) > max_points:
        rng = np.random.default_rng(seed)
        indices = rng.choice(len(points), size=max_points, replace=False)
        points = [points[i] for i in sorted(indices)]
    return points


def cluster_scaling_grid(
    cluster_sizes: tuple[int, ...] = (2, 4),
    routers: tuple[str, ...] = ("round-robin", "least-tokens", "prefill-aware"),
    topologies: tuple[str, ...] = ("colocated", "disaggregated"),
    **common,
) -> list[ClusterSweepPoint]:
    """Router × topology × cluster-size grid for the cluster-scaling study.

    Extra keyword arguments (``workload``, ``qps_per_replica``,
    ``requests_per_replica``, ``chunk_size``, ``seed``, …) are forwarded to
    every :class:`~repro.cluster.sweep.ClusterSweepPoint`, keeping the grid
    iso-load across sizes by construction.
    """
    return [
        ClusterSweepPoint(num_replicas=size, router=router, topology=topology, **common)
        for topology, router, size in product(topologies, routers, cluster_sizes)
    ]


def fleet_scaling_grid(
    cluster_sizes: tuple[int, ...] = (8, 16, 32),
    routers: tuple[str, ...] = ("least-tokens", "prefill-aware"),
    topologies: tuple[str, ...] = ("colocated", "disaggregated"),
    **common,
) -> list[ClusterSweepPoint]:
    """The Figure 18 fleet-scaling grid: large iso-load clusters under the
    load-aware routers (the policies that exercise the incremental load
    counters on every arrival).

    Defaults mirror the fig16 study (arXiv trace at 0.85 QPS per replica) at
    fleet sizes the pre-refactor quadratic event loop could not sweep; the
    nightly job extends ``cluster_sizes`` to 64.
    """
    defaults: dict = dict(
        workload="arxiv",
        qps_per_replica=0.85,
        requests_per_replica=16,
        chunk_size=1024,
        seed=17,
    )
    defaults.update(common)
    return cluster_scaling_grid(
        cluster_sizes=cluster_sizes, routers=routers, topologies=topologies, **defaults
    )


def scenario_cluster_grid(
    scenarios: tuple[str, ...],
    num_replicas: int = 4,
    router: str = "least-tokens",
    topology: str = "colocated",
    requests_per_replica: int = 16,
    seed: int = 0,
    **common,
) -> list[ClusterSweepPoint]:
    """One cluster sweep point per named workload scenario (Figure 17).

    Each scenario keeps its registry arrival process and default per-replica
    load (``ClusterSweepPoint.qps_per_replica`` defaults to the scenario's
    own QPS), so the grid exercises the scenario engine end-to-end through
    the process-parallel sweep runner.
    """
    from repro.workloads.scenario import get_scenario

    qps_override = common.pop("qps_per_replica", None)
    return [
        ClusterSweepPoint(
            num_replicas=num_replicas,
            router=router,
            topology=topology,
            workload=name,
            qps_per_replica=qps_override or get_scenario(name).qps,
            requests_per_replica=requests_per_replica,
            seed=seed,
            **common,
        )
        for name in scenarios
    ]


def figure13_grid(
    context_lengths: tuple[int, ...] = (4096, 8192, 16384),
    decode_batch_sizes: tuple[int, ...] = (32, 64, 128, 192),
    chunk_size: int = 1024,
) -> list[SweepPoint]:
    """(context length × batch size) grid for the CTAs-per-SM sensitivity study."""
    return [
        SweepPoint(context_length=ctx, chunk_size=min(chunk_size, ctx), decode_batch_size=bs)
        for ctx, bs in product(context_lengths, decode_batch_sizes)
    ]
