"""Capacity planner: search fleet configurations against SLO targets by cost.

The paper's fig15 P/D-ratio analysis hand-picks a few homogeneous fleets and
compares them.  This module turns that analysis into an automated optimizer:
given a workload scenario and latency SLOs, :func:`capacity_plan` sweeps a
configuration grid —

    fleet size × topology × prefill/decode pool ratio × chunk size ×
    router policy × replica hardware mix (GPU generations, spot pricing)

— simulates every candidate through the shared
:func:`repro.workloads.scenario.run_scenario` entry point, marks each
feasible or infeasible against the SLO targets, and ranks the feasible ones
by dollars (run cost, then $/1k tokens).  The cheapest feasible candidate is
the capacity plan.

Everything is deterministic: the grid is enumerated in a fixed nested order,
every simulation is seeded, and no wall-clock or RNG is consulted — the same
:class:`PlannerConfig` always yields the same plan (pinned by test and by the
fig21 benchmark baselines).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.cluster.metrics import ClusterMetrics
from repro.models.config import ClusterSpec, ReplicaSpec, replica_specs_from_mix
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class PlannerConfig:
    """One capacity-planning question: workload + SLOs + search grid.

    The grid axes are tuples; the planner enumerates their cartesian product
    in field order.  ``replica_mixes`` entries use the compact mix syntax of
    :func:`repro.models.config.replica_specs_from_mix` (``"a100"``,
    ``"a100:2+a6000:2"``, trailing ``~`` = spot); a mix pattern is tiled
    cyclically up to each fleet size.  ``prefill_fractions`` only applies to
    disaggregated candidates (colocated fleets have no pools).
    """

    scenario: str = "shared-prefix-chat"
    model: str = "llama-3-8b"
    num_requests: int = 64
    seed: int = 0
    #: Total offered QPS; ``None`` keeps the scenario's default rate.
    qps: float | None = None
    # -- search grid ------------------------------------------------------
    replica_counts: tuple[int, ...] = (2, 4)
    topologies: tuple[str, ...] = ("colocated",)
    prefill_fractions: tuple[float, ...] = (0.5,)
    chunk_sizes: tuple[int, ...] = (1024,)
    routers: tuple[str, ...] = ("least-tokens",)
    replica_mixes: tuple[str, ...] = ("a100",)
    # -- SLO targets (feasibility gate) -----------------------------------
    ttft_p99_target_s: float = 2.0
    tbt_p99_target_s: float = 0.2
    #: Optional end-to-end p99 latency gate; ``None`` = not enforced.
    latency_p99_target_s: float | None = None

    def __post_init__(self) -> None:
        check_positive("num_requests", self.num_requests)
        check_positive("ttft_p99_target_s", self.ttft_p99_target_s)
        check_positive("tbt_p99_target_s", self.tbt_p99_target_s)
        for name in ("replica_counts", "topologies", "prefill_fractions",
                     "chunk_sizes", "routers", "replica_mixes"):
            if not getattr(self, name):
                raise ValueError(f"planner grid axis {name!r} must be non-empty")
        for count in self.replica_counts:
            check_positive("replica_counts entry", count)
        for fraction in self.prefill_fractions:
            if not 0.0 < fraction < 1.0:
                raise ValueError(
                    f"prefill_fractions entries must be in (0, 1), got {fraction}"
                )


@dataclass(frozen=True)
class PlanCandidate:
    """One evaluated grid point: configuration, metrics, feasibility."""

    replicas: int
    topology: str
    prefill_replicas: int
    chunk_size: int
    router: str
    mix: str
    metrics: ClusterMetrics = field(repr=False)
    feasible: bool = False
    violations: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        pools = f" p{self.prefill_replicas}" if self.topology == "disaggregated" else ""
        return (
            f"{self.mix} x{self.replicas} {self.topology}{pools} "
            f"chunk{self.chunk_size} {self.router}"
        )

    def row(self) -> dict[str, Any]:
        """Flat configuration + performance + economics row (CSV/JSON)."""
        fleet = self.metrics.fleet
        return {
            "mix": self.mix,
            "replicas": self.replicas,
            "topology": self.topology,
            "prefill_replicas": self.prefill_replicas,
            "chunk": self.chunk_size,
            "router": self.router,
            "feasible": int(self.feasible),
            "violations": ";".join(self.violations),
            "req_per_min": round(fleet.requests_per_minute, 2),
            "ttft_p99_s": round(fleet.ttft_p99, 3),
            "tbt_p99_s": round(fleet.tbt_p99, 4),
            "latency_p99_s": round(fleet.latency_p99, 2),
            "cost_usd": round(self.metrics.cost_usd, 6),
            "usd_per_1k_tokens": round(self.metrics.usd_per_1k_tokens, 6),
            "fleet_usd_per_hour": round(self.metrics.fleet_cost_per_hour, 2),
        }


@dataclass(frozen=True)
class PlanResult:
    """Every candidate (grid order) plus the cost-optimal feasible pick."""

    config: PlannerConfig
    candidates: tuple[PlanCandidate, ...]

    @property
    def feasible(self) -> tuple[PlanCandidate, ...]:
        return tuple(c for c in self.candidates if c.feasible)

    @property
    def best(self) -> PlanCandidate | None:
        """Cheapest feasible candidate (run dollars, then $/1k tokens, then
        grid order); ``None`` when nothing meets the SLOs."""
        feasible = self.feasible
        if not feasible:
            return None
        indexed = {id(c): i for i, c in enumerate(self.candidates)}
        return min(
            feasible,
            key=lambda c: (c.metrics.cost_usd, c.metrics.usd_per_1k_tokens, indexed[id(c)]),
        )

    def rows(self) -> list[dict[str, Any]]:
        return [candidate.row() for candidate in self.candidates]

    def summary(self) -> dict[str, Any]:
        best = self.best
        return {
            "scenario": self.config.scenario,
            "candidates": len(self.candidates),
            "feasible": len(self.feasible),
            "best": best.label if best is not None else None,
            "best_cost_usd": round(best.metrics.cost_usd, 6) if best is not None else None,
        }


def _mix_specs(mix: str, count: int, model: str) -> tuple[ReplicaSpec, ...]:
    """Tile a mix pattern cyclically up to ``count`` replicas."""
    pattern = replica_specs_from_mix(mix, model=model)
    return tuple(pattern[i % len(pattern)] for i in range(count))


def _grid(config: PlannerConfig) -> Iterator[tuple[int, str, int, int, str, str]]:
    """Deterministic nested enumeration of the search grid.

    Yields ``(replicas, topology, prefill_replicas, chunk, router, mix)``.
    Colocated candidates collapse the prefill-fraction axis (no pools);
    disaggregated candidates need at least two replicas and at least one
    replica in each pool.
    """
    for count in config.replica_counts:
        for topology in config.topologies:
            if topology == "colocated":
                pool_sizes = [0]
            else:
                if count < 2:
                    continue
                seen: list[int] = []
                for fraction in config.prefill_fractions:
                    size = min(max(1, round(count * fraction)), count - 1)
                    if size not in seen:
                        seen.append(size)
                pool_sizes = seen
            for prefill in pool_sizes:
                for chunk in config.chunk_sizes:
                    for router in config.routers:
                        for mix in config.replica_mixes:
                            yield count, topology, prefill, chunk, router, mix


def _violations(config: PlannerConfig, metrics: ClusterMetrics) -> tuple[str, ...]:
    fleet = metrics.fleet
    out: list[str] = []
    if fleet.ttft_p99 > config.ttft_p99_target_s:
        out.append(f"ttft_p99 {fleet.ttft_p99:.3f}s > {config.ttft_p99_target_s:g}s")
    if fleet.tbt_p99 > config.tbt_p99_target_s:
        out.append(f"tbt_p99 {fleet.tbt_p99:.4f}s > {config.tbt_p99_target_s:g}s")
    if (
        config.latency_p99_target_s is not None
        and fleet.latency_p99 > config.latency_p99_target_s
    ):
        out.append(
            f"latency_p99 {fleet.latency_p99:.2f}s > {config.latency_p99_target_s:g}s"
        )
    return tuple(out)


def capacity_plan(config: PlannerConfig) -> PlanResult:
    """Evaluate the whole grid and return every candidate plus the best pick.

    Each candidate is one seeded cluster simulation of the configured
    scenario on a fleet built from the candidate's mix — heterogeneous specs
    route through the same :class:`~repro.models.config.ClusterSpec` /
    :func:`~repro.cluster.topology.topology_from_spec` path as any user
    fleet, so planner numbers are real simulator numbers.
    """
    from repro.workloads.scenario import run_scenario

    candidates: list[PlanCandidate] = []
    for count, topology, prefill, chunk, router, mix in _grid(config):
        spec = ClusterSpec(
            replicas=_mix_specs(mix, count, config.model),
            topology=topology,
            prefill_replicas=prefill,
        )
        result = run_scenario(
            config.scenario,
            num_requests=config.num_requests,
            seed=config.seed,
            qps=config.qps,
            spec=spec,
            router=router,
            chunk_size=chunk,
        )
        violations = _violations(config, result.metrics)
        candidates.append(
            PlanCandidate(
                replicas=count,
                topology=topology,
                prefill_replicas=prefill,
                chunk_size=chunk,
                router=router,
                mix=mix,
                metrics=result.metrics,
                feasible=not violations,
                violations=violations,
            )
        )
    return PlanResult(config=config, candidates=tuple(candidates))
