"""Workload scenario tour: the registry, a sweep and per-tenant SLOs.

Lists the ``repro.workloads`` scenario registry, serves each scenario on a
single Sarathi+POD replica, and finishes with the multi-tenant SLO scenario
sliced per tenant (TTFT/TBT attainment against each tenant's SLO class) —
a miniature of the Figure 17 scenario-sweep benchmark.

Run with:  python examples/scenario_sweep.py [num_requests]
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.models import paper_deployment
from repro.serving import PODBackend, SarathiScheduler
from repro.serving.metrics import compute_tenant_metrics, slo_attainment
from repro.workloads import SCENARIOS, build_scenario, get_scenario, scenario_table


def sarathi_pod(deployment) -> ClusterSimulator:
    """A fresh single Sarathi+POD replica (chunk 1024)."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        backend_builder=PODBackend,
    )
    return ClusterSimulator(topology)


def main(num_requests: int = 24) -> None:
    deployment = paper_deployment("llama-3-8b")

    print("Scenario registry (repro.workloads.SCENARIOS):")
    header = f"{'scenario':<26} {'arrival':<12} {'qps':>5}  shape mix"
    print(header)
    print("-" * len(header))
    for row in scenario_table():
        print(f"{row['scenario']:<26} {row['arrival']:<12} {row['qps']:>5}  {row['shape_mix']}")
    print()

    print(f"Serving {num_requests} requests per scenario (Sarathi+POD, chunk 1024):")
    header = f"{'scenario':<26} {'req/min':>8} {'TTFT p50':>9} {'TBT p99':>8} {'stalls':>7}"
    print(header)
    print("-" * len(header))
    for name in SCENARIOS:
        simulator = sarathi_pod(deployment)
        trace = build_scenario(name, num_requests=num_requests, seed=7)
        metrics = simulator.run(trace).metrics.fleet
        print(
            f"{name:<26} {metrics.requests_per_minute:>8.1f} {metrics.ttft_p50:>8.2f}s "
            f"{metrics.tbt_p99:>7.3f}s {metrics.stall_fraction_200ms:>6.1%}"
        )
    print()

    scenario = get_scenario("multi-tenant-slo")
    simulator = sarathi_pod(deployment)
    result = simulator.run(build_scenario(scenario.name, num_requests=num_requests * 2, seed=7))
    sliced = compute_tenant_metrics(result.requests, makespan=result.makespan)
    print(f"Per-tenant SLO attainment ({scenario.name}, {num_requests * 2} requests):")
    header = (
        f"{'tenant':<12} {'SLO class':<12} {'reqs':>5} {'TTFT p99':>9} "
        f"{'TBT p99':>8} {'attained':>9}"
    )
    print(header)
    print("-" * len(header))
    for tenant, slo in scenario.slo_targets().items():
        if tenant not in sliced:
            continue
        metrics = sliced[tenant]
        attained = slo_attainment(
            [r for r in result.requests if r.tenant == tenant],
            slo.ttft_target_s,
            slo.tbt_target_s,
        )
        print(
            f"{tenant:<12} {slo.name:<12} {metrics.num_requests:>5d} "
            f"{metrics.ttft_p99:>8.2f}s {metrics.tbt_p99:>7.3f}s {attained:>9.1%}"
        )
    print()
    print(
        "Interactive tenants are held to tight TTFT/TBT targets while batch "
        "tenants absorb the queueing — the slicing that makes one fleet "
        "serve many applications."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 24)
