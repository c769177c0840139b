"""Cluster serving example: colocated POD replicas vs P/D disaggregation.

Serves the arXiv-Summarization online trace on a 4-replica Llama-3-8B fleet
(iso-load: 0.85 QPS per replica) under both topologies and three router
policies, printing fleet throughput, latency tails and per-replica
utilization — a miniature of the Figure 16 cluster-scaling benchmark.

Run with:  python examples/cluster_serving.py [num_replicas]
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterSimulator, topology_from_spec
from repro.models import ClusterSpec, paper_deployment
from repro.workloads import build_scenario


def main(num_replicas: int = 4) -> None:
    deployment = paper_deployment("llama-3-8b")
    num_requests = 24 * num_replicas
    qps = 0.85 * num_replicas

    print(
        f"Serving {num_requests} arXiv-trace requests at {qps:.2f} QPS on "
        f"{num_replicas} replicas of {deployment.model.name} "
        f"(TP-{deployment.tensor_parallel}, equal GPU count per topology)"
    )
    print()
    header = (
        f"{'topology':<14} {'router':<14} {'req/min':>8} {'TTFT p50':>9} "
        f"{'TBT p99':>8} {'util':>6} {'KV xfers':>9}"
    )
    print(header)
    print("-" * len(header))
    for topology_name in ("colocated", "disaggregated"):
        if topology_name == "disaggregated" and num_replicas < 2:
            print(f"{topology_name:<14} (skipped: needs at least 2 replicas)")
            continue
        spec = ClusterSpec(deployment, num_replicas=num_replicas, topology=topology_name)
        for router in ("round-robin", "least-tokens", "prefill-aware"):
            requests = build_scenario("arxiv-summarization", num_requests, seed=17, qps=qps)
            simulator = ClusterSimulator(topology_from_spec(spec), router=router)
            metrics = simulator.run(requests).metrics
            fleet = metrics.fleet
            print(
                f"{topology_name:<14} {router:<14} {fleet.requests_per_minute:>8.1f} "
                f"{fleet.ttft_p50:>8.2f}s {fleet.tbt_p99:>7.3f}s "
                f"{metrics.mean_utilization:>6.1%} {metrics.num_kv_transfers:>9d}"
            )
    print()
    print(
        "Colocated POD overlaps prefill and decode inside each GPU; "
        "disaggregation buys clean decode TBT at the cost of KV transfers "
        "and pool imbalance."
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
