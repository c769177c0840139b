"""Online serving example: latency under Poisson load (Tables 5/6 in miniature).

Replays a scaled-down version of the paper's internal enterprise workload at a
configurable arrival rate and prints TTFT / TBT / end-to-end latency
percentiles plus stall statistics for vLLM, Sarathi and Sarathi+POD.

Run with:  python examples/online_latency.py [qps] [num_requests]
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.models import paper_deployment
from repro.serving import FASerialBackend, PODBackend, SarathiScheduler, VLLMScheduler
from repro.workloads import InternalShape, build_scenario, describe_workload


def main(qps: float = 1.1, num_requests: int = 64) -> None:
    deployment = paper_deployment("llama-3-8b")
    stats = describe_workload(InternalShape().build(num_requests, seed=0))
    print(f"Workload: {stats.as_dict()}")
    print(f"Arrival rate: {qps} requests/s (Poisson)")
    print()

    def sarathi() -> SarathiScheduler:
        return SarathiScheduler(chunk_size=1536)

    systems = {
        "vLLM (original)": (VLLMScheduler, FASerialBackend),
        "Sarathi": (sarathi, FASerialBackend),
        "Sarathi+POD": (sarathi, PODBackend),
    }
    header = (
        f"{'system':<18} {'TTFT p50/p99 (s)':>18} {'TBT p50/p99 (s)':>18} "
        f"{'latency p99 (s)':>16} {'stalls>200ms':>13}"
    )
    print(header)
    for name, (scheduler, backend) in systems.items():
        requests = build_scenario("enterprise-internal", num_requests, seed=0, qps=qps)
        topology = ColocatedTopology(
            deployment, num_replicas=1, scheduler_factory=scheduler, backend_builder=backend
        )
        metrics = ClusterSimulator(topology).run(requests).metrics.fleet
        print(
            f"{name:<18} {metrics.ttft_p50:>8.2f}/{metrics.ttft_p99:<8.2f} "
            f"{metrics.tbt_p50:>8.3f}/{metrics.tbt_p99:<8.3f} "
            f"{metrics.latency_p99:>15.2f} {metrics.stall_fraction_200ms:>12.1%}"
        )


if __name__ == "__main__":
    qps = float(sys.argv[1]) if len(sys.argv) > 1 else 1.1
    count = int(sys.argv[2]) if len(sys.argv) > 2 else 64
    main(qps, count)
