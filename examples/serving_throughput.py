"""Offline serving example: vLLM vs Sarathi vs Sarathi+POD throughput.

Serves a batch of long-context requests (16K prompt, 1K output) through the
three serving configurations the paper compares in Figure 12 and prints the
throughput and latency summary of each.

Run with:  python examples/serving_throughput.py [num_requests]
"""

from __future__ import annotations

import sys

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.models import paper_deployment
from repro.serving import FASerialBackend, PODBackend, SarathiScheduler, VLLMScheduler
from repro.workloads import uniform_workload


def sarathi() -> SarathiScheduler:
    return SarathiScheduler(chunk_size=1024)


def main(num_requests: int = 24) -> None:
    deployment = paper_deployment("llama-3-8b")
    systems = {
        "vLLM (original)": (VLLMScheduler, FASerialBackend),
        "Sarathi": (sarathi, FASerialBackend),
        "Sarathi+POD": (sarathi, PODBackend),
    }

    print(f"Serving {num_requests} requests of 16K prompt + 1K output tokens "
          f"({deployment.model.name}, TP-{deployment.tensor_parallel})")
    print()
    print(
        f"{'system':<18} {'req/min':>8} {'TTFT p50 (s)':>13} "
        f"{'TBT p99 (s)':>12} {'stalls>200ms':>13}"
    )
    for name, (scheduler, backend) in systems.items():
        requests = uniform_workload(num_requests, prefill_tokens=16384, decode_tokens=1024)
        topology = ColocatedTopology(
            deployment, num_replicas=1, scheduler_factory=scheduler, backend_builder=backend
        )
        metrics = ClusterSimulator(topology).run(requests).metrics.fleet
        print(
            f"{name:<18} {metrics.requests_per_minute:>8.2f} {metrics.ttft_p50:>13.2f} "
            f"{metrics.tbt_p99:>12.3f} {metrics.stall_fraction_200ms:>12.1%}"
        )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 24)
