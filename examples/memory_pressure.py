"""KV memory pressure: prefix caching and preemption-with-recompute.

Serves the ``shared-prefix-chat`` scenario (chat behind 4 hot system prompts)
at a deliberately constrained KV capacity through four engine configurations
— the flat allocator, preemption only, prefix caching only, and both — and
prints the TTFT / throughput / cache-reuse comparison, then the 4-replica
prefix-affinity routing effect.

Run:  PYTHONPATH=src python examples/memory_pressure.py [capacity_tokens]
"""

from __future__ import annotations

import sys

from repro.bench.pressure_rows import fig19_cluster_row, memory_pressure_simulator
from repro.models.config import paper_deployment
from repro.serving.metrics import compute_memory_pressure

SCENARIO = "shared-prefix-chat"
NUM_REQUESTS = 48
SEED = 19


def main() -> None:
    capacity = int(sys.argv[1]) if len(sys.argv) > 1 else 8192
    deployment = paper_deployment("llama-3-8b")

    print(f"{SCENARIO} x{NUM_REQUESTS} @ {capacity} KV tokens ({deployment.model.name})")
    print(f"{'config':24s} {'req/min':>8s} {'ttft_p50':>9s} {'ttft_p99':>9s} "
          f"{'hit rate':>9s} {'preempts':>9s}")
    for prefix_caching, preemption in ((False, False), (False, True), (True, False), (True, True)):
        simulator = memory_pressure_simulator(deployment, capacity, prefix_caching, preemption)
        result = simulator.run_scenario(SCENARIO, num_requests=NUM_REQUESTS, seed=SEED)
        pressure = compute_memory_pressure(result.requests, result.kv_stats)
        metrics = result.metrics.fleet
        label = (
            f"caching={'on' if prefix_caching else 'off'} "
            f"preempt={'on' if preemption else 'off'}"
        )
        print(
            f"{label:24s} {metrics.requests_per_minute:8.1f} "
            f"{metrics.ttft_p50:9.3f} {metrics.ttft_p99:9.3f} "
            f"{pressure.prefix_hit_rate:9.2f} {pressure.num_preemptions:9d}"
        )

    print("\n4-replica cluster, prefix caching on — router vs fleet hit rate:")
    for router in ("least-tokens", "prefix-affinity"):
        row = fig19_cluster_row(deployment, SCENARIO, router)
        print(
            f"  {router:16s} req/min={row['req_per_min']:8.1f} "
            f"ttft_p99={row['ttft_p99_s']:.3f}s hit_rate={row['prefix_hit_rate']:.3f}"
        )


if __name__ == "__main__":
    main()
