"""Figure 15: throughput of Sarathi vs Sarathi+POD under varying P:D token ratios.

Offline serving of requests with ~16.5K total tokens whose prefill:decode
ratio sweeps from 8 (decode-bound) to 24 (prefill-bound); the gains of POD are
largest in the balanced middle where most iterations are hybrid.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.workloads import pd_ratio_workload

PD_RATIOS = (8, 12, 16, 20, 24)
TOTAL_TOKENS = 16_500
NUM_REQUESTS = 32
CHUNK_SIZE = 1024


def _throughput(deployment, backend_builder, pd_ratio):
    requests = pd_ratio_workload(NUM_REQUESTS, total_tokens=TOTAL_TOKENS, pd_ratio=pd_ratio)
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=CHUNK_SIZE),
        backend_builder=backend_builder,
    )
    metrics = ClusterSimulator(topology).run(requests).metrics.fleet
    return metrics.requests_per_minute, metrics.hybrid_iteration_fraction


def test_figure15(benchmark, llama3_deployment, report):
    table, finish = report(
        "Figure 15: throughput vs P:D token ratio (Llama-3-8B, ~16.5K tokens/request)",
        "fig15_pd_ratio.csv",
    )

    def run() -> None:
        for pd_ratio in PD_RATIOS:
            sarathi, hybrid_fraction = _throughput(llama3_deployment, FASerialBackend, pd_ratio)
            sarathi_pod, _ = _throughput(llama3_deployment, PODBackend, pd_ratio)
            table.add_row(
                {
                    "pd_ratio": pd_ratio,
                    "Sarathi_req_per_min": round(sarathi, 2),
                    "Sarathi+POD_req_per_min": round(sarathi_pod, 2),
                    "gain_pct": round((sarathi_pod / sarathi - 1) * 100, 1),
                    "hybrid_iteration_pct": round(hybrid_fraction * 100, 1),
                }
            )

    run_once(benchmark, run)
    result = finish()
    gains = {row["pd_ratio"]: row["gain_pct"] for row in result.rows}
    # POD never hurts, delivers a real gain somewhere in the sweep, and the
    # prefill-bound extreme (P:D 24, few hybrid iterations) benefits least.
    assert all(gain >= -1.0 for gain in gains.values())
    assert max(gains.values()) >= 5.0
    assert gains[24] <= max(gains.values())
