"""Table 5: online serving latency on the internal enterprise workload.

Llama-3-8B (TP-2), Poisson arrivals at QPS 1.1 and 1.2, chunk size 1536 for
the Sarathi configurations.  The request count is scaled down from 2048 to 160
per run so the table regenerates in seconds; metrics reported are TTFT/TBT/request
latency P50/P99 and the fraction of requests with at least one 200 ms / 500 ms
generation stall.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.workloads import build_scenario

NUM_REQUESTS = 160
CHUNK_SIZE = 1536
QPS_LEVELS = (1.1, 1.2)


def _simulate(deployment, scheduler_factory, backend_builder, qps, seed, scenario):
    requests = build_scenario(scenario, NUM_REQUESTS, seed=seed, qps=qps)
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=scheduler_factory,
        backend_builder=backend_builder,
    )
    return ClusterSimulator(topology).run(requests).metrics.fleet


def run_online_table(
    deployment,
    workload_label,
    qps_levels,
    chunk_size,
    workload_seed=0,
    scenario="enterprise-internal",
):
    """Shared driver for Tables 5 and 6."""

    def sarathi():
        return SarathiScheduler(chunk_size=chunk_size)

    systems = {
        "vLLM": (VLLMScheduler, FASerialBackend),
        "Sarathi": (sarathi, FASerialBackend),
        "Sarathi+POD": (sarathi, PODBackend),
    }
    rows = []
    for qps in qps_levels:
        for system, (scheduler, backend) in systems.items():
            metrics = _simulate(deployment, scheduler, backend, qps, workload_seed, scenario)
            rows.append(
                {
                    "workload": workload_label,
                    "qps": qps,
                    "system": system,
                    "ttft_p50_s": round(metrics.ttft_p50, 2),
                    "ttft_p99_s": round(metrics.ttft_p99, 2),
                    "tbt_p50_s": round(metrics.tbt_p50, 3),
                    "tbt_p99_s": round(metrics.tbt_p99, 3),
                    "latency_p50_s": round(metrics.latency_p50, 2),
                    "latency_p99_s": round(metrics.latency_p99, 2),
                    "stalls_200ms_pct": round(metrics.stall_fraction_200ms * 100, 1),
                    "stalls_500ms_pct": round(metrics.stall_fraction_500ms * 100, 1),
                }
            )
    return rows


def test_table5(benchmark, llama3_deployment, report):
    table, finish = report(
        "Table 5: internal workload, online latency (Llama-3-8B)",
        "tab05_online_internal.csv",
    )

    def run() -> None:
        table.add_rows(
            run_online_table(
                llama3_deployment, "internal", QPS_LEVELS, CHUNK_SIZE, workload_seed=0
            )
        )

    run_once(benchmark, run)
    result = finish()
    by_key = {(row["qps"], row["system"]): row for row in result.rows}
    for qps in QPS_LEVELS:
        vllm = by_key[(qps, "vLLM")]
        sarathi = by_key[(qps, "Sarathi")]
        pod = by_key[(qps, "Sarathi+POD")]
        # Paper shape: vLLM stalls nearly every request, Sarathi eliminates the
        # stalls at the cost of TTFT, and POD improves Sarathi across the board.
        assert vllm["stalls_200ms_pct"] > sarathi["stalls_200ms_pct"]
        assert pod["ttft_p50_s"] <= sarathi["ttft_p50_s"] * 1.02
        assert pod["latency_p99_s"] <= sarathi["latency_p99_s"] * 1.02
