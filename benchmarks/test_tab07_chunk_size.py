"""Table 7: TTFT/TBT of Sarathi+POD at different chunk sizes vs vLLM.

Internal workload at QPS 1.1 (Llama-3-8B); chunk sizes 1024 / 1536 / 2048
navigate the TTFT-vs-TBT trade-off.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.workloads import build_scenario

NUM_REQUESTS = 128
QPS = 1.1
CHUNK_SIZES = (1024, 1536, 2048)


def _metrics(deployment, scheduler_factory, backend_builder):
    requests = build_scenario("enterprise-internal", NUM_REQUESTS, seed=5, qps=QPS)
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=scheduler_factory,
        backend_builder=backend_builder,
    )
    return ClusterSimulator(topology).run(requests).metrics.fleet


def test_table7(benchmark, llama3_deployment, report):
    table, finish = report(
        "Table 7: chunk-size sensitivity of Sarathi+POD vs vLLM (internal workload, QPS 1.1)",
        "tab07_chunk_size.csv",
    )

    def run() -> None:
        vllm = _metrics(llama3_deployment, VLLMScheduler, FASerialBackend)
        table.add_row(
            {
                "system": "vLLM (original)",
                "ttft_p50_s": round(vllm.ttft_p50, 2),
                "ttft_p99_s": round(vllm.ttft_p99, 2),
                "tbt_p50_s": round(vllm.tbt_p50, 3),
                "tbt_p99_s": round(vllm.tbt_p99, 3),
            }
        )
        for chunk_size in CHUNK_SIZES:
            metrics = _metrics(
                llama3_deployment,
                lambda chunk_size=chunk_size: SarathiScheduler(chunk_size=chunk_size),
                PODBackend,
            )
            table.add_row(
                {
                    "system": f"Sarathi+POD (chunk {chunk_size})",
                    "ttft_p50_s": round(metrics.ttft_p50, 2),
                    "ttft_p99_s": round(metrics.ttft_p99, 2),
                    "tbt_p50_s": round(metrics.tbt_p50, 3),
                    "tbt_p99_s": round(metrics.tbt_p99, 3),
                }
            )

    run_once(benchmark, run)
    result = finish()
    pod_rows = [row for row in result.rows if row["system"].startswith("Sarathi+POD")]
    # Larger chunks lower TTFT at the cost of higher per-iteration (tail TBT) latency.
    assert pod_rows[-1]["ttft_p50_s"] <= pod_rows[0]["ttft_p50_s"] * 1.05
    assert pod_rows[-1]["tbt_p99_s"] >= pod_rows[0]["tbt_p99_s"] * 0.95
