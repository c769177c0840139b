"""Figure 12: offline serving throughput (requests/minute) for the three models.

vLLM (prefill-prioritising), Sarathi (chunked prefills + hybrid batching, FA
kernels) and Sarathi+POD are compared on long-context requests of 16K prompt
tokens.  Chunk sizes and output lengths follow the paper (512/2K for Yi-6B,
1K/256 for Llama-2-7B, 1K/1K for Llama-3-8B); the request count is scaled down
from 1-2K to 48 per configuration so the whole figure regenerates in minutes.
"""

from __future__ import annotations

from conftest import run_once

from repro.cluster import ClusterSimulator, ColocatedTopology
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.workloads import uniform_workload

NUM_REQUESTS = 48
MODEL_SETTINGS = {
    "Yi-6B": {"chunk_size": 512, "decode_tokens": 2048},
    "Llama-2-7B": {"chunk_size": 1024, "decode_tokens": 256},
    "Llama-3-8B": {"chunk_size": 1024, "decode_tokens": 1024},
}


def _run(deployment, scheduler_factory, backend_builder, decode_tokens):
    requests = uniform_workload(NUM_REQUESTS, prefill_tokens=16384, decode_tokens=decode_tokens)
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=scheduler_factory,
        backend_builder=backend_builder,
    )
    return ClusterSimulator(topology).run(requests).requests_per_minute


def test_figure12(benchmark, yi_deployment, llama2_deployment, llama3_deployment, report):
    table, finish = report(
        "Figure 12: offline serving throughput (requests/minute)",
        "fig12_offline_throughput.csv",
    )
    deployments = {
        "Yi-6B": yi_deployment,
        "Llama-2-7B": llama2_deployment,
        "Llama-3-8B": llama3_deployment,
    }

    def run() -> None:
        for model_name, deployment in deployments.items():
            settings = MODEL_SETTINGS[model_name]
            chunk, decode_tokens = settings["chunk_size"], settings["decode_tokens"]

            def sarathi_scheduler(chunk=chunk):
                return SarathiScheduler(chunk_size=chunk)

            vllm = _run(deployment, VLLMScheduler, FASerialBackend, decode_tokens)
            sarathi = _run(deployment, sarathi_scheduler, FASerialBackend, decode_tokens)
            sarathi_pod = _run(deployment, sarathi_scheduler, PODBackend, decode_tokens)
            table.add_row(
                {
                    "model": model_name,
                    "vLLM_req_per_min": round(vllm, 2),
                    "Sarathi_req_per_min": round(sarathi, 2),
                    "Sarathi+POD_req_per_min": round(sarathi_pod, 2),
                    "POD_vs_Sarathi_pct": round((sarathi_pod / sarathi - 1) * 100, 1),
                    "POD_vs_vLLM_pct": round((sarathi_pod / vllm - 1) * 100, 1),
                }
            )

    run_once(benchmark, run)
    result = finish()
    for row in result.rows:
        # Paper shape: Sarathi+POD delivers the best throughput for every model.
        assert row["Sarathi+POD_req_per_min"] >= row["Sarathi_req_per_min"]
        assert row["POD_vs_Sarathi_pct"] > 0
