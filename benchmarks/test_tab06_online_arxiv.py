"""Table 6: online serving latency on the arXiv-Summarization workload.

Llama-3-8B (TP-2), Poisson arrivals at QPS 0.85 and 0.95, chunk size 1024 for
the Sarathi configurations (the paper's setting for this workload).
"""

from __future__ import annotations

from conftest import run_once

from test_tab05_online_internal import run_online_table

QPS_LEVELS = (0.85, 0.95)
CHUNK_SIZE = 1024


def test_table6(benchmark, llama3_deployment, report):
    table, finish = report(
        "Table 6: arXiv-Summarization workload, online latency (Llama-3-8B)",
        "tab06_online_arxiv.csv",
    )

    def run() -> None:
        table.add_rows(
            run_online_table(
                llama3_deployment,
                "arxiv",
                QPS_LEVELS,
                CHUNK_SIZE,
                workload_seed=17,
                scenario="arxiv-summarization",
            )
        )

    run_once(benchmark, run)
    result = finish()
    by_key = {(row["qps"], row["system"]): row for row in result.rows}
    for qps in QPS_LEVELS:
        vllm = by_key[(qps, "vLLM")]
        sarathi = by_key[(qps, "Sarathi")]
        pod = by_key[(qps, "Sarathi+POD")]
        assert vllm["stalls_200ms_pct"] >= sarathi["stalls_200ms_pct"]
        assert pod["latency_p50_s"] <= sarathi["latency_p50_s"] * 1.02
        assert pod["tbt_p99_s"] <= sarathi["tbt_p99_s"] * 1.05
