"""Figure 17 (beyond the paper): workload-scenario sweep.

Runs every scenario in the ``repro.workloads`` registry — the two paper
traces plus long-context summarization, diurnal chat, bursty RAG, a code
completion surge and a multi-tenant SLO mix — through three serving systems
(vLLM, Sarathi, Sarathi+POD) on a single replica, and through a 4-replica
colocated Sarathi+POD cluster via the process-parallel sweep runner.  Rows
are persisted as both CSV and JSON under ``results/``.

Scenario builds are pure functions of (name, num_requests, seed, qps): the
sweep re-runs one scenario and asserts its metric rows come back identical.
"""

from __future__ import annotations

import json

from conftest import run_once

from repro.bench.reporting import default_results_dir
from repro.bench.scenario_rows import (
    FIG17_CHUNK_SIZE as CHUNK_SIZE,
    FIG17_NUM_REQUESTS as NUM_REQUESTS,
    FIG17_SCENARIOS,
    FIG17_SEED as SEED,
    FIG17_SYSTEMS,
    scenario_cluster_row,
    scenario_single_replica_row,
    scenario_system_simulator,
)
from repro.bench.sweeps import scenario_cluster_grid
from repro.cluster.sweep import run_cluster_sweep
from repro.serving.metrics import compute_tenant_metrics, slo_attainment
from repro.workloads import SCENARIOS, build_scenario, get_scenario

# Pinned scenario list: fig19 covers the newer memory-pressure scenarios.
SCENARIO_NAMES = FIG17_SCENARIOS
assert set(SCENARIO_NAMES) <= set(SCENARIOS)
CLUSTER_REPLICAS = 4
REQUESTS_PER_REPLICA = 12


def _single_replica_row(deployment, scenario_name: str, system: str) -> dict:
    return scenario_single_replica_row(deployment, scenario_name, system)


def test_figure17(benchmark, llama3_deployment, report):
    table, finish = report(
        "Figure 17: scenario sweep, workloads x systems, single replica + 4-replica cluster",
        "fig17_scenario_sweep.csv",
    )

    def run() -> None:
        for scenario_name in SCENARIO_NAMES:
            for system in FIG17_SYSTEMS:
                table.add_row(_single_replica_row(llama3_deployment, scenario_name, system))
        cluster_rows = run_cluster_sweep(
            scenario_cluster_grid(
                SCENARIO_NAMES,
                num_replicas=CLUSTER_REPLICAS,
                requests_per_replica=REQUESTS_PER_REPLICA,
                chunk_size=CHUNK_SIZE,
                seed=SEED,
            ),
            max_workers=4,
        )
        for row in cluster_rows:
            table.add_row(scenario_cluster_row(row, CLUSTER_REPLICAS))

    run_once(benchmark, run)
    result = finish()
    result.save_json(default_results_dir() / "fig17_scenario_sweep.json")

    assert len(SCENARIO_NAMES) >= 5
    assert len(result.rows) == len(SCENARIO_NAMES) * 3 + len(SCENARIO_NAMES)
    assert all(row["req_per_min"] > 0 for row in result.rows)

    by_key = {(row["scenario"], row["mode"], row["system"]): row for row in result.rows}

    # Same scenario + seed => byte-identical metric rows (scenario builds and
    # the simulator are both deterministic).
    for scenario_name in (SCENARIO_NAMES[0], "multi-tenant-slo"):
        rerun = _single_replica_row(llama3_deployment, scenario_name, "Sarathi+POD")
        assert rerun == by_key[(scenario_name, "single", "Sarathi+POD")]

    # The 4-replica fleet at 4x offered load clearly out-serves one replica.
    for scenario_name in SCENARIO_NAMES:
        single = by_key[(scenario_name, "single", "Sarathi+POD")]
        fleet = by_key[(scenario_name, f"cluster-x{CLUSTER_REPLICAS}", "Sarathi+POD")]
        assert fleet["req_per_min"] > single["req_per_min"] * 1.5

    # Shape sanity: decode-bound chat sustains far more requests/minute than
    # the prefill-bound RAG and long-document mixes on the same hardware.
    chat = by_key[("short-chat-diurnal", "single", "Sarathi+POD")]
    rag = by_key[("rag-burst", "single", "Sarathi+POD")]
    longsum = by_key[("long-summarization-burst", "single", "Sarathi+POD")]
    assert chat["req_per_min"] > 3 * rag["req_per_min"]
    assert chat["req_per_min"] > 3 * longsum["req_per_min"]

    # Per-tenant slicing: the multi-tenant scenario decomposes exactly.
    pod = scenario_system_simulator(llama3_deployment, "Sarathi+POD")
    mt = pod.run(build_scenario("multi-tenant-slo", num_requests=NUM_REQUESTS, seed=SEED))
    tenant_metrics = compute_tenant_metrics(mt.requests, makespan=mt.makespan)
    assert sum(m.num_requests for m in tenant_metrics.values()) == NUM_REQUESTS
    targets = get_scenario("multi-tenant-slo").slo_targets()
    assert set(tenant_metrics) <= set(targets)
    for tenant, slo in targets.items():
        if tenant in tenant_metrics:
            attainment = slo_attainment(
                [r for r in mt.requests if r.tenant == tenant],
                slo.ttft_target_s,
                slo.tbt_target_s,
            )
            assert 0.0 <= attainment <= 1.0


def test_figure17_json_artifact():
    """The JSON artifact mirrors the CSV rows (written by test_figure17)."""
    path = default_results_dir() / "fig17_scenario_sweep.json"
    assert path.exists(), "run test_figure17 first (pytest runs files in order)"
    payload = json.loads(path.read_text())
    assert payload["rows"], "fig17 JSON artifact has no rows"
    assert {"scenario", "mode", "system", "req_per_min"} <= set(payload["columns"])
