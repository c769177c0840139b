"""Figure 18 (beyond the paper): fleet-scale cluster scaling.

Extends the fig16 study to the fleet sizes the pre-refactor cluster loop
could not sweep: 8/16/32 replicas (64 in the nightly job, see
``REPRO_FIG18_NIGHTLY``) × the two load-aware routers × both topologies on
the Table 6 arXiv workload at iso-load.  The load-aware routers are chosen
deliberately — they take a load snapshot on **every** arrival, which is the
path the incremental load counters and the ready-time heap de-quadraticized
(a 32-replica point runs ≥ 3× faster than with the scan-based loop; measured
numbers in the README "Fleet scaling" section).

Expected shape, as in fig16 but at scale:

* fleet throughput keeps scaling with replica count under iso-load;
* colocated POD keeps the throughput edge at equal GPU count while
  disaggregation wins tail TBT;
* only the disaggregated topology pays for KV transfers.

Rows are persisted as CSV and JSON under ``results/`` and gated by
``python -m repro diff`` in CI.
"""

from __future__ import annotations

import os

from conftest import run_once

from repro.bench.reporting import default_results_dir
from repro.bench.sweeps import fleet_scaling_grid
from repro.cluster.sweep import run_cluster_sweep

FLEET_SIZES = (8, 16, 32)
#: The 64-replica point roughly doubles the job's simulation work, so it runs
#: only in the nightly schedule.  The committed baseline holds the default
#: sizes, so the nightly table goes to its own ``*_nightly`` files.
NIGHTLY_FLEET_SIZES = (64,)
ROUTERS = ("least-tokens", "prefill-aware")
TOPOLOGIES = ("colocated", "disaggregated")


def fleet_sizes() -> tuple[int, ...]:
    if os.environ.get("REPRO_FIG18_NIGHTLY"):
        return FLEET_SIZES + NIGHTLY_FLEET_SIZES
    return FLEET_SIZES


def artifact_stem() -> str:
    """The ``results/`` file stem: only the default sweep writes the committed table."""
    if fleet_sizes() == FLEET_SIZES:
        return "fig18_fleet_scaling"
    return "fig18_fleet_scaling_nightly"


def test_figure18(benchmark, report):
    sizes = fleet_sizes()
    stem = artifact_stem()
    table, finish = report(
        "Figure 18: fleet scaling, router x topology x 8-64 replicas (Llama-3-8B, arXiv trace)",
        f"{stem}.csv",
    )

    def run() -> None:
        grid = fleet_scaling_grid(
            cluster_sizes=sizes, routers=ROUTERS, topologies=TOPOLOGIES
        )
        table.add_rows(run_cluster_sweep(grid, max_workers=4))

    run_once(benchmark, run)
    result = finish()
    result.save_json(default_results_dir() / f"{stem}.json")

    assert len(result.rows) == len(sizes) * len(ROUTERS) * len(TOPOLOGIES)
    by_key = {(row["topology"], row["router"], row["replicas"]): row for row in result.rows}

    for row in result.rows:
        assert row["req_per_min"] > 0
        assert 0 < row["util_mean"] <= 1.0

    for topology in TOPOLOGIES:
        for router in ROUTERS:
            small = by_key[(topology, router, sizes[0])]
            large = by_key[(topology, router, sizes[-1])]
            # Iso-load scaling across a 4x (8x nightly) size range: the drain
            # tail grows with the fleet, but throughput must keep climbing.
            assert large["req_per_min"] > small["req_per_min"] * 1.5

    for size in sizes:
        for router in ROUTERS:
            colocated = by_key[("colocated", router, size)]
            disaggregated = by_key[("disaggregated", router, size)]
            assert colocated["kv_transfers"] == 0
            assert disaggregated["kv_transfers"] > 0
            # Colocated POD keeps the throughput edge at equal GPU count.
            assert colocated["req_per_min"] >= disaggregated["req_per_min"] * 0.9
