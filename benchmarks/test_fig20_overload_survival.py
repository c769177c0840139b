"""Figure 20 (beyond the paper): overload survival under elastic control.

Sweeps surge magnitude (1.5x / 3x / 5x the base rate) x control policy
(static fleet, queue-depth autoscaling, SLO-tiered load shedding, both) on
the ``surge-multi-tenant`` scenario — tiered chat/RAG/batch tenants hit by a
mid-trace load surge.  Rows are persisted as CSV and JSON under ``results/``
and gated by ``repro.bench.regression`` like every artifact.

The sweep pins the control plane's headline claims:

* Offered-traffic SLO attainment is the honest score: shedding lowers the
  batch tier's attainment (those requests count as misses) while *raising*
  the interactive tier's above the no-control baseline during the surge —
  load shedding buys latency for the traffic that values it.
* Autoscaling restores attainment across every tier but pays for it in
  replica-seconds; the static fleet is the cheap floor, the elastic fleet
  the expensive ceiling, and shed-only survives the surge at the lowest
  cost of all (it does strictly less work).
* The historical finished-only attainment over-states shed policies —
  committed here so the gaming margin stays visible in the artifact.
"""

from __future__ import annotations

import json

from conftest import run_once

from repro.bench.control_rows import (
    FIG20_POLICIES,
    FIG20_SURGE_FACTORS,
    fig20_row,
    fig20_surge_factors,
)
from repro.bench.reporting import default_results_dir


def artifact_stem() -> str:
    """The ``results/`` file stem: only the default sweep writes the committed table."""
    if fig20_surge_factors() == FIG20_SURGE_FACTORS:
        return "fig20_overload_survival"
    return "fig20_overload_survival_nightly"


def test_figure20(benchmark, llama3_deployment, report):
    surge_factors = fig20_surge_factors()
    table, finish = report(
        "Figure 20: overload survival — surge magnitude x control policy",
        f"{artifact_stem()}.csv",
    )

    def run() -> None:
        for surge_factor in surge_factors:
            for policy in FIG20_POLICIES:
                table.add_row(fig20_row(llama3_deployment, surge_factor, policy))

    run_once(benchmark, run)
    result = finish()
    result.save_json(default_results_dir() / f"{artifact_stem()}.json")

    assert len(result.rows) == len(surge_factors) * len(FIG20_POLICIES)

    def row(surge_factor, policy):
        for candidate in result.rows:
            if (
                candidate["surge_factor"] == surge_factor
                and candidate["policy"] == policy
            ):
                return candidate
        raise AssertionError(f"missing row {surge_factor}/{policy}")

    # Conservation everywhere: every offered request either finished or was
    # rejected, and only shedding policies reject.
    for candidate in result.rows:
        assert candidate["finished"] + candidate["rejected"] == candidate["offered"]
        if "shed" not in candidate["policy"]:
            assert candidate["rejected"] == 0
            assert candidate["peak_replicas"] == (
                1 if candidate["policy"] == "static" else candidate["peak_replicas"]
            )

    # The headline: during a 3x surge, tiered shedding keeps interactive
    # attainment above the no-control baseline — by sacrificing batch traffic.
    static, shed = row(3.0, "static"), row(3.0, "shed")
    assert shed["slo_interactive"] > static["slo_interactive"]
    assert shed["slo_batch"] < static["slo_batch"]
    assert shed["rejected"] > 0

    # Autoscaling absorbs the surge outright (every tier near-perfect at 3x)
    # but pays for it in replica-seconds; shedding survives at the lowest
    # cost of all (it does strictly less work than the static fleet).
    autoscale = row(3.0, "autoscale")
    assert autoscale["slo_overall"] >= 0.95
    assert autoscale["peak_replicas"] > 1
    assert autoscale["replica_seconds"] > static["replica_seconds"]
    assert shed["replica_seconds"] < static["replica_seconds"]

    # The elastic fleet scales up under every surge magnitude.
    for surge_factor in surge_factors:
        assert row(surge_factor, "autoscale")["scale_ups"] > 0

    # Offered-traffic attainment cannot be gamed by shedding: the finished-only
    # number reads higher than (or equal to) the honest interactive score on
    # every shed row — the gap is the gaming margin the bugfix closed.
    for candidate in result.rows:
        if candidate["rejected"] > 0:
            assert (
                candidate["finished_slo_interactive"]
                >= candidate["slo_interactive"] - 1e-9
            )

    # Static baselines degrade as the surge grows; the controlled fleets hold
    # interactive attainment up at 5x.
    assert row(5.0, "static")["slo_interactive"] <= static["slo_interactive"] + 0.05
    for policy in ("autoscale", "shed", "autoscale+shed"):
        assert row(5.0, policy)["slo_interactive"] > row(5.0, "static")["slo_interactive"]


def test_figure20_json_artifact():
    """The JSON artifact mirrors the CSV rows (written by test_figure20)."""
    path = default_results_dir() / f"{artifact_stem()}.json"
    assert path.exists(), "run test_figure20 first (pytest runs files in order)"
    payload = json.loads(path.read_text())
    assert payload["rows"], "fig20 JSON artifact has no rows"
    assert {
        "surge_factor",
        "policy",
        "rejected",
        "replica_seconds",
        "peak_replicas",
        "slo_interactive",
        "slo_batch",
    } <= set(payload["columns"])


def test_figure20_rows_are_deterministic(llama3_deployment):
    """Same surge + policy + seed => byte-identical rows (the gate contract)."""
    first = fig20_row(llama3_deployment, 3.0, "autoscale+shed")
    second = fig20_row(llama3_deployment, 3.0, "autoscale+shed")
    assert first == second
