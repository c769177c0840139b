"""Row builders for the Figure 20 overload-survival sweep.

Shared by ``benchmarks/test_fig20_overload_survival.py`` (which generates the
committed artifact), ``examples/overload_survival.py`` and the unit tests
that re-pin subsets of its rows, so the row schema and the sweep parameters
(64 requests, seed 20, the ``surge-multi-tenant`` scenario) have exactly one
definition.

The sweep crosses surge magnitude x control policy on a tiered multi-tenant
trace: a static single replica, queue-depth autoscaling, SLO-tiered load
shedding, and both together.  Each row reports offered-traffic SLO
attainment per tier (goodput over *offered* requests — shedding can never
inflate it) next to the replica-seconds the policy paid for, which is the
whole survival-vs-cost trade-off in one table.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Any

from repro.cluster.control import (
    AdmissionPolicy,
    AutoscalerPolicy,
    ControlPlane,
    tiers_from_slos,
)
from repro.cluster.simulator import ClusterResult, ClusterSimulator
from repro.cluster.topology import ColocatedTopology
from repro.models.config import Deployment
from repro.serving.attention_backend import PODBackend
from repro.serving.metrics import finished_slo_attainment, slo_attainment
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.workloads.scenario import get_scenario

#: The sweep's fixed parameters.
FIG20_NUM_REQUESTS = 64
FIG20_SEED = 20
FIG20_CHUNK_SIZE = 1024
FIG20_SCENARIO = "surge-multi-tenant"

#: Surge magnitudes swept (multiples of the scenario's base rate).
FIG20_SURGE_FACTORS = (1.5, 3.0, 5.0)

#: Extra magnitudes the nightly job adds (``REPRO_FIG20_NIGHTLY=1``); kept
#: out of the committed baseline, which holds only the default factors.
FIG20_NIGHTLY_SURGE_FACTORS = (2.0, 8.0)


def fig20_surge_factors() -> tuple[float, ...]:
    """The active sweep: the default factors, plus the nightly extension."""
    if os.environ.get("REPRO_FIG20_NIGHTLY"):
        return tuple(sorted(FIG20_SURGE_FACTORS + FIG20_NIGHTLY_SURGE_FACTORS))
    return FIG20_SURGE_FACTORS


#: Control policies swept.
FIG20_POLICIES = ("static", "autoscale", "shed", "autoscale+shed")

#: Autoscaler knobs: grow ahead of the shed point (scale-up triggers at
#: depth 4 while the batch tier sheds only from 6 outstanding) so both
#: mechanisms engage under the same surge.
FIG20_AUTOSCALER = dict(
    min_replicas=1,
    max_replicas=4,
    scale_up_queue_depth=4.0,
    scale_down_queue_depth=0.5,
    cold_start_s=2.0,
    cooldown_s=5.0,
)

#: Admission knobs: 12 outstanding per live replica before even interactive
#: traffic sheds; batch sheds from half that.
FIG20_MAX_QUEUE_PER_REPLICA = 12


def fig20_trace(
    surge_factor: float,
    num_requests: int = FIG20_NUM_REQUESTS,
    seed: int = FIG20_SEED,
) -> list[Request]:
    """The ``surge-multi-tenant`` trace at an explicit surge magnitude."""
    scenario = get_scenario(FIG20_SCENARIO)
    surged = replace(
        scenario,
        arrival_params={**dict(scenario.arrival_params), "surge_factor": surge_factor},
    )
    return surged.build(num_requests=num_requests, seed=seed)


def fig20_control(policy: str) -> ControlPlane | None:
    """The control plane for one policy label (``None`` for ``static``)."""
    if policy not in FIG20_POLICIES:
        raise ValueError(f"unknown fig20 policy {policy!r}; choose from {FIG20_POLICIES}")
    autoscaler = AutoscalerPolicy(**FIG20_AUTOSCALER) if "autoscale" in policy else None
    admission = (
        AdmissionPolicy(
            max_queue_per_replica=FIG20_MAX_QUEUE_PER_REPLICA,
            tenant_tiers=tiers_from_slos(get_scenario(FIG20_SCENARIO).slo_targets()),
        )
        if "shed" in policy
        else None
    )
    if autoscaler is None and admission is None:
        return None
    return ControlPlane(autoscaler=autoscaler, admission=admission)


def fig20_simulator(
    deployment: Deployment, policy: str, recorder: Any | None = None
) -> ClusterSimulator:
    """A single-entry elastic fleet (Sarathi+POD) under one policy label."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=FIG20_CHUNK_SIZE),
        backend_builder=PODBackend,
    )
    return ClusterSimulator(
        topology,
        router="least-tokens",
        recorder=recorder,
        control=fig20_control(policy),
    )


def fig20_tier_attainment(result: ClusterResult) -> dict[str, float]:
    """Per-SLO-class offered-traffic goodput of one fig20 run."""
    slos = get_scenario(FIG20_SCENARIO).slo_targets()
    attainment: dict[str, float] = {}
    for tenant, slo in slos.items():
        slice_ = [r for r in result.requests if r.tenant == tenant]
        attainment[slo.name] = slo_attainment(
            slice_, slo.ttft_target_s, slo.tbt_target_s
        )
    return attainment


def fig20_row(
    deployment: Deployment,
    surge_factor: float,
    policy: str,
    num_requests: int = FIG20_NUM_REQUESTS,
    seed: int = FIG20_SEED,
) -> dict[str, Any]:
    """One row of the Figure 20 table: (surge magnitude, policy) -> outcome."""
    result = fig20_simulator(deployment, policy).run(
        fig20_trace(surge_factor, num_requests=num_requests, seed=seed)
    )
    slos = get_scenario(FIG20_SCENARIO).slo_targets()
    tiers = fig20_tier_attainment(result)
    finished = [r for r in result.requests if r.is_finished]
    # Offered-traffic goodput across all tiers, each request judged against
    # its own tenant's targets.
    attained = sum(
        1
        for r in result.requests
        if r.is_finished
        and r.ttft <= slos[r.tenant].ttft_target_s
        and not r.experienced_stall(slos[r.tenant].tbt_target_s)
    )
    row: dict[str, Any] = {
        "scenario": FIG20_SCENARIO,
        "surge_factor": surge_factor,
        "policy": policy,
        "makespan_s": round(result.makespan, 2),
    }
    row.update(result.metrics.control_row())
    row.update(
        {
            "slo_overall": round(attained / len(result.requests), 4),
            "slo_interactive": round(tiers["interactive"], 4),
            "slo_standard": round(tiers["standard"], 4),
            "slo_batch": round(tiers["batch"], 4),
            # The historical finished-only number, kept to show how shedding
            # would have gamed it (see serving.metrics.finished_slo_attainment).
            "finished_slo_interactive": round(
                finished_slo_attainment(
                    [r for r in finished if r.tenant == "chat"] or finished,
                    slos["chat"].ttft_target_s,
                    slos["chat"].tbt_target_s,
                ),
                4,
            ),
        }
    )
    return row
