"""Differential-oracle tests: the cross-layer reductions the repro must hold.

The headline acceptance check lives here: a 1-replica cluster must reproduce
the plain single-replica drain loop (``single_replica_reference``) *exactly*
(per-request timestamps and every metric field) on every scenario in the
workload registry, under every router policy — with one replica, routing
must be a no-op — and on offline traces and the vLLM + FA-serial stack.
Beside it, every serving step's O(1) attention estimate must equal the
row-summing analytic reference on every scenario, backend and topology, and
a fleet that leaps through steady decode runs must end exactly where the
same fleet stepping one iteration at a time ends.
"""

from __future__ import annotations

import pytest

from repro.verify import (
    REDUCIBLE_ROUTERS,
    analytic_vs_simulated,
    estimate_equivalence,
    scheduler_conservation,
    single_replica_equivalence,
)
from repro.cluster import ColocatedTopology
from repro.serving.attention_backend import AttentionBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheManager
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify.oracles import ReschedulingRuntime, _ReschedulingFleet, leap_equivalence
from repro.verify.reference_scheduler import ReferenceKVCacheManager, reference_prepare_decodes
from repro.workloads import SCENARIOS, build_scenario

SCENARIO_NAMES = tuple(SCENARIOS)


class TestSingleReplicaEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_every_scenario_reduces(self, llama3_deployment, scenario):
        assert single_replica_equivalence(llama3_deployment, scenario, num_requests=16) == []

    @pytest.mark.parametrize("router", REDUCIBLE_ROUTERS[1:])
    def test_every_router_reduces(self, llama3_deployment, router):
        assert (
            single_replica_equivalence(
                llama3_deployment, SCENARIO_NAMES[0], router=router, num_requests=16
            )
            == []
        )

    def test_offline_trace_reduces(self, llama3_deployment):
        """Every arrival at t=0, the Figure 12 regime."""
        assert (
            single_replica_equivalence(
                llama3_deployment, "arxiv-summarization", num_requests=16, offline=True
            )
            == []
        )

    @pytest.mark.parametrize("offline", [False, True])
    def test_vllm_fa_serial_stack_reduces(self, llama3_deployment, offline):
        """The baseline stack of Figure 12 and Tables 5-7."""
        assert (
            single_replica_equivalence(
                llama3_deployment,
                "enterprise-internal",
                num_requests=16,
                scheduler="vllm",
                backend="fa_serial",
                offline=offline,
            )
            == []
        )

    def test_registry_is_fully_covered(self):
        """Guards the parametrization: new scenarios are picked up automatically."""
        assert len(SCENARIO_NAMES) >= 7
        assert len(REDUCIBLE_ROUTERS) == 5


class TestEstimateEquivalence:
    @pytest.mark.parametrize("topology", ["colocated", "disaggregated"])
    @pytest.mark.parametrize("backend", ["pod", "fa_serial"])
    @pytest.mark.parametrize("scenario", SCENARIO_NAMES)
    def test_every_step_matches_the_reference(self, llama3_deployment, scenario, backend, topology):
        assert estimate_equivalence(llama3_deployment, scenario, backend, topology) == []


class TestLeapEquivalence:
    """Leaped fleets against the same fleets of rescheduling runtimes."""

    @pytest.mark.parametrize(
        ("scenario", "fleet", "replicas", "requests", "record"),
        [
            ("arxiv-summarization", "colocated", 2, 24, False),
            ("arxiv-summarization", "colocated", 2, 24, True),
            ("enterprise-internal", "colocated", 4, 32, True),
            ("surge-multi-tenant", "control", 2, 96, False),
            ("surge-multi-tenant", "control", 2, 96, True),
            ("arxiv-summarization", "disaggregated", 2, 24, False),
            ("enterprise-internal", "disaggregated", 1, 24, True),
            # 27 preemptions, and leaps that stop where growth does not fit.
            ("shared-prefix-chat", "kv-pressure", 2, 96, False),
            ("shared-prefix-chat", "kv-pressure", 2, 96, True),
        ],
    )
    def test_leaped_fleet_matches_stepped_fleet(
        self, llama3_deployment, scenario, fleet, replicas, requests, record
    ):
        assert (
            leap_equivalence(
                llama3_deployment,
                scenario,
                fleet,
                num_replicas=replicas,
                num_requests=requests,
                record=record,
            )
            == []
        )

    def test_reports_a_leap_priced_one_step_behind(self, llama3_deployment, monkeypatch):
        """Pricing re-run j with the decode sums advanced j - 1 times must be
        caught by both the leap oracle and ``estimate_equivalence``."""
        rerun_decode_times = AttentionBackend.rerun_decode_times

        def one_step_behind(backend, batch):
            count, context_sum, min_context = batch.context_sums()
            behind = ScheduledBatch(
                decode_requests=batch.decode_requests,
                decode_sums=(count, context_sum - count, min_context - 1),
            )
            return rerun_decode_times(backend, behind)

        monkeypatch.setattr(AttentionBackend, "rerun_decode_times", one_step_behind)
        assert leap_equivalence(llama3_deployment, "arxiv-summarization", num_requests=16)
        assert estimate_equivalence(llama3_deployment, "arxiv-summarization")


class TestReschedulingRuntimeReferences:
    """The rescheduling reference schedules on the frozen copies of
    ``prepare_decodes`` and the admission chain walk, so the oracles that
    run it catch a bug in the growth pass or the riders memo."""

    @staticmethod
    def _assert_frozen(runtime):
        assert type(runtime.kv_cache) is ReferenceKVCacheManager
        assert runtime.scheduler.prepare_decodes.__func__ is reference_prepare_decodes

    def test_built_runtime_runs_the_frozen_copies(self, llama3_deployment):
        scheduler = SarathiScheduler(preemption=True)
        runtime = ReschedulingRuntime(llama3_deployment, scheduler)
        self._assert_frozen(runtime)
        assert runtime.scheduler is not scheduler
        assert "prepare_decodes" not in vars(scheduler)

    def test_leap_oracle_fleet_runs_the_frozen_copies(self, llama3_deployment):
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(preemption=True),
        )
        replicas = _ReschedulingFleet(topology).build_replicas()
        assert len(replicas) == 2
        for replica in replicas:
            self._assert_frozen(replica)

    def test_reports_a_growth_pass_out_of_batch_order(self, llama3_deployment, monkeypatch):
        grow_all = KVCacheManager.grow_all

        def reversed_order(kv_cache, requests, ahead=0):
            return grow_all(kv_cache, list(requests)[::-1], ahead)

        monkeypatch.setattr(KVCacheManager, "grow_all", reversed_order)
        assert leap_equivalence(
            llama3_deployment, "shared-prefix-chat", "kv-pressure", num_requests=96, record=True
        )


class TestSchedulerConservation:
    def test_sarathi_vs_vllm_token_totals(self, llama3_deployment):
        assert scheduler_conservation(llama3_deployment) == []

    def test_small_chunks_conserve_too(self, llama3_deployment):
        assert (
            scheduler_conservation(
                llama3_deployment,
                scenario="short-chat-diurnal",
                num_requests=12,
                chunk_size=256,
            )
            == []
        )


class TestDiscrepancyReporting:
    """The comparison helpers must actually report, not rubber-stamp."""

    def test_timestamp_divergence_is_reported(self):
        from repro.serving.request import Request
        from repro.verify.oracles import _compare_requests

        a = Request(request_id=0, prefill_tokens=10, decode_tokens=2)
        b = Request(request_id=0, prefill_tokens=10, decode_tokens=2)
        a.finish_time, b.finish_time = 1.0, 2.0
        b.token_intervals.append(0.5)
        found = _compare_requests("probe", [a], [b])
        assert any("finish_time differs" in line for line in found)
        assert any("token intervals differ" in line for line in found)

    def test_missing_request_is_reported(self):
        from repro.serving.request import Request
        from repro.verify.oracles import _compare_requests

        a = Request(request_id=0, prefill_tokens=10, decode_tokens=2)
        assert _compare_requests("probe", [a], []) == ["probe: request 0 missing"]

    def test_metric_divergence_is_reported(self, llama3_deployment, single_replica):
        from dataclasses import replace

        from repro.serving.scheduler_sarathi import SarathiScheduler
        from repro.verify.oracles import _compare_metrics

        metrics = (
            single_replica(llama3_deployment, scheduler=SarathiScheduler())
            .run(build_scenario("code-completion-surge", num_requests=4, seed=0))
            .metrics.fleet
        )
        other = replace(metrics, makespan=metrics.makespan * 2)
        found = _compare_metrics("probe", metrics, other)
        assert found == [
            f"probe: metric makespan differs ({metrics.makespan} vs {other.makespan})"
        ]


class TestAnalyticVsSimulated:
    def test_within_declared_tolerance(self, llama3_deployment):
        assert analytic_vs_simulated(llama3_deployment) == []

    def test_oracle_detects_a_broken_tolerance(self, llama3_deployment):
        """With an absurdly tight tolerance the oracle must report, proving it
        actually compares the two paths rather than rubber-stamping."""
        discrepancies = analytic_vs_simulated(
            llama3_deployment, serial_tolerance=1e-9, fused_tolerance=1e-9
        )
        assert discrepancies
