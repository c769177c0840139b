"""Tests for the elastic control plane: autoscaling, admission, shedding.

Unit tests pin the policy decisions (:class:`AutoscalerPolicy` /
:class:`AdmissionPolicy` via :class:`ControlPlane`) in isolation; the
integration tests drive :class:`ClusterSimulator` runs with a recorder
attached and hold the event streams to the shed-isolation and
scaling-causality invariants.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    AdmissionPolicy,
    AutoscalerPolicy,
    ClusterSimulator,
    ColocatedTopology,
    ControlPlane,
    DisaggregatedTopology,
    tiers_from_slos,
)
from repro.cluster.control import (
    SHED_OVERLOAD,
    SHED_RATE_LIMIT,
    SHED_TENANT_QUEUE,
    FleetState,
)
from repro.serving.request import Request, RequestState
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify import EventRecorder, assert_no_violations
from repro.workloads import build_scenario
from repro.workloads.tenants import SLO_CLASSES, TenantSpec, slo_targets


def colocated(deployment, num_replicas=1):
    return ColocatedTopology(
        deployment,
        num_replicas=num_replicas,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
    )


def burst_trace(num_requests=48, qps=3.0):
    return build_scenario("arxiv-summarization", num_requests, seed=5, qps=qps)


class TestPolicyValidation:
    def test_max_below_min_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(min_replicas=4, max_replicas=2)

    def test_scale_down_threshold_must_be_below_scale_up(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(scale_up_queue_depth=2.0, scale_down_queue_depth=2.0)

    def test_negative_cold_start_rejected(self):
        with pytest.raises(ValueError):
            AutoscalerPolicy(cold_start_s=-1.0)

    def test_unknown_tenant_tier_rejected(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(tenant_tiers={"chat": "platinum"})

    def test_default_tier_needs_threshold(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(default_tier="platinum")

    def test_control_plane_needs_a_policy(self):
        with pytest.raises(ValueError):
            ControlPlane()

    def test_tiers_from_slos(self):
        tenants = [
            TenantSpec("chat", "short-chat", slo=SLO_CLASSES["interactive"]),
            TenantSpec("summarize", "arxiv", slo=SLO_CLASSES["batch"]),
        ]
        assert tiers_from_slos(slo_targets(tenants)) == {
            "chat": "interactive",
            "summarize": "batch",
        }

    def test_disaggregated_topology_rejected(self, llama3_deployment):
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1
        )
        with pytest.raises(ValueError, match="colocated"):
            ClusterSimulator(
                topology,
                control=ControlPlane(autoscaler=AutoscalerPolicy()),
            )


class TestAutoscaleDecisions:
    @staticmethod
    def plane(**overrides):
        defaults = dict(
            min_replicas=1,
            max_replicas=4,
            scale_up_queue_depth=4.0,
            scale_down_queue_depth=1.0,
            cold_start_s=2.0,
            cooldown_s=10.0,
        )
        defaults.update(overrides)
        return ControlPlane(autoscaler=AutoscalerPolicy(**defaults))

    def test_scale_up_at_queue_depth(self):
        plane = self.plane()
        assert plane.autoscale(0.0, live_count=2, warming_count=0, outstanding=8) == 1

    def test_no_scaling_between_thresholds(self):
        plane = self.plane()
        assert plane.autoscale(0.0, live_count=2, warming_count=0, outstanding=4) == 0

    def test_scale_up_clamped_at_max(self):
        plane = self.plane(max_replicas=3)
        assert plane.autoscale(0.0, live_count=2, warming_count=1, outstanding=99) == 0

    def test_cooldown_suppresses_next_decision(self):
        plane = self.plane()
        assert plane.autoscale(0.0, 1, 0, 8) == 1
        assert plane.autoscale(5.0, 1, 1, 8) == 0  # inside cooldown
        assert plane.autoscale(10.0, 1, 1, 8) == 1  # cooldown elapsed

    def test_scale_down_at_low_depth(self):
        plane = self.plane()
        assert plane.autoscale(0.0, live_count=3, warming_count=0, outstanding=2) == -1

    def test_scale_down_clamped_at_min(self):
        plane = self.plane(min_replicas=2)
        assert plane.autoscale(0.0, live_count=2, warming_count=0, outstanding=0) == 0

    def test_warming_capacity_suppresses_scale_down(self):
        plane = self.plane()
        assert plane.autoscale(0.0, live_count=3, warming_count=1, outstanding=0) == 0

    def test_multi_step_scaling(self):
        plane = self.plane(scale_up_step=3, max_replicas=4)
        assert plane.autoscale(0.0, live_count=1, warming_count=0, outstanding=9) == 3

    def test_admission_only_plane_never_scales(self):
        plane = ControlPlane(admission=AdmissionPolicy(max_queue_per_replica=8))
        assert plane.autoscale(0.0, 1, 0, 1000) == 0


class TestAdmissionDecisions:
    @staticmethod
    def request(request_id=0, tenant=None, arrival=0.0):
        return Request(
            request_id,
            prefill_tokens=128,
            decode_tokens=8,
            arrival_time=arrival,
            tenant=tenant,
        )

    def test_tiered_shedding_order(self):
        """At the same fleet pressure the batch tier sheds first, interactive
        last — the shed-lowest-tier-first contract."""
        plane = ControlPlane(
            admission=AdmissionPolicy(
                max_queue_per_replica=8,
                tenant_tiers={"bg": "batch", "app": "interactive"},
            )
        )
        # Pressure 0.5 of an 8-slot single-replica fleet: batch sheds, the
        # standard default and interactive are both still admitted.
        assert plane.admit(self.request(0, "bg"), 0.0, 1, outstanding=4) == SHED_OVERLOAD
        assert plane.admit(self.request(1, "other"), 0.0, 1, outstanding=4) is None
        assert plane.admit(self.request(2, "app"), 0.0, 1, outstanding=4) is None
        # Hard-full: even interactive traffic sheds.
        assert plane.admit(self.request(3, "app"), 0.0, 1, outstanding=8) == SHED_OVERLOAD

    def test_capacity_scales_with_live_replicas(self):
        plane = ControlPlane(admission=AdmissionPolicy(max_queue_per_replica=4))
        # 6 outstanding = pressure 1.5 on one replica, 0.75 on two.
        assert plane.admit(self.request(0), 0.0, 1, outstanding=6) == SHED_OVERLOAD
        assert plane.admit(self.request(1), 0.0, 2, outstanding=6) == SHED_OVERLOAD
        assert plane.admit(self.request(2), 0.0, 3, outstanding=6) is None

    def test_tenant_queue_cap_and_release(self):
        plane = ControlPlane(admission=AdmissionPolicy(tenant_queue_cap=2))
        first, second = self.request(0, "chat"), self.request(1, "chat")
        assert plane.admit(first, 0.0, 1, 0) is None
        assert plane.admit(second, 0.0, 1, 1) is None
        assert plane.admit(self.request(2, "chat"), 0.0, 1, 2) == SHED_TENANT_QUEUE
        # Another tenant is unaffected by chat's cap.
        assert plane.admit(self.request(3, "batch"), 0.0, 1, 2) is None
        plane.note_release(first)
        assert plane.admit(self.request(4, "chat"), 0.0, 1, 2) is None

    def test_rate_limit_bucket_refills(self):
        plane = ControlPlane(
            admission=AdmissionPolicy(
                tenant_rate_limit_qps=1.0, rate_limit_burst=2.0
            )
        )
        assert plane.admit(self.request(0, "chat"), 0.0, 1, 0) is None
        assert plane.admit(self.request(1, "chat"), 0.0, 1, 1) is None
        assert (
            plane.admit(self.request(2, "chat"), 0.0, 1, 2) == SHED_RATE_LIMIT
        )
        # One second later the bucket holds one token again.
        assert plane.admit(self.request(3, "chat", arrival=1.0), 1.0, 1, 2) is None

    def test_reset_forgets_buckets_and_counts(self):
        plane = ControlPlane(
            admission=AdmissionPolicy(
                tenant_queue_cap=1, tenant_rate_limit_qps=0.001, rate_limit_burst=1.0
            )
        )
        assert plane.admit(self.request(0, "chat"), 0.0, 1, 0) is None
        assert plane.admit(self.request(1, "chat"), 0.0, 1, 1) is not None
        plane.reset()
        assert plane.admit(self.request(2, "chat"), 0.0, 1, 0) is None

    def test_pressure_shed_consumes_no_rate_budget(self):
        plane = ControlPlane(
            admission=AdmissionPolicy(
                max_queue_per_replica=2,
                tenant_rate_limit_qps=0.001,
                rate_limit_burst=1.0,
            )
        )
        # Shed for pressure: the tenant's single burst token must survive.
        assert plane.admit(self.request(0, "chat"), 0.0, 1, outstanding=9) == SHED_OVERLOAD
        assert plane.admit(self.request(1, "chat"), 0.0, 1, outstanding=0) is None


class TestAutoscalerIntegration:
    @pytest.fixture(scope="class")
    def runs(self, llama3_deployment):
        requests = burst_trace()
        static = ClusterSimulator(
            colocated(llama3_deployment), router="least-tokens"
        ).run(requests)
        recorder = EventRecorder()
        control = ControlPlane(
            autoscaler=AutoscalerPolicy(
                min_replicas=1,
                max_replicas=4,
                scale_up_queue_depth=4.0,
                scale_down_queue_depth=0.5,
                cold_start_s=2.0,
                cooldown_s=5.0,
            )
        )
        auto = ClusterSimulator(
            colocated(llama3_deployment),
            router="least-tokens",
            recorder=recorder,
            control=control,
        ).run(requests)
        return static, auto, recorder

    def test_all_requests_finish(self, runs):
        _, auto, _ = runs
        assert all(r.is_finished for r in auto.requests)

    def test_fleet_grew(self, runs):
        _, auto, recorder = runs
        assert auto.metrics.num_scale_ups > 0
        assert auto.metrics.peak_replicas > 1
        assert len(recorder.of_kind("scaled_up")) == auto.metrics.num_scale_ups

    def test_surge_absorbed_faster_than_static_fleet(self, runs):
        static, auto, _ = runs
        assert auto.makespan < static.makespan

    def test_event_stream_satisfies_invariants(self, runs):
        _, _, recorder = runs
        assert_no_violations(recorder)

    def test_cold_start_respected(self, runs):
        """No arrival is routed to a scaled-up replica before its ready_at."""
        _, _, recorder = runs
        ready_at = {
            e.replica_id: e.data["ready_at"] for e in recorder.of_kind("scaled_up")
        }
        routed = [e for e in recorder.of_kind("routed") if e.replica_id in ready_at]
        assert routed, "expected traffic on the scaled-up replicas"
        assert all(e.time >= ready_at[e.replica_id] for e in routed)

    def test_replica_seconds_ledger(self, runs):
        static, auto, _ = runs
        assert static.metrics.replica_seconds == pytest.approx(static.makespan)
        assert static.metrics.peak_replicas == 1
        # The elastic fleet bills more than one always-on replica (it grew)
        # but less than the peak fleet held for the whole run.
        assert auto.metrics.replica_seconds > auto.makespan
        assert auto.metrics.replica_seconds < (
            auto.metrics.peak_replicas * auto.makespan
        )

    def test_repeated_run_is_deterministic(self, llama3_deployment, runs):
        _, auto, _ = runs
        control = ControlPlane(
            autoscaler=AutoscalerPolicy(
                min_replicas=1,
                max_replicas=4,
                scale_up_queue_depth=4.0,
                scale_down_queue_depth=0.5,
                cold_start_s=2.0,
                cooldown_s=5.0,
            )
        )
        simulator = ClusterSimulator(
            colocated(llama3_deployment), router="least-tokens", control=control
        )
        first = simulator.run(burst_trace())
        second = simulator.run(burst_trace())
        for result in (first, second):
            assert result.makespan == pytest.approx(auto.makespan, rel=1e-12)
            assert result.assignments == auto.assignments
            assert result.metrics.num_scale_ups == auto.metrics.num_scale_ups


class _StubReplica:
    """The two replica attributes ``FleetState`` reads."""

    def __init__(self, clock=0.0, is_drained=True):
        self.clock = clock
        self.is_drained = is_drained


class TestFleetState:
    def test_cold_start_warms_then_promotes(self):
        recorder = EventRecorder(strict_payloads=True)
        fleet = FleetState(range(2), recorder)
        fleet.provision(2, now=1.0, ready_at=3.0)
        assert fleet.live == {0, 1} and fleet.warming == {2: 3.0}
        fleet.promote(2.5)
        assert 2 not in fleet.live
        fleet.promote(3.0)
        assert fleet.live == {0, 1, 2} and not fleet.warming
        assert (fleet.num_scale_ups, fleet.peak_replicas) == (1, 3)
        (event,) = recorder.of_kind("scaled_up")
        assert (event.time, event.replica_id, event.data["ready_at"]) == (1.0, 2, 3.0)

    def test_zero_cold_start_is_live_at_once(self):
        fleet = FleetState(range(1))
        fleet.provision(1, now=2.0, ready_at=2.0)
        assert fleet.live == {0, 1} and not fleet.warming

    def test_idle_replica_retires_on_the_spot(self):
        recorder = EventRecorder(strict_payloads=True)
        fleet = FleetState(range(2), recorder)
        fleet.drain(1, now=4.0, replica=_StubReplica(clock=5.0))
        assert fleet.live == {0} and not fleet.draining
        assert fleet.deactivated_at == {1: 5.0}  # its clock ran past the decision
        assert [e.kind for e in recorder.events] == ["drain_started", "scaled_down"]

    def test_busy_replica_retires_when_its_drain_completes(self):
        recorder = EventRecorder(strict_payloads=True)
        fleet = FleetState(range(2), recorder)
        replica = _StubReplica(clock=4.0, is_drained=False)
        fleet.drain(1, now=4.0, replica=replica)
        assert fleet.draining == {1}
        replica.clock = 6.0
        fleet.note_step(1, replica)  # still serving
        assert fleet.draining == {1} and not fleet.deactivated_at
        replica.clock, replica.is_drained = 7.5, True
        fleet.note_step(1, replica)
        assert not fleet.draining and fleet.deactivated_at == {1: 7.5}
        (down,) = recorder.of_kind("scaled_down")
        assert down.time == 7.5
        assert fleet.num_scale_downs == 1

    def test_ledger_bills_activation_to_retirement_or_run_end(self):
        fleet = FleetState(range(2))
        fleet.provision(2, now=3.0, ready_at=5.0)
        fleet.drain(1, now=4.0, replica=_StubReplica(clock=6.0))
        assert fleet.active_seconds(makespan=10.0) == {0: 10.0, 1: 6.0, 2: 7.0}


class TestDrainPath:
    @pytest.fixture(scope="class")
    def run(self, llama3_deployment):
        # A burst that forces scale-up, then sparse stragglers whose arrivals
        # give the autoscaler quiet moments to decide to scale back down.
        requests = burst_trace(32, qps=4.0)
        last = max(r.arrival_time for r in requests)
        requests += [
            Request(
                1000 + i,
                prefill_tokens=1024,
                decode_tokens=16,
                arrival_time=last + 10.0 + 8.0 * i,
            )
            for i in range(6)
        ]
        recorder = EventRecorder()
        control = ControlPlane(
            autoscaler=AutoscalerPolicy(
                min_replicas=1,
                max_replicas=4,
                scale_up_queue_depth=4.0,
                scale_down_queue_depth=1.0,
                cold_start_s=1.0,
                cooldown_s=5.0,
            )
        )
        result = ClusterSimulator(
            colocated(llama3_deployment),
            router="least-tokens",
            recorder=recorder,
            control=control,
        ).run(requests)
        return result, recorder

    def test_fleet_scaled_back_down(self, run):
        result, recorder = run
        assert result.metrics.num_scale_downs > 0
        drains = recorder.of_kind("drain_started")
        downs = recorder.of_kind("scaled_down")
        assert len(drains) == result.metrics.num_scale_downs
        assert len(downs) == len(drains)

    def test_drain_completes_after_it_starts(self, run):
        _, recorder = run
        started = {e.replica_id: e.time for e in recorder.of_kind("drain_started")}
        for event in recorder.of_kind("scaled_down"):
            assert event.time >= started[event.replica_id]

    def test_no_routes_after_drain_starts(self, run):
        """Connection draining: a draining replica takes no new traffic."""
        _, recorder = run
        started = {e.replica_id: e.time for e in recorder.of_kind("drain_started")}
        for event in recorder.of_kind("routed"):
            if event.replica_id in started:
                assert event.time < started[event.replica_id]

    def test_all_requests_still_finish(self, run):
        result, _ = run
        assert all(r.is_finished for r in result.requests)

    def test_event_stream_satisfies_invariants(self, run):
        _, recorder = run
        assert_no_violations(recorder)


class TestSheddingIntegration:
    @pytest.fixture(scope="class")
    def run(self, llama3_deployment):
        recorder = EventRecorder()
        control = ControlPlane(
            admission=AdmissionPolicy(max_queue_per_replica=4)
        )
        result = ClusterSimulator(
            colocated(llama3_deployment),
            router="least-tokens",
            recorder=recorder,
            control=control,
        ).run(burst_trace())
        return result, recorder

    def test_overload_sheds_traffic(self, run):
        result, recorder = run
        row = result.metrics.control_row()
        assert row["rejected"] > 0
        assert row["offered"] == 48
        assert row["finished"] + row["rejected"] == row["offered"]
        assert len(recorder.of_kind("rejected")) == row["rejected"]

    def test_shed_requests_are_terminal_and_unrouted(self, run):
        result, _ = run
        shed = [r for r in result.requests if r.is_rejected]
        assert shed
        for request in shed:
            assert request.state == RequestState.REJECTED
            assert request.reject_time == request.arrival_time
            assert request.first_token_time is None
            assert request.request_id not in result.assignments

    def test_event_stream_satisfies_invariants(self, run):
        _, recorder = run
        assert_no_violations(recorder)

    def test_caller_requests_not_mutated(self, llama3_deployment):
        requests = burst_trace(16, qps=6.0)
        control = ControlPlane(admission=AdmissionPolicy(max_queue_per_replica=2))
        result = ClusterSimulator(
            colocated(llama3_deployment), router="least-tokens", control=control
        ).run(requests)
        assert any(r.is_rejected for r in result.requests)
        assert all(r.state == RequestState.QUEUED for r in requests)

    def test_tiered_shedding_protects_interactive_traffic(self, llama3_deployment):
        """Under overload the batch tenant is shed harder than interactive."""
        from repro.workloads.arrivals import PoissonArrivals
        from repro.workloads.tenants import compose_tenants

        tenants = [
            TenantSpec("chat", "short-chat", slo=SLO_CLASSES["interactive"]),
            TenantSpec("summarize", "arxiv", slo=SLO_CLASSES["batch"]),
        ]
        requests = compose_tenants(tenants, num_requests=48, seed=3)
        for request, arrival in zip(
            requests, PoissonArrivals(qps=4.0).times(len(requests), seed=4)
        ):
            request.arrival_time = arrival
        control = ControlPlane(
            admission=AdmissionPolicy(
                max_queue_per_replica=6,
                tenant_tiers=tiers_from_slos(slo_targets(tenants)),
            )
        )
        result = ClusterSimulator(
            colocated(llama3_deployment), router="least-tokens", control=control
        ).run(requests)

        def shed_fraction(tenant):
            slice_ = [r for r in result.requests if r.tenant == tenant]
            return sum(1 for r in slice_ if r.is_rejected) / len(slice_)

        assert result.metrics.fleet.num_rejected > 0
        assert shed_fraction("summarize") > shed_fraction("chat")


class TestControlPlaneOffByDefault:
    def test_inert_policy_matches_static_fleet_exactly(self, llama3_deployment):
        """A control plane that can never act leaves the run byte-identical."""
        requests = burst_trace(24)
        static = ClusterSimulator(
            colocated(llama3_deployment, 2), router="least-tokens"
        ).run(requests)
        inert = ControlPlane(
            autoscaler=AutoscalerPolicy(
                min_replicas=2,
                max_replicas=2,
                scale_up_queue_depth=1e9,
                scale_down_queue_depth=1e-9,
            )
        )
        controlled = ClusterSimulator(
            colocated(llama3_deployment, 2), router="least-tokens", control=inert
        ).run(requests)
        assert controlled.assignments == static.assignments
        assert controlled.makespan == static.makespan
        assert controlled.metrics.num_scale_ups == 0
        assert controlled.metrics.num_scale_downs == 0
        for a, b in zip(static.requests, controlled.requests):
            assert a.finish_time == b.finish_time
            assert a.token_intervals == b.token_intervals


class TestFig20Rows:
    """Unit-level pins of the fig20 row builders (the benchmark re-runs the
    full sweep; these keep the schema and policy mapping honest in tier-1)."""

    def test_policy_mapping(self):
        from repro.bench.control_rows import fig20_control

        assert fig20_control("static") is None
        autoscale = fig20_control("autoscale")
        assert autoscale.autoscaler is not None and autoscale.admission is None
        shed = fig20_control("shed")
        assert shed.autoscaler is None and shed.admission is not None
        both = fig20_control("autoscale+shed")
        assert both.autoscaler is not None and both.admission is not None
        with pytest.raises(ValueError, match="unknown fig20 policy"):
            fig20_control("chaos")

    def test_trace_is_deterministic_and_tiered(self):
        from repro.bench.control_rows import fig20_trace

        first, second = fig20_trace(3.0), fig20_trace(3.0)
        assert [r.arrival_time for r in first] == [r.arrival_time for r in second]
        assert {r.tenant for r in first} == {"chat", "rag", "summarize"}
        # A bigger surge compresses the same request count into less time.
        assert max(r.arrival_time for r in fig20_trace(5.0)) < max(
            r.arrival_time for r in first
        )

    def test_row_schema_and_conservation(self, llama3_deployment):
        from repro.bench.control_rows import fig20_row

        row = fig20_row(llama3_deployment, 3.0, "shed", num_requests=32)
        assert row["finished"] + row["rejected"] == row["offered"] == 32
        assert {
            "surge_factor", "policy", "replica_seconds", "peak_replicas",
            "slo_interactive", "slo_standard", "slo_batch", "slo_overall",
        } <= set(row)
        assert 0.0 <= row["slo_interactive"] <= 1.0
