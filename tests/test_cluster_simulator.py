"""Tests for the cluster simulator: single-replica equivalence, colocated
scaling, and prefill/decode disaggregation."""

from __future__ import annotations

from collections import Counter, defaultdict

import pytest

from repro.cluster import (
    ClusterSimulator,
    ColocatedTopology,
    DisaggregatedTopology,
    KVTransferModel,
    topology_from_spec,
)
from repro.models.config import ClusterSpec
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.request import Request, RequestState
from repro.serving.replica import ReplicaRuntime
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify import single_replica_reference
from repro.workloads import build_scenario, uniform_workload


def tab06_trace(num_requests: int = 64):
    """The Table 6 arXiv-Summarization online trace (scaled request count)."""
    return build_scenario("arxiv-summarization", num_requests, seed=17, qps=0.85)


class TestSingleReplicaEquivalence:
    """A 1-replica cluster with pass-through routing must reproduce the plain
    single-replica drain loop on the tab06 arxiv trace (within 1%; the shared
    stepping core makes it exact)."""

    @pytest.fixture(scope="class")
    def pair(self, llama3_deployment):
        _, single, _ = single_replica_reference(
            llama3_deployment,
            tab06_trace(),
            SarathiScheduler(chunk_size=1024),
            FASerialBackend(llama3_deployment),
        )
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=FASerialBackend,
        )
        cluster = ClusterSimulator(topology, router="round-robin").run(tab06_trace())
        return single, cluster.metrics.fleet

    @pytest.mark.parametrize(
        "metric",
        [
            "requests_per_minute",
            "makespan",
            "num_iterations",
            "ttft_p50",
            "ttft_p99",
            "tbt_p50",
            "tbt_p99",
            "latency_p50",
            "latency_p99",
            "stall_fraction_200ms",
            "hybrid_iteration_fraction",
        ],
    )
    def test_metric_within_one_percent(self, pair, metric):
        single, fleet = pair
        assert getattr(fleet, metric) == pytest.approx(getattr(single, metric), rel=0.01)

    def test_makespan_exact(self, pair):
        single, fleet = pair
        assert fleet.makespan == pytest.approx(single.makespan, rel=1e-9)


class TestReadyHeap:
    """The ready heap holds one live entry per replica, so its upkeep per
    step does not grow with the number of requests a replica has queued."""

    def test_ready_time_queries_per_step_are_bounded(self, llama3_deployment, monkeypatch):
        calls = 0
        next_ready_time = ReplicaRuntime.next_ready_time

        def counted(replica):
            nonlocal calls
            calls += 1
            return next_ready_time(replica)

        monkeypatch.setattr(ReplicaRuntime, "next_ready_time", counted)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology)
        # Figure 12's offline trace: 48 prompts of 16K tokens, all at t=0.
        simulator.run(uniform_workload(48, prefill_tokens=16384, decode_tokens=1024))
        steps = simulator.replicas[0].steps_executed
        assert steps > 1000
        assert calls <= 3 * steps


class TestSteadyDecodeBatches:
    """A replica reschedules only on the steps that cannot re-run its last
    batch, and runs the engine only on the steps it schedules and on the
    re-runs that release a request: every other re-run leaps.  Counts carry
    no timing noise."""

    @staticmethod
    def _observe(monkeypatch, simulator):
        """Serve arxiv-summarization (16 requests) and return the call counts
        and, per replica, one record per ``step()`` call: schedule calls,
        execute calls, the waiting queue left by the last arrival admission,
        whether the batch had a prefill item, its preemptions and the step's
        releases."""
        calls: Counter = Counter()
        waiting: dict[object, int] = {}
        executed: list[ScheduledBatch] = []
        steps: defaultdict[object, list] = defaultdict(list)

        def counted(name, function):
            def shim(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return shim

        admit_arrivals = ReplicaRuntime._admit_arrivals

        def observed_admit(replica):
            admit_arrivals(replica)
            waiting[replica] = len(replica.waiting)

        execute = InferenceEngine.execute

        def observed_execute(engine, batch):
            calls["execute"] += 1
            executed.append(batch)
            return execute(engine, batch)

        step = ReplicaRuntime.step

        def observed_step(replica):
            before = calls.copy()
            outcome = step(replica)
            if outcome.executed:
                batch = executed[-1]
                steps[replica].append(
                    (
                        calls["schedule"] - before["schedule"],
                        calls["execute"] - before["execute"],
                        waiting[replica],
                        bool(batch.prefill_items),
                        len(batch.preempted),
                        len(outcome.released),
                    )
                )
            return outcome

        monkeypatch.setattr(
            SarathiScheduler, "schedule", counted("schedule", SarathiScheduler.schedule)
        )
        monkeypatch.setattr(ReplicaRuntime, "_admit_arrivals", observed_admit)
        monkeypatch.setattr(InferenceEngine, "execute", observed_execute)
        monkeypatch.setattr(ReplicaRuntime, "step", observed_step)
        simulator.run_scenario("arxiv-summarization", num_requests=16, seed=0)
        return calls, [steps[replica] for replica in simulator.replicas]

    def test_executes_only_scheduled_and_releasing_steps(self, llama3_deployment, monkeypatch):
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        calls, per_replica = self._observe(monkeypatch, simulator)
        releasing_reruns = 0
        for steps in per_replica:
            assert steps
            previous_steady = False  # the first step has no batch to re-run
            for scheduled, executed, waiting, prefill, preempted, released in steps:
                can_rerun = previous_steady and not waiting
                assert scheduled == (0 if can_rerun else 1)
                assert executed == 1
                releasing_reruns += can_rerun and released > 0
                previous_steady = not (prefill or preempted or released)
        assert releasing_reruns > 0
        assert calls["execute"] == calls["schedule"] + releasing_reruns
        executed_steps = sum(replica.steps_executed for replica in simulator.replicas)
        assert executed_steps > 10 * calls["execute"]

    def test_preemption_mode_schedules_every_step(self, llama3_deployment, monkeypatch):
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024, preemption=True),
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology)
        _, (steps,) = self._observe(monkeypatch, simulator)
        assert len(steps) > 100
        assert len(steps) == simulator.replicas[0].steps_executed
        assert all(scheduled == 1 and executed == 1 for scheduled, executed, *_ in steps)


class TestColocatedCluster:
    @pytest.fixture(scope="class")
    def result(self, llama3_deployment):
        requests = build_scenario("arxiv-summarization", 48, seed=5, qps=0.85 * 2)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        return ClusterSimulator(topology, router="least-tokens").run(requests)

    def test_all_requests_finish(self, result):
        assert all(request.is_finished for request in result.requests)

    def test_every_request_assigned_once(self, result):
        assert sorted(result.assignments) == sorted(r.request_id for r in result.requests)

    def test_replica_stats(self, result):
        metrics = result.metrics
        assert metrics.num_replicas == 2
        assert all(stats.role == "hybrid" for stats in metrics.replicas)
        assert sum(stats.requests_released for stats in metrics.replicas) == len(result.requests)
        assert 0.0 < metrics.mean_utilization <= 1.0
        assert metrics.min_utilization <= metrics.max_utilization

    def test_no_transfers_in_colocated(self, result):
        assert result.metrics.num_kv_transfers == 0
        assert result.decode_assignments == {}

    def test_two_replicas_beat_one(self, llama3_deployment, result):
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            backend_builder=FASerialBackend,
        )
        single = ClusterSimulator(topology).run(
            build_scenario("arxiv-summarization", 48, seed=5, qps=0.85 * 2)
        )
        assert result.metrics.fleet.makespan < single.makespan

    def test_row_shape(self, result):
        row = result.metrics.as_row()
        assert row["topology"] == "colocated"
        assert row["router"] == "least-tokens"
        assert row["replicas"] == 2


class TestDisaggregatedCluster:
    @pytest.fixture(scope="class")
    def result(self, llama3_deployment):
        requests = build_scenario("arxiv-summarization", 48, seed=5, qps=0.85 * 2)
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        return ClusterSimulator(topology, router="round-robin").run(requests)

    def test_all_requests_finish(self, result):
        assert all(request.is_finished for request in result.requests)

    def test_every_multi_token_request_transferred(self, result):
        multi_token = [r for r in result.requests if r.decode_tokens > 1]
        assert result.metrics.num_kv_transfers == len(multi_token)
        assert sorted(result.decode_assignments) == sorted(r.request_id for r in multi_token)

    def test_roles_split(self, result):
        roles = [stats.role for stats in result.metrics.replicas]
        assert roles == ["prefill", "decode"]

    def test_transfer_time_positive(self, result):
        assert result.metrics.total_kv_transfer_time > 0
        assert result.metrics.mean_kv_transfer_time > 0

    def test_decode_pool_has_no_hybrid_iterations(self, result):
        prefill_stats, decode_stats = result.metrics.replicas
        assert prefill_stats.num_iterations > 0
        assert decode_stats.num_iterations > 0
        assert result.metrics.fleet.hybrid_iteration_fraction == 0.0

    def test_decode_tbt_cleaner_than_colocated(self, llama3_deployment, result):
        """The disaggregation win: decodes never share an iteration with
        prefill chunks, so tail TBT drops versus colocated hybrid serving."""
        requests = build_scenario("arxiv-summarization", 48, seed=5, qps=0.85 * 2)
        colocated = ClusterSimulator(
            ColocatedTopology(
                llama3_deployment,
                num_replicas=2,
                scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            ),
            router="round-robin",
        ).run(requests)
        assert result.metrics.fleet.tbt_p99 < colocated.metrics.fleet.tbt_p99


class TestTopologyFromSpec:
    def test_colocated_spec(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=3)
        topology = topology_from_spec(spec)
        assert topology.kind == "colocated"
        assert topology.entry_indices == [0, 1, 2]

    def test_disaggregated_spec_auto_split(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=5, topology="disaggregated")
        topology = topology_from_spec(spec)
        assert topology.kind == "disaggregated"
        assert topology.num_prefill == 2
        assert topology.num_decode == 3
        assert topology.entry_indices == [0, 1]
        assert topology.decode_indices == [2, 3, 4]

    def test_spec_validation(self, llama3_deployment):
        with pytest.raises(ValueError):
            ClusterSpec(llama3_deployment, num_replicas=1, topology="disaggregated")
        with pytest.raises(ValueError):
            ClusterSpec(llama3_deployment, num_replicas=2, topology="ring")
        with pytest.raises(ValueError):
            ClusterSpec(
                llama3_deployment, num_replicas=2, topology="disaggregated", prefill_replicas=2
            )

    def test_total_gpus(self, llama3_deployment, yi_deployment):
        assert ClusterSpec(llama3_deployment, num_replicas=4).total_gpus == 8  # TP-2
        assert ClusterSpec(yi_deployment, num_replicas=4).total_gpus == 4  # TP-1

    def test_transfer_model_scales_with_context(self, llama3_deployment):
        model = KVTransferModel(bandwidth=64e9, latency=1e-3)
        short = model.transfer_time(llama3_deployment, 1024)
        long = model.transfer_time(llama3_deployment, 8192)
        assert long > short > 1e-3


class TestClusterValidation:
    def test_empty_request_list_rejected(self, llama3_deployment):
        topology = ColocatedTopology(llama3_deployment, num_replicas=1)
        with pytest.raises(ValueError):
            ClusterSimulator(topology).run([])

    def test_offline_burst(self, llama3_deployment):
        """All-at-time-zero arrivals spread across replicas and finish."""
        requests = uniform_workload(12, prefill_tokens=4096, decode_tokens=64)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=3,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        result = ClusterSimulator(topology, router="round-robin").run(requests)
        assert all(r.is_finished for r in result.requests)
        per_replica = {}
        for request_id, replica in result.assignments.items():
            per_replica[replica] = per_replica.get(replica, 0) + 1
        assert per_replica == {0: 4, 1: 4, 2: 4}

    def test_custom_unregistered_router_instance(self, llama3_deployment):
        """A RouterPolicy subclass that is not in the registry works as-is."""
        from repro.cluster.router import RouterPolicy

        class AlwaysFirstRouter(RouterPolicy):
            name = "always-first"
            needs_loads = False

            def choose(self, loads, request):
                return 0

        requests = uniform_workload(4, prefill_tokens=1024, decode_tokens=8)
        topology = ColocatedTopology(llama3_deployment, num_replicas=2)
        result = ClusterSimulator(topology, router=AlwaysFirstRouter()).run(requests)
        assert all(r.is_finished for r in result.requests)
        assert set(result.assignments.values()) == {0}

    def test_repeated_run_starts_from_clean_fleet(self, llama3_deployment):
        """Back-to-back run() calls must not leak clocks/counters across traces."""
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="round-robin")
        first = simulator.run(uniform_workload(4, prefill_tokens=2048, decode_tokens=16))
        second = simulator.run(uniform_workload(4, prefill_tokens=2048, decode_tokens=16))
        assert second.metrics.fleet.makespan == pytest.approx(
            first.metrics.fleet.makespan, rel=1e-9
        )
        assert second.metrics.fleet.num_iterations == first.metrics.fleet.num_iterations
        # Round-robin restarts at replica 0 on each run.
        assert second.assignments == first.assignments

    def test_run_does_not_mutate_caller_requests(self, llama3_deployment):
        """run() simulates fresh copies; the caller's list and objects stay as given.

        The trace is out of arrival order, so sorting the caller's list in
        place (instead of a copy) reorders it and fails the identity check.
        """
        requests = tab06_trace(16)[::-1]
        identities = [id(r) for r in requests]
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        result = ClusterSimulator(topology, router="least-tokens").run(requests)
        assert [id(r) for r in requests] == identities
        assert all(r.state == RequestState.QUEUED for r in requests)
        assert all(r.first_token_time is None for r in requests)
        assert all(r.is_finished for r in result.requests)
        assert {r.request_id for r in result.requests} == {r.request_id for r in requests}

    def test_run_twice_on_same_list_is_deterministic(self, llama3_deployment):
        """Pre-fix, the second run() raised (or double-counted) because the
        first had driven the caller's requests to FINISHED."""
        requests = tab06_trace(16)
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        first = simulator.run(requests)
        second = simulator.run(requests)
        assert second.metrics.fleet.makespan == first.metrics.fleet.makespan
        assert second.assignments == first.assignments
        for a, b in zip(first.requests, second.requests):
            assert a.finish_time == b.finish_time
            assert a.token_intervals == b.token_intervals

    def test_single_token_decode_finishes_in_prefill_pool(self, llama3_deployment):
        """decode_tokens == 1 completes at prefill time; no KV transfer."""
        requests = [Request(request_id=0, prefill_tokens=2048, decode_tokens=1)]
        topology = DisaggregatedTopology(llama3_deployment, num_prefill=1, num_decode=1)
        result = ClusterSimulator(topology).run(requests)
        assert result.requests[0].is_finished
        assert result.metrics.num_kv_transfers == 0


class TestIncrementalLoadAccounting:
    """The heap/counter hot path must be indistinguishable from the
    reference scan-based routing it replaced: ``scan_checked`` checks every
    routing snapshot against a full outstanding-request scan."""

    @pytest.mark.parametrize("topology_kind", ["colocated", "disaggregated"])
    @pytest.mark.parametrize("router", ["least-requests", "least-tokens", "prefill-aware"])
    def test_counter_routing_matches_scan_routing(
        self, llama3_deployment, scan_checked, topology_kind, router
    ):
        def build():
            if topology_kind == "colocated":
                return ColocatedTopology(
                    llama3_deployment,
                    num_replicas=3,
                    scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
                )
            return DisaggregatedTopology(
                llama3_deployment, num_prefill=2, num_decode=2, chunk_size=1024
            )

        requests = tab06_trace(24)
        fast = ClusterSimulator(build(), router=router).run(requests)
        checked = scan_checked(ClusterSimulator(build(), router=router))
        scanned = checked.run(requests)
        assert checked.router.snapshots_checked == len(requests)
        if topology_kind == "disaggregated":
            assert checked.decode_router.snapshots_checked == len(scanned.decode_assignments)
        assert fast.assignments == scanned.assignments
        assert fast.decode_assignments == scanned.decode_assignments
        assert fast.metrics.fleet.makespan == scanned.metrics.fleet.makespan
        for a, b in zip(fast.requests, scanned.requests):
            assert a.first_token_time == b.first_token_time
            assert a.finish_time == b.finish_time

    def test_counters_zero_after_drain(self, llama3_deployment):
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        simulator = ClusterSimulator(topology, router="least-tokens")
        simulator.run(tab06_trace(12))
        for replica in simulator.replicas:
            assert replica.load_num_requests == 0
            assert replica.load_total_tokens == 0
            assert replica.load_prefill_tokens == 0
            assert replica.scan_load() == (0, 0, 0)

    def test_scan_router_flags_corrupted_counter(self, llama3_deployment, scan_checked):
        from repro.verify.invariants import InvariantViolationError

        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = scan_checked(ClusterSimulator(topology, router="least-tokens"))
        simulator.replicas[0].load_total_tokens += 7  # inject drift
        with pytest.raises(InvariantViolationError, match="load-accounting"):
            simulator.run(tab06_trace(8))
