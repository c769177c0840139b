"""Tests for the cluster simulator: single-replica equivalence, colocated
scaling, and prefill/decode disaggregation."""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import NamedTuple

import pytest

from repro.cluster import (
    ClusterSimulator,
    ColocatedTopology,
    DisaggregatedTopology,
    KVTransferModel,
    topology_from_spec,
)
from repro.models.config import ClusterSpec
from repro.models.transformer import IterationCostModel
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.kv_cache import KVCacheConfig
from repro.serving.request import Request, RequestState
from repro.serving.replica import ReplicaRuntime
from repro.serving.scheduler import Scheduler
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


def _colocated_fleet(deployment) -> ClusterSimulator:
    """2 POD replicas (Sarathi, full reservation) behind least-tokens."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=2,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        backend_builder=PODBackend,
    )
    return ClusterSimulator(topology, router="least-tokens")


def _kv_pressure_fleet(deployment) -> ClusterSimulator:
    """1 Sarathi replica with preemption into a 16K-token prefix cache."""
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024, preemption=True),
        kv_config=KVCacheConfig(capacity_tokens=16384, enable_prefix_caching=True),
    )
    return ClusterSimulator(topology)


class _StepRecord(NamedTuple):
    """One executed ``ReplicaRuntime.step()`` call, as ``_observe`` saw it."""

    scheduled: int  # SarathiScheduler.schedule calls
    executed: int  # InferenceEngine.execute calls
    waiting: int  # the waiting queue left by the last arrival admission
    prefill: bool  # the batch had a prefill item
    preempted: int  # the batch's preemptions
    blocked: bool  # the batch recorded why admission blocked
    released: int  # the step's releases
    grows: int  # ReplicaRuntime._grow calls
    preempting: int  # Scheduler._grow_preempting calls: the growth pass failed
    leap_refusals: int  # _grow refusals in leaps since the previous step() call


class TestSteadyDecodeBatches:
    """A replica reschedules only on the steps that cannot re-run its last
    batch, or whose KV growth does not fit, and runs the engine only on the
    steps it schedules and on the re-runs that release a request: every
    other re-run leaps.  Every executed step is priced exactly once, and a
    growth that does not fit is checked once by the leap and once by the
    scheduler.  Counts carry no timing noise."""

    #: (fleet, scenario, requests, qps) of the two fleets observed.
    FLEETS = {
        "colocated": (_colocated_fleet, "arxiv-summarization", 16, None),
        "kv-pressure": (_kv_pressure_fleet, "shared-prefix-chat", 96, 12.0),
    }

    @classmethod
    def _observe(cls, monkeypatch, deployment, fleet):
        """Serve ``fleet``'s scenario and return the simulator, the call
        counts and, per replica, one :class:`_StepRecord` per executed
        ``step()`` call."""
        build, scenario, num_requests, qps = cls.FLEETS[fleet]
        simulator = build(deployment)
        calls: Counter = Counter()
        waiting: dict[object, int] = {}
        executed: list[ScheduledBatch] = []
        steps: defaultdict[object, list] = defaultdict(list)
        leap_refusals: Counter = Counter()
        stepping = []  # the replica inside step(), if any

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

        grow = ReplicaRuntime._grow

        def observed_grow(replica, decodes, ahead=0):
            grown = grow(replica, decodes, ahead)
            calls["grow refusals"] += not grown
            if stepping:
                calls["step grows"] += 1
            elif not grown:
                leap_refusals[replica] += 1
            return grown

        step = ReplicaRuntime.step

        def observed_step(replica):
            before = calls.copy()
            stepping.append(replica)
            try:
                outcome = step(replica)
            finally:
                stepping.pop()
            refusals = leap_refusals.pop(replica, 0)
            if outcome.executed:
                batch = executed[-1]
                steps[replica].append(
                    _StepRecord(
                        scheduled=calls["schedule"] - before["schedule"],
                        executed=calls["execute"] - before["execute"],
                        waiting=waiting[replica],
                        prefill=bool(batch.prefill_items),
                        preempted=len(batch.preempted),
                        blocked=batch.admission_blocked is not None,
                        released=len(outcome.released),
                        grows=calls["step grows"] - before["step grows"],
                        preempting=calls["preempting"] - before["preempting"],
                        leap_refusals=refusals,
                    )
                )
            return outcome

        monkeypatch.setattr(
            SarathiScheduler, "schedule", counted("schedule", SarathiScheduler.schedule)
        )
        monkeypatch.setattr(
            Scheduler, "_grow_preempting", counted("preempting", Scheduler._grow_preempting)
        )
        monkeypatch.setattr(
            IterationCostModel,
            "iteration_breakdown",
            counted("priced", IterationCostModel.iteration_breakdown),
        )
        monkeypatch.setattr(ReplicaRuntime, "_admit_arrivals", observed_admit)
        monkeypatch.setattr(InferenceEngine, "execute", observed_execute)
        monkeypatch.setattr(ReplicaRuntime, "_grow", observed_grow)
        monkeypatch.setattr(ReplicaRuntime, "step", observed_step)
        simulator.run_scenario(scenario, num_requests=num_requests, seed=0, qps=qps)
        return simulator, calls, [steps[replica] for replica in simulator.replicas]

    @staticmethod
    def _walk(steps):
        """Yield each step record with whether the rule lets it re-run: the
        step before it decoded only, preempted and released nothing, and
        either nothing waits now or that step recorded why admission
        blocked.  Leaped re-runs between two ``step()`` calls repeat the
        earlier call's batch, so they change neither condition."""
        previous_steady = previous_blocked = False  # the first step re-runs nothing
        for record in steps:
            yield record, previous_steady and (not record.waiting or previous_blocked)
            previous_steady = not (record.prefill or record.preempted or record.released)
            previous_blocked = record.blocked

    @pytest.mark.parametrize("fleet", ["colocated", "kv-pressure"])
    def test_prices_each_executed_step_once(self, llama3_deployment, monkeypatch, fleet):
        simulator, calls, per_replica = self._observe(monkeypatch, llama3_deployment, fleet)
        executed_steps = sum(replica.steps_executed for replica in simulator.replicas)
        assert calls["priced"] == executed_steps
        assert calls["execute"] == sum(map(len, per_replica))
        assert executed_steps > 2 * calls["execute"]

    def test_executes_only_scheduled_and_releasing_steps(self, llama3_deployment, monkeypatch):
        simulator, calls, per_replica = self._observe(monkeypatch, llama3_deployment, "colocated")
        releasing_reruns = 0
        for steps in per_replica:
            assert steps
            for record, can_rerun in self._walk(steps):
                assert record.scheduled == (0 if can_rerun else 1)
                assert record.executed == 1
                releasing_reruns += can_rerun and record.released > 0
        assert releasing_reruns > 0
        assert calls["execute"] == calls["schedule"] + releasing_reruns
        executed_steps = sum(replica.steps_executed for replica in simulator.replicas)
        assert executed_steps > 10 * calls["execute"]

    def test_preemption_schedules_only_steps_that_cannot_rerun(
        self, llama3_deployment, monkeypatch
    ):
        """Under preemption a step that may re-run still schedules when its
        decodes' growth does not fit, and the scheduler then preempts."""
        simulator, calls, (steps,) = self._observe(monkeypatch, llama3_deployment, "kv-pressure")
        shapes: Counter = Counter()
        for record, can_rerun in self._walk(steps):
            assert record.executed == 1
            assert record.scheduled == (1 if not can_rerun or record.preempted else 0)
            shapes[can_rerun, bool(record.waiting), record.scheduled] += 1
        assert shapes[True, True, 0] > 0  # re-runs past a refused queue head
        assert shapes[True, True, 1] + shapes[True, False, 1] > 0  # growth fell back
        assert 3 * calls["schedule"] < simulator.replicas[0].steps_executed

    def test_growth_that_does_not_fit_is_checked_twice(self, llama3_deployment, monkeypatch):
        """Only a step that must preempt leaves ``prepare_decodes``' growth
        pass for the per-decode loop.  A leap that stops because a re-run's
        growth does not fit hands that refusal to the next ``step()``, which
        calls the scheduler without growing through ``_grow`` and without a
        second leap in between: the growth is checked once by the leap and
        once by the growth pass.  Before the hand-off, 20 of these 22 steps
        came after a second leap that refused the same growth, and each of
        the 22 refused it once more through ``_grow``."""
        simulator, calls, (steps,) = self._observe(monkeypatch, llama3_deployment, "kv-pressure")
        for record in steps:
            assert record.preempting == (record.preempted > 0)
        handed = [record for record in steps if record.leap_refusals]
        for record in handed:
            assert (record.leap_refusals, record.grows, record.scheduled) == (1, 0, 1)
            assert record.preempting == 1
        refused_in_step = [record for record in steps if record.grows and record.scheduled]
        assert (len(handed), len(refused_in_step), calls["grow refusals"]) == (22, 1, 23)
        assert calls["preempting"] == 28  # the 23 refusals and 5 steps that cannot re-run

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
