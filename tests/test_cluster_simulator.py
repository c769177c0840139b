"""Tests for the cluster simulator: single-replica equivalence, colocated
scaling, and prefill/decode disaggregation."""

from __future__ import annotations

import math
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
from repro.models.config import ClusterSpec, ReplicaSpec
from repro.models.transformer import IterationCostModel
from repro.serving.attention_backend import FASerialBackend, PODBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager
from repro.serving.request import Request, RequestState
from repro.serving.replica import ReplicaRuntime, SimulationStuckError
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


class _Iteration(NamedTuple):
    """One iteration a replica ran, as ``_observe`` saw it: a ``step()``
    call or one re-run of a leap."""

    leaped: bool  # a re-run of a leap, not a step() call
    start: float  # its start clock (a step() call's next ready time on entry)
    waiting: int  # the waiting queue left by the last arrival admission
    prefill: bool  # the batch had a prefill item
    preempted: int  # the batch's preemptions
    blocked: bool  # the batch recorded why admission blocked
    released: int  # its releases
    scheduled: int  # SarathiScheduler.schedule calls
    executed: int  # InferenceEngine.execute calls
    growths: int  # KVCacheManager.grow_all calls (of a step() call)
    preempting: int  # Scheduler._grow_preempting calls: the growth pass failed
    refused: bool  # a step() call after a leap that stopped on its growth


class _Advance(NamedTuple):
    """One ``ReplicaRuntime.advance`` call, as ``_observe`` saw it."""

    until: float
    iterations: list[_Iteration]
    released: int  # the outcome's releases
    ready: float | None  # the replica's next ready time after the call


class TestSteadyDecodeBatches:
    """Every ``step()`` call schedules and executes once, and a replica leaps
    through exactly the steps that may re-run its last batch, except those
    whose KV growth does not fit, which ``advance`` schedules in the same
    call.  Every executed step is priced exactly once, a growth that does
    not fit is checked once by the leap and once by the scheduler's growth
    pass, and each ``advance`` call stops after a release or before
    ``until``.  Counts carry no timing noise."""

    #: (fleet, scenario, requests, qps) of the two fleets observed.
    FLEETS = {
        "colocated": (_colocated_fleet, "arxiv-summarization", 16, None),
        "kv-pressure": (_kv_pressure_fleet, "shared-prefix-chat", 96, 12.0),
    }

    @classmethod
    def _observe(cls, monkeypatch, deployment, fleet):
        """Serve ``fleet``'s scenario and return the simulator, the call
        counts, per replica its :class:`_Iteration` list, and every
        :class:`_Advance`."""
        build, scenario, num_requests, qps = cls.FLEETS[fleet]
        simulator = build(deployment)
        calls: Counter = Counter()
        waiting: dict[object, int] = {}
        executed: list[ScheduledBatch] = []
        durations: list[float] = []
        iterations: defaultdict[object, list[_Iteration]] = defaultdict(list)
        advances: list[_Advance] = []
        refusals: dict[object, int] = {}  # replica -> call whose leap stopped on growth
        inside: list[str] = []  # "leap" or "step" while one runs

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

        rerun_durations = InferenceEngine.rerun_durations

        def observed_durations(engine, batch):
            for duration in rerun_durations(engine, batch):
                durations.append(duration)
                yield duration

        grow_all = KVCacheManager.grow_all

        def observed_grow_all(kv_cache, requests, ahead=0):
            grown = grow_all(kv_cache, requests, ahead)
            calls[f"{inside[-1]} growths"] += 1
            calls[f"{inside[-1]} growth refusals"] += not grown
            return grown

        step = ReplicaRuntime.step

        def observed_step(replica):
            before = calls.copy()
            start = replica.next_ready_time()
            inside.append("step")
            try:
                outcome = step(replica)
            finally:
                inside.pop()
            if outcome.executed:
                batch = executed[-1]
                iterations[replica].append(
                    _Iteration(
                        leaped=False,
                        start=start,
                        waiting=waiting[replica],
                        prefill=bool(batch.prefill_items),
                        preempted=len(batch.preempted),
                        blocked=batch.admission_blocked is not None,
                        released=len(outcome.released),
                        scheduled=calls["schedule"] - before["schedule"],
                        executed=calls["execute"] - before["execute"],
                        growths=calls["step growths"] - before["step growths"],
                        preempting=calls["preempting"] - before["preempting"],
                        refused=refusals.pop(replica, None) == len(advances),
                    )
                )
            return outcome

        leap = ReplicaRuntime._leap

        def observed_leap(replica, batch, until):
            refused_before = calls["leap growth refusals"]
            clock, steps = replica.clock, replica.steps_executed
            durations.clear()
            inside.append("leap")
            try:
                released = leap(replica, batch, until)
            finally:
                inside.pop()
            leaped = replica.steps_executed - steps
            assert durations[leaped:] == []  # no step is priced that does not run
            if calls["leap growth refusals"] > refused_before:
                refusals[replica] = len(advances)
            for index, duration in enumerate(durations):
                iterations[replica].append(
                    _Iteration(
                        leaped=True,
                        start=clock,
                        waiting=len(replica.waiting),
                        prefill=False,
                        preempted=0,
                        blocked=batch.admission_blocked is not None,
                        released=len(released or ()) if index == leaped - 1 else 0,
                        scheduled=0,
                        executed=0,
                        growths=0,
                        preempting=0,
                        refused=False,
                    )
                )
                clock += duration
            return released

        advance = ReplicaRuntime.advance

        def observed_advance(replica, until=math.inf):
            first = len(iterations[replica])
            outcome = advance(replica, until)
            advances.append(
                _Advance(
                    until=until,
                    iterations=iterations[replica][first:],
                    released=len(outcome.released),
                    ready=replica.next_ready_time(),
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
        monkeypatch.setattr(InferenceEngine, "rerun_durations", observed_durations)
        monkeypatch.setattr(KVCacheManager, "grow_all", observed_grow_all)
        monkeypatch.setattr(ReplicaRuntime, "step", observed_step)
        monkeypatch.setattr(ReplicaRuntime, "_leap", observed_leap)
        monkeypatch.setattr(ReplicaRuntime, "advance", observed_advance)
        simulator.run(build_scenario(scenario, num_requests=num_requests, seed=0, qps=qps))
        return (
            simulator,
            calls,
            [iterations[replica] for replica in simulator.replicas],
            advances,
        )

    @staticmethod
    def _walk(iterations):
        """Yield each iteration with whether the rule lets it re-run: the
        iteration before it decoded only, preempted and released nothing,
        and either nothing waits now or that iteration recorded why
        admission blocked."""
        previous_steady = previous_blocked = False  # the first step re-runs nothing
        for iteration in iterations:
            yield iteration, previous_steady and (not iteration.waiting or previous_blocked)
            previous_steady = not (iteration.prefill or iteration.preempted or iteration.released)
            previous_blocked = iteration.blocked

    @pytest.mark.parametrize("fleet", ["colocated", "kv-pressure"])
    def test_every_step_call_schedules_and_executes_once(
        self, llama3_deployment, monkeypatch, fleet
    ):
        _, calls, per_replica, _ = self._observe(monkeypatch, llama3_deployment, fleet)
        stepped = [it for iterations in per_replica for it in iterations if not it.leaped]
        assert all((it.scheduled, it.executed) == (1, 1) for it in stepped)
        step_calls = {"colocated": 155, "kv-pressure": 306}[fleet]
        assert calls["schedule"] == calls["execute"] == len(stepped) == step_calls

    @pytest.mark.parametrize("fleet", ["colocated", "kv-pressure"])
    def test_prices_each_executed_step_once(self, llama3_deployment, monkeypatch, fleet):
        simulator, calls, per_replica, _ = self._observe(monkeypatch, llama3_deployment, fleet)
        executed_steps = {"colocated": 3750, "kv-pressure": 1521}[fleet]
        assert sum(replica.steps_executed for replica in simulator.replicas) == executed_steps
        assert calls["priced"] == sum(map(len, per_replica)) == executed_steps

    @pytest.mark.parametrize("fleet", ["colocated", "kv-pressure"])
    def test_leaps_exactly_the_steps_the_rule_allows(self, llama3_deployment, monkeypatch, fleet):
        """The leaped re-runs are the steps the rule lets re-run, minus
        those whose growth does not fit: ``advance`` schedules each of
        those, and the scheduler preempts."""
        _, _, per_replica, _ = self._observe(monkeypatch, llama3_deployment, fleet)
        allowed = leaped = refused = past_waiting = 0
        for iterations in per_replica:
            for iteration, can_rerun in self._walk(iterations):
                assert iteration.leaped == (can_rerun and not iteration.refused)
                assert iteration.refused <= (can_rerun and iteration.preempted > 0)
                allowed += can_rerun
                leaped += iteration.leaped
                refused += iteration.refused
                past_waiting += iteration.leaped and iteration.waiting > 0
        assert leaped == allowed - refused
        counts = {"colocated": (3595, 0, 0), "kv-pressure": (1215, 23, 527)}[fleet]
        assert (leaped, refused, past_waiting) == counts

    def test_growth_that_does_not_fit_is_checked_twice(self, llama3_deployment, monkeypatch):
        """Only a step that must preempt leaves ``prepare_decodes``' growth
        pass for the per-decode loop.  A leap that stops because a re-run's
        growth does not fit is followed, in the same ``advance`` call, by
        one ``step()`` that schedules that re-run: its growth pass refuses
        the growth once more and enters the per-decode loop, so the growth
        is checked once by the leap and once by the growth pass."""
        _, calls, (iterations,), advances = self._observe(
            monkeypatch, llama3_deployment, "kv-pressure"
        )
        stepped = [it for it in iterations if not it.leaped]
        for iteration in stepped:
            assert iteration.growths == 1
            assert iteration.preempting == (iteration.preempted > 0)
        refused = [it for it in stepped if it.refused]
        for iteration in refused:
            assert (iteration.scheduled, iteration.preempting) == (1, 1)
        assert calls["leap growth refusals"] == len(refused) == 23
        # The 23 refused growths, and 5 steps that cannot re-run and preempt.
        assert calls["step growth refusals"] == calls["preempting"] == 28

    @pytest.mark.parametrize("fleet", ["colocated", "kv-pressure"])
    def test_advance_ends_after_a_release_or_at_until(self, llama3_deployment, monkeypatch, fleet):
        """Each ``advance`` call runs its first iteration, then only
        iterations that start before ``until``, and returns after the
        first iteration that releases a request, once drained, or when
        the next iteration would start at or after ``until``."""
        _, _, _, advances = self._observe(monkeypatch, llama3_deployment, fleet)
        released = drained = at_until = 0
        for call in advances:
            assert call.iterations
            assert all(it.released == 0 for it in call.iterations[:-1])
            assert all(it.start < call.until for it in call.iterations[1:])
            assert call.released == call.iterations[-1].released
            if call.released:
                released += 1
            elif call.ready is None:
                drained += 1
            else:
                assert call.ready >= call.until
                at_until += 1
        ends = {"colocated": (16, 0, 25), "kv-pressure": (95, 0, 83)}[fleet]
        assert (released, drained, at_until) == ends


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


def _fleet(kind: str, deployment, replica_specs=()):
    if kind == "colocated":
        return ColocatedTopology(deployment, 2, replica_specs=replica_specs)
    return DisaggregatedTopology(deployment, 1, 1, replica_specs=replica_specs)


class TestOneFleetForm:
    """``(deployment, num_replicas)`` and ``replica_specs`` are one fleet form."""

    @pytest.mark.parametrize("kind", ["colocated", "disaggregated"])
    def test_homogeneous_form_expands_to_replica_specs(self, llama3_deployment, kind):
        topology = _fleet(kind, llama3_deployment)
        assert topology.replica_specs == (ReplicaSpec(llama3_deployment),) * 2
        assert [topology.spec_for(index) for index in range(2)] == list(topology.replica_specs)
        assert topology.deployment_for(1) == llama3_deployment

    @pytest.mark.parametrize("kind", ["colocated", "disaggregated"])
    def test_spec_count_must_match_the_fleet(self, llama3_deployment, kind):
        with pytest.raises(ValueError, match="replica_specs has 1 entries for 2 replicas"):
            _fleet(kind, llama3_deployment, replica_specs=(ReplicaSpec(llama3_deployment),))


class TestStuckCluster:
    def test_drained_with_unfinished_requests_carries_them(self, llama3_deployment, monkeypatch):
        """A prefill replica whose hand-offs are lost drains with its requests
        unfinished: the error names them all, with the state of the replica
        the first was routed to."""
        advance = ReplicaRuntime.advance

        def loses_hand_offs(replica, until=math.inf):
            outcome = advance(replica, until)
            if replica.replica_id == 0:
                outcome.released = []
            return outcome

        monkeypatch.setattr(ReplicaRuntime, "advance", loses_hand_offs)
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        requests = uniform_workload(3, prefill_tokens=512, decode_tokens=8)
        with pytest.raises(
            SimulationStuckError, match=r"cluster drained with 3 unfinished requests \(first: 0\)"
        ) as caught:
            ClusterSimulator(topology).run(requests)
        error = caught.value
        assert error.unfinished == tuple(r.request_id for r in requests) == (0, 1, 2)
        assert (error.replica_id, error.waiting, error.running) == (0, 0, 0)
        assert error.clock > 0
        assert error.kv_free_blocks == error.kv_total_blocks > 0


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
