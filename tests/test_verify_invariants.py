"""Tests for the invariant checker: clean logs pass, corrupted logs are caught.

The positive half records real simulations (both schedulers, both cluster
topologies) and asserts zero violations.  The negative half hand-builds or
tampers event streams to prove each invariant actually fires — a checker
that never flags anything would pass the positive half trivially.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.cluster import ClusterSimulator, ColocatedTopology, DisaggregatedTopology
from repro.serving.attention_backend import FASerialBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify import (
    CHUNK_EXECUTED,
    COMPLETED,
    Event,
    EventRecorder,
    InvariantViolationError,
    assert_no_violations,
    check_event_log,
)
from repro.workloads import build_scenario


def trace(num_requests=6, qps=2.0):
    return build_scenario("arxiv-summarization", num_requests, seed=11, qps=qps)


def record_single(deployment, scheduler) -> EventRecorder:
    recorder = EventRecorder()
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: scheduler,
        backend_builder=FASerialBackend,
    )
    ClusterSimulator(topology, recorder=recorder).run(trace())
    return recorder


class TestCleanRunsPass:
    def test_sarathi(self, llama3_deployment):
        recorder = record_single(llama3_deployment, SarathiScheduler(chunk_size=1024))
        assert check_event_log(recorder) == []

    def test_small_chunk_sarathi(self, llama3_deployment):
        recorder = record_single(llama3_deployment, SarathiScheduler(chunk_size=256))
        assert check_event_log(recorder) == []

    def test_vllm(self, llama3_deployment):
        recorder = record_single(llama3_deployment, VLLMScheduler())
        assert check_event_log(recorder) == []

    def test_colocated_cluster(self, llama3_deployment):
        recorder = EventRecorder()
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        ClusterSimulator(topology, router="least-tokens", recorder=recorder).run(
            trace(8, qps=3.0)
        )
        assert check_event_log(recorder) == []

    def test_disaggregated_cluster(self, llama3_deployment):
        recorder = EventRecorder()
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        ClusterSimulator(topology, recorder=recorder).run(trace(8, qps=3.0))
        assert check_event_log(recorder) == []

    def test_assert_no_violations_passes(self, llama3_deployment):
        recorder = record_single(llama3_deployment, SarathiScheduler(chunk_size=1024))
        assert_no_violations(recorder)


# --------------------------------------------------------- corrupted streams


#: The rest of an admission's and a free's KV payload: one private block on a
#: four-block cache, nothing shared, cached or evicted.
ADMIT_SPLIT = {
    "cached_blocks": 0,
    "total_blocks": 4,
    "private_blocks": 1,
    "shared_new": 0,
    "shared_revived": 0,
    "shared_ref_hits": 0,
    "evictions": 0,
    "cached_tokens": 0,
}
FREE_SPLIT = {
    "cached_blocks": 0,
    "total_blocks": 4,
    "private_blocks": 1,
    "shared_released": 0,
    "to_cache": 0,
}


def minimal_good_stream() -> list[Event]:
    """A tiny hand-built stream that satisfies every invariant.

    One request (8 prefill tokens, 2 decode tokens) served in two iterations
    on replica 0: a prefill chunk producing the first token, then one decode.
    """
    return [
        Event(
            "enqueued", 0.0, 0, 1, {"arrival_time": 0.0, "prefill_tokens": 8, "decode_tokens": 2}
        ),
        Event("arrival", 0.0, 0, 1, {"ready": 0.0}),
        Event("kv_shared_alloc", 0.0, 0, 1, {"blocks": 1, "used_blocks": 1, **ADMIT_SPLIT}),
        Event("admitted", 0.0, 0, 1, {}),
        Event(
            "batch_formed",
            0.0,
            0,
            -1,
            {
                "scheduler": "Sarathi",
                "num_prefill_tokens": 8,
                "num_decode_tokens": 0,
                "largest_prefill_item": 8,
                "chunk_size": 16,
                "max_prefill_tokens": None,
                "max_batch_size": 256,
                "is_hybrid": False,
            },
        ),
        Event("step", 0.0, 0, -1, {"duration": 1.0, "num_tokens": 8}),
        Event("chunk_executed", 1.0, 0, 1, {"phase": "prefill", "tokens": 8}),
        Event(
            "batch_formed",
            1.0,
            0,
            -1,
            {
                "scheduler": "Sarathi",
                "num_prefill_tokens": 0,
                "num_decode_tokens": 1,
                "largest_prefill_item": 0,
                "chunk_size": 16,
                "max_prefill_tokens": None,
                "max_batch_size": 256,
                "is_hybrid": False,
            },
        ),
        Event("step", 1.0, 0, -1, {"duration": 1.0, "num_tokens": 1}),
        Event("chunk_executed", 2.0, 0, 1, {"phase": "decode", "tokens": 1}),
        Event("kv_free", 2.0, 0, 1, {"blocks": 1, "used_blocks": 0, **FREE_SPLIT}),
        Event("released", 2.0, 0, 1, {"state": "finished"}),
        Event("completed", 2.0, 0, 1, {}),
    ]


def violations_of(events, invariant: str) -> list:
    return [v for v in check_event_log(events) if v.invariant == invariant]


class TestMinimalStream:
    def test_is_clean(self):
        assert check_event_log(minimal_good_stream()) == []


class TestCausalityViolations:
    def test_completion_before_arrival(self):
        events = minimal_good_stream()
        events[0] = replace(
            events[0], data={"arrival_time": 5.0, "prefill_tokens": 8, "decode_tokens": 2}
        )
        found = violations_of(events, "causality")
        assert any("before arrival" in v.message for v in found)

    def test_chunk_before_admission(self):
        events = [e for e in minimal_good_stream() if e.kind != "admitted"]
        found = violations_of(events, "causality")
        assert any("before admission" in v.message for v in found)

    def test_chunk_after_completion(self):
        events = minimal_good_stream()
        events.append(Event("chunk_executed", 3.0, 0, 1, {"phase": "decode", "tokens": 1}))
        found = violations_of(events, "causality")
        assert any("after completion" in v.message for v in found)


class TestTokenConservationViolations:
    def test_lost_prefill_tokens(self):
        events = minimal_good_stream()
        index = next(
            i
            for i, e in enumerate(events)
            if e.kind == CHUNK_EXECUTED and e.data["phase"] == "prefill"
        )
        events[index] = replace(events[index], data={"phase": "prefill", "tokens": 7})
        found = violations_of(events, "token-conservation")
        assert any("effective prefill is 7" in v.message for v in found)

    def test_extra_prefill_tokens(self):
        events = minimal_good_stream()
        events.insert(7, Event("chunk_executed", 1.0, 0, 1, {"phase": "prefill", "tokens": 3}))
        found = violations_of(events, "token-conservation")
        assert any("> prompt length" in v.message for v in found)

    def test_extra_decode_token(self):
        events = minimal_good_stream()
        # A second decode chunk would over-produce output tokens.
        events.insert(-3, Event("chunk_executed", 2.0, 0, 1, {"phase": "decode", "tokens": 1}))
        found = violations_of(events, "token-conservation")
        assert any("decode chunks" in v.message for v in found)


class TestCompletionViolations:
    def test_request_never_completes(self):
        events = [e for e in minimal_good_stream() if e.kind != COMPLETED]
        found = violations_of(events, "completion")
        assert any("never completed" in v.message for v in found)

    def test_double_completion(self):
        events = minimal_good_stream()
        events.append(Event("completed", 2.0, 0, 1, {}))
        found = violations_of(events, "completion")
        assert any("more than once" in v.message for v in found)

    def test_undrained_run_allowed_when_not_expected(self):
        events = [e for e in minimal_good_stream() if e.kind not in (COMPLETED, "kv_free")]
        assert check_event_log(events, expect_drained=False) == []
        assert check_event_log(events, expect_drained=True) != []


class TestKVAccountingViolations:
    def test_usage_exceeds_capacity(self):
        events = minimal_good_stream()
        events[2] = replace(
            events[2], data=dict(events[2].data, blocks=9, used_blocks=9, private_blocks=9)
        )
        events[10] = replace(events[10], data=dict(events[10].data, blocks=9, private_blocks=9))
        found = violations_of(events, "kv-accounting")
        assert any("exceeds capacity" in v.message for v in found)

    def test_reported_usage_mismatch(self):
        events = minimal_good_stream()
        events[2] = replace(events[2], data=dict(events[2].data, used_blocks=3))
        found = violations_of(events, "kv-accounting")
        assert any("replayed usage" in v.message for v in found)

    def test_free_without_alloc(self):
        events = minimal_good_stream()
        events.insert(
            2, Event("kv_free", 0.0, 0, 99, {"blocks": 1, "used_blocks": -1, **FREE_SPLIT})
        )
        found = violations_of(events, "kv-accounting")
        assert any("no blocks" in v.message for v in found)

    def test_freed_blocks_disagree_with_their_split(self):
        events = minimal_good_stream()
        events[10] = replace(events[10], data=dict(events[10].data, blocks=2))
        found = violations_of(events, "kv-accounting")
        assert any("splits them into 1 private and 0 shared" in v.message for v in found)

    def test_leaked_blocks_after_drain(self):
        events = [e for e in minimal_good_stream() if e.kind != "kv_free"]
        found = violations_of(events, "kv-accounting")
        assert any("still allocated after drain" in v.message for v in found)


class TestBatchBudgetViolations:
    def test_chunk_budget_overflow(self):
        events = minimal_good_stream()
        events[4] = replace(
            events[4],
            data=dict(events[4].data, num_prefill_tokens=999, largest_prefill_item=999),
        )
        found = violations_of(events, "batch-budget")
        assert any("chunk budget" in v.message for v in found)

    def test_vllm_hybrid_batch_flagged(self):
        events = minimal_good_stream()
        events[4] = replace(
            events[4],
            data=dict(
                events[4].data,
                scheduler="vLLM",
                chunk_size=None,
                max_prefill_tokens=16384,
                num_decode_tokens=1,
                is_hybrid=True,
            ),
        )
        found = violations_of(events, "batch-budget")
        assert any("hybrid batch" in v.message for v in found)

    def test_decode_pool_never_prefills(self):
        events = minimal_good_stream()
        events[4] = replace(
            events[4],
            data=dict(events[4].data, scheduler="DecodePool", chunk_size=None),
        )
        found = violations_of(events, "batch-budget")
        assert any("decode pool scheduled prefill" in v.message for v in found)

    def test_empty_batch_flagged(self):
        events = minimal_good_stream()
        events[4] = replace(
            events[4],
            data=dict(
                events[4].data, num_prefill_tokens=0, largest_prefill_item=0
            ),
        )
        found = violations_of(events, "batch-budget")
        assert any("empty batch" in v.message for v in found)

    def test_decode_overflow_flagged(self):
        events = minimal_good_stream()
        events[7] = replace(
            events[7],
            data=dict(events[7].data, num_decode_tokens=500),
        )
        found = violations_of(events, "batch-budget")
        assert any("max_batch_size" in v.message for v in found)


class TestClockViolations:
    def test_overlapping_iterations(self):
        events = minimal_good_stream()
        events[8] = replace(events[8], time=0.5)  # second step starts mid-first
        found = violations_of(events, "monotone-clock")
        assert any("before the previous one ended" in v.message for v in found)

    def test_negative_duration(self):
        events = minimal_good_stream()
        events[5] = replace(events[5], data={"duration": -1.0, "num_tokens": 8})
        found = violations_of(events, "monotone-clock")
        assert any("negative iteration duration" in v.message for v in found)

    def test_global_clock_backwards(self):
        events = minimal_good_stream()
        events.insert(0, Event("routed", 10.0, 0, 1, {"router": "round-robin"}))
        found = violations_of(events, "monotone-clock")
        assert any("ran backwards" in v.message for v in found)


class TestShedIsolationViolations:
    """A rejected request is terminal: no lifecycle event may touch it."""

    @staticmethod
    def rejection(time=1.0, request_id=7):
        return Event(
            "rejected",
            time,
            -1,
            request_id,
            {"reason": "overload", "tenant": "default", "tier": "standard"},
        )

    def test_clean_rejection_stream(self):
        """A lone rejection is a complete lifecycle — in particular the
        never-completed postcondition must not fire for it."""
        assert check_event_log([self.rejection()]) == []

    def test_rejected_then_enqueued(self):
        events = [
            self.rejection(),
            Event(
                "enqueued",
                2.0,
                0,
                7,
                {"arrival_time": 1.0, "prefill_tokens": 8, "decode_tokens": 2},
            ),
        ]
        found = violations_of(events, "shed-isolation")
        assert any("enqueued event for a request rejected" in v.message for v in found)

    def test_rejected_request_executes_chunk(self):
        events = [
            self.rejection(),
            Event("chunk_executed", 2.0, 0, 7, {"phase": "prefill", "tokens": 8}),
        ]
        found = violations_of(events, "shed-isolation")
        assert any("chunk_executed event" in v.message for v in found)

    def test_rejected_request_completes(self):
        events = [self.rejection(), Event("completed", 2.0, 0, 7, {})]
        found = violations_of(events, "shed-isolation")
        assert any("completed event" in v.message for v in found)

    def test_rejected_request_routed(self):
        events = [
            self.rejection(),
            Event("routed", 2.0, 0, 7, {"router": "round-robin"}),
        ]
        found = violations_of(events, "shed-isolation")
        assert any("routed event" in v.message for v in found)

    def test_enqueued_then_rejected(self):
        """The reverse order: shedding a request already handed to a replica."""
        events = minimal_good_stream()
        events.append(self.rejection(time=3.0, request_id=1))
        found = violations_of(events, "shed-isolation")
        assert any("already enqueued" in v.message for v in found)

    def test_double_rejection(self):
        events = [self.rejection(), self.rejection(time=2.0)]
        found = violations_of(events, "shed-isolation")
        assert any("more than once" in v.message for v in found)


class TestScalingCausalityViolations:
    """Replica count changes must be causally ordered with routing."""

    @staticmethod
    def scale_up(time=1.0, replica_id=1, ready_at=2.0):
        return Event("scaled_up", time, replica_id, -1, {"ready_at": ready_at})

    def test_clean_scaling_lifecycle(self):
        events = [
            self.scale_up(),
            Event("drain_started", 3.0, 1, -1, {}),
            Event("scaled_down", 4.5, 1, -1, {}),
        ]
        assert check_event_log(events) == []

    def test_scaled_down_local_clock_may_run_ahead(self):
        """scaled_down fires at the draining replica's local drain-completion
        clock, which may legitimately lead the global event loop."""
        events = [
            self.scale_up(),
            Event("drain_started", 3.0, 1, -1, {}),
            Event("scaled_down", 9.0, 1, -1, {}),
            Event("routed", 4.0, 0, -1, {"router": "round-robin"}),
        ]
        assert violations_of(events, "monotone-clock") == []

    def test_routed_during_cold_start(self):
        events = [
            self.scale_up(time=1.0, ready_at=5.0),
            Event("routed", 2.0, 1, -1, {"router": "round-robin"}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("cold start" in v.message for v in found)

    def test_routed_to_draining_replica(self):
        events = [
            Event("drain_started", 1.0, 0, -1, {}),
            Event("routed", 2.0, 0, -1, {"router": "round-robin"}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("draining replica" in v.message for v in found)

    def test_routed_to_retired_replica(self):
        events = [
            Event("drain_started", 1.0, 0, -1, {}),
            Event("scaled_down", 1.5, 0, -1, {}),
            Event("routed", 2.0, 0, -1, {"router": "round-robin"}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("retired replica" in v.message for v in found)

    def test_retired_replica_runs_no_iteration(self):
        """A replica leaves the fleet only once drained: it never steps again."""
        events = [
            Event("drain_started", 1.0, 0, -1, {}),
            Event("scaled_down", 1.5, 0, -1, {}),
            Event("step", 2.0, 0, -1, {"duration": 0.1}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("retired replica ran an iteration" in v.message for v in found)

    def test_scaled_down_without_drain(self):
        events = [Event("scaled_down", 1.0, 0, -1, {})]
        found = violations_of(events, "scaling-causality")
        assert any("without a prior drain_started" in v.message for v in found)

    def test_scaled_down_before_drain_started(self):
        events = [
            Event("drain_started", 3.0, 0, -1, {}),
            Event("scaled_down", 1.0, 0, -1, {}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("before drain started" in v.message for v in found)

    def test_double_scale_up(self):
        events = [self.scale_up(), self.scale_up(time=2.0, ready_at=3.0)]
        found = violations_of(events, "scaling-causality")
        assert any("scaled up more than once" in v.message for v in found)

    def test_double_drain(self):
        events = [
            Event("drain_started", 1.0, 0, -1, {}),
            Event("drain_started", 2.0, 0, -1, {}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("twice" in v.message for v in found)

    def test_drain_on_retired_replica(self):
        events = [
            Event("drain_started", 1.0, 0, -1, {}),
            Event("scaled_down", 1.5, 0, -1, {}),
            Event("drain_started", 2.0, 0, -1, {}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("retired" in v.message for v in found)

    def test_ready_at_before_decision(self):
        events = [self.scale_up(time=2.0, ready_at=1.0)]
        found = violations_of(events, "scaling-causality")
        assert any("precedes the scale-up decision" in v.message for v in found)

    def test_drain_during_cold_start(self):
        events = [
            self.scale_up(time=1.0, ready_at=5.0),
            Event("drain_started", 2.0, 1, -1, {}),
        ]
        found = violations_of(events, "scaling-causality")
        assert any("cold-starting" in v.message for v in found)


class TestAssertHelper:
    def test_raises_with_every_violation_listed(self):
        events = [e for e in minimal_good_stream() if e.kind != COMPLETED]
        with pytest.raises(InvariantViolationError) as excinfo:
            assert_no_violations(events)
        assert "never completed" in str(excinfo.value)
        assert excinfo.value.violations


class TestReplicaLoadCounters:
    """check_replica_load_counters compares the runtime's incremental load
    counters against a fresh outstanding_requests() scan."""

    @staticmethod
    def _runtime():
        from repro.models.config import paper_deployment
        from repro.serving.replica import ReplicaRuntime
        from repro.serving.request import Request
        from repro.serving.scheduler_sarathi import SarathiScheduler

        deployment = paper_deployment("llama-3-8b")
        runtime = ReplicaRuntime(deployment, scheduler=SarathiScheduler(chunk_size=512))
        for request_id in range(3):
            runtime.enqueue(
                Request(request_id=request_id, prefill_tokens=1024, decode_tokens=8)
            )
        return runtime

    def test_clean_runtime_has_no_violations(self):
        from repro.verify.invariants import check_replica_load_counters

        runtime = self._runtime()
        assert check_replica_load_counters([runtime]) == []
        runtime.step()
        assert check_replica_load_counters([runtime]) == []

    def test_drifted_counter_is_flagged(self):
        from repro.verify.invariants import check_replica_load_counters

        runtime = self._runtime()
        runtime.load_prefill_tokens -= 100
        violations = check_replica_load_counters([runtime])
        assert len(violations) == 1
        assert violations[0].invariant == "load-accounting"
        assert violations[0].replica_id == runtime.replica_id


class TestCostAccounting:
    """check_cost_accounting recomputes the dollar ledger from first principles."""

    @staticmethod
    def _priced_metrics():
        from repro.models.config import ClusterSpec, paper_deployment
        from repro.workloads.scenario import run_scenario

        spec = ClusterSpec(paper_deployment("llama-3-8b"), 2)
        return run_scenario(
            "shared-prefix-chat", num_requests=8, seed=4, spec=spec, router="cost-aware"
        ).metrics

    def test_clean_run_balances(self):
        from repro.verify import check_cost_accounting

        metrics = self._priced_metrics()
        assert metrics.cost_usd > 0
        assert check_cost_accounting(metrics) == []

    def test_corrupted_fleet_bill_is_flagged(self):
        from repro.verify import check_cost_accounting

        metrics = replace(self._priced_metrics(), cost_usd=123.0)
        violations = check_cost_accounting(metrics)
        # usd_per_1k_tokens is a property of cost_usd, so it tracks the
        # corruption consistently; the sum-of-replica-bills check catches it.
        assert any("sum of replica bills" in str(v) for v in violations)
        assert all(v.invariant == "cost-accounting" for v in violations)

    def test_corrupted_replica_bill_is_flagged(self):
        from repro.verify import check_cost_accounting

        metrics = self._priced_metrics()
        replicas = (replace(metrics.replicas[0], cost_usd=99.0),) + metrics.replicas[1:]
        violations = check_cost_accounting(replace(metrics, replicas=replicas))
        assert any(
            v.replica_id == metrics.replicas[0].replica_id
            and "rate x active time" in v.message
            for v in violations
        )

    def test_unpriced_fleet_passes_trivially(self):
        from repro.models.config import ClusterSpec, paper_deployment
        from repro.verify import check_cost_accounting
        from repro.workloads.scenario import run_scenario

        spec = ClusterSpec(paper_deployment("llama-3-8b"), 2)
        metrics = run_scenario("shared-prefix-chat", num_requests=6, seed=4, spec=spec).metrics
        assert check_cost_accounting(metrics) == []
