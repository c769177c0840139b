"""Tests for the event recorder and the simulator emission hooks."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSimulator, ColocatedTopology, DisaggregatedTopology
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify import (
    ARRIVAL,
    BATCH_FORMED,
    CHUNK_EXECUTED,
    COMPLETED,
    ENQUEUED,
    EVENT_SCHEMAS,
    Event,
    EventRecorder,
    KV_ALLOC,
    KV_FREE,
    KV_SHARED_ALLOC,
    ROUTED,
    STEP,
    TRANSFER_DELIVERED,
    TRANSFER_START,
    merge_events,
)
from repro.verify.events import KV_DOUBLE_FREE
from repro.workloads import build_scenario


def small_trace(num_requests=6, qps=2.0):
    return build_scenario("arxiv-summarization", num_requests, seed=11, qps=qps)


class TestEventRecorder:
    def test_emit_and_query(self):
        recorder = EventRecorder()
        recorder.emit("step", time=1.0, replica_id=0, duration=0.5)
        recorder.emit("completed", time=2.0, replica_id=0, request_id=7)
        assert len(recorder) == 2
        assert [e.kind for e in recorder] == ["step", "completed"]
        assert recorder.of_kind("completed")[0].request_id == 7
        assert recorder.for_request(7)[0].kind == "completed"
        assert recorder.summary() == {"step": 1, "completed": 1}

    def test_clear(self):
        recorder = EventRecorder()
        recorder.emit("step", time=0.0)
        recorder.clear()
        assert len(recorder) == 0

    def test_merge_events(self):
        a, b = EventRecorder(), EventRecorder()
        a.emit("step", time=0.0)
        b.emit("completed", time=1.0, request_id=1)
        merged = merge_events([a, b])
        assert [event.kind for event in merged] == ["step", "completed"]

    def test_event_repr_is_compact(self):
        event = Event("step", 1.5, replica_id=2, request_id=3, data={"duration": 0.1})
        text = repr(event)
        assert "step" in text and "replica=2" in text and "duration=0.1" in text


class TestRecorderOffByDefault:
    def test_runtime_has_no_recorder(self, llama3_deployment):
        runtime = ReplicaRuntime(llama3_deployment)
        assert runtime.recorder is None
        assert runtime.kv_cache.observer is None

    def test_simulation_without_recorder_emits_nothing(self, llama3_deployment, single_replica):
        simulator = single_replica(llama3_deployment, scheduler=SarathiScheduler())
        result = simulator.run(small_trace())
        assert simulator.recorder is None
        assert simulator.replicas[0].recorder is None
        assert result.metrics.fleet.num_requests == 6


class TestSingleReplicaEmission:
    @pytest.fixture(scope="class")
    def recorded(self, llama3_deployment, single_replica):
        recorder = EventRecorder()
        simulator = single_replica(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
            recorder=recorder,
        )
        result = simulator.run(small_trace())
        return recorder, result

    def test_lifecycle_counts(self, recorded):
        recorder, result = recorded
        n = result.metrics.fleet.num_requests
        summary = recorder.summary()
        lifecycle = (ENQUEUED, ARRIVAL, "admitted", KV_SHARED_ALLOC, KV_FREE, "released")
        for kind in lifecycle + (COMPLETED,):
            assert summary[kind] == n, kind
        # Full-reservation admissions never grow.
        assert summary.get(KV_ALLOC, 0) == 0

    def test_one_batch_and_step_per_iteration(self, recorded):
        recorder, result = recorded
        assert len(recorder.of_kind(BATCH_FORMED)) == result.metrics.fleet.num_iterations
        assert len(recorder.of_kind(STEP)) == result.metrics.fleet.num_iterations

    def test_enqueued_payload_describes_the_request(self, recorded):
        recorder, result = recorded
        by_id = {r.request_id: r for r in result.requests}
        for event in recorder.of_kind(ENQUEUED):
            request = by_id[event.request_id]
            assert event.data["prefill_tokens"] == request.prefill_tokens
            assert event.data["decode_tokens"] == request.decode_tokens
            assert event.data["arrival_time"] == request.arrival_time

    def test_chunks_cover_all_tokens(self, recorded):
        recorder, result = recorded
        prefill = sum(
            e.data["tokens"]
            for e in recorder.of_kind(CHUNK_EXECUTED)
            if e.data["phase"] == "prefill"
        )
        decode = sum(
            e.data["tokens"]
            for e in recorder.of_kind(CHUNK_EXECUTED)
            if e.data["phase"] == "decode"
        )
        assert prefill == sum(r.prefill_tokens for r in result.requests)
        # The first output token of each request rides on its final prefill chunk.
        assert decode == sum(r.decode_tokens - 1 for r in result.requests)

    def test_kv_events_balance(self, recorded):
        recorder, _ = recorded
        allocated = sum(
            e.data["blocks"] for e in recorder.of_kind(KV_ALLOC) + recorder.of_kind(KV_SHARED_ALLOC)
        )
        freed = sum(e.data["blocks"] for e in recorder.of_kind(KV_FREE))
        assert allocated == freed > 0
        assert recorder.of_kind(KV_FREE)[-1].data["used_blocks"] == 0

    def test_recording_does_not_change_results(self, llama3_deployment, single_replica, recorded):
        _, result = recorded
        bare = single_replica(
            llama3_deployment, scheduler=SarathiScheduler(chunk_size=1024)
        ).run(small_trace())
        assert bare.metrics == result.metrics


class TestKVCacheObserver:
    def test_observer_sees_alloc_and_free(self):
        seen = []
        manager = KVCacheManager(KVCacheConfig(capacity_tokens=1024, block_size=16))
        manager.observer = lambda kind, request_id, blocks, **extra: seen.append(
            (kind, request_id, blocks, extra)
        )
        manager.allocate(1, 100)  # 7 blocks
        manager.free(1)
        manager.admit_request(Request(request_id=2, prefill_tokens=40, decode_tokens=1), 40)
        assert seen == [
            ("kv_alloc", 1, 7, {"evictions": 0}),
            ("kv_free", 1, 7, {"private_blocks": 7, "shared_released": 0, "to_cache": 0}),
            (
                "kv_shared_alloc",
                2,
                3,
                {
                    "private_blocks": 3,
                    "shared_new": 0,
                    "shared_revived": 0,
                    "shared_ref_hits": 0,
                    "evictions": 0,
                    "cached_tokens": 0,
                },
            ),
        ]

    def test_noop_free_emits_double_free_diagnostic(self):
        # An absorbed free of an id holding no blocks moves no blocks but is
        # counted, and the counter must be visible to the telemetry layer
        # (the sampler-vs-counters reconciliation covers double_frees).
        seen = []
        manager = KVCacheManager(KVCacheConfig(capacity_tokens=1024))
        manager.observer = lambda *args: seen.append(args)
        manager.free(42)
        assert seen == [("kv_double_free", 42, 0)]
        assert manager.stats.double_free_count == 1

    def test_replica_records_double_free_within_its_schema(self, llama3_deployment):
        # The recorder validates the payload the replica stamps on the event.
        recorder = EventRecorder()
        runtime = ReplicaRuntime(
            llama3_deployment, kv_config=KVCacheConfig(capacity_tokens=1024), recorder=recorder
        )
        runtime.kv_cache.free(42)
        (event,) = recorder.events
        assert (event.kind, event.request_id, event.data["blocks"]) == (KV_DOUBLE_FREE, 42, 0)
        assert set(event.data) <= EVENT_SCHEMAS[KV_DOUBLE_FREE]


class TestRecorderHoldsLatestRun:
    def test_single_replica_rerun_clears_stale_events(self, llama3_deployment, single_replica):
        recorder = EventRecorder()
        simulator = single_replica(
            llama3_deployment, scheduler=SarathiScheduler(chunk_size=1024), recorder=recorder
        )
        simulator.run(small_trace())
        first = list(recorder.events)
        simulator.run(small_trace())
        # The second run's log stands alone (same trace => identical stream),
        # rather than appending duplicate request lifecycles.
        assert recorder.events == first

    def test_cluster_rerun_log_is_checkable(self, llama3_deployment):
        from repro.verify import check_event_log

        recorder = EventRecorder()
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(topology, router="round-robin", recorder=recorder)
        simulator.run(small_trace(8, qps=3.0))
        simulator.run(small_trace(8, qps=3.0))
        assert check_event_log(recorder) == []
        assert recorder.summary()["completed"] == 8


class TestClusterEmission:
    def test_colocated_routes_every_arrival(self, llama3_deployment):
        recorder = EventRecorder()
        topology = ColocatedTopology(
            llama3_deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        result = ClusterSimulator(topology, router="least-tokens", recorder=recorder).run(
            small_trace(8, qps=3.0)
        )
        routed = recorder.of_kind(ROUTED)
        assert len(routed) == 8
        assert {e.request_id: e.replica_id for e in routed} == result.assignments
        assert all(e.data["router"] == "least-tokens" for e in routed)
        replica_ids = {e.replica_id for e in recorder.of_kind(STEP)}
        assert replica_ids <= {0, 1}

    def test_disaggregated_emits_transfer_events(self, llama3_deployment):
        recorder = EventRecorder()
        topology = DisaggregatedTopology(
            llama3_deployment, num_prefill=1, num_decode=1, chunk_size=1024
        )
        result = ClusterSimulator(topology, recorder=recorder).run(small_trace(8, qps=3.0))
        starts = recorder.of_kind(TRANSFER_START)
        delivered = recorder.of_kind(TRANSFER_DELIVERED)
        assert len(starts) == len(delivered) == result.metrics.num_kv_transfers > 0
        for start in starts:
            assert start.data["delay"] > 0
        # Transferred requests are enqueued twice: prefill pool then decode pool.
        transferred = {e.request_id for e in starts}
        for request_id in transferred:
            kinds = [e.kind for e in recorder.for_request(request_id) if e.kind == ENQUEUED]
            assert len(kinds) == 2
