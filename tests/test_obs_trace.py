"""Span tracer: lifecycle span invariants and Perfetto export schema.

Runs real simulations (single replica, preemption-heavy, cluster) with a
:class:`SpanTracer` attached and checks that every request's span timeline
is contiguous, covers enqueue→completion, and exports as structurally valid
Chrome ``trace_event`` JSON.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.pressure_rows import memory_pressure_simulator
from repro.cluster.simulator import ClusterSimulator
from repro.cluster.topology import ColocatedTopology
from repro.models.config import paper_deployment
from repro.obs.trace import REQUESTS_PID, SpanTracer
from repro.serving.kv_cache import KVCacheConfig
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify import EventRecorder, assert_no_violations, check_event_log
from repro.workloads import build_scenario

PHASES = {"queued", "prefill", "recompute", "decode"}


@pytest.fixture(scope="module")
def deployment():
    return paper_deployment("llama-3-8b")


@pytest.fixture(scope="module")
def pressured_run(deployment):
    """A preemption-heavy shared-prefix run traced end to end."""
    tracer = SpanTracer()
    simulator = memory_pressure_simulator(
        deployment, capacity_tokens=8192, prefix_caching=True, preemption=True, recorder=tracer
    )
    result = simulator.run(build_scenario("shared-prefix-chat", num_requests=24, seed=19))
    return tracer, result


def assert_span_invariants(tracer: SpanTracer) -> None:
    for request_id, track in tracer.requests.items():
        assert track.complete_time is not None, f"request {request_id} never completed"
        spans = track.spans
        assert spans, f"request {request_id} has no spans"
        assert {span.name for span in spans} <= PHASES
        for span in spans:
            assert span.end >= span.start
            assert span.request_id == request_id
        for before, after in zip(spans, spans[1:]):
            assert after.start == pytest.approx(before.end), (
                f"request {request_id}: gap between {before.name} and {after.name}"
            )
        assert spans[0].name == "queued"
        assert spans[-1].end == pytest.approx(track.complete_time)


class TestSpanLifecycles:
    def test_single_replica_spans(self, pressured_run):
        tracer, result = pressured_run
        assert len(tracer.requests) == len(result.requests) == 24
        assert_span_invariants(tracer)

    def test_preempted_requests_get_recompute_spans(self, pressured_run):
        tracer, result = pressured_run
        preempted = [t for t in tracer.requests.values() if t.preemptions]
        assert preempted, "scenario should preempt at this capacity"
        for track in preempted:
            names = [span.name for span in track.spans]
            assert "recompute" in names
            # Preemption re-queues before the recompute admission.
            assert names.index("recompute") > names.index("queued")
        total = sum(t.preemptions for t in tracer.requests.values())
        simulated = sum(r.preemption_count for r in result.requests)
        assert total == simulated

    def test_ttft_matches_request_metrics(self, pressured_run):
        tracer, result = pressured_run
        for request in result.requests:
            track = tracer.requests[request.request_id]
            assert track.first_token_time == pytest.approx(request.first_token_time)
            assert track.complete_time == pytest.approx(request.finish_time)

    def test_waterfall_rows_are_slowest_first(self, pressured_run):
        tracer, _ = pressured_run
        rows = tracer.waterfall_rows(top_k=5)
        assert len(rows) == 5
        latencies = [row["e2e_latency"] for row in rows]
        assert latencies == sorted(latencies, reverse=True)
        for row in rows:
            assert row["ttft"] is not None
            assert sum(row["phases"].values()) == pytest.approx(row["e2e_latency"])

    def test_step_spans_and_counters(self, pressured_run):
        tracer, _ = pressured_run
        assert tracer.step_spans
        counters = {name for _, _, name, _ in tracer.counter_samples}
        assert counters == {"queue_depth", "kv_used_blocks"}


class TestClusterTracing:
    def test_tee_with_recorder_keeps_verify_green(self, deployment):
        recorder, tracer = EventRecorder(), SpanTracer()
        topology = ColocatedTopology(
            deployment,
            num_replicas=3,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
            kv_config=KVCacheConfig(
                capacity_tokens=16384, block_size=16, enable_prefix_caching=True
            ),
        )
        simulator = ClusterSimulator(
            topology, router="prefix-affinity", recorder=[recorder, tracer]
        )
        result = simulator.run(build_scenario("shared-prefix-chat", num_requests=30, seed=3))
        assert_no_violations(check_event_log(recorder))
        assert len(tracer.requests) == len(result.requests)
        assert_span_invariants(tracer)
        replicas = {t.replica_id for t in tracer.requests.values()}
        assert replicas <= {0, 1, 2} and len(replicas) > 1


def valid_trace_events(events: list[dict]) -> None:
    assert events, "trace must not be empty"
    pids = set()
    for event in events:
        assert event["ph"] in {"M", "X", "C"}
        assert isinstance(event["pid"], int)
        assert isinstance(event["name"], str) and event["name"]
        pids.add(event["pid"])
        if event["ph"] == "X":
            assert event["ts"] >= 0
            assert event["dur"] >= 0
            assert event["cat"] in {"request", "replica"}
        elif event["ph"] == "C":
            assert isinstance(event["args"]["value"], float)
        else:
            assert event["name"] in {"process_name", "thread_name"}
    # Every pid that hosts spans must be named by a metadata event.
    named = {e["pid"] for e in events if e["ph"] == "M" and e["name"] == "process_name"}
    assert named == pids


class TestPerfettoExport:
    def test_trace_event_schema(self, pressured_run):
        tracer, _ = pressured_run
        valid_trace_events(tracer.to_trace_events())

    def test_file_roundtrip(self, pressured_run, tmp_path):
        tracer, _ = pressured_run
        path = tracer.to_perfetto(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert set(payload) == {"traceEvents", "displayTimeUnit", "metadata"}
        valid_trace_events(payload["traceEvents"])

    def test_request_spans_on_requests_pid(self, pressured_run):
        tracer, _ = pressured_run
        request_spans = [
            e for e in tracer.to_trace_events() if e["ph"] == "X" and e["cat"] == "request"
        ]
        assert request_spans
        assert {e["pid"] for e in request_spans} == {REQUESTS_PID}
        # ts/dur are microseconds: a multi-second run must exceed 1e6.
        assert max(e["ts"] for e in request_spans) > 1e6

    def test_one_step_span_per_executed_step(self, deployment, single_replica):
        """The tracer keeps every step as a span, leaped re-runs included."""
        tracer = SpanTracer()
        simulator = single_replica(
            deployment, scheduler=SarathiScheduler(chunk_size=1024), recorder=tracer
        )
        simulator.run(build_scenario("shared-prefix-chat", num_requests=8, seed=1))
        (replica,) = simulator.replicas
        assert len(tracer.step_spans) == replica.steps_executed > 0
        assert {span.replica_id for span in tracer.step_spans} == {replica.replica_id}
        assert tracer.counter_samples
        assert_span_invariants(tracer)
