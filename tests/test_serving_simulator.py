"""End-to-end tests for single-replica serving (a 1-replica ``ClusterSimulator``)."""

from __future__ import annotations

from dataclasses import fields

import pytest

from repro.serving.attention_backend import FASerialBackend, PODBackend, get_backend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import IterationResult
from repro.serving.metrics import compute_metrics
from repro.serving.request import Request
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify import STEP, EventRecorder
from repro.workloads import PoissonArrivals, uniform_workload


class TestScheduledBatch:
    def test_to_hybrid_batch(self):
        request = Request(request_id=0, prefill_tokens=1000, decode_tokens=10)
        request.advance_prefill(400, now=0.0)
        decode_request = Request(request_id=1, prefill_tokens=100, decode_tokens=10)
        decode_request.advance_prefill(100, now=0.0)
        batch = ScheduledBatch(
            prefill_items=[(request, 300)], decode_requests=[decode_request]
        )
        hybrid = batch.to_hybrid_batch()
        assert hybrid.prefills[0].chunk_tokens == 300
        assert hybrid.prefills[0].prior_tokens == 400
        assert hybrid.decodes[0].context_tokens == 101
        assert batch.is_hybrid
        assert batch.total_tokens == 301

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            ScheduledBatch().to_hybrid_batch()

    def test_describe(self):
        request = Request(request_id=3, prefill_tokens=100, decode_tokens=10)
        batch = ScheduledBatch(prefill_items=[(request, 100)])
        assert "r3" in batch.describe()


def test_iteration_result_carries_only_what_the_runtime_reads():
    assert [spec.name for spec in fields(IterationResult)] == [
        "duration",
        "num_tokens",
        "is_hybrid",
    ]


class TestBackends:
    def test_get_backend(self, llama3_deployment):
        assert isinstance(get_backend("fa_serial", llama3_deployment), FASerialBackend)
        assert isinstance(get_backend("pod", llama3_deployment), PODBackend)
        with pytest.raises(ValueError):
            get_backend("triton", llama3_deployment)

    def test_pod_backend_not_slower(self, llama3_deployment, medium_hybrid_batch):
        serial = FASerialBackend(llama3_deployment).reference(medium_hybrid_batch)
        pod = PODBackend(llama3_deployment).reference(medium_hybrid_batch)
        assert pod.total <= serial.total


class TestOfflineServing:
    @pytest.fixture(scope="class")
    def small_offline_run(self, llama3_deployment, single_replica):
        requests = uniform_workload(8, prefill_tokens=8192, decode_tokens=256)
        simulator = single_replica(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
            backend=PODBackend(llama3_deployment),
        )
        return simulator.run(requests)

    def test_all_requests_finish(self, small_offline_run):
        assert all(request.is_finished for request in small_offline_run.requests)

    def test_token_conservation(self, small_offline_run):
        for request in small_offline_run.requests:
            assert request.prefill_done_tokens == request.prefill_tokens
            assert request.decode_done_tokens == request.decode_tokens

    def test_metrics_populated(self, small_offline_run):
        metrics = small_offline_run.metrics.fleet
        assert metrics.requests_per_minute > 0
        assert metrics.ttft_p50 > 0
        assert metrics.latency_p99 >= metrics.latency_p50
        assert metrics.num_iterations > 0
        assert 0 <= metrics.hybrid_iteration_fraction <= 1

    def test_timestamps_monotone(self, small_offline_run):
        for request in small_offline_run.requests:
            assert request.first_token_time <= request.finish_time
            assert all(interval >= 0 for interval in request.tbt_samples)

    def test_pod_backend_improves_offline_throughput(self, llama3_deployment, single_replica):
        """Figure 12 direction: Sarathi+POD processes requests faster than Sarathi."""

        def run(backend):
            requests = uniform_workload(8, prefill_tokens=8192, decode_tokens=256)
            simulator = single_replica(
                llama3_deployment, scheduler=SarathiScheduler(chunk_size=1024), backend=backend
            )
            return simulator.run(requests).requests_per_minute

        sarathi = run(FASerialBackend(llama3_deployment))
        sarathi_pod = run(PODBackend(llama3_deployment))
        assert sarathi_pod > sarathi

    def test_vllm_stalls_more_than_sarathi(self, llama3_deployment, single_replica):
        """Tables 5-6 direction: vLLM pauses decodes for prefills, Sarathi does not."""

        def run(scheduler):
            requests = PoissonArrivals(1.5).assign(
                uniform_workload(12, prefill_tokens=8192, decode_tokens=128), seed=3
            )
            simulator = single_replica(
                llama3_deployment, scheduler=scheduler, backend=FASerialBackend(llama3_deployment)
            )
            return simulator.run(requests).metrics.fleet

        vllm = run(VLLMScheduler())
        sarathi = run(SarathiScheduler(chunk_size=1024))
        assert vllm.stall_fraction_200ms > sarathi.stall_fraction_200ms
        # The worst decode interruption under vLLM (a whole-prompt prefill) far
        # exceeds anything Sarathi's bounded iterations produce.
        assert vllm.tbt_p99 < 0.2  # stalls are rare events, not the common case
        assert vllm.stall_fraction_500ms >= sarathi.stall_fraction_500ms
        # vLLM prioritises prefills, so first tokens arrive no later than Sarathi's.
        assert vllm.ttft_p50 <= sarathi.ttft_p50 * 1.2


class TestSimulatorValidation:
    def test_empty_request_list_rejected(self, llama3_deployment, single_replica):
        simulator = single_replica(llama3_deployment)
        with pytest.raises(ValueError):
            simulator.run([])

    def test_arrival_times_respected(self, llama3_deployment, single_replica):
        requests = uniform_workload(4, prefill_tokens=2048, decode_tokens=16)
        requests = PoissonArrivals(0.5).assign(requests, seed=1)
        simulator = single_replica(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=2048),
            backend=FASerialBackend(llama3_deployment),
        )
        result = simulator.run(requests)
        for request in result.requests:
            assert request.first_token_time >= request.arrival_time

    def test_iteration_log(self, llama3_deployment, single_replica):
        """The per-iteration record is the recorder's ``step`` stream."""
        requests = uniform_workload(2, prefill_tokens=2048, decode_tokens=8)
        recorder = EventRecorder()
        simulator = single_replica(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
            backend=FASerialBackend(llama3_deployment),
            recorder=recorder,
        )
        result = simulator.run(requests)
        steps = recorder.of_kind(STEP)
        assert len(steps) == result.metrics.fleet.num_iterations
        assert all(event.data["duration"] > 0 for event in steps)
        # The first output token rides on a request's final prefill chunk.
        assert sum(event.data["num_tokens"] for event in steps) == sum(
            r.prefill_tokens + r.decode_tokens - 1 for r in requests
        )


class TestServingMetrics:
    def test_compute_metrics_requires_requests(self):
        # An empty list is a caller error; a slice with zero *finished*
        # requests (e.g. a fully-shed tenant) aggregates to zeroed stats.
        with pytest.raises(ValueError):
            compute_metrics([], makespan=1.0, num_iterations=1)
        request = Request(request_id=0, prefill_tokens=10, decode_tokens=2)
        metrics = compute_metrics([request], makespan=1.0, num_iterations=1)
        assert metrics.num_requests == 0
        assert metrics.num_offered == 1
        assert metrics.requests_per_minute == 0.0
        assert metrics.ttft_p50 == 0.0

    def test_compute_metrics_row(self):
        request = Request(request_id=0, prefill_tokens=10, decode_tokens=3, arrival_time=0.0)
        request.advance_prefill(10, now=1.0)
        request.advance_decode(now=1.1)
        request.advance_decode(now=1.3)
        metrics = compute_metrics([request], makespan=2.0, num_iterations=3, hybrid_iterations=1)
        row = metrics.as_row()
        assert row["requests"] == 1
        assert metrics.requests_per_minute == pytest.approx(30.0)
        # TBT samples are [0.1, 0.2]; the interpolated P99 sits just below 0.2.
        assert metrics.tbt_p99 == pytest.approx(0.2, abs=2e-3)
        assert metrics.hybrid_iteration_fraction == pytest.approx(1 / 3)
