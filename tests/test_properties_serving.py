"""Property-based tests for scheduler, KV-cache and router invariants.

Hypothesis drives randomized workloads through the serving and cluster layers
and checks the invariants that every correct configuration must uphold:

* no Sarathi batch with prefill work exceeds the iteration token budget;
* KV-cache blocks are always freed when requests leave a replica;
* no router ever drops (or duplicates) a request;
* a single-replica run never mutates caller-owned requests.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.cluster import ClusterSimulator, ColocatedTopology, DisaggregatedTopology, ROUTERS
from repro.models.config import paper_deployment
from repro.serving.attention_backend import FASerialBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import make_requests
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify.fuzzer import build_fuzz_requests, fuzz_configs
from repro.verify.invariants import check_replica_load_counters
from repro.workloads import PoissonArrivals

DEPLOYMENT = paper_deployment("llama-3-8b")

request_specs = st.lists(
    st.tuples(st.integers(1, 4096), st.integers(1, 48)),
    min_size=1,
    max_size=8,
)


class RecordingScheduler(SarathiScheduler):
    """Sarathi scheduler that keeps every batch it produced."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: list[ScheduledBatch] = []

    def schedule(self, waiting, running, kv_cache, now):
        batch = super().schedule(waiting, running, kv_cache, now)
        self.batches.append(batch)
        return batch


def drain(runtime: ReplicaRuntime, requests) -> None:
    for request in requests:
        runtime.enqueue(request)
    runtime.run_to_completion()


@settings(max_examples=15, deadline=None)
@given(specs=request_specs, chunk_size=st.sampled_from([512, 1024, 2048]))
def test_sarathi_batches_respect_token_budget(specs, chunk_size):
    scheduler = RecordingScheduler(chunk_size=chunk_size)
    runtime = ReplicaRuntime(DEPLOYMENT, scheduler=scheduler)
    drain(runtime, make_requests(specs))
    assert scheduler.batches
    for batch in scheduler.batches:
        if batch.prefill_items:
            # Hybrid/prefill iterations are capped by the chunk-size budget.
            assert batch.total_tokens <= chunk_size
            assert all(tokens > 0 for _, tokens in batch.prefill_items)
        assert len(batch.decode_requests) <= scheduler.limits.max_batch_size


@settings(max_examples=15, deadline=None)
@given(specs=request_specs, scheduler_cls=st.sampled_from([SarathiScheduler, VLLMScheduler]))
def test_kv_blocks_freed_when_replica_drains(specs, scheduler_cls):
    runtime = ReplicaRuntime(DEPLOYMENT, scheduler=scheduler_cls())
    requests = make_requests(specs)
    drain(runtime, requests)
    assert all(request.is_finished for request in requests)
    assert runtime.kv_cache.used_blocks == 0
    assert not any(runtime.kv_cache.holds(r.request_id) for r in requests)


@settings(max_examples=12, deadline=None)
@given(
    specs=request_specs,
    router=st.sampled_from(sorted(ROUTERS)),
    num_replicas=st.integers(1, 3),
    qps=st.floats(0.5, 20.0),
)
def test_router_never_drops_a_request_colocated(specs, router, num_replicas, qps):
    requests = PoissonArrivals(qps).assign(make_requests(specs), seed=7)
    topology = ColocatedTopology(
        DEPLOYMENT,
        num_replicas=num_replicas,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
    )
    result = ClusterSimulator(topology, router=router).run(requests)
    assert all(request.is_finished for request in result.requests)
    assert sorted(result.assignments) == sorted(r.request_id for r in requests)
    released = sum(stats.requests_released for stats in result.metrics.replicas)
    assert released == len(requests)


@settings(max_examples=10, deadline=None)
@given(
    specs=request_specs,
    router=st.sampled_from(sorted(ROUTERS)),
    num_decode=st.integers(1, 2),
)
def test_router_never_drops_a_request_disaggregated(specs, router, num_decode):
    requests = PoissonArrivals(4.0).assign(make_requests(specs), seed=13)
    topology = DisaggregatedTopology(
        DEPLOYMENT, num_prefill=1, num_decode=num_decode, chunk_size=1024
    )
    simulator = ClusterSimulator(topology, router=router)
    result = simulator.run(requests)
    assert all(request.is_finished for request in result.requests)
    assert sorted(result.assignments) == sorted(r.request_id for r in requests)
    # Every multi-token request crossed the KV link exactly once.
    multi_token = [r for r in requests if r.decode_tokens > 1]
    assert result.metrics.num_kv_transfers == len(multi_token)
    # All KV is released on both pools once the cluster drains.
    assert all(runtime.kv_cache.used_blocks == 0 for runtime in simulator.replicas)


@settings(max_examples=10, deadline=None)
@given(specs=request_specs, arrivals=st.floats(0.5, 5.0))
def test_single_replica_run_does_not_mutate_caller_requests(specs, arrivals):
    requests = PoissonArrivals(arrivals).assign(make_requests(specs), seed=3)
    original_arrivals = [r.arrival_time for r in requests]
    original_states = [r.state for r in requests]
    topology = ColocatedTopology(
        DEPLOYMENT,
        num_replicas=1,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        backend_builder=FASerialBackend,
    )
    result = ClusterSimulator(topology).run(requests)
    # Caller-owned objects are untouched …
    assert [r.arrival_time for r in requests] == original_arrivals
    assert [r.state for r in requests] == original_states
    # … and the simulation ran on fresh copies of them.
    assert [r.arrival_time for r in result.requests] == original_arrivals
    assert all(r.is_finished for r in result.requests)
    assert not set(map(id, result.requests)) & set(map(id, requests))


@settings(max_examples=10, deadline=None)
@given(config=fuzz_configs())
def test_load_counters_match_scan_under_fuzzed_scenarios(config):
    """The incremental load counters never drift from a fresh
    ``outstanding_requests()`` scan, at any point of any fuzzed scenario."""
    requests = build_fuzz_requests(config)
    scheduler = (
        SarathiScheduler(chunk_size=config.chunk_size)
        if config.scheduler == "sarathi"
        else VLLMScheduler()
    )
    runtime = ReplicaRuntime(DEPLOYMENT, scheduler=scheduler)
    for request in requests:
        runtime.enqueue(request)
        assert not check_replica_load_counters([runtime])
    while runtime.next_ready_time() is not None:
        if not runtime.step().executed:
            break
        assert not check_replica_load_counters([runtime])
    assert runtime.scan_load() == (0, 0, 0)


@settings(max_examples=8, deadline=None)
@given(config=fuzz_configs())
def test_cluster_load_validation_passes_under_fuzzed_scenarios(scan_checked, config):
    """A cluster whose every routing snapshot is checked against a full
    outstanding-request scan (``scan_checked``) drains every fuzzed trace
    without drift."""
    requests = build_fuzz_requests(config)
    topology = ColocatedTopology(
        DEPLOYMENT,
        num_replicas=2,
        scheduler_factory=lambda: SarathiScheduler(chunk_size=config.chunk_size),
    )
    result = scan_checked(ClusterSimulator(topology, router="least-tokens")).run(requests)
    assert all(request.is_finished for request in result.requests)
