"""Shared fixtures for the test suite, plus hypothesis profiles.

Profiles: ``dev`` (default) runs hypothesis suites at a thoroughness suited
to local work; ``ci`` caps example counts and derandomizes so property tests
stay inside the CI job's time budget (selected via ``HYPOTHESIS_PROFILE=ci``
in the workflow); ``nightly`` raises the example count to 200 for the
scheduled fuzzing job (``HYPOTHESIS_PROFILE=nightly``) and prints reproduction
blobs so failing scenario seeds can be replayed from the CI artifacts.  Tests
that pin ``max_examples`` explicitly keep their own setting.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    max_examples=10,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile("dev", max_examples=25, deadline=None)
settings.register_profile(
    "nightly",
    max_examples=200,
    deadline=None,
    print_blob=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))

from repro.attention.workload import HybridBatch
from repro.cluster import ClusterSimulator, ColocatedTopology, RouterPolicy
from repro.gpu.config import a100_sxm_80gb
from repro.gpu.engine import ExecutionEngine
from repro.models.config import Deployment, paper_deployment
from repro.serving.attention_backend import FASerialBackend
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.verify.invariants import InvariantViolationError, Violation


@pytest.fixture(scope="session")
def a100():
    """The A100 spec used throughout the paper."""
    return a100_sxm_80gb()


@pytest.fixture(scope="session")
def llama3_deployment() -> Deployment:
    """Llama-3-8B on two A100s with tensor parallelism (Table 4)."""
    return paper_deployment("llama-3-8b")


@pytest.fixture(scope="session")
def yi_deployment() -> Deployment:
    """Yi-6B on a single A100 (Table 4)."""
    return paper_deployment("yi-6b")


@pytest.fixture()
def engine(a100) -> ExecutionEngine:
    return ExecutionEngine(a100)


@pytest.fixture(scope="session")
def single_replica():
    """Factory for a single-replica serving stack: a 1-replica ``ClusterSimulator``.

    ``scheduler`` and ``backend`` are instances that every run of the returned
    simulator reuses, attention memo included (defaults: a fresh
    ``SarathiScheduler`` and ``FASerialBackend``); ``kv_config`` and
    ``recorder`` pass through.
    """

    def build(deployment, scheduler=None, backend=None, kv_config=None, recorder=None):
        scheduler = scheduler or SarathiScheduler()
        backend = backend or FASerialBackend(deployment)
        topology = ColocatedTopology(
            deployment,
            num_replicas=1,
            scheduler_factory=lambda: scheduler,
            backend_builder=lambda _: backend,
            kv_config=kv_config,
        )
        return ClusterSimulator(topology, recorder=recorder)

    return build


class ScanCheckingRouter(RouterPolicy):
    """Router wrapper that checks every load snapshot it receives, then delegates.

    Each ``ReplicaLoad`` must equal a fresh ``scan_load()`` of the replica it
    describes (the ``load-accounting`` invariant, on every routing decision),
    else the run raises ``InvariantViolationError``.  Since the wrapped policy
    then routes on the same snapshot, routing on the simulator's incremental
    counters provably matches routing on full outstanding-request scans.
    """

    def __init__(self, inner: RouterPolicy, simulator: ClusterSimulator) -> None:
        self.inner = inner
        self.simulator = simulator
        self.name = inner.name
        self.snapshots_checked = 0

    def choose(self, loads, request) -> int:
        violations = []
        for load in loads:
            replica = self.simulator.replicas[load.replica_id]
            snapshot = (load.num_requests, load.outstanding_tokens, load.outstanding_prefill_tokens)
            scanned = replica.scan_load()
            if snapshot != scanned:
                violations.append(
                    Violation(
                        "load-accounting",
                        f"routing snapshot {snapshot} != scanned load {scanned}",
                        replica_id=load.replica_id,
                        request_id=request.request_id,
                        time=request.arrival_time,
                    )
                )
        if violations:
            raise InvariantViolationError(violations)
        self.snapshots_checked += 1
        return self.inner.choose(loads, request)

    def reset(self) -> None:
        self.inner.reset()


@pytest.fixture(scope="session")
def scan_checked():
    """Wrap a ``ClusterSimulator``'s routers in :class:`ScanCheckingRouter`; returns it."""

    def wrap(simulator: ClusterSimulator) -> ClusterSimulator:
        simulator.router = ScanCheckingRouter(simulator.router, simulator)
        simulator.decode_router = ScanCheckingRouter(simulator.decode_router, simulator)
        return simulator

    return wrap


@pytest.fixture(scope="session")
def small_hybrid_batch() -> HybridBatch:
    """A modest hybrid batch that keeps engine-based tests fast."""
    return HybridBatch.uniform(
        chunk_tokens=512, prefill_context=4096, decode_batch_size=24, decode_context=4096
    )


@pytest.fixture(scope="session")
def medium_hybrid_batch() -> HybridBatch:
    """A larger hybrid batch where fusion benefits are clearly visible."""
    return HybridBatch.uniform(
        chunk_tokens=1024, prefill_context=12288, decode_batch_size=64, decode_context=12288
    )
