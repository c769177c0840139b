"""Scenario fuzzer: random serving configurations through the invariant checker.

Composes random-but-seeded workloads from the ``repro.workloads`` primitives
(arrival processes × shape models × optional tenant mixes) with random
scheduler and KV-cache configurations, runs each sample through a recorded
1-replica ``ClusterSimulator`` and checks the full invariant suite on the
event log.

The hypothesis strategy lives here (``fuzz_configs()``) so both the pytest
property test and the nightly CI job share it; shrinking works out of the
box because a :class:`FuzzConfig` is a plain frozen dataclass built from
independent draws.  Every sample is *exactly replayable*: the config carries
its own seed, and ``run_fuzz_case`` threads explicitly seeded
``np.random.Generator`` state through the workload builders — running the
same config twice yields byte-identical event logs
(``tests/test_verify_fuzzer.py`` pins this).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from hypothesis import strategies as st

from repro.cluster.simulator import ClusterSimulator
from repro.cluster.topology import ColocatedTopology
from repro.models.config import Deployment, paper_deployment
from repro.serving.kv_cache import KVCacheConfig
from repro.serving.scheduler import Scheduler, SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.serving.attention_backend import get_backend
from repro.serving.request import Request
from repro.verify.events import EventRecorder
from repro.verify.invariants import Violation, check_event_log, check_kv_drain_balance
from repro.workloads.arrivals import get_arrival_process
from repro.workloads.shapes import SHAPES, get_shape
from repro.workloads.tenants import SLO_CLASSES, TenantSpec, compose_tenants

#: Shapes the fuzzer samples (the full registry).
FUZZ_SHAPES = tuple(SHAPES)

#: Arrival processes with their fuzzable extra parameters.
FUZZ_ARRIVALS = ("poisson", "gamma-burst", "diurnal", "step-surge")


@dataclass(frozen=True)
class FuzzConfig:
    """One fully-seeded fuzz sample (workload × scheduler × cache sizing).

    ``prefix_caching`` / ``preemption`` switch the memory-pressure subsystem
    on; ``capacity_starved`` narrows the KV capacity towards the feasibility
    floor (the largest single request), the regime where eviction, sharing
    and preemption accounting bugs hide.
    """

    arrival: str
    shape: str
    multi_tenant: bool
    num_requests: int
    qps: float
    scheduler: str  # "sarathi" | "vllm"
    chunk_size: int
    max_batch_size: int
    capacity_factor: float  # KV capacity as a multiple of the largest request
    backend: str  # "pod" | "fa_serial"
    seed: int
    prefix_caching: bool = False
    preemption: bool = False
    capacity_starved: bool = False

    def describe(self) -> str:
        workload = "multi-tenant" if self.multi_tenant else self.shape
        modes = "".join(
            flag
            for flag, on in (
                ("C", self.prefix_caching),
                ("P", self.preemption),
                ("S", self.capacity_starved),
            )
            if on
        )
        return (
            f"{workload}/{self.arrival}@{self.qps:g}qps x{self.num_requests} "
            f"{self.scheduler}(chunk={self.chunk_size},bs={self.max_batch_size}) "
            f"cap={self.capacity_factor:g}{'+' + modes if modes else ''} "
            f"seed={self.seed}"
        )


def fuzz_configs() -> st.SearchStrategy[FuzzConfig]:
    """Hypothesis strategy over :class:`FuzzConfig` samples.

    Ranges are chosen to keep one sample under ~100ms of simulation while
    still reaching the interesting regimes: chunk sizes small enough to force
    many-chunk prefills, KV capacities tight enough to force admission
    stalls, and both scheduler families.
    """
    return st.builds(
        FuzzConfig,
        arrival=st.sampled_from(FUZZ_ARRIVALS),
        shape=st.sampled_from(FUZZ_SHAPES),
        multi_tenant=st.booleans(),
        num_requests=st.integers(min_value=2, max_value=10),
        qps=st.floats(min_value=0.5, max_value=8.0, allow_nan=False),
        scheduler=st.sampled_from(("sarathi", "vllm")),
        chunk_size=st.sampled_from((256, 512, 1024, 2048)),
        max_batch_size=st.sampled_from((4, 16, 64, 256)),
        capacity_factor=st.floats(min_value=1.0, max_value=4.0, allow_nan=False),
        backend=st.sampled_from(("pod", "fa_serial")),
        seed=st.integers(min_value=0, max_value=2**16),
        prefix_caching=st.booleans(),
        preemption=st.booleans(),
        capacity_starved=st.booleans(),
    )


def build_fuzz_requests(config: FuzzConfig) -> list[Request]:
    """Materialise the sample's trace (pure function of the config)."""
    if config.multi_tenant:
        tenants = (
            TenantSpec("a", config.shape, SLO_CLASSES["interactive"], weight=2.0),
            TenantSpec("b", "short-chat", SLO_CLASSES["batch"], weight=1.0),
        )
        requests = compose_tenants(tenants, config.num_requests, seed=config.seed)
    else:
        requests = get_shape(config.shape).build(config.num_requests, seed=config.seed)
    process = get_arrival_process(config.arrival, config.qps)
    return process.assign(requests, seed=config.seed + 1)


def _build_scheduler(config: FuzzConfig) -> Scheduler:
    limits = SchedulerLimits(max_batch_size=config.max_batch_size)
    if config.scheduler == "sarathi":
        return SarathiScheduler(
            chunk_size=config.chunk_size, limits=limits, preemption=config.preemption
        )
    return VLLMScheduler(limits=limits, preemption=config.preemption)


def run_fuzz_case(
    config: FuzzConfig,
    deployment: Deployment | None = None,
) -> tuple[list[Violation], EventRecorder]:
    """Simulate one fuzz sample under a recorder and check every invariant.

    The KV cache is sized to ``capacity_factor`` times the largest request in
    the sample (rounded up to whole blocks), so admission pressure varies
    from single-request serialization to ample headroom — the regimes where
    accounting bugs hide.  ``capacity_starved`` samples compress the factor
    into [1.0, 1.25), pinning the run against the feasibility floor where
    prefix eviction and preemption churn hardest.  After the run the KV
    drain balance (no pinned blocks, zero absorbed double-frees) is checked
    on top of the event-log invariants.
    """
    deployment = deployment or paper_deployment("llama-3-8b")
    requests = build_fuzz_requests(config)
    block_size = 16
    factor = config.capacity_factor
    if config.capacity_starved:
        factor = 1.0 + (factor - 1.0) / 12.0
    largest = max(request.total_tokens for request in requests)
    capacity = math.ceil(largest * factor / block_size) * block_size
    recorder = EventRecorder(strict_payloads=True)
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=lambda: _build_scheduler(config),
        backend_builder=lambda replica_deployment: get_backend(config.backend, replica_deployment),
        kv_config=KVCacheConfig(
            capacity_tokens=capacity,
            block_size=block_size,
            enable_prefix_caching=config.prefix_caching,
        ),
    )
    simulator = ClusterSimulator(topology, recorder=recorder)
    result = simulator.run(requests)
    violations = check_event_log(recorder)
    violations.extend(check_kv_drain_balance(simulator.replicas))
    unfinished = [r.request_id for r in result.requests if not r.is_finished]
    if unfinished:
        violations.append(
            Violation("completion", f"simulator left requests unfinished: {unfinished}")
        )
    return violations, recorder
