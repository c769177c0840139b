"""Differential oracles: independent implementations checked against each other.

Several cross-layer reductions must hold in this codebase, and each is encoded
here as an executable oracle returning a list of human-readable discrepancy
strings (empty = the oracle passes):

* :func:`single_replica_equivalence` — a 1-replica ``ClusterSimulator`` is
  the same machine as :func:`single_replica_reference` (one runtime that
  reschedules every step, the whole trace enqueued up front, stepped to
  drain), so *every* scenario must produce identical per-request timestamps
  and metrics through both, under every router policy (one replica leaves a
  router no choice).
* :func:`leap_equivalence` — a fleet whose replicas leap through steady
  decode runs (:meth:`~repro.serving.replica.ReplicaRuntime.advance`) must
  end bit for bit where the same fleet of :class:`ReschedulingRuntime`
  replicas, stepped one iteration at a time, ends: per-request times and
  token intervals, per-replica clocks and counters, KV counters, metric
  rows and, when both record, the event log — colocated, under the control
  plane, disaggregated and under KV pressure with preemption.
* :func:`estimate_equivalence` — every serving step's attention estimate,
  computed at O(1) from decode sums and memoized prefill aggregates, must
  equal the backend's phase split of :func:`analytic_attention_times` on the
  materialised batch (within :data:`ESTIMATE_RTOL`; an absent phase is an
  exact 0), on every registry scenario, backend and topology; leaped
  re-runs are checked on contexts recomputed from their requests.
* :func:`scheduler_conservation` — schedulers differ in *when* tokens run,
  never in *how many*: on one trace, Sarathi and vLLM must schedule exactly
  the same prefill/decode token totals and finish every request, with their
  event logs passing the full invariant checker.
* :func:`analytic_vs_simulated` — the closed-form attention cost model must
  stay within its declared tolerance of the event-driven GPU simulator
  (the "validate the fast path against ground truth" discipline).
* :func:`kv_allocator_equivalence` — with prefix caching disabled, the
  :class:`~repro.serving.kv_cache.KVCacheManager` must behave like the
  original block allocator (a frozen copy of which lives here as
  :class:`SeedBlockAllocator`): identical observable state, identical
  observer kinds, ids and block counts, and identical exceptions on any
  sequence of admissions, growths and frees.  The prefix-caching subsystem
  is strictly opt-in.
* :func:`engine_equivalence` — the event-driven GPU engine
  (:class:`~repro.gpu.engine.ExecutionEngine`) must reproduce the frozen
  :class:`~repro.verify.reference_engine.ReferenceEngine` exactly: the same
  event times, placements and CTA records, with FLOP, byte, energy and
  utilization totals within :data:`ENGINE_RTOL`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import fields
from typing import Any, Callable, Iterator, Sequence

import numpy as np

from repro.attention.analytic import analytic_attention_times
from repro.attention.executors import FASerial
from repro.attention.workload import DecodeRequest, HybridBatch
from repro.cluster.control import AdmissionPolicy, AutoscalerPolicy, ControlPlane
from repro.cluster.simulator import ClusterResult, ClusterSimulator
from repro.cluster.topology import ColocatedTopology, DisaggregatedTopology
from repro.core.pod_kernel import PODAttention
from repro.gpu.config import GPUSpec
from repro.gpu.engine import ExecutionEngine
from repro.gpu.kernel import KernelLaunch
from repro.gpu.result import ExecutionResult
from repro.models.config import Deployment
from repro.serving.attention_backend import (
    AttentionBackend,
    AttentionEstimate,
    PODBackend,
    get_backend,
)
from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager, KVCacheStats
from repro.serving.metrics import ServingMetrics, compute_metrics
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.utils.validation import check_in_choices
from repro.verify.events import CHUNK_EXECUTED, EventRecorder
from repro.verify.invariants import check_event_log
from repro.verify.reference_engine import ReferenceEngine
from repro.verify.reference_scheduler import use_references
from repro.workloads.scenario import build_scenario

#: Router policies a 1-replica cluster must reduce under (all of them).
REDUCIBLE_ROUTERS = (
    "round-robin",
    "least-requests",
    "least-tokens",
    "prefill-aware",
    "prefix-affinity",
)


def _compare_requests(
    label: str,
    reference: Sequence[Request],
    candidate: Sequence[Request],
) -> list[str]:
    """Exact per-request timestamp comparison between two finished traces."""
    discrepancies: list[str] = []
    by_id = {request.request_id: request for request in candidate}
    for ref in reference:
        got = by_id.get(ref.request_id)
        if got is None:
            discrepancies.append(f"{label}: request {ref.request_id} missing")
            continue
        for attr in ("first_token_time", "finish_time"):
            if getattr(ref, attr) != getattr(got, attr):
                discrepancies.append(
                    f"{label}: request {ref.request_id} {attr} differs "
                    f"({getattr(ref, attr)} vs {getattr(got, attr)})"
                )
        if ref.token_intervals != got.token_intervals:
            discrepancies.append(
                f"{label}: request {ref.request_id} token intervals differ"
            )
    return discrepancies


def _compare_metrics(label: str, reference: ServingMetrics, candidate: ServingMetrics) -> list[str]:
    discrepancies: list[str] = []
    for spec in fields(ServingMetrics):
        ref, got = getattr(reference, spec.name), getattr(candidate, spec.name)
        if ref != got:
            discrepancies.append(f"{label}: metric {spec.name} differs ({ref} vs {got})")
    return discrepancies


class ReschedulingRuntime(ReplicaRuntime):
    """Calls its scheduler every step: the reference for steady-batch re-runs.

    It schedules on the frozen copies of ``Scheduler.prepare_decodes`` and
    ``KVCacheManager.can_admit_request``
    (:mod:`repro.verify.reference_scheduler`), so it is also the reference
    for the growth pass and the riders memo they replaced.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        use_references(self)

    def steady_batch(self) -> None:
        return None


def single_replica_reference(
    deployment: Deployment,
    requests: Sequence[Request],
    scheduler: Scheduler,
    backend: AttentionBackend,
    kv_config: KVCacheConfig | None = None,
) -> tuple[list[Request], ServingMetrics, KVCacheStats]:
    """Serve ``requests`` on one rescheduling runtime with the plain drain loop.

    The reference side of the single-replica oracles: fresh copies of every
    request are enqueued up front on a :class:`ReschedulingRuntime`, and
    :meth:`~repro.serving.replica.ReplicaRuntime.run_to_completion` steps it
    until it drains (it never leaps, so one step per call).  Returns the
    served copies, their metrics and the KV-cache counters.
    """
    served = [request.fresh_copy() for request in requests]
    runtime = ReschedulingRuntime(deployment, scheduler, backend, kv_config)
    for request in served:
        runtime.enqueue(request)
    runtime.run_to_completion()
    metrics = compute_metrics(
        served,
        makespan=runtime.clock,
        num_iterations=runtime.engine.total_iterations,
        hybrid_iterations=runtime.engine.hybrid_iterations,
    )
    return served, metrics, runtime.kv_cache.stats


def single_replica_equivalence(
    deployment: Deployment,
    scenario: str,
    router: str = "round-robin",
    num_requests: int = 20,
    seed: int = 0,
    chunk_size: int = 1024,
    backend: str = "pod",
    scheduler: str = "sarathi",
    offline: bool = False,
) -> list[str]:
    """Diff one scenario through :func:`single_replica_reference` vs a 1-replica cluster.

    Both sides serve the same registry trace (``offline`` moves every arrival
    to t=0) on the same scheduler (``"sarathi"`` at ``chunk_size``, or
    ``"vllm"``) and backend, and must agree on every per-request timestamp
    and every metric field exactly.
    """
    check_in_choices("scheduler", scheduler, ("sarathi", "vllm"))
    label = f"{scenario}/{router}/{scheduler}+{backend}{'/offline' if offline else ''}"
    trace = build_scenario(scenario, num_requests=num_requests, seed=seed)
    if offline:
        trace = [request.fresh_copy(arrival_time=0.0) for request in trace]

    def make_scheduler() -> Scheduler:
        if scheduler == "vllm":
            return VLLMScheduler()
        return SarathiScheduler(chunk_size=chunk_size)

    reference, reference_metrics, _ = single_replica_reference(
        deployment, trace, make_scheduler(), get_backend(backend, deployment)
    )
    topology = ColocatedTopology(
        deployment,
        num_replicas=1,
        scheduler_factory=make_scheduler,
        backend_builder=lambda replica_deployment: get_backend(backend, replica_deployment),
    )
    cluster = ClusterSimulator(topology, router=router).run(trace)

    discrepancies = _compare_requests(label, reference, cluster.requests)
    discrepancies.extend(_compare_metrics(label, reference_metrics, cluster.metrics.fleet))
    if cluster.assignments and set(cluster.assignments.values()) != {0}:
        discrepancies.append(f"{label}: 1-replica cluster routed off replica 0")
    return discrepancies


#: How far a serving step's estimate may sit from the reference, relative: the
#: closed-form decode sums round differently from summing one row per decode.
ESTIMATE_RTOL = 1e-12


class _EstimateCheckingBackend(AttentionBackend):
    """Serves ``inner``'s estimates and checks each one against ``inner.reference``.

    Every :meth:`estimate` call materialises the step's
    :class:`~repro.attention.workload.HybridBatch` and compares the two phase
    times: within :data:`ESTIMATE_RTOL` relative, and exactly 0 for a phase
    the batch does not have.  Every re-run a replica leaps through
    (:meth:`rerun_decode_times`) is checked the same way, on contexts
    recomputed from the requests: a leap commits its requests after its
    last step, so the j-th re-run's contexts are theirs plus j.  Findings
    collect in ``discrepancies``.
    """

    def __init__(self, inner: AttentionBackend, label: str) -> None:
        super().__init__(inner.deployment)
        self.inner = inner
        self.label = label
        self.steps_checked = 0
        self.discrepancies: list[str] = []

    def _check(
        self, batch: ScheduledBatch, estimate: AttentionEstimate, reference: AttentionEstimate
    ) -> None:
        step = self.steps_checked
        self.steps_checked += 1
        for phase, present in (
            ("prefill_time", bool(batch.prefill_items)),
            ("decode_time", bool(batch.decode_requests)),
        ):
            got, want = getattr(estimate, phase), getattr(reference, phase)
            if present:
                exact = abs(got - want) <= ESTIMATE_RTOL * abs(want)
            else:
                exact = got == 0.0 and want == 0.0
            if not exact:
                self.discrepancies.append(
                    f"{self.label} step {step} ({batch.describe()}): {phase} "
                    f"{got!r} vs reference {want!r}"
                )

    def estimate(self, batch: ScheduledBatch) -> AttentionEstimate:
        estimate = self.inner.estimate(batch)
        self._check(batch, estimate, self.inner.reference(batch.to_hybrid_batch()))
        return estimate

    def rerun_decode_times(self, batch: ScheduledBatch) -> Iterator[float]:
        decodes = batch.decode_requests
        for offset, decode_time in enumerate(self.inner.rerun_decode_times(batch)):
            contexts = tuple(
                DecodeRequest(context_tokens=max(1, request.context_tokens + offset))
                for request in decodes
            )
            reference = self.inner.reference(HybridBatch(decodes=contexts))
            self._check(batch, AttentionEstimate(0.0, decode_time), reference)
            yield decode_time


def estimate_equivalence(
    deployment: Deployment,
    scenario: str,
    backend: str = "pod",
    topology: str = "colocated",
    num_requests: int = 8,
    seed: int = 0,
    chunk_size: int = 1024,
) -> list[str]:
    """Check every serving step's attention estimate against the reference.

    Serves one registry scenario on two colocated replicas
    (``topology="colocated"``) or a 1 + 1 disaggregated fleet
    (``"disaggregated"``) whose backends are wrapped in a checker: each
    step's :meth:`~repro.serving.attention_backend.AttentionBackend.estimate`
    must equal the backend's phase split of
    :func:`analytic_attention_times` on ``batch.to_hybrid_batch()`` within
    :data:`ESTIMATE_RTOL`, and be exactly 0 for an absent phase.  Each
    re-run a replica leaps through is checked the same way, on its
    requests' contexts, so the number of checks must equal the number of
    executed steps.
    """
    check_in_choices("topology", topology, ("colocated", "disaggregated"))
    label = f"{scenario}/{backend}/{topology}"
    checkers: list[_EstimateCheckingBackend] = []

    def build(replica_deployment: Deployment) -> AttentionBackend:
        checker = _EstimateCheckingBackend(
            get_backend(backend, replica_deployment), f"{label} replica {len(checkers)}"
        )
        checkers.append(checker)
        return checker

    fleet: ColocatedTopology | DisaggregatedTopology
    if topology == "colocated":
        fleet = ColocatedTopology(
            deployment,
            num_replicas=2,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=chunk_size),
            backend_builder=build,
        )
    else:
        fleet = DisaggregatedTopology(
            deployment, num_prefill=1, num_decode=1, chunk_size=chunk_size, backend_builder=build
        )
    simulator = ClusterSimulator(fleet, router="least-tokens")
    simulator.run(build_scenario(scenario, num_requests=num_requests, seed=seed))

    discrepancies = [finding for checker in checkers for finding in checker.discrepancies]
    checked = sum(checker.steps_checked for checker in checkers)
    executed = sum(replica.steps_executed for replica in simulator.replicas)
    if checked != executed or not checked:
        discrepancies.append(f"{label}: checked {checked} of {executed} steps")
    return discrepancies


class _ReschedulingFleet:
    """``topology`` with every replica it builds a :class:`ReschedulingRuntime`.

    The reference side of :func:`leap_equivalence`: it delegates everything
    else to ``topology``, the autoscaler's scale-up path included.
    """

    def __init__(self, topology: ColocatedTopology | DisaggregatedTopology) -> None:
        self.topology = topology

    def __getattr__(self, name: str) -> Any:
        return getattr(self.topology, name)

    @staticmethod
    def _rescheduling(replica: ReplicaRuntime) -> ReplicaRuntime:
        replica.__class__ = ReschedulingRuntime
        use_references(replica)
        return replica

    def build_replica(self, replica_id: int, recorder: Any = None) -> ReplicaRuntime:
        return self._rescheduling(self.topology.build_replica(replica_id, recorder=recorder))

    def build_replicas(self, recorder: Any = None) -> list[ReplicaRuntime]:
        return [self._rescheduling(r) for r in self.topology.build_replicas(recorder=recorder)]


#: Fleets :func:`leap_equivalence` runs.
_LEAP_FLEETS = ("colocated", "control", "disaggregated", "kv-pressure")

#: The KV cache and arrival rate of each ``"kv-pressure"`` replica:
#: perfbench's chat-kv-pressure replica, which preempts and blocks admission.
_KV_PRESSURE_CACHE = KVCacheConfig(capacity_tokens=16384, enable_prefix_caching=True)
_KV_PRESSURE_QPS = 12.0


def _replica_state(replica: ReplicaRuntime) -> dict[str, float]:
    """The per-replica state a leap must leave exactly as stepping does."""
    return {
        "clock": replica.clock,
        "busy_time": replica.busy_time,
        "steps_executed": replica.steps_executed,
        "total_iterations": replica.engine.total_iterations,
        "hybrid_iterations": replica.engine.hybrid_iterations,
        "load_num_requests": replica.load_num_requests,
        "load_total_tokens": replica.load_total_tokens,
        "load_prefill_tokens": replica.load_prefill_tokens,
    }


def leap_equivalence(
    deployment: Deployment,
    scenario: str,
    fleet: str = "colocated",
    num_replicas: int = 2,
    num_requests: int = 24,
    record: bool = False,
) -> list[str]:
    """Diff a fleet that leaps through steady decode runs against the same
    fleet of :class:`ReschedulingRuntime` replicas, which steps every one.

    ``fleet`` is ``"colocated"`` (``num_replicas`` Sarathi+POD replicas),
    ``"control"`` (the same, with an autoscaler that may double the fleet
    and tiered admission control), ``"disaggregated"`` (``num_replicas``
    prefill and as many decode replicas) or ``"kv-pressure"``
    (``num_replicas`` POD replicas alternating Sarathi and vLLM, both with
    preemption, each into a 16K-token KV cache with prefix caching on, and
    the trace at 12 QPS per replica).  Both runs serve one registry trace
    under the least-tokens router and must agree bit for bit on every
    request's state, times and ``token_intervals``, on the routing, on each
    replica's clock, busy time, steps, iteration counts and load counters,
    on the KV counters and on the metric rows.  With ``record`` both runs
    record, and their event logs must be identical event for event.
    """
    check_in_choices("fleet", fleet, _LEAP_FLEETS)
    label = f"{scenario}/{fleet}x{num_replicas}{'/recorded' if record else ''}"
    qps = _KV_PRESSURE_QPS * num_replicas if fleet == "kv-pressure" else None
    trace = build_scenario(scenario, num_requests=num_requests, seed=0, qps=qps)

    def run(reference: bool) -> tuple[ClusterSimulator, ClusterResult, EventRecorder | None]:
        topology: ColocatedTopology | DisaggregatedTopology
        if fleet == "disaggregated":
            topology = DisaggregatedTopology(
                deployment, num_prefill=num_replicas, num_decode=num_replicas
            )
        elif fleet == "kv-pressure":
            schedulers = itertools.cycle((SarathiScheduler, VLLMScheduler))
            topology = ColocatedTopology(
                deployment,
                num_replicas=num_replicas,
                scheduler_factory=lambda: next(schedulers)(preemption=True),
                kv_config=_KV_PRESSURE_CACHE,
            )
        else:
            topology = ColocatedTopology(deployment, num_replicas=num_replicas)
        control = None
        if fleet == "control":
            control = ControlPlane(
                autoscaler=AutoscalerPolicy(
                    min_replicas=num_replicas,
                    max_replicas=2 * num_replicas,
                    scale_up_queue_depth=2.0,
                    scale_down_queue_depth=1.5,
                    cold_start_s=1.0,
                    cooldown_s=2.0,
                ),
                admission=AdmissionPolicy(max_queue_per_replica=6),
            )
        recorder = EventRecorder() if record else None
        simulator = ClusterSimulator(
            _ReschedulingFleet(topology) if reference else topology,
            router="least-tokens",
            recorder=recorder,
            control=control,
        )
        return simulator, simulator.run(trace), recorder

    reference, expected, expected_log = run(reference=True)
    candidate, got, got_log = run(reference=False)

    discrepancies = _compare_requests(label, expected.requests, got.requests)
    states = {r.request_id: (r.state, r.reject_time) for r in got.requests}
    for request in expected.requests:
        if states.get(request.request_id) != (request.state, request.reject_time):
            discrepancies.append(f"{label}: request {request.request_id} state differs")
    for name in ("assignments", "decode_assignments"):
        if getattr(expected, name) != getattr(got, name):
            discrepancies.append(f"{label}: {name} differ")
    if len(reference.replicas) != len(candidate.replicas):
        discrepancies.append(
            f"{label}: {len(reference.replicas)} vs {len(candidate.replicas)} replicas"
        )
    for ref_replica, replica in zip(reference.replicas, candidate.replicas):
        want, have = _replica_state(ref_replica), _replica_state(replica)
        for name in want:
            if want[name] != have[name]:
                discrepancies.append(
                    f"{label}: replica {replica.replica_id} {name} differs "
                    f"({want[name]!r} vs {have[name]!r})"
                )
    if expected.kv_stats != got.kv_stats:
        discrepancies.append(f"{label}: KV stats differ")
    for name in ("as_row", "control_row"):
        if getattr(expected.metrics, name)() != getattr(got.metrics, name)():
            discrepancies.append(f"{label}: metrics {name}() differs")
    discrepancies.extend(_compare_metrics(label, expected.metrics.fleet, got.metrics.fleet))
    if expected_log is not None and got_log is not None:
        want_events, have_events = expected_log.events, got_log.events
        for index, (want_event, have_event) in enumerate(zip(want_events, have_events)):
            if want_event != have_event:
                discrepancies.append(f"{label}: event {index}: {want_event} vs {have_event}")
                break
        if len(want_events) != len(have_events):
            discrepancies.append(f"{label}: {len(want_events)} vs {len(have_events)} events")
    return discrepancies


def scheduler_conservation(
    deployment: Deployment,
    scenario: str = "arxiv-summarization",
    num_requests: int = 16,
    seed: int = 0,
    chunk_size: int = 1024,
) -> list[str]:
    """Sarathi and vLLM must schedule identical token totals on one trace.

    Each run is recorded and pushed through the full invariant checker; on
    top of that, the total prefill tokens chunked and decode tokens produced
    must match between the two schedulers exactly (they equal the trace's
    token counts).
    """
    discrepancies: list[str] = []
    totals: dict[str, tuple[int, int]] = {}
    for name, scheduler in (
        ("Sarathi", SarathiScheduler(chunk_size=chunk_size)),
        ("vLLM", VLLMScheduler()),
    ):
        recorder = EventRecorder()
        topology = ColocatedTopology(
            deployment,
            num_replicas=1,
            scheduler_factory=lambda: scheduler,
            backend_builder=PODBackend,
        )
        simulator = ClusterSimulator(topology, recorder=recorder)
        result = simulator.run_scenario(scenario, num_requests=num_requests, seed=seed)
        for violation in check_event_log(recorder):
            discrepancies.append(f"{name}: {violation}")
        unfinished = [r.request_id for r in result.requests if not r.is_finished]
        if unfinished:
            discrepancies.append(f"{name}: unfinished requests {unfinished}")
        prefill = decode = 0
        for event in recorder.of_kind(CHUNK_EXECUTED):
            if event.data["phase"] == "prefill":
                prefill += event.data["tokens"]
            else:
                decode += event.data["tokens"]
        totals[name] = (prefill, decode)
    if totals["Sarathi"] != totals["vLLM"]:
        discrepancies.append(
            f"token totals diverge: Sarathi={totals['Sarathi']} vLLM={totals['vLLM']}"
        )
    return discrepancies


# ------------------------------------------------- KV allocator equivalence


class SeedBlockAllocator:
    """Frozen copy of the original (pre-prefix-caching) block allocator.

    This is deliberately a *duplicate*, not an import: it pins the seed
    semantics independently of ``repro.serving.kv_cache``, so any behavioural
    drift of the manager with prefix caching off — in admissions and in
    growth — is caught by :func:`kv_allocator_equivalence` rather than
    silently inherited.  The seed admitted a request by allocating it.
    """

    def __init__(self, num_blocks: int, block_size: int) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self._blocks: dict[int, int] = {}
        self.emissions: list[tuple[str, int, int]] = []

    @property
    def used_blocks(self) -> int:
        return sum(self._blocks.values())

    @property
    def free_blocks(self) -> int:
        return self.num_blocks - self.used_blocks

    def blocks_needed(self, request_id: int, new_total_tokens: int) -> int:
        current = self._blocks.get(request_id, 0)
        return max(0, math.ceil(new_total_tokens / self.block_size) - current)

    def allocate(self, request_id: int, new_total_tokens: int) -> None:
        needed = self.blocks_needed(request_id, new_total_tokens)
        if needed > self.free_blocks:
            raise MemoryError("exhausted")
        self._blocks[request_id] = self._blocks.get(request_id, 0) + needed
        self.emissions.append(("kv_alloc", request_id, needed))

    def free(self, request_id: int) -> None:
        blocks = self._blocks.pop(request_id, None)
        if blocks is None:
            return
        self.emissions.append(("kv_free", request_id, blocks))

    def blocks_of(self, request_id: int) -> int:
        return self._blocks.get(request_id, 0)

    def holds(self, request_id: int) -> bool:
        return request_id in self._blocks


def kv_allocator_operations(
    seed: int, num_operations: int = 200, num_requests: int = 12
) -> list[tuple[str, int, int]]:
    """A seeded ``(op, request_id, tokens)`` sequence for the allocator oracle.

    Mixes admissions (of fresh and of live ids), growths, frees and
    double-frees at token sizes chosen to exercise partial blocks, exact fits
    and exhaustion.
    """
    rng = np.random.default_rng(seed)
    operations: list[tuple[str, int, int]] = []
    for _ in range(num_operations):
        request_id = int(rng.integers(0, num_requests))
        draw = rng.random()
        if draw < 0.65:
            tokens = int(rng.integers(1, 600))
            operations.append(("admit" if draw < 0.3 else "allocate", request_id, tokens))
        else:
            operations.append(("free", request_id, 0))
    return operations


def kv_allocator_equivalence(
    operations: Sequence[tuple[str, int, int]],
    capacity_tokens: int = 1024,
    block_size: int = 16,
) -> list[str]:
    """Replay one operation sequence against both allocators and diff them.

    The candidate is the manager with ``enable_prefix_caching=False`` (the
    default — what every simulation without prefix caching constructs); the
    reference is the frozen seed allocator.  ``admit`` of a fresh id runs
    ``admit_request`` against the seed's ``allocate`` (its
    ``kv_shared_alloc`` emission compares as the seed's ``kv_alloc``);
    ``admit`` of a live id must raise ``ValueError`` and change nothing.
    Usage, holdings, observer emissions and raise/no-raise must match after
    every operation.
    """
    reference = SeedBlockAllocator(capacity_tokens // block_size, block_size)
    candidate = KVCacheManager(
        KVCacheConfig(capacity_tokens=capacity_tokens, block_size=block_size)
    )
    emissions: list[tuple[str, int, int]] = []

    def observe(kind: str, request_id: int, blocks: int, **extra: int) -> None:
        emissions.append(
            ("kv_alloc" if kind == "kv_shared_alloc" else kind, request_id, blocks)
        )

    def admit(request_id: int, tokens: int) -> None:
        request = Request(request_id=request_id, prefill_tokens=tokens, decode_tokens=1)
        candidate.admit_request(request, tokens)

    candidate.observer = observe
    discrepancies: list[str] = []
    for index, (op, request_id, tokens) in enumerate(operations):
        label = f"op {index} ({op} r{request_id} t{tokens})"
        if op == "admit" and reference.holds(request_id):
            try:
                admit(request_id, tokens)
            except ValueError:
                pass
            else:
                discrepancies.append(f"{label}: re-admission of a live id accepted")
        elif op in ("admit", "allocate"):
            ref_raised = cand_raised = False
            try:
                reference.allocate(request_id, tokens)
            except MemoryError:
                ref_raised = True
            try:
                if op == "admit":
                    admit(request_id, tokens)
                else:
                    candidate.allocate(request_id, tokens)
            except MemoryError:
                cand_raised = True
            if ref_raised != cand_raised:
                discrepancies.append(
                    f"{label}: reference {'raised' if ref_raised else 'allocated'}, "
                    f"candidate {'raised' if cand_raised else 'allocated'}"
                )
        elif op == "free":
            reference.free(request_id)
            candidate.free(request_id)
        else:
            raise ValueError(f"unknown operation {op!r}")
        if candidate.used_blocks != reference.used_blocks:
            discrepancies.append(
                f"{label}: used_blocks {candidate.used_blocks} != "
                f"{reference.used_blocks}"
            )
        if candidate.free_blocks != reference.free_blocks:
            discrepancies.append(
                f"{label}: free_blocks {candidate.free_blocks} != "
                f"{reference.free_blocks}"
            )
        if candidate.holds(request_id) != reference.holds(request_id):
            discrepancies.append(f"{label}: holds() diverges")
        if candidate.blocks_of(request_id) != reference.blocks_of(request_id):
            discrepancies.append(f"{label}: blocks_of() diverges")
    # kv_double_free is a diagnostic emission added after the seed (the seed
    # allocator absorbed no-op frees silently); the block-accounting stream
    # must still match the seed's kinds, ids and block counts.
    emissions = [e for e in emissions if e[0] != "kv_double_free"]
    if emissions != reference.emissions:
        discrepancies.append(
            f"observer emissions diverge: candidate {len(emissions)}, "
            f"reference {len(reference.emissions)}"
        )
    return discrepancies


# ---------------------------------------------------- GPU engine equivalence

#: Relative tolerance of the engine totals that are float sums (FLOPs, bytes,
#: per-tag totals, energy, utilizations): the reference sums them per event,
#: the engine per retired CTA.  Times, placements and CTA records are exact.
ENGINE_RTOL = 1e-12


def _execute(
    run: Callable[[Sequence[KernelLaunch]], ExecutionResult],
    launch_factory: Callable[[], Sequence[KernelLaunch]],
) -> ExecutionResult | str:
    """The run's result, or its error as ``"<type>: <message>"``."""
    try:
        return run(launch_factory())
    except (ValueError, RuntimeError) as error:
        return f"{type(error).__name__}: {error}"


def _compare_executions(reference: ExecutionResult, candidate: ExecutionResult) -> list[str]:
    discrepancies: list[str] = []
    for name in ("total_time", "colocation_fraction", "avg_resident_ctas"):
        ref, got = getattr(reference, name), getattr(candidate, name)
        if ref != got:
            discrepancies.append(f"{name} differs ({ref!r} vs {got!r})")
    for name in (
        "flops_executed",
        "bytes_moved",
        "energy_joules",
        "compute_utilization",
        "memory_utilization",
    ):
        ref, got = getattr(reference, name), getattr(candidate, name)
        if not math.isclose(ref, got, rel_tol=ENGINE_RTOL):
            discrepancies.append(f"{name} beyond {ENGINE_RTOL} ({ref!r} vs {got!r})")
    for name in ("tag_flops", "tag_bytes"):
        ref_tags, got_tags = getattr(reference, name), getattr(candidate, name)
        if sorted(ref_tags) != sorted(got_tags):
            discrepancies.append(f"{name} tags {sorted(ref_tags)} vs {sorted(got_tags)}")
            continue
        for tag in sorted(ref_tags):
            if not math.isclose(ref_tags[tag], got_tags[tag], rel_tol=ENGINE_RTOL):
                discrepancies.append(
                    f"{name}[{tag!r}] beyond {ENGINE_RTOL} "
                    f"({ref_tags[tag]!r} vs {got_tags[tag]!r})"
                )
    if reference.kernels != candidate.kernels:
        discrepancies.append(f"kernel timings differ ({reference.kernels} vs {candidate.kernels})")
    ref_records, got_records = reference.cta_records, candidate.cta_records
    if len(ref_records) != len(got_records):
        discrepancies.append(f"{len(ref_records)} vs {len(got_records)} CTA records")
    for index, (ref_record, got_record) in enumerate(zip(ref_records, got_records)):
        if ref_record != got_record:
            discrepancies.append(f"CTA record {index} differs ({ref_record} vs {got_record})")
            break
    return discrepancies


def engine_equivalence(
    spec: GPUSpec,
    launch_factory: Callable[[], Sequence[KernelLaunch]],
) -> list[str]:
    """Diff ``ExecutionEngine`` against the frozen ``ReferenceEngine`` on one launch set.

    ``launch_factory`` builds the launches afresh for every run: a binder
    kernel (POD-Attention's ``SMAwareScheduler``) advances its counters on
    each dispatch, so two engines cannot share one set of launches.  Both
    engines run with per-CTA records and must agree:

    * exactly on ``total_time``, every kernel's start and end, every CTA
      record in order (kernel, dispatch index, SM, tag, start, end, FLOPs,
      bytes), ``colocation_fraction`` and ``avg_resident_ctas``;
    * within :data:`ENGINE_RTOL` on ``flops_executed``, ``bytes_moved``, the
      per-tag FLOPs and bytes, energy and both utilizations;
    * on the error, when a run raises (empty launch lists, kernels that
      cannot fit, stalls).
    """
    reference = _execute(ReferenceEngine(spec).run, launch_factory)
    candidate = _execute(ExecutionEngine(spec, record_ctas=True).run, launch_factory)
    if isinstance(reference, str) or isinstance(candidate, str):
        if reference == candidate:
            return []
        ref_outcome = reference if isinstance(reference, str) else "a result"
        got_outcome = candidate if isinstance(candidate, str) else "a result"
        return [f"reference gave {ref_outcome}, engine gave {got_outcome}"]
    return _compare_executions(reference, candidate)


#: Hybrid batches spanning memory-bound to compute-bound regimes.
DEFAULT_ORACLE_BATCHES = (
    HybridBatch.uniform(512, 4096, 32, 4096),
    HybridBatch.uniform(1024, 12288, 64, 12288),
    HybridBatch.uniform(2048, 8192, 16, 8192),
)

#: Declared tolerances of the analytic model vs the event-driven simulator —
#: the single source of truth (tests/test_analytic_vs_sim.py imports these).
SERIAL_TOLERANCE = 0.35
FUSED_TOLERANCE = 0.40


def analytic_vs_simulated(
    deployment: Deployment,
    batches: Sequence[HybridBatch] = DEFAULT_ORACLE_BATCHES,
    serial_tolerance: float = SERIAL_TOLERANCE,
    fused_tolerance: float = FUSED_TOLERANCE,
) -> list[str]:
    """Closed-form attention times vs the event-driven GPU simulator."""
    engine = ExecutionEngine(deployment.gpu, record_ctas=False)
    discrepancies: list[str] = []
    for index, batch in enumerate(batches):
        analytic = analytic_attention_times(deployment, batch)
        serial = FASerial().run(deployment, batch, engine).total_time
        fused = PODAttention().run(deployment, batch, engine).total_time
        if abs(analytic.serial_time - serial) > serial_tolerance * serial:
            discrepancies.append(
                f"batch {index}: serial analytic {analytic.serial_time:.6f}s vs "
                f"simulated {serial:.6f}s beyond {serial_tolerance:.0%}"
            )
        if abs(analytic.fused_time - fused) > fused_tolerance * fused:
            discrepancies.append(
                f"batch {index}: fused analytic {analytic.fused_time:.6f}s vs "
                f"simulated {fused:.6f}s beyond {fused_tolerance:.0%}"
            )
    return discrepancies
