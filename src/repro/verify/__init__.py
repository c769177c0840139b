"""Verification subsystem: event logs, invariants, oracles and the fuzzer.

This package is the repro's safety net: it turns "the simulators look right"
into machine-checkable facts so performance refactors of the serving hot
paths can land without fear.

* :mod:`repro.verify.events` — structured event log emitted (opt-in) by
  ``ReplicaRuntime`` / ``ClusterSimulator``.
* :mod:`repro.verify.invariants` — causality, token-conservation, KV
  accounting, batch-budget and monotone-clock checks over those logs.
* :mod:`repro.verify.oracles` — differential oracles between independent
  layers (single-replica vs cluster, scheduler vs scheduler, serving-step
  attention estimates vs the analytic reference, analytic cost model vs GPU
  simulator, GPU engine vs its frozen reference), and
  :class:`~repro.verify.oracles.ReferenceAllocator`, the one reference model
  of the KV allocator.
* :mod:`repro.verify.reference_engine` — the frozen reference copy of the
  event-driven GPU engine that ``engine_equivalence`` diffs against.
* :mod:`repro.verify.fuzzer` — hypothesis-driven scenario fuzzing that runs
  the invariant checker on randomly composed workloads and configs.
* :mod:`repro.verify.stateful` — hypothesis stateful machines driving raw
  API interleavings (KV cache, scheduler/replica, cluster); each failure
  they found is pinned as a plain test in ``tests/test_stateful_corpus.py``.

The committed-baseline perf gate lives in :mod:`repro.bench.regression`.
"""

from repro.verify.events import (
    ADMITTED,
    ALL_KINDS,
    ARRIVAL,
    BATCH_FORMED,
    CHUNK_EXECUTED,
    COMPLETED,
    ENQUEUED,
    EVENT_SCHEMAS,
    Event,
    EventRecorder,
    EventSink,
    GLOBAL_CLOCK_KINDS,
    DRAIN_STARTED,
    KV_ALLOC,
    KV_FREE,
    KV_SHARED_ALLOC,
    PREEMPTED,
    REJECTED,
    ROUTED,
    SCALED_DOWN,
    SCALED_UP,
    STEP,
    TRANSFER_DELIVERED,
    TRANSFER_START,
    TeeSink,
    as_sink,
    merge_events,
    validate_event_payload,
)
from repro.verify.invariants import (
    InvariantViolationError,
    Violation,
    assert_no_violations,
    check_cost_accounting,
    check_event_log,
    check_execution,
    check_kv_drain_balance,
    check_replica_load_counters,
)
from repro.verify.oracles import (
    ENGINE_RTOL,
    ESTIMATE_RTOL,
    REDUCIBLE_ROUTERS,
    ReferenceAllocator,
    analytic_vs_simulated,
    compare_allocator_to_model,
    engine_equivalence,
    estimate_equivalence,
    kv_allocator_equivalence,
    kv_allocator_operations,
    scheduler_conservation,
    single_replica_equivalence,
    single_replica_reference,
)
from repro.verify.reference_engine import ReferenceEngine

#: Fuzzer and stateful-machine names are re-exported lazily: both modules
#: need hypothesis (a test-only dependency), and importing the recorder /
#: checker / oracles must work in a numpy-only runtime environment.
_FUZZER_EXPORTS = ("FuzzConfig", "build_fuzz_requests", "fuzz_configs", "run_fuzz_case")
_STATEFUL_EXPORTS = (
    "ClusterInterleavingMachine",
    "KVCacheMachine",
    "SchedulerReplicaMachine",
)


def __getattr__(name: str) -> object:
    if name in _FUZZER_EXPORTS:
        from repro.verify import fuzzer

        return getattr(fuzzer, name)
    if name in _STATEFUL_EXPORTS:
        from repro.verify import stateful

        return getattr(stateful, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ADMITTED",
    "ALL_KINDS",
    "ARRIVAL",
    "BATCH_FORMED",
    "CHUNK_EXECUTED",
    "COMPLETED",
    "ENQUEUED",
    "EVENT_SCHEMAS",
    "Event",
    "EventRecorder",
    "EventSink",
    "GLOBAL_CLOCK_KINDS",
    "DRAIN_STARTED",
    "KV_ALLOC",
    "KV_FREE",
    "KV_SHARED_ALLOC",
    "PREEMPTED",
    "REJECTED",
    "ROUTED",
    "SCALED_DOWN",
    "SCALED_UP",
    "STEP",
    "TRANSFER_DELIVERED",
    "TRANSFER_START",
    "TeeSink",
    "as_sink",
    "merge_events",
    "validate_event_payload",
    "FuzzConfig",
    "build_fuzz_requests",
    "fuzz_configs",
    "run_fuzz_case",
    "ClusterInterleavingMachine",
    "KVCacheMachine",
    "SchedulerReplicaMachine",
    "InvariantViolationError",
    "Violation",
    "assert_no_violations",
    "check_event_log",
    "check_cost_accounting",
    "check_execution",
    "check_kv_drain_balance",
    "check_replica_load_counters",
    "ENGINE_RTOL",
    "ESTIMATE_RTOL",
    "REDUCIBLE_ROUTERS",
    "ReferenceAllocator",
    "ReferenceEngine",
    "analytic_vs_simulated",
    "compare_allocator_to_model",
    "engine_equivalence",
    "estimate_equivalence",
    "kv_allocator_equivalence",
    "kv_allocator_operations",
    "scheduler_conservation",
    "single_replica_equivalence",
    "single_replica_reference",
]
