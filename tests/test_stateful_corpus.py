"""Every failure the stateful machines found, pinned as a plain test.

Each test is one minimized example (or a behaviour contract the machines
exercise) written as the API calls it makes: no hypothesis, no randomness,
so a regression fails identically everywhere.  A test's docstring gives its
title, how it was found, and what failed before the fix or what it pins.

Every test keeps its oracle: a KV test mirrors each operation on
:class:`~repro.verify.oracles.ReferenceAllocator` and ends with
:func:`~repro.verify.oracles.compare_allocator_to_model`, and a scheduler
test steps a :class:`~repro.verify.oracles.ReschedulingRuntime` twin in
lockstep, drains both and requires the invariant checks and equal event
logs.  ``docs/testing.md`` describes how a shrunk failure becomes a test
here.
"""

from __future__ import annotations

import inspect
import sys
from typing import Any, Callable

import pytest

from repro.cluster.control import AdmissionPolicy, AutoscalerPolicy, ControlPlane
from repro.models.config import paper_deployment
from repro.obs.sampler import FleetSampler
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager, prefix_block_hashes
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler, SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify.events import EventRecorder
from repro.verify.invariants import (
    check_event_log,
    check_kv_drain_balance,
    check_replica_load_counters,
)
from repro.verify.oracles import (
    ReferenceAllocator,
    ReschedulingRuntime,
    compare_allocator_to_model,
)

_DEPLOYMENT = paper_deployment("llama-3-8b")


# ------------------------------------------------------------ KV allocator


def _allocator(capacity_tokens: int, caching: bool) -> tuple[KVCacheManager, ReferenceAllocator]:
    manager = KVCacheManager(
        KVCacheConfig(
            capacity_tokens=capacity_tokens, block_size=16, enable_prefix_caching=caching
        )
    )
    return manager, ReferenceAllocator(manager.total_blocks, 16, caching)


def _admit(
    manager: KVCacheManager, model: ReferenceAllocator, request: Request, reserve: int
) -> int:
    """Admit on both sides; the reusable prompt tokens must agree."""
    cached = manager.admit_request(request, reserve)
    assert cached == model.admit(request, reserve)
    return cached


def _free(manager: KVCacheManager, model: ReferenceAllocator, request_id: int) -> None:
    manager.free(request_id)
    model.release(request_id)


def _refcount(manager: KVCacheManager, prefix_id: str, block: int) -> int:
    """References held on block ``block`` of ``prefix_id``'s chain."""
    block_hash = prefix_block_hashes(prefix_id, block + 1)[-1]
    return manager._shared_refcount.get(block_hash, 0)


def test_kv_admit_share_preempt_readmit():
    """Shared-prefix holder preempted while a sharer is live, then readmitted.

    Found by: contract pin. The hypothesized refcount leak did not
    reproduce (the KVCacheMachine ran this interleaving thousands of times
    against the reference model); this test pins the correct behaviour so a
    future regression is caught here, not rediscovered.

    Pins: preempt-release of request 1 must decrement the shared chain to
    refcount 1 (request 2 keeps it live, nothing becomes evictable);
    readmission must re-resolve the chain as hits and return the full
    cached prefix.
    """
    manager, model = _allocator(160, caching=True)

    def chat(request_id: int) -> Request:
        return Request(
            request_id=request_id,
            prefill_tokens=48,
            decode_tokens=4,
            prefix_id="corpus/pa",
            prefix_tokens=32,
        )

    assert _admit(manager, model, chat(1), 48) == 0
    assert _refcount(manager, "corpus/pa", 1) == 1
    assert _admit(manager, model, chat(2), 48) == 32
    assert _refcount(manager, "corpus/pa", 1) == 2
    _free(manager, model, 1)  # the scheduler's recompute preemption frees the victim
    assert _refcount(manager, "corpus/pa", 1) == 1
    assert manager.cached_blocks == 0
    assert _admit(manager, model, chat(1), 48) == 32
    assert _refcount(manager, "corpus/pa", 1) == 2
    _free(manager, model, 1)
    _free(manager, model, 2)
    assert (manager.used_blocks, manager.cached_blocks) == (0, 2)
    totals = manager.stats.counter_totals()
    assert (totals["shared_admissions"], totals["double_frees"]) == (3, 0)
    assert compare_allocator_to_model(manager, model) == []


def test_kv_flat_double_admit():
    """Flat-mode admit_request silently grew an already-admitted request.

    Found by: KVCacheMachine rule double_admit_rejected (minimized).

    Fails before: with prefix caching off, admit_request of a live id fell
    through to allocate() and grew the allocation instead of raising like
    the caching path does; the two modes now reject identically.
    """
    manager, model = _allocator(128, caching=False)
    request = Request(request_id=1, prefill_tokens=32, decode_tokens=4)
    _admit(manager, model, request, 32)
    assert manager.used_blocks == 2
    with pytest.raises(ValueError):
        manager.admit_request(request, 64)
    with pytest.raises(ValueError):
        model.admit(request, 64)
    assert manager.used_blocks == 2
    _free(manager, model, 1)
    assert manager.used_blocks == 0
    assert compare_allocator_to_model(manager, model) == []


def test_kv_sub_block_capacity():
    """KVCacheConfig accepted a capacity smaller than one block.

    Found by: KVCacheMachine (shrunk by hand to the boundary case).

    Fails before: capacity_tokens < block_size floored to zero blocks; every
    admission then failed much later with an opaque empty-batch RuntimeError
    instead of a construction-time error.
    """
    with pytest.raises(ValueError, match="smaller than one block"):
        KVCacheConfig(capacity_tokens=8, block_size=16)


def test_sampler_counter_reconciliation():
    """Telemetry blind spot: shared admissions and double-frees invisible to FleetSampler.

    Found by: counter audit while building the stateful machines.

    Fails before: KVCacheStats tracked shared_admissions and
    double_free_count but counter_totals() omitted both, the manager emitted
    no event on an absorbed double-free, and FleetSampler.window_totals()
    had no matching columns, so the sampler-vs-counters reconciliation could
    not cover them.  The test requires every counter_totals() key to be
    integrated by window_totals(), with equal integrals.
    """
    manager = KVCacheManager(
        KVCacheConfig(capacity_tokens=160, block_size=16, enable_prefix_caching=True)
    )
    sampler = FleetSampler(interval=0.5)
    now = 0.0  # the clock the observer stamps each emission with

    def observe(kind: str, request_id: int, blocks: int, **extra: Any) -> None:
        sampler.emit(
            kind,
            time=now,
            replica_id=0,
            request_id=request_id,
            blocks=blocks,
            used_blocks=manager.used_blocks,
            cached_blocks=manager.cached_blocks,
            total_blocks=manager.total_blocks,
            **extra,
        )

    def chat(request_id: int) -> Request:
        return Request(
            request_id=request_id,
            prefill_tokens=48,
            decode_tokens=4,
            prefix_id="corpus/pa",
            prefix_tokens=32,
        )

    manager.observer = observe
    now = 0.1
    manager.admit_request(chat(1), 48)
    now = 0.2
    manager.admit_request(chat(2), 48)
    now = 0.3
    manager.free(1)
    now = 0.4
    manager.free(2)
    now = 0.5
    manager.free(2)
    now = 0.6
    manager.free(7)
    sampler.finalize()
    totals = sampler.window_totals()
    counters = manager.stats.counter_totals()
    assert set(counters) <= set(totals), "window_totals() does not cover every counter"
    assert {key: totals[key] for key in counters} == counters
    assert {
        key: counters[key]
        for key in ("shared_admissions", "double_frees", "prefix_hits", "prefix_misses")
    } == {"shared_admissions": 2, "double_frees": 2, "prefix_hits": 2, "prefix_misses": 2}


# ------------------------------------------------------------ scheduler


def _sarathi(preemption: bool) -> Callable[[], Scheduler]:
    return lambda: SarathiScheduler(
        chunk_size=64, limits=SchedulerLimits(max_batch_size=4), preemption=preemption
    )


def _vllm(preemption: bool) -> Callable[[], Scheduler]:
    return lambda: VLLMScheduler(limits=SchedulerLimits(max_batch_size=4), preemption=preemption)


class _Lockstep:
    """A ``ReplicaRuntime`` and its ``ReschedulingRuntime`` twin, fed the
    same requests, stepped in lockstep and drained the same way."""

    def __init__(
        self,
        make_scheduler: Callable[[], Scheduler],
        capacity_tokens: int,
        prefix_caching: bool = False,
    ) -> None:
        kv_config = KVCacheConfig(
            capacity_tokens=capacity_tokens,
            block_size=16,
            enable_prefix_caching=prefix_caching,
        )
        self.recorder = EventRecorder()
        self.reference_recorder = EventRecorder()
        self.runtime = ReplicaRuntime(
            _DEPLOYMENT, make_scheduler(), kv_config=kv_config, recorder=self.recorder
        )
        self.reference = ReschedulingRuntime(
            _DEPLOYMENT, make_scheduler(), kv_config=kv_config, recorder=self.reference_recorder
        )

    def enqueue(self, request: Request) -> None:
        self.runtime.enqueue(request)
        self.reference.enqueue(request.fresh_copy())

    def step(self, times: int = 1) -> None:
        for _ in range(times):
            self.runtime.step()
            self.reference.step()

    def advance(self) -> None:
        """``advance`` the runtime, then step the twin as often as it ran."""
        self.runtime.advance()
        while self.reference.steps_executed < self.runtime.steps_executed:
            self.reference.step()

    @property
    def waiting(self) -> list[int]:
        return [request.request_id for request in self.runtime.waiting]

    @property
    def preemptions(self) -> int:
        return len(self.recorder.of_kind("preempted"))

    def drain_and_check(self) -> None:
        """Drain both, then require the invariant checks and equal event logs."""
        self.runtime.run_to_completion()
        while self.reference.next_ready_time() is not None:
            if not self.reference.step().executed:
                break
        assert check_event_log(self.recorder, expect_drained=True) == []
        assert check_kv_drain_balance([self.runtime]) == []
        assert check_replica_load_counters([self.runtime]) == []
        assert self.recorder.events == self.reference_recorder.events, (
            "re-running steady decode batches diverged from rescheduling every step"
        )


def _assert_no_same_pass_readmit(recorder: EventRecorder) -> None:
    """No request is both preempted and admitted within one scheduling pass
    (one emission burst at one clock)."""
    passes: dict[float, tuple[set[int], set[int]]] = {}
    for event in recorder.events:
        if event.kind in ("preempted", "admitted"):
            preempted, admitted = passes.setdefault(event.time, (set(), set()))
            (preempted if event.kind == "preempted" else admitted).add(event.request_id)
    for when, (preempted, admitted) in passes.items():
        assert not preempted & admitted, (
            f"requests {sorted(preempted & admitted)} preempted and re-admitted "
            f"in the same pass at t={when}"
        )


def _preempt_ordering(make_scheduler: Callable[[], Scheduler]) -> None:
    twins = _Lockstep(make_scheduler, capacity_tokens=128)
    twins.enqueue(Request(request_id=0, prefill_tokens=60, decode_tokens=20))
    twins.enqueue(Request(request_id=1, prefill_tokens=48, decode_tokens=20))
    twins.enqueue(Request(request_id=2, prefill_tokens=32, decode_tokens=4))
    twins.step(times=5)
    assert twins.preemptions == 1
    assert twins.waiting == [1, 2], "the pinned preemption/readmission ordering regressed"
    _assert_no_same_pass_readmit(twins.recorder)
    twins.drain_and_check()


def test_sched_sarathi_preempt_ordering():
    """Sarathi: preempted request re-enters the waiting queue ahead of an
    already-waiting same-timestamp arrival.

    Found by: contract pin. SchedulerReplicaMachine exercises this
    interleaving; the test freezes the documented ordering
    (Scheduler.prepare_decodes docstring) so a queue-policy change cannot
    silently reorder recompute victims.

    Pins: rule 1: victims splice to the waiting FRONT in admission order,
    ahead of request 2, which arrived at the same timestamp and was already
    waiting (KV-blocked); rule 2: no request is preempted and re-admitted
    within one scheduling pass.
    """
    _preempt_ordering(_sarathi(preemption=True))


def test_sched_vllm_preempt_ordering():
    """vLLM: preempted request re-enters the waiting queue ahead of an
    already-waiting same-timestamp arrival.

    Found by: contract pin. The same trace as the Sarathi test, driven
    through the prefill-prioritising scheduler; both schedulers must enforce
    the identical ordering contract.

    Pins: rule 1: the recompute victim waits at the queue front ahead of
    request 2; rule 2: a preempting pass admits nothing (structural in this
    scheduler: preemption only happens in decode-only passes).
    """
    _preempt_ordering(_vllm(preemption=True))


def test_sched_sarathi_steady_rerun():
    """Sarathi without preemption: a steady decode run re-runs its batch
    until an arrival waits, then reschedules.

    Found by: contract pin. The lockstep twin reschedules every step; this
    is the test whose decode steps actually re-run a batch, so it compares
    re-running with rescheduling on a real steady run.

    Pins: ReplicaRuntime.steady_batch: request 0 decodes alone for several
    steps (re-runs), request 1 becomes ready mid-run and must be admitted on
    the first step that finds it waiting; the event log must equal the
    rescheduling twin's exactly.
    """
    twins = _Lockstep(_sarathi(preemption=False), capacity_tokens=1024)
    twins.enqueue(Request(request_id=0, prefill_tokens=32, decode_tokens=12, arrival_time=0.0))
    twins.enqueue(Request(request_id=1, prefill_tokens=40, decode_tokens=4, arrival_time=0.03))
    twins.step(times=3)
    twins.drain_and_check()


def test_sched_sarathi_blocked_leap_preempts():
    """Sarathi with preemption: a KV-blocked steady run leaps until a
    decode's growth does not fit, then the same advance schedules the step
    that preempts.

    Found by: contract pin. The smallest trace on which a steady decode run
    under preemption re-runs with the queue head refused on KV, grows across
    block boundaries mid-leap, and ends where the cache runs out of free
    blocks; a rescheduling twin steps in lockstep.

    Pins: ReplicaRuntime.steady_batch, ReplicaRuntime._leap and
    ReplicaRuntime.advance under preemption: after 3 scheduled steps
    requests 0 and 1 decode in 6 of 8 blocks while request 2 waits, refused
    on KV; one advance leaps steps 4-24, growing request 0 at step 9 and
    request 1 at step 10 into the last 2 free blocks, and stops at step 25,
    where request 0 needs a fifth block and none is free; the same advance
    then schedules step 25, preempting request 1 to the queue front ahead of
    request 2, schedules step 26 (KV-blocked), leaps request 0 alone through
    step 40, where it finishes, and returns after that release; every event
    must equal the rescheduling twin's.
    """
    twins = _Lockstep(_sarathi(preemption=True), capacity_tokens=128)
    twins.enqueue(Request(request_id=0, prefill_tokens=40, decode_tokens=40))
    twins.enqueue(Request(request_id=1, prefill_tokens=40, decode_tokens=40))
    twins.enqueue(Request(request_id=2, prefill_tokens=48, decode_tokens=4))
    twins.step(times=3)
    twins.advance()
    assert twins.runtime.steps_executed == 40
    assert twins.preemptions == 1
    assert twins.waiting == [1, 2]
    twins.drain_and_check()


def test_sched_sarathi_refused_head_prefix_freed():
    """Sarathi with prefix caching: a queue head refused on KV stays refused
    when the holder of its shared prefix frees, and is admitted once the
    other decode frees.

    Found by: contract pin for the riders memo of
    KVCacheManager.can_admit_request: the smallest trace in which a free
    turns a refused head's free riders into LRU revivals while the head
    stays refused; a memo kept across that free admits the head early
    (admit_request then raises MemoryError), and the rescheduling twin runs
    the frozen chain walk.

    Pins: KVCacheManager.can_admit_request after a free: 8 blocks, full
    reservation; request 0 holds the 4 blocks of prefix chat/system plus 1
    private block and request 1 holds 3 private blocks, so request 2 (4
    chain blocks + 3 private) waits refused on KV with 4 free riders;
    request 0 finishes at step 9 and its chain moves to the LRU, so request
    2 needs 7 blocks against 5 free and stays refused through the advance
    that leaps steps 11-22 and returns after step 22, which releases request
    1; step 23 admits it, reviving the 4 cached chain blocks; every event
    must equal the rescheduling twin's.
    """
    twins = _Lockstep(_sarathi(preemption=False), capacity_tokens=128, prefix_caching=True)
    twins.enqueue(
        Request(
            request_id=0,
            prefill_tokens=66,
            decode_tokens=8,
            prefix_id="chat/system",
            prefix_tokens=64,
        )
    )
    twins.enqueue(Request(request_id=1, prefill_tokens=20, decode_tokens=20))
    twins.enqueue(
        Request(
            request_id=2,
            prefill_tokens=90,
            decode_tokens=10,
            prefix_id="chat/system",
            prefix_tokens=64,
        )
    )
    twins.step(times=9)
    assert twins.waiting == [2]
    twins.step()
    assert twins.waiting == [2]
    twins.advance()
    assert twins.runtime.steps_executed == 22
    assert twins.waiting == [2]
    twins.step()
    assert twins.waiting == []
    twins.drain_and_check()


def test_sched_vllm_same_pass_prefix_riders():
    """vLLM with prefix caching: the second of two prompts sharing a prefix
    rides, in the same pass, on the chain blocks the first admission created.

    Found by: contract pin for the riders memo of
    KVCacheManager.can_admit_request: the smallest trace in which one
    admission adds a chain to the referenced set and the next check in the
    same pass must count those blocks as free riders; a memo kept across
    that admission refuses the second prompt, and the rescheduling twin runs
    the frozen chain walk.

    Pins: KVCacheManager.can_admit_request after an admission: 8 blocks,
    full reservation; request 0 takes the 4 new chain blocks of prefix
    chat/system plus 1 private block, leaving 3 free; request 1 (4 chain
    blocks + 2 private) needs only its 2 private blocks and is admitted in
    the same first step; every event must equal the rescheduling twin's.
    """
    twins = _Lockstep(_vllm(preemption=False), capacity_tokens=128, prefix_caching=True)
    for request_id, prefill, decode in ((0, 66, 8), (1, 80, 10)):
        twins.enqueue(
            Request(
                request_id=request_id,
                prefill_tokens=prefill,
                decode_tokens=decode,
                prefix_id="chat/system",
                prefix_tokens=64,
            )
        )
    twins.step()
    assert twins.waiting == []
    twins.drain_and_check()


# ------------------------------------------------------------ control plane


def test_control_cooldown_warming_clamps():
    """Autoscaler cooldown, warming suppression and fleet clamps.

    Found by: contract pin. The ClusterInterleavingMachine control rules and
    a 60-trial random-policy fuzz of ClusterSimulator produced no
    divergence; this test pins the decision arithmetic so a future
    off-by-one in the cooldown or clamp logic is caught here, not
    rediscovered.

    Pins: a scale-up at t=0 starts the cooldown window (decisions inside it
    are 0 even under deep queues); warming capacity suppresses scale-down
    but not scale-up; decisions clamp at max_replicas and min_replicas;
    depth thresholds compare outstanding/live, so the same backlog stops
    triggering once the fleet has grown.
    """
    plane = ControlPlane(
        autoscaler=AutoscalerPolicy(
            min_replicas=1,
            max_replicas=3,
            scale_up_queue_depth=4.0,
            scale_down_queue_depth=1.0,
            cold_start_s=2.0,
            cooldown_s=10.0,
        )
    )
    # autoscale(time, live, warming, outstanding)
    assert plane.autoscale(0.0, 1, 0, 4) == 1
    assert plane.autoscale(5.0, 1, 1, 40) == 0
    assert plane.autoscale(10.0, 2, 0, 8) == 1
    assert plane.autoscale(20.0, 3, 0, 99) == 0
    assert plane.autoscale(30.0, 3, 0, 6) == 0
    assert plane.autoscale(40.0, 3, 1, 0) == 0
    assert plane.autoscale(50.0, 3, 0, 2) == -1
    assert plane.autoscale(60.0, 2, 0, 0) == -1
    assert plane.autoscale(70.0, 1, 0, 0) == 0


def test_control_tiered_shed_rate_bucket():
    """Tiered shedding order, tenant caps, and rate-bucket isolation.

    Found by: contract pin. The admit path checks pressure, then the tenant
    cap, then the rate bucket, and only the final check consumes a token —
    an ordering hazard (a bucket consulted first would silently burn rate
    budget on every overload shed) that the random-policy fuzz cannot
    distinguish from the correct order; pinned here explicitly.

    Pins: at pressure 0.5 the batch tier sheds (>= comparison: exactly at
    threshold sheds) while standard and interactive are admitted; a
    hard-full fleet sheds even interactive; the tenant queue cap frees a
    slot on release; the fresh tenant's overload shed must not consume a
    rate-bucket token — all three burst tokens still admit afterwards before
    the rate limit bites.
    """
    plane = ControlPlane(
        admission=AdmissionPolicy(
            max_queue_per_replica=8,
            tenant_queue_cap=2,
            tenant_rate_limit_qps=0.001,
            rate_limit_burst=3.0,
            tenant_tiers={"bg": "batch", "app": "interactive"},
        )
    )
    requests: dict[int, Request] = {}

    def admit(request_id: int, tenant: str, live: int, outstanding: int) -> str | None:
        request = Request(
            request_id=request_id,
            prefill_tokens=128,
            decode_tokens=8,
            arrival_time=0.0,
            tenant=tenant,
        )
        requests[request_id] = request
        return plane.admit(request, 0.0, live, outstanding)

    assert admit(0, "bg", live=1, outstanding=4) == "overload"
    assert admit(1, "std", live=1, outstanding=4) is None
    assert admit(2, "app", live=1, outstanding=5) is None
    assert admit(3, "app", live=1, outstanding=8) == "overload"
    assert admit(4, "app", live=2, outstanding=8) is None
    assert admit(5, "app", live=2, outstanding=9) == "tenant_queue_cap"
    plane.note_release(requests[2])
    assert admit(6, "app", live=2, outstanding=9) is None
    assert admit(7, "fresh", live=1, outstanding=16) == "overload"
    assert admit(8, "fresh", live=1, outstanding=0) is None
    assert admit(9, "fresh", live=1, outstanding=1) is None
    plane.note_release(requests[8])
    assert admit(10, "fresh", live=1, outstanding=2) is None
    plane.note_release(requests[9])
    assert admit(11, "fresh", live=1, outstanding=2) == "tenant_rate_limit"


# ------------------------------------------------------------ provenance


def test_every_pinned_failure_has_provenance():
    """Each test says how it was found and what failed before its fix or
    what contract it pins."""
    module = sys.modules[__name__]
    tests = [
        (name, function)
        for name, function in inspect.getmembers(module, inspect.isfunction)
        if name.startswith("test_") and name != "test_every_pinned_failure_has_provenance"
    ]
    assert tests
    for name, function in tests:
        doc = inspect.getdoc(function) or ""
        assert doc.split("\n", 1)[0], f"{name} has no title"
        assert "Found by:" in doc, f"{name} does not say how it was found"
        assert "Fails before:" in doc or "Pins:" in doc, (
            f"{name} must say what failed before the fix (Fails before:) "
            "or what contract it pins (Pins:)"
        )
