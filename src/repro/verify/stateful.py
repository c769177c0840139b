"""Stateful property-based testing of the serving API (hypothesis machines).

Where the fuzzer (:mod:`repro.verify.fuzzer`) samples whole *configurations*
and runs them end-to-end, the machines here drive the serving API the way a
buggy caller would: raw interleavings of admit/grow/free/preempt on the KV
cache, enqueue/step on a replica runtime, route/step on a fleet — with
invariants checked after **every** operation, not just at drain.  Hypothesis
explores the interleaving space and shrinks any failure to a minimal
operation sequence.

Three machines:

* :class:`KVCacheMachine` — the block allocator (prefix caching on and off)
  mirrored against :class:`ReferenceAllocator`, a deliberately naive
  pure-python model with explicit block identity.  Every rule cross-checks
  usage, refcounts, LRU order and per-request holdings.
* :class:`SchedulerReplicaMachine` — either scheduler driven through
  ``ReplicaRuntime`` one enqueue/step/advance at a time, with the event-log
  invariant checker and a rescheduling twin stepped in lockstep as the
  oracles after every rule and drain-balance checks at teardown.
* :class:`ClusterInterleavingMachine` — a small fleet driven with the cluster
  event-loop discipline (arrivals globally monotone, earliest replica steps
  first); single-replica fleets are additionally pinned against
  :func:`~repro.verify.oracles.single_replica_reference` run over the same
  trace (the differential oracle).

Minimized failing examples graduate into ``tests/corpus/`` as JSON entries
(one file per bug) and are replayed deterministically by
:func:`replay_corpus_entry` in tier-1 — see ``docs/testing.md`` for the
minimize-and-commit workflow.

This module imports ``hypothesis`` (a test-only dependency) and is therefore
re-exported lazily by ``repro.verify`` — import it directly (or via the lazy
package attribute) only in test/CI contexts.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Sequence

from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.cluster.control import FleetState
from repro.cluster.router import ReplicaLoad, get_router
from repro.cluster.topology import ColocatedTopology
from repro.models.config import ReplicaSpec, paper_deployment
from repro.serving.attention_backend import FASerialBackend
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager, prefix_block_hashes
from repro.serving.replica import ReplicaRuntime
from repro.serving.request import Request
from repro.serving.scheduler import SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify.events import EventRecorder
from repro.verify.invariants import (
    InvariantViolationError,
    Violation,
    check_event_log,
    check_kv_drain_balance,
    check_replica_load_counters,
)
from repro.verify.oracles import ReschedulingRuntime, single_replica_reference


def _require(violations: Sequence[Violation]) -> None:
    """Raise when an invariant-checker pass returned any violation."""
    if violations:
        raise InvariantViolationError(violations)

#: The deployment every machine runs against (Table 4's Llama-3-8B).  One
#: shared instance: construction is cheap but not free, and machines are
#: instantiated once per hypothesis example.
_DEPLOYMENT = paper_deployment("llama-3-8b")

#: Block size used throughout (vLLM's default; matches the fuzzer).
_BLOCK_SIZE = 16

#: Shared-prefix pool the strategies draw from.  Two distinct prefixes are
#: enough to exercise chain interleaving without diluting collision odds.
_PREFIX_IDS = ("corpus/pa", "corpus/pb")

#: The admissions :class:`KVCacheMachine` checks ``can_admit_request`` on
#: after every rule: a 12-block prompt under each shared prefix, reserving
#: 1, 3, 6 or 12 blocks, so the checked chains are 1, 3, 6 and 12 blocks.
_PROBE_BLOCKS = 12
_PROBE_RESERVES = (1, 3, 6, 12)

#: Hourly rates the cluster machine prices its replicas with.  Rates are pure
#: billing metadata (every spec still runs ``_DEPLOYMENT``), so pricing a
#: fleet heterogeneously cannot perturb the differential oracle — only the
#: autoscaler's cheapest-spec choice, which is exactly what gets asserted.
_HOURLY_RATES = (0.5, 1.0, 2.5, 4.0)


# --------------------------------------------------------------------------
# Reference model for the block allocator
# --------------------------------------------------------------------------


class ReferenceAllocator:
    """Pure-python mirror of :class:`KVCacheManager` with explicit identity.

    Deliberately naive: blocks are dict/list entries, every operation is a
    linear walk, and the prefix chain is re-derived from scratch on each
    admission.  The machine asserts the real allocator's observable state
    (usage, refcounts, LRU order, per-request holdings) matches this model
    after every rule, with prefix caching on and off.
    """

    def __init__(self, num_blocks: int, block_size: int, caching: bool) -> None:
        self.num_blocks = num_blocks
        self.block_size = block_size
        self.caching = caching
        self.refcount: dict[int, int] = {}  # chain hash -> live references
        self.lru: list[int] = []  # evictable hashes, oldest first
        self.private: dict[int, int] = {}  # request id -> private block count
        self.holds: dict[int, list[int]] = {}  # request id -> chain hashes held
        self.double_frees = 0

    @property
    def used(self) -> int:
        return sum(self.private.values()) + len(self.refcount)

    @property
    def free(self) -> int:
        return self.num_blocks - self.used

    def _chain(self, request: Request) -> list[int]:
        if not self.caching or request.prefix_id is None:
            return []
        prefix_tokens = min(request.prefix_tokens, request.prefill_tokens)
        blocks = prefix_tokens // self.block_size
        return prefix_block_hashes(request.prefix_id, blocks) if blocks > 0 else []

    def _consume(self) -> None:
        """Take one physical block, evicting the LRU head under pressure."""
        if self.used + len(self.lru) >= self.num_blocks:
            assert self.lru, "model exhausted with nothing evictable"
            self.lru.pop(0)

    def can_admit(self, request: Request, reserve_tokens: int) -> bool:
        """Mirror of ``can_admit_request``: the blocks an admission takes
        from the free pool (misses, revivals, private blocks) fit."""
        target = math.ceil(reserve_tokens / self.block_size)
        chain = self._chain(request)[:target]
        fresh = sum(1 for h in chain if h not in self.refcount) + (target - len(chain))
        return fresh <= self.free

    def admit(self, request: Request, reserve_tokens: int) -> int:
        """Mirror of ``admit_request``; returns the reusable prompt tokens."""
        rid = request.request_id
        if rid in self.holds or rid in self.private:
            raise ValueError("already admitted")
        if not self.can_admit(request, reserve_tokens):
            raise MemoryError("model exhausted")
        target = math.ceil(reserve_tokens / self.block_size)
        chain = self._chain(request)[:target]
        hold: list[int] = []
        misses: list[int] = []
        leading, leading_hits = True, 0
        for block_hash in chain:
            if block_hash in self.refcount:
                self.refcount[block_hash] += 1
                leading_hits += 1 if leading else 0
            elif block_hash in self.lru:
                self.lru.remove(block_hash)
                self.refcount[block_hash] = 1
                leading_hits += 1 if leading else 0
            else:
                leading = False
                misses.append(block_hash)
            hold.append(block_hash)
        for block_hash in misses:
            self._consume()
            self.refcount[block_hash] = 1
        for _ in range(target - len(chain)):
            # One block at a time, so the real allocator's closed-form
            # eviction count is checked against a per-block walk.
            self._consume()
            self.private[rid] = self.private.get(rid, 0) + 1
        self.private.setdefault(rid, 0)
        self.holds[rid] = hold
        if not self.caching:
            return 0
        return max(0, min(leading_hits * self.block_size, request.prefill_tokens - 1))

    def grow(self, rid: int, needed: int) -> None:
        if needed > self.free:
            raise MemoryError("model exhausted")
        for _ in range(needed):
            self._consume()
            self.private[rid] = self.private.get(rid, 0) + 1
        self.private.setdefault(rid, 0)
        self.holds.setdefault(rid, [])

    def release(self, rid: int) -> None:
        if rid not in self.private and rid not in self.holds:
            self.double_frees += 1
            return
        self.private.pop(rid, 0)
        for block_hash in self.holds.pop(rid, []):
            self.refcount[block_hash] -= 1
            if self.refcount[block_hash] == 0:
                del self.refcount[block_hash]
                self.lru.append(block_hash)


def compare_allocator_to_model(
    manager: KVCacheManager, model: ReferenceAllocator
) -> list[str]:
    """Every observable the model mirrors, diffed; empty when equivalent."""
    problems: list[str] = []
    if manager.used_blocks != model.used:
        problems.append(f"used_blocks {manager.used_blocks} != model {model.used}")
    if manager.free_blocks != model.free:
        problems.append(f"free_blocks {manager.free_blocks} != model {model.free}")
    if manager.cached_blocks != len(model.lru):
        problems.append(
            f"cached_blocks {manager.cached_blocks} != model {len(model.lru)}"
        )
    if manager.used_blocks + manager.cached_blocks > manager.total_blocks:
        problems.append("used + cached exceeds capacity")
    if dict(manager._shared_refcount) != model.refcount:
        problems.append(
            f"refcounts {dict(manager._shared_refcount)} != model {model.refcount}"
        )
    if list(manager._lru) != model.lru:
        problems.append(f"LRU order {list(manager._lru)} != model {model.lru}")
    for rid in model.private:
        expected = model.private[rid] + len(model.holds.get(rid, []))
        if manager.blocks_of(rid) != expected:
            problems.append(
                f"blocks_of({rid}) {manager.blocks_of(rid)} != model {expected}"
            )
    if manager.stats.double_free_count != model.double_frees:
        problems.append(
            f"double_free_count {manager.stats.double_free_count} "
            f"!= model {model.double_frees}"
        )
    return problems


# --------------------------------------------------------------------------
# Machine 1: the KV-cache allocator against the reference model
# --------------------------------------------------------------------------


class KVCacheMachine(RuleBasedStateMachine):
    """Raw admit/grow/free/preempt interleavings on :class:`KVCacheManager`.

    Runs with prefix caching on and off; the preempt/readmit pair models exactly
    what the scheduler's recompute preemption does (free the blocks, reset
    the request, admit it again with the chain re-resolved).
    """

    @initialize(
        num_blocks=st.integers(min_value=2, max_value=12),
        caching=st.booleans(),
    )
    def setup(self, num_blocks: int, caching: bool) -> None:
        config = KVCacheConfig(
            capacity_tokens=num_blocks * _BLOCK_SIZE,
            block_size=_BLOCK_SIZE,
            enable_prefix_caching=caching,
        )
        self.manager = KVCacheManager(config)
        self.model = ReferenceAllocator(num_blocks, _BLOCK_SIZE, caching)
        self.live: dict[int, tuple[Request, int]] = {}  # rid -> (request, tokens)
        self.preempted: dict[int, tuple[Request, int]] = {}
        self.next_id = 0

    # ------------------------------------------------------------- helpers

    def _draw_request(
        self, data: st.DataObject, fresh_id: bool = True
    ) -> tuple[Request, int]:
        rid = self.next_id
        self.next_id += 1
        capacity = self.manager.total_blocks * _BLOCK_SIZE
        prefill = data.draw(
            st.integers(min_value=1, max_value=max(1, capacity - 1)), label="prefill"
        )
        prefix_id = data.draw(
            st.sampled_from((None,) + _PREFIX_IDS), label="prefix_id"
        )
        prefix_tokens = (
            data.draw(st.integers(min_value=0, max_value=prefill), label="prefix_tokens")
            if prefix_id is not None
            else 0
        )
        reserve = prefill + data.draw(
            st.integers(min_value=0, max_value=2 * _BLOCK_SIZE), label="reserve_slack"
        )
        request = Request(
            request_id=rid,
            prefill_tokens=prefill,
            decode_tokens=4,
            prefix_id=prefix_id,
            prefix_tokens=prefix_tokens,
        )
        return request, reserve

    def _admit_both(self, request: Request, reserve: int) -> None:
        """Admit on both sides; raise/no-raise and cached tokens must agree."""
        real_error = model_error = None
        cached = model_cached = None
        try:
            cached = self.manager.admit_request(request, reserve)
        except MemoryError:
            real_error = "memory"
        try:
            model_cached = self.model.admit(request, reserve)
        except MemoryError:
            model_error = "memory"
        assert real_error == model_error, (
            f"admission divergence for {request.request_id}: "
            f"manager {real_error or 'admitted'}, model {model_error or 'admitted'}"
        )
        if real_error is None:
            assert cached == model_cached, (
                f"cached-token divergence for {request.request_id}: "
                f"manager {cached}, model {model_cached}"
            )
            self.live[request.request_id] = (request, reserve)

    # --------------------------------------------------------------- rules

    @rule(data=st.data())
    def admit(self, data: st.DataObject) -> None:
        request, reserve = self._draw_request(data)
        self._admit_both(request, reserve)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def grow(self, data: st.DataObject) -> None:
        rid = data.draw(st.sampled_from(sorted(self.live)), label="rid")
        request, tokens = self.live[rid]
        target = tokens + data.draw(
            st.integers(min_value=1, max_value=2 * _BLOCK_SIZE), label="extra"
        )
        needed = self.manager.blocks_needed(rid, target)
        real_error = model_error = None
        try:
            self.manager.allocate(rid, target)
        except MemoryError:
            real_error = "memory"
        try:
            self.model.grow(rid, needed)
        except MemoryError:
            model_error = "memory"
        assert real_error == model_error, f"grow divergence for {rid}"
        if real_error is None:
            self.live[rid] = (request, max(tokens, target))

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def free(self, data: st.DataObject) -> None:
        rid = data.draw(st.sampled_from(sorted(self.live)), label="rid")
        self.manager.free(rid)
        self.model.release(rid)
        del self.live[rid]

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def preempt_release(self, data: st.DataObject) -> None:
        """The scheduler's recompute preemption: free blocks, reset request."""
        rid = data.draw(st.sampled_from(sorted(self.live)), label="rid")
        request, tokens = self.live.pop(rid)
        self.manager.free(rid)
        self.model.release(rid)
        self.preempted[rid] = (request, tokens)

    @precondition(lambda self: self.preempted)
    @rule(data=st.data())
    def readmit(self, data: st.DataObject) -> None:
        """Re-admission after preemption must re-resolve the hash chain."""
        rid = data.draw(st.sampled_from(sorted(self.preempted)), label="rid")
        request, tokens = self.preempted.pop(rid)
        self._admit_both(request, tokens)

    @precondition(lambda self: self.manager.cached_blocks >= 2)
    @rule()
    def admit_evicting_one(self) -> None:
        """An untagged admission one block larger than the never-used space
        evicts exactly one cached block: the least recently released."""
        manager = self.manager
        blocks = manager.total_blocks - manager.used_blocks - manager.cached_blocks + 1
        request = Request(
            request_id=self.next_id, prefill_tokens=blocks * _BLOCK_SIZE, decode_tokens=4
        )
        self.next_id += 1
        evictions = manager.stats.evictions
        self._admit_both(request, blocks * _BLOCK_SIZE)
        assert manager.stats.evictions == evictions + 1, "expected exactly one eviction"

    @rule()
    def free_unknown_id(self) -> None:
        """Frees of never-admitted ids are absorbed but counted."""
        rid = 1_000_000 + self.next_id
        self.next_id += 1
        self.manager.free(rid)
        self.model.release(rid)

    @precondition(lambda self: self.live)
    @rule(data=st.data())
    def double_admit_rejected(self, data: st.DataObject) -> None:
        """Admitting a live id must raise (never silently grow)."""
        rid = data.draw(st.sampled_from(sorted(self.live)), label="rid")
        request, tokens = self.live[rid]
        used_before = self.manager.used_blocks
        try:
            self.manager.admit_request(request, tokens)
        except ValueError:
            pass
        else:
            raise AssertionError(
                f"double admission of live request {rid} did not raise"
            )
        assert self.manager.used_blocks == used_before, (
            "rejected double admission changed occupancy"
        )

    # ---------------------------------------------------------- invariants

    @invariant()
    def matches_model(self) -> None:
        problems = compare_allocator_to_model(self.manager, self.model)
        assert not problems, "; ".join(problems)

    @invariant()
    def admission_checks_match_model(self) -> None:
        """``can_admit_request`` memoizes chain riders across rules; every
        probe must still agree with the model's fresh-blocks count."""
        tokens = _PROBE_BLOCKS * _BLOCK_SIZE
        for prefix_id in _PREFIX_IDS:
            probe = Request(
                request_id=-1,
                prefill_tokens=tokens,
                decode_tokens=1,
                prefix_id=prefix_id,
                prefix_tokens=tokens,
            )
            for blocks in _PROBE_RESERVES:
                reserve = blocks * _BLOCK_SIZE
                got = self.manager.can_admit_request(probe, reserve)
                assert got == self.model.can_admit(probe, reserve), (
                    f"can_admit_request({prefix_id}, {blocks} blocks) is {got}, "
                    f"the model says {not got}"
                )

    def teardown(self) -> None:
        for rid in list(self.live):
            self.manager.free(rid)
            self.model.release(rid)
        assert self.manager.used_blocks == 0, "blocks leaked after full drain"
        assert not compare_allocator_to_model(self.manager, self.model)


# --------------------------------------------------------------------------
# Machine 2: schedulers through ReplicaRuntime, invariant checker as oracle
# --------------------------------------------------------------------------


def _build_scheduler(kind: str, chunk_size: int, preemption: bool) -> Any:
    if kind == "sarathi":
        return SarathiScheduler(
            chunk_size=chunk_size,
            limits=SchedulerLimits(max_batch_size=4),
            preemption=preemption,
        )
    return VLLMScheduler(limits=SchedulerLimits(max_batch_size=4), preemption=preemption)


class SchedulerReplicaMachine(RuleBasedStateMachine):
    """Enqueue/step/advance interleavings on one replica, checked after every rule.

    The invariant checker replays the full event log after each operation
    (causality, token conservation, KV accounting, refcount conservation,
    batch budgets, monotone clocks).  A
    :class:`~repro.verify.oracles.ReschedulingRuntime` twin takes the same
    enqueues and one :meth:`~ReplicaRuntime.step` per step the runtime ran,
    so ``advance`` (which may leap through a steady decode run up to a drawn
    horizon) must leave an event log identical to the twin's.  Teardown
    drains the runtime through ``run_to_completion`` and adds the
    drain-balance postconditions.
    """

    @initialize(
        kind=st.sampled_from(("sarathi", "vllm")),
        chunk_size=st.sampled_from((64, 256)),
        preemption=st.booleans(),
        caching=st.booleans(),
        capacity_blocks=st.sampled_from((8, 12, 16, 32)),
        release_on=st.sampled_from(("finish", "first_token")),
    )
    def setup(
        self,
        kind: str,
        chunk_size: int,
        preemption: bool,
        caching: bool,
        capacity_blocks: int,
        release_on: str,
    ) -> None:
        self.recorder = EventRecorder()
        self.reference_recorder = EventRecorder()
        self.capacity_tokens = capacity_blocks * _BLOCK_SIZE
        self.release_on = release_on
        kv_config = KVCacheConfig(
            capacity_tokens=self.capacity_tokens,
            block_size=_BLOCK_SIZE,
            enable_prefix_caching=caching,
        )

        def build(runtime_class: type[ReplicaRuntime], recorder: EventRecorder) -> ReplicaRuntime:
            return runtime_class(
                _DEPLOYMENT,
                scheduler=_build_scheduler(kind, chunk_size, preemption),
                kv_config=kv_config,
                recorder=recorder,
                release_on=release_on,
            )

        self.runtime = build(ReplicaRuntime, self.recorder)
        self.reference = build(ReschedulingRuntime, self.reference_recorder)
        self.next_id = 0
        self.last_arrival = 0.0

    @rule(data=st.data())
    def enqueue(self, data: st.DataObject) -> None:
        rid = self.next_id
        self.next_id += 1
        # Bound every request so its full context always fits an otherwise
        # empty cache: permanently unschedulable requests are a *rejected
        # configuration*, not an interleaving bug (KVCacheConfig validation
        # and the scheduler's cannot-grow refusal cover them directly).
        budget = self.capacity_tokens - _BLOCK_SIZE
        prefill = data.draw(
            st.integers(min_value=1, max_value=max(1, budget - 1)), label="prefill"
        )
        decode = data.draw(
            st.integers(min_value=1, max_value=max(1, min(8, budget - prefill))),
            label="decode",
        )
        prefix_id = data.draw(st.sampled_from((None,) + _PREFIX_IDS), label="prefix_id")
        prefix_tokens = (
            data.draw(st.integers(min_value=0, max_value=prefill), label="prefix_tokens")
            if prefix_id is not None
            else 0
        )
        arrival = self.last_arrival + data.draw(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False), label="gap"
        )
        self.last_arrival = arrival
        request = Request(
            request_id=rid,
            prefill_tokens=prefill,
            decode_tokens=decode,
            arrival_time=round(arrival, 6),
            prefix_id=prefix_id,
            prefix_tokens=prefix_tokens,
        )
        delay = data.draw(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False), label="delay"
        )
        ready = round(arrival + delay, 6)
        self.runtime.enqueue(request, ready_time=ready)
        self.reference.enqueue(request.fresh_copy(), ready_time=ready)

    def _catch_up_reference(self) -> None:
        """Step the twin once per step the runtime has run beyond it (a twin
        that drains first stops; the event-log comparison reports it)."""
        while self.reference.steps_executed < self.runtime.steps_executed:
            if not self.reference.step().executed:
                break

    @precondition(lambda self: self.runtime.next_ready_time() is not None)
    @rule()
    def step(self) -> None:
        self.runtime.step()
        self._catch_up_reference()

    @precondition(lambda self: self.runtime.next_ready_time() is not None)
    @rule(
        horizon=st.one_of(
            st.floats(min_value=0.0, max_value=0.5, allow_nan=False), st.just(math.inf)
        )
    )
    def advance(self, horizon: float) -> None:
        self.runtime.advance(self.runtime.clock + horizon)
        self._catch_up_reference()

    @invariant()
    def event_log_holds(self) -> None:
        _require(check_event_log(self.recorder, expect_drained=False))
        _require(check_replica_load_counters([self.runtime]))
        assert self.recorder.events == self.reference_recorder.events, (
            "advancing diverged from rescheduling every step"
        )

    def teardown(self) -> None:
        if not hasattr(self, "runtime"):  # initialize never ran (shrunk away)
            return
        self.runtime.run_to_completion()
        self._catch_up_reference()
        drained = self.release_on == "finish"
        _require(check_event_log(self.recorder, expect_drained=drained))
        _require(check_replica_load_counters([self.runtime]))
        if drained:
            _require(check_kv_drain_balance([self.runtime]))
        assert self.recorder.events == self.reference_recorder.events, (
            "draining diverged from rescheduling every step"
        )


# --------------------------------------------------------------------------
# Machine 3: fleet interleavings pinned against the 1-replica oracle
# --------------------------------------------------------------------------


class ClusterInterleavingMachine(RuleBasedStateMachine):
    """Route/step/drain interleavings under the cluster event-loop discipline.

    Arrivals are globally monotone and only the earliest-ready replica steps
    (exactly the ``ClusterSimulator`` loop invariants); the machine chooses
    *when* to route and how many steps run between arrivals.  With one
    replica the teardown additionally replays the accumulated trace through
    :func:`~repro.verify.oracles.single_replica_reference` (rescheduling
    every step) and requires identical per-request timings and KV counters —
    the differential oracle that pins the incremental mid-run path against
    the batch path.

    The control-plane rules (``scale_up``/``scale_down``/``shed_request``)
    drive the elastic fleet operations through the simulator's own
    :class:`~repro.cluster.control.FleetState`: provisioning with a cold
    start, connection draining before retirement, and admission-control
    rejections.  Every rule is followed by a full event-log replay, so the
    shed-isolation and scaling-causality invariants act as the oracle for
    the lifecycle code the simulator runs.  Shedding keeps the
    single-replica differential oracle valid (a rejected request never
    reaches a replica); scaling up disables it by growing the fleet.
    """

    #: Fleet-size ceiling for the scale_up rule (keeps examples small).
    MAX_FLEET = 4

    @initialize(
        num_replicas=st.integers(min_value=1, max_value=3),
        router=st.sampled_from(("round-robin", "least-requests", "least-tokens")),
        kind=st.sampled_from(("sarathi", "vllm")),
        chunk_size=st.sampled_from((64, 256)),
        preemption=st.booleans(),
        caching=st.booleans(),
        capacity_blocks=st.sampled_from((12, 16, 32)),
        rate_pool=st.tuples(*[st.sampled_from(_HOURLY_RATES)] * 3),
    )
    def setup(
        self,
        num_replicas: int,
        router: str,
        kind: str,
        chunk_size: int,
        preemption: bool,
        caching: bool,
        capacity_blocks: int,
        rate_pool: tuple[float, ...],
    ) -> None:
        self.recorder = EventRecorder()
        self.scheduler_config = (kind, chunk_size, preemption)
        self.kv_config = KVCacheConfig(
            capacity_tokens=capacity_blocks * _BLOCK_SIZE,
            block_size=_BLOCK_SIZE,
            enable_prefix_caching=caching,
        )
        self.capacity_tokens = self.kv_config.capacity_tokens
        self.replicas = [
            ReplicaRuntime(
                _DEPLOYMENT,
                scheduler=_build_scheduler(kind, chunk_size, preemption),
                kv_config=self.kv_config,
                recorder=self.recorder,
                replica_id=index,
            )
            for index in range(num_replicas)
        ]
        self.router = get_router(router)
        # Priced specs for the autoscaler's cheapest-eligible-spec choice.
        # All specs run _DEPLOYMENT — pricing is billing metadata only.
        self.replica_specs: list[ReplicaSpec] = [
            ReplicaSpec(_DEPLOYMENT, on_demand_per_hour=rate_pool[index])
            for index in range(num_replicas)
        ]
        self.trace: list[Request] = []  # pristine copies for the oracle replay
        self.now = 0.0
        self.last_step_time = 0.0
        self.next_id = 0
        self.fleet = FleetState(range(num_replicas), self.recorder)
        self.num_shed = 0

    # ------------------------------------------------------------- helpers

    def _loads(self, candidates: list[int]) -> list[ReplicaLoad]:
        return [
            ReplicaLoad(
                replica_id=self.replicas[index].replica_id,
                num_requests=self.replicas[index].load_num_requests,
                outstanding_tokens=self.replicas[index].load_total_tokens,
                outstanding_prefill_tokens=self.replicas[index].load_prefill_tokens,
            )
            for index in candidates
        ]

    def _earliest(self) -> ReplicaRuntime | None:
        best, best_time = None, None
        for replica in self.replicas:
            ready = replica.next_ready_time()
            if ready is not None and (best_time is None or ready < best_time):
                best, best_time = replica, ready
        return best

    def _step_earliest(self) -> bool:
        replica = self._earliest()
        if replica is None:
            return False
        self.last_step_time = replica.next_ready_time()
        replica.step()
        self.fleet.note_step(replica.replica_id, replica)
        return True

    def _promote_and_advance(self, data: st.DataObject) -> float:
        """Draw the next globally monotone arrival time and catch the fleet up.

        Runs every step ready before the arrival (the event loop's
        delivery discipline) and promotes warming replicas whose cold start
        has completed by then.
        """
        gap = data.draw(
            st.floats(min_value=1e-6, max_value=0.5, allow_nan=False), label="gap"
        )
        arrival = max(self.now, self.last_step_time) + gap
        self.now = arrival
        while True:
            replica = self._earliest()
            if replica is None or replica.next_ready_time() >= arrival:
                break
            self._step_earliest()
        self.fleet.promote(arrival)
        return arrival

    # --------------------------------------------------------------- rules

    @rule(data=st.data())
    def route_request(self, data: st.DataObject) -> None:
        rid = self.next_id
        self.next_id += 1
        budget = self.capacity_tokens - _BLOCK_SIZE
        prefill = data.draw(
            st.integers(min_value=1, max_value=max(1, budget - 1)), label="prefill"
        )
        decode = data.draw(
            st.integers(min_value=1, max_value=max(1, min(8, budget - prefill))),
            label="decode",
        )
        prefix_id = data.draw(st.sampled_from((None,) + _PREFIX_IDS), label="prefix_id")
        prefix_tokens = (
            data.draw(st.integers(min_value=0, max_value=prefill), label="prefix_tokens")
            if prefix_id is not None
            else 0
        )
        # Globally monotone arrivals, delivered with the real event loop's
        # discipline: an arrival due at ``t`` lands only once every step
        # ready before ``t`` has executed (``deliver_time <= next_step_time``
        # in ``ClusterSimulator.run``, ties to the arrival) and never at or
        # before a step that already ran (the batch loop would have
        # delivered it first).  That keeps routed/step times globally
        # monotone and makes the mid-run trace replayable through the
        # batch-mode oracle; the interleaving freedom is *where* in the
        # fleet's step sequence each arrival lands (gap sizes + the extra
        # steps ``step_fleet`` runs between routes).
        arrival = self._promote_and_advance(data)
        request = Request(
            request_id=rid,
            prefill_tokens=prefill,
            decode_tokens=decode,
            arrival_time=arrival,
            prefix_id=prefix_id,
            prefix_tokens=prefix_tokens,
        )
        self.trace.append(request.fresh_copy())
        candidates = sorted(self.fleet.live)
        choice = self.router.choose(self._loads(candidates), request)
        target = self.replicas[candidates[choice]]
        self.recorder.emit(
            "routed",
            time=arrival,
            replica_id=target.replica_id,
            request_id=rid,
            router=self.router.name,
        )
        target.enqueue(request)

    @precondition(lambda self: any(r.next_ready_time() is not None for r in self.replicas))
    @rule(steps=st.integers(min_value=1, max_value=4))
    def step_fleet(self, steps: int) -> None:
        for _ in range(steps):
            if not self._step_earliest():
                break

    @precondition(lambda self: len(self.replicas) < ClusterInterleavingMachine.MAX_FLEET)
    @rule(data=st.data())
    def scale_up(self, data: st.DataObject) -> None:
        """Provision a replica with an optional cold start, as the simulator
        does on an autoscaler scale-up decision.

        The new replica's spec comes from
        :meth:`~repro.cluster.topology.ColocatedTopology.scale_up_spec`, and
        the heterogeneous-fleet contract is asserted in place: the autoscaler
        always provisions the *cheapest* spec already present in the fleet,
        with $/hour ties falling to the lowest replica index.
        """
        index = len(self.replicas)
        decision_time = max(self.now, self.last_step_time)
        cold = data.draw(st.sampled_from((0.0, 0.25)), label="cold_start")
        topology = ColocatedTopology(
            deployment=_DEPLOYMENT,
            num_replicas=len(self.replica_specs),
            replica_specs=tuple(self.replica_specs),
        )
        spec = topology.scale_up_spec()
        cheapest = min(entry.cost_per_hour for entry in self.replica_specs)
        assert spec.cost_per_hour == cheapest, (
            f"autoscaler picked a {spec.cost_per_hour}/h spec over the "
            f"cheapest eligible {cheapest}/h"
        )
        first_cheapest = next(
            entry for entry in self.replica_specs if entry.cost_per_hour == cheapest
        )
        assert spec is first_cheapest, "cost ties must fall to the lowest replica index"
        self.replica_specs.append(spec)
        kind, chunk_size, preemption = self.scheduler_config
        self.replicas.append(
            ReplicaRuntime(
                spec.deployment,
                scheduler=_build_scheduler(kind, chunk_size, preemption),
                kv_config=self.kv_config,
                recorder=self.recorder,
                replica_id=index,
            )
        )
        self.fleet.provision(index, decision_time, decision_time + cold)

    @precondition(lambda self: len(self.fleet.live) > 1)
    @rule(data=st.data())
    def scale_down(self, data: st.DataObject) -> None:
        """Start draining one live replica; retire it the moment it is idle."""
        victim = data.draw(st.sampled_from(sorted(self.fleet.live)), label="victim")
        drain_time = max(self.now, self.last_step_time)
        self.fleet.drain(victim, drain_time, self.replicas[victim])

    @rule(data=st.data())
    def shed_request(self, data: st.DataObject) -> None:
        """Reject an arrival at admission: it must never touch a replica."""
        rid = self.next_id
        self.next_id += 1
        arrival = self._promote_and_advance(data)
        request = Request(
            request_id=rid,
            prefill_tokens=64,
            decode_tokens=4,
            arrival_time=arrival,
        )
        self.recorder.emit(
            "rejected",
            time=arrival,
            replica_id=-1,
            request_id=rid,
            reason="overload",
        )
        request.reject(arrival)
        self.num_shed += 1

    @invariant()
    def event_log_holds(self) -> None:
        _require(check_event_log(self.recorder, expect_drained=False))
        _require(check_replica_load_counters(self.replicas))

    # ------------------------------------------------------------ teardown

    def teardown(self) -> None:
        if not hasattr(self, "replicas"):
            return
        while self._step_earliest():
            pass
        _require(check_event_log(self.recorder, expect_drained=True))
        _require(check_replica_load_counters(self.replicas))
        _require(check_kv_drain_balance(self.replicas))
        if len(self.replicas) == 1 and self.trace:
            self._check_single_replica_oracle()

    def _check_single_replica_oracle(self) -> None:
        """Replay the trace batch-mode and require identical outcomes."""
        kind, chunk_size, preemption = self.scheduler_config
        served, _, kv_stats = single_replica_reference(
            _DEPLOYMENT,
            self.trace,
            _build_scheduler(kind, chunk_size, preemption),
            FASerialBackend(_DEPLOYMENT),
            kv_config=self.kv_config,
        )
        oracle = {
            request.request_id: (
                request.first_token_time,
                request.finish_time,
                request.preemption_count,
            )
            for request in served
        }
        incremental = {
            request.request_id: (
                request.first_token_time,
                request.finish_time,
                request.preemption_count,
            )
            for replica in self.replicas
            for request in replica.released
        }
        assert incremental == oracle, (
            "mid-run interleaving diverged from the batch-mode oracle: "
            f"{incremental} != {oracle}"
        )
        merged = self.replicas[0].kv_cache.stats
        assert merged.counter_totals() == kv_stats.counter_totals(), (
            "KV counters diverged from the batch-mode oracle"
        )


# --------------------------------------------------------------------------
# Corpus replay (schemathesis-style committed minimized examples)
# --------------------------------------------------------------------------

#: Directory of committed minimized examples, resolved relative to the repo
#: root by ``tests/test_stateful_corpus.py`` (kept here only as the default).
CORPUS_SCHEMA_VERSION = 1


def _replay_kv_config(entry: dict[str, Any]) -> None:
    """Harness ``kv_config``: constructing the config must raise (or not)."""
    config = entry["config"]
    expect_error = entry.get("expect_error")
    try:
        KVCacheConfig(**config)
    except ValueError as exc:
        assert expect_error, f"KVCacheConfig({config}) raised unexpectedly: {exc}"
        assert expect_error in str(exc), (
            f"expected {expect_error!r} in the error message, got: {exc}"
        )
    else:
        assert not expect_error, (
            f"KVCacheConfig({config}) accepted a configuration that must be "
            f"rejected ({expect_error!r})"
        )


def _request_from_spec(spec: dict[str, Any]) -> Request:
    return Request(
        request_id=spec["id"],
        prefill_tokens=spec["prefill"],
        decode_tokens=spec.get("decode", 4),
        arrival_time=spec.get("arrival", 0.0),
        prefix_id=spec.get("prefix_id"),
        prefix_tokens=spec.get("prefix_tokens", 0),
    )


def _replay_kv(entry: dict[str, Any]) -> None:
    """Harness ``kv``: an operation sequence on one ``KVCacheManager``.

    The manager is mirrored against :class:`ReferenceAllocator` exactly as
    the state machine does, so corpus entries keep their oracle when
    replayed.  ``events`` collects observer emissions for assertions.
    """
    config = entry["config"]
    manager = KVCacheManager(KVCacheConfig(**config))
    model = ReferenceAllocator(
        manager.total_blocks, manager.config.block_size,
        manager.config.enable_prefix_caching,
    )
    events: list[tuple[str, int, int]] = []
    manager.observer = lambda kind, rid, blocks, **extra: events.append(
        (kind, rid, blocks)
    )
    requests: dict[int, Request] = {}
    for op in entry["ops"]:
        name = op["op"]
        if name == "admit":
            request = _request_from_spec(op)
            requests[request.request_id] = request
            reserve = op.get("reserve", request.prefill_tokens)
            cached = manager.admit_request(request, reserve)
            model_cached = model.admit(request, reserve)
            assert cached == model_cached, (
                f"cached tokens diverged on admit {request.request_id}: "
                f"{cached} != {model_cached}"
            )
            if "expect_cached" in op:
                assert cached == op["expect_cached"], (
                    f"admit {request.request_id}: cached {cached}, "
                    f"entry expects {op['expect_cached']}"
                )
        elif name == "admit_rejected":
            request = requests.get(op["id"]) or _request_from_spec(op)
            reserve = op.get("reserve", request.prefill_tokens)
            error = op.get("error", "ValueError")
            try:
                manager.admit_request(request, reserve)
            except (ValueError, MemoryError) as exc:
                assert type(exc).__name__ == error, (
                    f"admit of {request.request_id} raised {type(exc).__name__}, "
                    f"entry expects {error}"
                )
            else:
                raise AssertionError(
                    f"admit of {request.request_id} must raise {error}; it "
                    "was accepted"
                )
        elif name == "grow":
            target = op["tokens"]
            needed = manager.blocks_needed(op["id"], target)
            manager.allocate(op["id"], target)
            model.grow(op["id"], needed)
        elif name == "free":
            manager.free(op["id"])
            model.release(op["id"])
        elif name == "preempt":
            # Scheduler recompute preemption frees the victim's blocks; the
            # later readmission is an explicit ``admit`` op with the same id.
            manager.free(op["id"])
            model.release(op["id"])
        elif name == "assert_refcount":
            chain = prefix_block_hashes(op["prefix_id"], op["block"] + 1)
            actual = manager._shared_refcount.get(chain[-1], 0)
            assert actual == op["count"], (
                f"refcount of {op['prefix_id']} block {op['block']}: "
                f"{actual}, entry expects {op['count']}"
            )
        elif name == "assert_state":
            for key, expected in op.items():
                if key == "op":
                    continue
                actual = getattr(manager, key)
                assert actual == expected, (
                    f"manager.{key} is {actual}, entry expects {expected}"
                )
        elif name == "assert_counters":
            totals = manager.stats.counter_totals()
            for key, expected in op.items():
                if key == "op":
                    continue
                assert key in totals, (
                    f"counter_totals() has no {key!r} key — counters drifted "
                    f"from the corpus entry (present: {sorted(totals)})"
                )
                assert totals[key] == expected, (
                    f"counter {key} is {totals[key]}, entry expects {expected}"
                )
        elif name == "assert_event":
            expected = (op["kind"], op["id"], op.get("blocks", 0))
            assert expected in events, (
                f"observer never emitted {expected}; saw {events}"
            )
        else:
            raise ValueError(f"stale corpus entry: unknown kv op {name!r}")
    problems = compare_allocator_to_model(manager, model)
    assert not problems, "; ".join(problems)
    if entry.get("expect_drain_balance", False):
        for rid in list(requests):
            if manager.holds(rid):
                manager.free(rid)
                model.release(rid)
        assert manager.used_blocks == 0, "corpus replay leaked blocks"


def _replay_scheduler(entry: dict[str, Any]) -> None:
    """Harness ``scheduler``: enqueue/step/advance ops through ``ReplicaRuntime``.

    A :class:`~repro.verify.oracles.ReschedulingRuntime` replays the ops in
    lockstep: one ``step()`` per step the runtime ran, so an ``advance``
    (which leaps through a steady decode run) is matched step for step.  The
    drain runs the runtime through ``run_to_completion`` and the reference
    one ``step()`` at a time, and the two event logs must be identical.
    """
    config = entry["config"]
    recorder = EventRecorder()
    reference_recorder = EventRecorder()

    def build(runtime_class: type[ReplicaRuntime], sink: EventRecorder) -> ReplicaRuntime:
        scheduler = _build_scheduler(
            config.get("scheduler", "sarathi"),
            config.get("chunk_size", 64),
            config.get("preemption", True),
        )
        kv_config = KVCacheConfig(
            capacity_tokens=config["capacity_tokens"],
            block_size=config.get("block_size", _BLOCK_SIZE),
            enable_prefix_caching=config.get("prefix_caching", False),
        )
        return runtime_class(_DEPLOYMENT, scheduler, kv_config=kv_config, recorder=sink)

    runtime = build(ReplicaRuntime, recorder)
    reference = build(ReschedulingRuntime, reference_recorder)
    for op in entry["ops"]:
        name = op["op"]
        if name == "enqueue":
            for replica in (runtime, reference):
                replica.enqueue(_request_from_spec(op), ready_time=op.get("ready"))
        elif name == "step":
            for _ in range(op.get("times", 1)):
                runtime.step()
                reference.step()
        elif name == "advance":
            runtime.advance()
            while reference.steps_executed < runtime.steps_executed:
                reference.step()
        elif name == "assert_steps":
            assert runtime.steps_executed == op["count"], (
                f"{runtime.steps_executed} steps executed, entry expects {op['count']}"
            )
        elif name == "assert_waiting_order":
            actual = [request.request_id for request in runtime.waiting]
            assert actual == op["ids"], (
                f"waiting order {actual}, entry expects {op['ids']} — the "
                "pinned preemption/readmission ordering regressed"
            )
        elif name == "assert_preemptions":
            preemptions = len(recorder.of_kind("preempted"))
            assert preemptions == op["count"], (
                f"{preemptions} preemptions recorded, entry expects {op['count']}"
            )
        elif name == "assert_no_same_pass_readmit":
            # Within each scheduling pass (same emission burst at one clock),
            # no request may appear as both preempted and admitted.
            by_time: dict[float, dict[str, set[int]]] = {}
            for event in recorder.events:
                if event.kind in ("preempted", "admitted"):
                    bucket = by_time.setdefault(event.time, {"p": set(), "a": set()})
                    bucket["p" if event.kind == "preempted" else "a"].add(
                        event.request_id
                    )
            for when, bucket in by_time.items():
                overlap = bucket["p"] & bucket["a"]
                assert not overlap, (
                    f"requests {sorted(overlap)} preempted and re-admitted in "
                    f"the same pass at t={when}"
                )
        else:
            raise ValueError(f"stale corpus entry: unknown scheduler op {name!r}")
    if entry.get("drain", True):
        runtime.run_to_completion()
        while reference.next_ready_time() is not None:
            if not reference.step().executed:
                break
        _require(check_event_log(recorder, expect_drained=True))
        _require(check_kv_drain_balance([runtime]))
    else:
        _require(check_event_log(recorder, expect_drained=False))
    _require(check_replica_load_counters([runtime]))
    assert recorder.events == reference_recorder.events, (
        "re-running steady decode batches diverged from rescheduling every step"
    )


def _replay_sampler(entry: dict[str, Any]) -> None:
    """Harness ``sampler``: KV ops observed by a ``FleetSampler``.

    Pins the reconciliation contract: every ``counter_totals()`` key must be
    covered by ``window_totals()`` and the integrals must match exactly.
    """
    from repro.obs.sampler import FleetSampler

    config = entry["config"]
    manager = KVCacheManager(KVCacheConfig(**config))
    sampler = FleetSampler(interval=entry.get("interval", 0.5))
    clock = {"now": 0.0}

    def observe(kind: str, rid: int, blocks: int, **extra: Any) -> None:
        sampler.emit(
            kind,
            time=clock["now"],
            replica_id=0,
            request_id=rid,
            blocks=blocks,
            used_blocks=manager.used_blocks,
            cached_blocks=manager.cached_blocks,
            total_blocks=manager.total_blocks,
            **extra,
        )

    manager.observer = observe
    for op in entry["ops"]:
        name = op["op"]
        clock["now"] = op.get("time", clock["now"])
        if name == "admit":
            manager.admit_request(_request_from_spec(op), op.get("reserve", op["prefill"]))
        elif name == "free":
            manager.free(op["id"])
        else:
            raise ValueError(f"stale corpus entry: unknown sampler op {name!r}")
    sampler.finalize()
    totals = sampler.window_totals()
    counters = manager.stats.counter_totals()
    missing = sorted(set(counters) - set(totals))
    assert not missing, (
        f"window_totals() does not cover counter(s) {missing} — the sampler "
        "reconciliation has a blind spot"
    )
    mismatched = {
        key: (totals[key], counters[key])
        for key in counters
        if totals[key] != counters[key]
    }
    assert not mismatched, f"sampler integrals diverge from counters: {mismatched}"
    for key, expected in entry.get("expect_counters", {}).items():
        assert counters.get(key) == expected, (
            f"counter {key} is {counters.get(key)}, entry expects {expected}"
        )


def _replay_control(entry: dict[str, Any]) -> None:
    """Harness ``control``: decision sequences on a :class:`ControlPlane`.

    Replays autoscale/admit/release calls against the pure policy object and
    asserts every decision, pinning the control plane's arithmetic (pressure
    thresholds, cooldown windows, token-bucket refill) without a simulator
    in the loop.
    """
    from repro.cluster.control import AdmissionPolicy, AutoscalerPolicy, ControlPlane

    config = entry["config"]
    plane = ControlPlane(
        autoscaler=(
            AutoscalerPolicy(**config["autoscaler"])
            if "autoscaler" in config
            else None
        ),
        admission=(
            AdmissionPolicy(**config["admission"]) if "admission" in config else None
        ),
    )
    requests: dict[int, Request] = {}
    for op in entry["ops"]:
        name = op["op"]
        if name == "autoscale":
            decision = plane.autoscale(
                op["time"], op["live"], op.get("warming", 0), op["outstanding"]
            )
            assert decision == op["expect"], (
                f"autoscale at t={op['time']} decided {decision}, "
                f"entry expects {op['expect']}"
            )
        elif name == "admit":
            request = Request(
                request_id=op["id"],
                prefill_tokens=op.get("prefill", 128),
                decode_tokens=op.get("decode", 8),
                arrival_time=op["time"],
                tenant=op.get("tenant"),
            )
            requests[op["id"]] = request
            reason = plane.admit(
                request, op["time"], op.get("live", 1), op["outstanding"]
            )
            assert reason == op["expect"], (
                f"admit of {op['id']} at t={op['time']} returned {reason!r}, "
                f"entry expects {op['expect']!r}"
            )
        elif name == "release":
            plane.note_release(requests[op["id"]])
        elif name == "reset":
            plane.reset()
        else:
            raise ValueError(f"stale corpus entry: unknown control op {name!r}")


_HARNESSES = {
    "kv_config": _replay_kv_config,
    "kv": _replay_kv,
    "scheduler": _replay_scheduler,
    "sampler": _replay_sampler,
    "control": _replay_control,
}


def replay_corpus_entry(entry: "dict[str, Any] | str | Path") -> None:
    """Deterministically replay one committed minimized example.

    ``entry`` is a parsed corpus dict or a path to its JSON file.  Raises
    ``AssertionError`` when the pinned behaviour regressed and ``ValueError``
    when the entry itself is stale (unknown harness, op or schema version) —
    stale entries must be fixed or deleted, never skipped.
    """
    if not isinstance(entry, dict):
        entry = json.loads(Path(entry).read_text())
    version = entry.get("schema_version")
    if version != CORPUS_SCHEMA_VERSION:
        raise ValueError(
            f"stale corpus entry: schema_version {version!r} "
            f"(current {CORPUS_SCHEMA_VERSION})"
        )
    harness = entry.get("harness")
    if harness not in _HARNESSES:
        raise ValueError(f"stale corpus entry: unknown harness {harness!r}")
    _HARNESSES[harness](entry)
