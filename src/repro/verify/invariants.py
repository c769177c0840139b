"""Invariant checking over simulator event logs.

Replays a recorded event stream (:mod:`repro.verify.events`) against the
rules any correct serving/cluster simulation must satisfy:

* **Causality** — a request is admitted no earlier than it arrived, executes
  chunks no earlier than it was admitted, and completes exactly once, never
  before its arrival or its last executed chunk.
* **Token conservation** — the prefill chunks scheduled for a request, plus
  any prompt tokens served from the prefix cache, minus any prefill work
  discarded by preemption, sum to exactly its prompt length; and it receives
  exactly ``decode_tokens`` output tokens (one at prefill completion plus one
  per decode chunk — preemption retains generated tokens, so decode chunks
  are never replayed).
* **KV-cache accounting** — replayed alloc/free deltas match the manager's
  reported usage, usage never exceeds capacity or goes negative, frees only
  follow allocations, and a drained run leaves no blocks allocated.  With
  prefix caching: every shared-block reference acquired at admission is
  released exactly once (*ref-count conservation*), a block reaches the
  evictable LRU only when its last reference is released
  (*free-after-last-release*; checked in aggregate as ``referenced blocks <=
  outstanding references``), and the replayed referenced/cached block counts
  match the manager's reports event by event.
* **Batch budget compliance** — chunked schedulers never exceed their token
  budget, prefill-prioritising schedulers never form hybrid batches beyond
  their declared limits, decode pools never schedule prefill work, and no
  executed batch is empty.
* **Monotone clocks** — each replica's iterations never overlap or run
  backwards, and in a cluster the routed/delivered/step event sequence is
  globally non-decreasing (the event loop always advances the earliest
  source).
* **Shed isolation** — a request rejected by admission control is terminal:
  it is never enqueued, admitted, executes no chunk and never completes (in
  either order relative to the rejection), and it is rejected at most once.
  Rejected requests are exempt from the drained-run completion postcondition.
* **Scaling causality** — a replica is scaled up at most once and its
  ``ready_at`` never precedes the decision; arrivals are never routed to a
  draining or retired replica, nor to a scaled-up replica before its cold
  start completes; ``drain_started`` fires at most once per live replica,
  ``scaled_down`` only after (and never before) its ``drain_started``, and a
  retired replica runs no further iteration.

:func:`check_execution` applies the same discipline one layer down, to a run
of the event-driven GPU engine: SM capacity, in-order streams with their
launch-overhead gaps, and conservation of the recorded CTA work.

The checker is pure: it consumes the event list and returns
:class:`Violation` records (empty = all invariants hold).  ``assert_no_violations``
wraps it for tests and the fuzzer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from repro.gpu.config import GPUSpec
from repro.gpu.cta import DECODE_TAG, PREFILL_TAG
from repro.gpu.kernel import Kernel, KernelLaunch
from repro.gpu.result import CTARecord, ExecutionResult
from repro.verify.events import (
    ADMITTED,
    ARRIVAL,
    BATCH_FORMED,
    CHUNK_EXECUTED,
    COMPLETED,
    DRAIN_STARTED,
    ENQUEUED,
    Event,
    EventRecorder,
    GLOBAL_CLOCK_KINDS,
    KV_ALLOC,
    KV_FREE,
    KV_SHARED_ALLOC,
    PREEMPTED,
    REJECTED,
    ROUTED,
    SCALED_DOWN,
    SCALED_UP,
    STEP,
)

#: Slack for comparing float clocks accumulated through different code paths.
TIME_EPS = 1e-9

#: Relative slack of the GPU engine's work totals: the same FLOPs and bytes
#: summed per CTA record and per engine event, in different orders.
WORK_RTOL = 1e-12
#: The engine counts remaining FLOPs or bytes at or below this as done, so a
#: retired CTA may leave that much of its recorded work unexecuted.
_ENGINE_WORK_EPS = 1e-15


@dataclass(frozen=True)
class Violation:
    """One invariant violation found in an event log."""

    invariant: str
    message: str
    request_id: int = -1
    replica_id: int = -1
    time: float = 0.0

    def __str__(self) -> str:
        where = []
        if self.replica_id >= 0:
            where.append(f"replica {self.replica_id}")
        if self.request_id >= 0:
            where.append(f"request {self.request_id}")
        prefix = f" [{', '.join(where)} @ t={self.time:.6f}]" if where else ""
        return f"{self.invariant}{prefix}: {self.message}"


class InvariantViolationError(AssertionError):
    """Raised by :func:`assert_no_violations` with every violation listed."""

    def __init__(self, violations: Sequence[Violation]) -> None:
        self.violations = list(violations)
        lines = "\n".join(f"  - {violation}" for violation in self.violations)
        super().__init__(f"{len(self.violations)} invariant violation(s):\n{lines}")


@dataclass
class _RequestTrack:
    """Accumulated per-request state while scanning the event stream."""

    arrival_time: float = 0.0
    prefill_tokens: int = 0
    decode_tokens: int = 0
    enqueued: bool = False
    admitted_time: float | None = None
    prefill_chunk_sum: int = 0
    decode_chunks: int = 0
    cached_tokens: int = 0
    lost_tokens: int = 0
    preemptions: int = 0
    last_chunk_time: float | None = None
    rejected_time: float | None = None
    completed_times: list[float] = field(default_factory=list)

    @property
    def effective_prefill(self) -> int:
        """Prompt tokens accounted for: executed + cache-served - preempt-lost."""
        return self.prefill_chunk_sum + self.cached_tokens - self.lost_tokens


def check_event_log(
    events: Iterable[Event] | EventRecorder,
    expect_drained: bool = True,
) -> list[Violation]:
    """Scan one event stream and return every invariant violation found.

    ``expect_drained=True`` (the default) additionally requires that every
    enqueued request completed and that every KV allocation was freed — the
    postconditions of a simulation that ran to completion.
    """
    stream = list(events.events if isinstance(events, EventRecorder) else events)
    violations: list[Violation] = []

    def flag(invariant: str, message: str, event: Event) -> None:
        violations.append(
            Violation(
                invariant=invariant,
                message=message,
                request_id=event.request_id,
                replica_id=event.replica_id,
                time=event.time,
            )
        )

    requests: dict[int, _RequestTrack] = {}
    # KV replay state, per replica: pinned/cached block usage plus per-request
    # private blocks and shared-prefix reference holdings.
    kv_used: dict[int, int] = {}
    kv_cached: dict[int, int] = {}
    kv_private: dict[tuple[int, int], int] = {}
    kv_refs: dict[tuple[int, int], int] = {}
    kv_ref_total: dict[int, int] = {}
    kv_shared_used: dict[int, int] = {}
    # Clock state.
    last_step_end: dict[int, float] = {}
    last_global_time: float | None = None
    last_global_event: Event | None = None
    # Control-plane replica lifecycle state.
    replica_ready_at: dict[int, float] = {}  # scaled-up replica -> cold-start end
    draining: dict[int, float] = {}  # replica -> drain_started time
    retired: dict[int, float] = {}  # replica -> scaled_down time

    for event in stream:
        track: _RequestTrack | None = None
        if event.request_id >= 0:
            track = requests.setdefault(event.request_id, _RequestTrack())
            if track.rejected_time is not None and event.kind in (
                ROUTED,
                ENQUEUED,
                ARRIVAL,
                ADMITTED,
                CHUNK_EXECUTED,
                COMPLETED,
            ):
                flag(
                    "shed-isolation",
                    f"{event.kind} event for a request rejected at "
                    f"{track.rejected_time:.6f}",
                    event,
                )

        # ---------------------------------------------------- monotone clocks
        if event.kind in GLOBAL_CLOCK_KINDS:
            if last_global_time is not None and event.time < last_global_time - TIME_EPS:
                flag(
                    "monotone-clock",
                    f"global clock ran backwards: {event!r} after {last_global_event!r}",
                    event,
                )
            if last_global_time is None or event.time > last_global_time:
                last_global_time = event.time
            last_global_event = event

        if event.kind == ENQUEUED:
            assert track is not None  # enqueued events carry a request id
            track.enqueued = True
            track.arrival_time = event.data["arrival_time"]
            track.prefill_tokens = event.data["prefill_tokens"]
            track.decode_tokens = event.data["decode_tokens"]
            if event.time < track.arrival_time - TIME_EPS:
                flag(
                    "causality",
                    f"ready time {event.time:.6f} precedes arrival "
                    f"{track.arrival_time:.6f}",
                    event,
                )

        elif event.kind == ARRIVAL:
            if event.time < event.data["ready"] - TIME_EPS:
                flag(
                    "causality",
                    f"request surfaced at {event.time:.6f} before its ready time "
                    f"{event.data['ready']:.6f}",
                    event,
                )

        elif event.kind == ADMITTED:
            assert track is not None  # admissions carry a request id
            if not track.enqueued:
                flag("causality", "admitted without a prior enqueue", event)
            if event.time < track.arrival_time - TIME_EPS:
                flag(
                    "causality",
                    f"admitted at {event.time:.6f} before arrival {track.arrival_time:.6f}",
                    event,
                )
            track.admitted_time = event.time

        elif event.kind == CHUNK_EXECUTED:
            assert track is not None  # chunks carry a request id
            if track.admitted_time is None:
                flag("causality", "chunk executed before admission", event)
            elif event.time < track.admitted_time - TIME_EPS:
                flag(
                    "causality",
                    f"chunk at {event.time:.6f} precedes admission "
                    f"{track.admitted_time:.6f}",
                    event,
                )
            if track.completed_times:
                flag("causality", "chunk executed after completion", event)
            tokens = event.data["tokens"]
            if event.data["phase"] == "prefill":
                track.prefill_chunk_sum += tokens
                if track.effective_prefill > track.prefill_tokens:
                    flag(
                        "token-conservation",
                        f"effective prefill {track.effective_prefill} (chunks "
                        f"{track.prefill_chunk_sum} + cached {track.cached_tokens} "
                        f"- preempt-lost {track.lost_tokens}) > prompt length "
                        f"{track.prefill_tokens}",
                        event,
                    )
            else:
                track.decode_chunks += tokens
            track.last_chunk_time = event.time

        elif event.kind == PREEMPTED:
            assert track is not None  # preemptions carry a request id
            if track.admitted_time is None:
                flag("preemption", "preempted while not admitted", event)
            if track.completed_times:
                flag("preemption", "preempted after completion", event)
            track.lost_tokens += event.data["lost_tokens"]
            track.preemptions += 1
            # The next chunk requires a fresh admission.
            track.admitted_time = None

        elif event.kind == COMPLETED:
            assert track is not None  # completions carry a request id
            if track.completed_times:
                flag("completion", "request completed more than once", event)
            if event.time < track.arrival_time - TIME_EPS:
                flag(
                    "causality",
                    f"completed at {event.time:.6f} before arrival "
                    f"{track.arrival_time:.6f}",
                    event,
                )
            if track.last_chunk_time is not None and event.time < track.last_chunk_time - TIME_EPS:
                flag(
                    "causality",
                    f"completed at {event.time:.6f} before its last chunk at "
                    f"{track.last_chunk_time:.6f}",
                    event,
                )
            track.completed_times.append(event.time)

        elif event.kind in (KV_ALLOC, KV_FREE, KV_SHARED_ALLOC):
            replica = event.replica_id
            used = kv_used.setdefault(replica, 0)
            cached = kv_cached.setdefault(replica, 0)
            blocks = event.data["blocks"]
            key = (replica, event.request_id)
            if event.kind == KV_ALLOC:
                # Flat-mode allocation or caching-mode private growth.
                used += blocks
                cached -= event.data.get("evictions", 0)
                kv_private[key] = kv_private.get(key, 0) + blocks
            elif event.kind == KV_SHARED_ALLOC:
                private = event.data["private_blocks"]
                shared_new = event.data["shared_new"]
                revived = event.data["shared_revived"]
                ref_hits = event.data["shared_ref_hits"]
                used += private + shared_new + revived
                cached -= revived + event.data["evictions"]
                kv_private[key] = kv_private.get(key, 0) + private
                kv_refs[key] = kv_refs.get(key, 0) + shared_new + revived + ref_hits
                kv_ref_total[replica] = (
                    kv_ref_total.get(replica, 0) + shared_new + revived + ref_hits
                )
                kv_shared_used[replica] = (
                    kv_shared_used.get(replica, 0) + shared_new + revived
                )
                assert track is not None  # shared allocs carry a request id
                track.cached_tokens += event.data["cached_tokens"]
            else:  # KV_FREE
                private_held = kv_private.pop(key, None)
                refs_held = kv_refs.pop(key, 0)
                if private_held is None and refs_held == 0:
                    flag("kv-accounting", "free of a request holding no blocks", event)
                    private_held = 0
                elif private_held is None:
                    private_held = 0
                if "private_blocks" in event.data:
                    # Prefix-caching free: private blocks return to the pool,
                    # shared references are dropped, and blocks whose last
                    # reference this was move to the evictable LRU.
                    private = event.data["private_blocks"]
                    released = event.data["shared_released"]
                    to_cache = event.data["to_cache"]
                    if private != private_held:
                        flag(
                            "kv-accounting",
                            f"freed {private} private blocks but request held "
                            f"{private_held}",
                            event,
                        )
                    if released != refs_held:
                        flag(
                            "ref-count-conservation",
                            f"released {released} shared references but request "
                            f"acquired {refs_held}",
                            event,
                        )
                    if to_cache > released:
                        flag(
                            "free-after-last-release",
                            f"{to_cache} blocks reached the LRU from only "
                            f"{released} released references",
                            event,
                        )
                    used -= private_held + to_cache
                    cached += to_cache
                    kv_ref_total[replica] = kv_ref_total.get(replica, 0) - released
                    kv_shared_used[replica] = kv_shared_used.get(replica, 0) - to_cache
                else:
                    if refs_held:
                        flag(
                            "ref-count-conservation",
                            f"flat free while holding {refs_held} shared references",
                            event,
                        )
                    if blocks != private_held:
                        flag(
                            "kv-accounting",
                            f"freed {blocks} blocks but request held {private_held}",
                            event,
                        )
                    used -= private_held
            kv_used[replica] = used
            kv_cached[replica] = cached
            if used != event.data["used_blocks"]:
                flag(
                    "kv-accounting",
                    f"replayed usage {used} != reported used_blocks "
                    f"{event.data['used_blocks']}",
                    event,
                )
            if "cached_blocks" in event.data and cached != event.data["cached_blocks"]:
                flag(
                    "kv-accounting",
                    f"replayed cached blocks {cached} != reported "
                    f"{event.data['cached_blocks']}",
                    event,
                )
            if used < 0:
                flag("kv-accounting", f"block usage went negative ({used})", event)
            if cached < 0:
                flag("kv-accounting", f"cached blocks went negative ({cached})", event)
            if kv_ref_total.get(replica, 0) < 0:
                flag(
                    "ref-count-conservation",
                    f"outstanding shared references went negative "
                    f"({kv_ref_total[replica]})",
                    event,
                )
            if kv_shared_used.get(replica, 0) > kv_ref_total.get(replica, 0):
                flag(
                    "free-after-last-release",
                    f"{kv_shared_used[replica]} referenced shared blocks exceed "
                    f"{kv_ref_total.get(replica, 0)} outstanding references",
                    event,
                )
            if used + max(0, cached) > event.data["total_blocks"]:
                flag(
                    "kv-accounting",
                    f"usage {used} + cached {cached} exceeds capacity "
                    f"{event.data['total_blocks']}",
                    event,
                )

        elif event.kind == REJECTED:
            assert track is not None  # rejections carry a request id
            if track.rejected_time is not None:
                flag("shed-isolation", "request rejected more than once", event)
            if track.enqueued:
                flag(
                    "shed-isolation",
                    "rejected a request that was already enqueued",
                    event,
                )
            if track.admitted_time is not None or track.last_chunk_time is not None:
                flag(
                    "shed-isolation",
                    "rejected a request with execution history",
                    event,
                )
            if track.completed_times:
                flag("shed-isolation", "rejected a completed request", event)
            track.rejected_time = event.time

        elif event.kind == ROUTED:
            if event.replica_id in retired:
                flag("scaling-causality", "routed to a retired replica", event)
            elif event.replica_id in draining:
                flag("scaling-causality", "routed to a draining replica", event)
            ready_at = replica_ready_at.get(event.replica_id)
            if ready_at is not None and event.time < ready_at - TIME_EPS:
                flag(
                    "scaling-causality",
                    f"routed at {event.time:.6f} before the replica's cold "
                    f"start completes at {ready_at:.6f}",
                    event,
                )

        elif event.kind == SCALED_UP:
            if event.replica_id in replica_ready_at:
                flag("scaling-causality", "replica scaled up more than once", event)
            ready_at = event.data.get("ready_at", event.time)
            if ready_at < event.time - TIME_EPS:
                flag(
                    "scaling-causality",
                    f"ready_at {ready_at:.6f} precedes the scale-up decision "
                    f"at {event.time:.6f}",
                    event,
                )
            replica_ready_at[event.replica_id] = ready_at

        elif event.kind == DRAIN_STARTED:
            if event.replica_id in retired:
                flag(
                    "scaling-causality",
                    "drain started on a retired replica",
                    event,
                )
            elif event.replica_id in draining:
                flag(
                    "scaling-causality",
                    "drain started twice on one replica",
                    event,
                )
            ready_at = replica_ready_at.get(event.replica_id)
            if ready_at is not None and event.time < ready_at - TIME_EPS:
                flag(
                    "scaling-causality",
                    "drain started on a replica still cold-starting",
                    event,
                )
            draining[event.replica_id] = event.time

        elif event.kind == SCALED_DOWN:
            if event.replica_id in retired:
                flag(
                    "scaling-causality",
                    "replica scaled down more than once",
                    event,
                )
            drain_time = draining.get(event.replica_id)
            if drain_time is None:
                flag(
                    "scaling-causality",
                    "scaled down without a prior drain_started",
                    event,
                )
            elif event.time < drain_time - TIME_EPS:
                flag(
                    "scaling-causality",
                    f"scaled down at {event.time:.6f} before drain started at "
                    f"{drain_time:.6f}",
                    event,
                )
            retired[event.replica_id] = event.time

        elif event.kind == BATCH_FORMED:
            _check_batch(event, flag)

        elif event.kind == STEP:
            replica = event.replica_id
            if replica in retired:
                flag("scaling-causality", "a retired replica ran an iteration", event)
            start, duration = event.time, event.data["duration"]
            if duration < 0:
                flag("monotone-clock", f"negative iteration duration {duration}", event)
            previous_end = last_step_end.get(replica)
            if previous_end is not None and start < previous_end - TIME_EPS:
                flag(
                    "monotone-clock",
                    f"iteration started at {start:.6f} before the previous one "
                    f"ended at {previous_end:.6f}",
                    event,
                )
            last_step_end[replica] = start + duration

    # ------------------------------------------------------ postconditions
    for request_id, track in sorted(requests.items()):
        if not track.enqueued:
            continue
        if expect_drained and not track.completed_times:
            violations.append(
                Violation(
                    "completion",
                    "request never completed",
                    request_id=request_id,
                    time=track.arrival_time,
                )
            )
        if track.completed_times:
            if track.effective_prefill != track.prefill_tokens:
                violations.append(
                    Violation(
                        "token-conservation",
                        f"effective prefill is {track.effective_prefill} (chunks "
                        f"{track.prefill_chunk_sum} + cached {track.cached_tokens} "
                        f"- preempt-lost {track.lost_tokens}), prompt length is "
                        f"{track.prefill_tokens}",
                        request_id=request_id,
                        time=track.completed_times[0],
                    )
                )
            # The first output token is produced by the final prefill chunk,
            # so decode chunk events account for the remaining tokens.
            if track.decode_chunks != track.decode_tokens - 1:
                violations.append(
                    Violation(
                        "token-conservation",
                        f"{track.decode_chunks} decode chunks for "
                        f"{track.decode_tokens} output tokens (expected "
                        f"{track.decode_tokens - 1})",
                        request_id=request_id,
                        time=track.completed_times[0],
                    )
                )
    if expect_drained:
        for (replica, request_id), blocks in sorted(kv_private.items()):
            violations.append(
                Violation(
                    "kv-accounting",
                    f"{blocks} block(s) still allocated after drain",
                    request_id=request_id,
                    replica_id=replica,
                )
            )
        for (replica, request_id), refs in sorted(kv_refs.items()):
            violations.append(
                Violation(
                    "ref-count-conservation",
                    f"{refs} shared reference(s) never released",
                    request_id=request_id,
                    replica_id=replica,
                )
            )
        for replica, refs in sorted(kv_ref_total.items()):
            if refs != 0:
                violations.append(
                    Violation(
                        "ref-count-conservation",
                        f"{refs} outstanding shared reference(s) after drain",
                        replica_id=replica,
                    )
                )
    return violations


def _check_batch(event: Event, flag: Callable[[str, str, Event], None]) -> None:
    """Scheduler-specific budget rules for one ``batch_formed`` event."""
    data = event.data
    prefill = data["num_prefill_tokens"]
    decode = data["num_decode_tokens"]
    if prefill + decode <= 0:
        flag("batch-budget", "executed an empty batch", event)
    if decode > data["max_batch_size"]:
        flag(
            "batch-budget",
            f"{decode} decodes exceed max_batch_size {data['max_batch_size']}",
            event,
        )
    scheduler = data["scheduler"]
    chunk_size = data["chunk_size"]
    if chunk_size is not None:
        # Chunked schedulers (Sarathi, PrefillPool): decodes are scheduled
        # first, prefill chunks only fill the remaining token budget.
        allowed = max(0, chunk_size - decode)
        if prefill > allowed:
            flag(
                "batch-budget",
                f"{prefill} prefill tokens exceed the remaining chunk budget "
                f"{allowed} (chunk_size={chunk_size}, decodes={decode})",
                event,
            )
    max_prefill = data["max_prefill_tokens"]
    if max_prefill is not None:
        # Prefill-prioritising (vLLM): whole prompts, never hybrid; only the
        # first admitted prompt may individually exceed the step budget.
        if data["is_hybrid"]:
            flag("batch-budget", f"{scheduler} formed a hybrid batch", event)
        limit = max(max_prefill, data["largest_prefill_item"])
        if prefill > limit:
            flag(
                "batch-budget",
                f"{prefill} prefill tokens exceed the per-step limit {limit}",
                event,
            )
    if scheduler == "DecodePool" and prefill > 0:
        flag("batch-budget", "decode pool scheduled prefill work", event)


def check_replica_load_counters(replicas: Iterable[Any]) -> list[Violation]:
    """Compare each replica's incremental load counters to a fresh scan.

    The cluster hot path routes on O(1) counters that
    :class:`repro.serving.replica.ReplicaRuntime` maintains at enqueue, chunk
    execution and release; this invariant recomputes the load by scanning
    ``outstanding_requests()`` (``scan_load``) and flags any drift.  Accepts
    any iterable of runtimes, so tests and the stateful machines can sample
    it mid-run.
    """
    violations: list[Violation] = []
    for replica in replicas:
        scanned = replica.scan_load()
        counters = (
            replica.load_num_requests,
            replica.load_total_tokens,
            replica.load_prefill_tokens,
        )
        if counters != scanned:
            violations.append(
                Violation(
                    "load-accounting",
                    "incremental (requests, tokens, prefill_tokens) counters "
                    f"{counters} != scanned load {scanned}",
                    replica_id=replica.replica_id,
                    time=replica.clock,
                )
            )
    return violations


def check_kv_drain_balance(managers: Iterable[Any]) -> list[Violation]:
    """Post-drain balance of one or more KV-cache managers.

    A drained run must leave every manager with zero pinned blocks, and —
    the double-free rule — the non-strict ``free()`` no-op path must never
    have fired: ``stats.double_free_count`` is asserted zero, so silent
    double-frees (previously absorbed without trace) fail verification.
    Accepts managers or anything carrying one as ``.kv_cache`` (e.g.
    :class:`repro.serving.replica.ReplicaRuntime`).
    """
    violations: list[Violation] = []
    for index, entry in enumerate(managers):
        manager = getattr(entry, "kv_cache", entry)
        replica_id = getattr(entry, "replica_id", index)
        if manager.used_blocks != 0:
            violations.append(
                Violation(
                    "kv-drain-balance",
                    f"{manager.used_blocks} block(s) still pinned after drain",
                    replica_id=replica_id,
                )
            )
        if manager.stats.double_free_count != 0:
            violations.append(
                Violation(
                    "kv-drain-balance",
                    f"{manager.stats.double_free_count} double-free(s) absorbed "
                    f"by the non-strict free path",
                    replica_id=replica_id,
                )
            )
    return violations


def check_cost_accounting(metrics: Any, rtol: float = 1e-9) -> list[Violation]:
    """Dollar-ledger consistency of one :class:`~repro.cluster.metrics.ClusterMetrics`.

    The serving-economics chain has one invariant worth pinning end to end:
    every dollar in the fleet bill must be recomputable from first
    principles.  Three checks:

    * each replica's bill equals rate × active time
      (``cost_usd == cost_per_hour * active_seconds / 3600``);
    * the fleet bill is exactly the sum of the replica bills;
    * ``usd_per_1k_tokens`` is the fleet bill divided by delivered tokens.

    Unpriced fleets (all rates zero) pass trivially — every term is zero.
    """

    def drifted(actual: float, expected: float) -> bool:
        return abs(actual - expected) > rtol * max(1.0, abs(expected))

    violations: list[Violation] = []
    total = 0.0
    for stats in metrics.replicas:
        expected = stats.cost_per_hour * stats.active_seconds / 3600.0
        if drifted(stats.cost_usd, expected):
            violations.append(
                Violation(
                    "cost-accounting",
                    f"replica bill {stats.cost_usd!r} != rate x active time "
                    f"{expected!r} ({stats.cost_per_hour}/h x {stats.active_seconds}s)",
                    replica_id=stats.replica_id,
                )
            )
        total += stats.cost_usd
    if drifted(metrics.cost_usd, total):
        violations.append(
            Violation(
                "cost-accounting",
                f"fleet bill {metrics.cost_usd!r} != sum of replica bills {total!r}",
            )
        )
    if metrics.total_tokens > 0:
        expected = metrics.cost_usd / metrics.total_tokens * 1000.0
        if drifted(metrics.usd_per_1k_tokens, expected):
            violations.append(
                Violation(
                    "cost-accounting",
                    f"usd_per_1k_tokens {metrics.usd_per_1k_tokens!r} != "
                    f"cost_usd / tokens x 1000 = {expected!r}",
                )
            )
    return violations


def check_execution(
    launches: Sequence[KernelLaunch], result: ExecutionResult, spec: GPUSpec
) -> list[Violation]:
    """Event-level invariants of one GPU-engine run, replayed from its CTA records.

    ``result`` must come from an engine with ``record_ctas=True`` running
    ``launches`` on ``spec``, and kernel names must be distinct (a record
    names its kernel).  Three invariants:

    * **sm-capacity** — no SM ever holds more CTAs, threads, shared memory or
      registers than ``spec`` allows;
    * **stream-order** — each kernel spans exactly its CTA records, and the
      launches of one stream start in order, each at least
      ``kernel_launch_overhead`` after its predecessor ends (the first one
      that long after t=0);
    * **work-conservation** — every CTA retires exactly once; recorded FLOPs
      and bytes sum to ``flops_executed`` / ``bytes_moved`` and to the
      per-tag totals (tags other than prefill and decode are booked as
      ``"untagged"``) within :data:`WORK_RTOL`; for static kernels they also sum to
      ``Kernel.total_flops()`` / ``total_dram_bytes()``.
    """
    violations: list[Violation] = []

    def flag(invariant: str, message: str, time: float = 0.0) -> None:
        violations.append(Violation(invariant, message, time=time))

    def close(actual: float, expected: float, count: int) -> bool:
        slack = WORK_RTOL * max(abs(actual), abs(expected)) + _ENGINE_WORK_EPS * count
        return abs(actual - expected) <= slack

    kernels: dict[str, Kernel] = {}
    for launch in launches:
        if launch.kernel.name in kernels:
            flag("work-conservation", f"kernel name {launch.kernel.name!r} is launched twice")
            return violations
        kernels[launch.kernel.name] = launch.kernel
    records: dict[str, list[CTARecord]] = {name: [] for name in kernels}
    for record in result.cta_records:
        if record.kernel not in records:
            flag("work-conservation", f"record of unknown kernel {record.kernel!r}")
            return violations
        records[record.kernel].append(record)

    # Work conservation.
    for name, kernel in kernels.items():
        retired = sorted(record.dispatch_index for record in records[name])
        if retired != list(range(kernel.num_ctas)):
            flag(
                "work-conservation",
                f"kernel {name!r} retired dispatch indices {retired[:8]}... "
                f"({len(retired)} records), not each of 0..{kernel.num_ctas - 1} once",
            )
        if kernel.ctas is not None:
            for label, recorded, expected in (
                ("FLOPs", sum(r.flops for r in records[name]), kernel.total_flops()),
                ("bytes", sum(r.dram_bytes for r in records[name]), kernel.total_dram_bytes()),
            ):
                if not close(recorded, expected, 0):
                    flag(
                        "work-conservation",
                        f"kernel {name!r} records {recorded!r} {label}, "
                        f"its CTAs total {expected!r}",
                    )
    everything = result.cta_records
    for label, recorded, executed in (
        ("FLOPs", sum(r.flops for r in everything), result.flops_executed),
        ("bytes", sum(r.dram_bytes for r in everything), result.bytes_moved),
    ):
        if not close(executed, recorded, len(everything)):
            flag("work-conservation", f"executed {executed!r} {label}, records sum {recorded!r}")
    booked: dict[str, list[CTARecord]] = {PREFILL_TAG: [], DECODE_TAG: [], "untagged": []}
    for record in everything:
        booked[record.tag if record.tag in booked else "untagged"].append(record)
    for tag in sorted(set(result.tag_flops) | set(result.tag_bytes)):
        if tag not in booked:
            flag("work-conservation", f"unexpected per-tag total {tag!r}")
    for tag, tagged in booked.items():
        for label, recorded, executed in (
            ("FLOPs", sum(r.flops for r in tagged), result.tag_flops.get(tag, 0.0)),
            ("bytes", sum(r.dram_bytes for r in tagged), result.tag_bytes.get(tag, 0.0)),
        ):
            if not close(executed, recorded, len(tagged)):
                flag(
                    "work-conservation",
                    f"tag {tag!r} executed {executed!r} {label}, records sum {recorded!r}",
                )

    # SM capacity: replay admissions and releases per SM.  A CTA retiring at
    # t frees its slot before one dispatched at t takes it; a zero-length CTA
    # holds its slot through the instant it runs.
    limits = (
        ("CTAs", spec.max_ctas_per_sm),
        ("threads", spec.max_threads_per_sm),
        ("shared memory", spec.shared_mem_per_sm),
        ("registers", spec.registers_per_sm),
    )
    changes: list[tuple[float, int, int, tuple[int, int, int, int]]] = []
    for record in everything:
        kernel = kernels[record.kernel]
        threads = kernel.threads_per_cta
        shared_mem = kernel.shared_mem_per_cta
        registers = kernel.registers_per_thread * threads
        release = 2 if record.end_time == record.start_time else 0
        changes.append((record.start_time, 1, record.sm_id, (1, threads, shared_mem, registers)))
        changes.append(
            (record.end_time, release, record.sm_id, (-1, -threads, -shared_mem, -registers))
        )
    changes.sort(key=lambda change: change[:3])
    usage: dict[int, list[int]] = {}
    exceeded: set[tuple[int, str]] = set()
    for time, kind, sm, delta in changes:
        used = usage.setdefault(sm, [0, 0, 0, 0])
        for position, amount in enumerate(delta):
            used[position] += amount
        if kind != 1:
            continue
        for (resource, limit), amount in zip(limits, used):
            if amount > limit and (sm, resource) not in exceeded:
                exceeded.add((sm, resource))
                flag("sm-capacity", f"SM {sm} holds {amount} {resource} > {limit}", time)

    # Stream order and launch-overhead gaps.
    overhead = spec.kernel_launch_overhead
    last_end: dict[int, float] = {}
    for launch, timing in zip(launches, result.kernels):
        mine = records[launch.kernel.name]
        if mine:
            span = (min(r.start_time for r in mine), max(r.end_time for r in mine))
            if (timing.start_time, timing.end_time) != span:
                flag(
                    "stream-order",
                    f"kernel {timing.name!r} spans {(timing.start_time, timing.end_time)}, "
                    f"its CTAs {span}",
                )
        ready = last_end.get(launch.stream, 0.0) + overhead
        if timing.start_time < ready - TIME_EPS:
            flag(
                "stream-order",
                f"kernel {timing.name!r} on stream {launch.stream} starts at "
                f"{timing.start_time!r}, before {ready!r} (predecessor end + launch overhead)",
                timing.start_time,
            )
        last_end[launch.stream] = timing.end_time
    return violations


def assert_no_violations(
    events: Iterable[Event] | EventRecorder,
    expect_drained: bool = True,
) -> None:
    """Raise :class:`InvariantViolationError` if any invariant is violated."""
    violations = check_event_log(events, expect_drained=expect_drained)
    if violations:
        raise InvariantViolationError(violations)
