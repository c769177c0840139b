"""Steppable per-replica serving runtime.

``ReplicaRuntime`` is the event-level serving core: one replica's
pending/waiting/running queues, KV cache, engine and local clock, advanced one
iteration at a time via :meth:`step`, or via :meth:`advance`, which also
leaps through a steady decode run up to a given time.
``repro.cluster.ClusterSimulator`` interleaves one or more runtimes under one
global clock, which is why the stepping API is explicit rather than buried in
a ``run()`` loop; :meth:`ReplicaRuntime.run_to_completion` is the plain
single-replica loop the differential oracle in ``repro.verify.oracles``
replays against it.

Two details matter for cluster use:

* Requests are enqueued with an explicit *ready time* (defaulting to their
  ``arrival_time``), so a disaggregated decode pool can receive requests at
  their KV-transfer completion time without mutating ``arrival_time``.
* A runtime can release requests either when they *finish* (default) or as
  soon as their prefill completes and the first token is out
  (``release_on="first_token"``), which is how a prefill pool hands requests
  over to a decode pool.

The hot loop is O(1) per arrival admission (an index cursor over the sorted
pending list instead of ``list.pop(0)``) and rebuilds the running list with a
set-based filter only on iterations where something was released.  The runtime
additionally maintains incremental load counters (outstanding requests / total
tokens / prefill tokens), updated at enqueue, chunk execution and release, so
cluster routers read O(1) load snapshots instead of rescanning every
outstanding request per routing decision (``scan_load`` keeps the reference
scan for verification).

Steady decode steps skip the scheduler.  When the last step's batch decoded
every running request and nothing else (no prefill item, so no admission,
and no preemption) and released nothing, the next step re-runs that batch
instead of calling ``Scheduler.schedule``, which by contract would return
the same one, unless requests wait and the batch recorded no reason why
admission blocked.  A refused queue head stays refused until a release, a
preemption or an admission: decode growth only lowers ``free_blocks``, and
the LRU evictions it causes change no admission's free riders.  Under
preemption a re-run first grows its decodes with the growth pass of
``Scheduler.prepare_decodes`` (``KVCacheManager.grow_all``: only the
decodes that cross a block boundary allocate), and calls the scheduler
(which then preempts) when the cache lacks the blocks.  A re-run advances
the batch's carried decode sums by one token per decode.  Only
:meth:`ReplicaRuntime.steady_batch` decides; the oracles' reference runtime
overrides it to reschedule every step.

Steady runs leap.  Within a steady run nothing changes but the clock, the
decodes' progress and their KV growth, and each re-run's duration depends
only on its index, so :meth:`ReplicaRuntime.advance` runs in one call every
re-run that starts before a given time (the cluster's next delivery) and
before the next pending request is ready, stopping before the step in which
the first decode finishes or whose growth the cache cannot supply.  A leap
stopped by that growth hands its refusal to the next :meth:`step`, which
then calls the scheduler without checking the growth again.  A per-decode
index of block-boundary crossings makes a leaped step cost its crossings,
not its decodes.  The engine prices each re-run from the same
helpers as a step (:meth:`InferenceEngine.rerun_durations`); the clock and
busy time take the same float additions per re-run, and the requests and
counters are committed once at the end.  A leap's results, counters and
recorded events equal those of the same steps run one
:meth:`ReplicaRuntime.step` at a time, which
:func:`repro.verify.oracles.leap_equivalence` checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator

from repro.models.config import Deployment

if TYPE_CHECKING:  # avoid a runtime serving -> verify import cycle
    from repro.verify.events import EventSink
from repro.serving.attention_backend import AttentionBackend, FASerialBackend
from repro.serving.batch import ScheduledBatch
from repro.serving.engine import InferenceEngine, IterationResult
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import Scheduler
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.utils.validation import check_in_choices

RELEASE_MODES = ("finish", "first_token")

_DECODING = RequestState.DECODING
_FINISHED = RequestState.FINISHED

#: A replica that executes this many iterations without draining is taken to
#: be livelocked (e.g. a scheduler that never finishes a request).
MAX_ITERATIONS = 2_000_000

# Compact the consumed head of the pending list once it grows past this size
# (keeps long online traces from pinning already-admitted request tuples).
_COMPACT_THRESHOLD = 1024


@dataclass
class StepOutcome:
    """What one :meth:`ReplicaRuntime.step` or :meth:`ReplicaRuntime.advance`
    call did (``result`` is the last iteration it ran)."""

    released: list[Request] = field(default_factory=list)
    result: IterationResult | None = None

    @property
    def executed(self) -> bool:
        """True when an iteration actually ran (False when the replica drained)."""
        return self.result is not None


class ReplicaRuntime:
    """One serving replica, advanced iteration-by-iteration.

    The runtime owns its KV cache and engine; the scheduler and attention
    backend are injected so replicas of different roles (hybrid,
    prefill-only, decode-only) share one stepping loop.
    """

    def __init__(
        self,
        deployment: Deployment,
        scheduler: Scheduler | None = None,
        backend: AttentionBackend | None = None,
        kv_config: KVCacheConfig | None = None,
        release_on: str = "finish",
        replica_id: int = 0,
        role: str = "hybrid",
        recorder: "EventSink | list[EventSink] | None" = None,
    ) -> None:
        check_in_choices("release_on", release_on, RELEASE_MODES)
        self.deployment = deployment
        self.scheduler = scheduler or SarathiScheduler()
        self.backend = backend or FASerialBackend(deployment)
        self.kv_cache = KVCacheManager(kv_config or KVCacheConfig.for_deployment(deployment))
        self.engine = InferenceEngine(deployment, self.backend)
        self.release_on = release_on
        self.replica_id = replica_id
        self.role = role
        if recorder is not None:
            # Lazy import: repro.verify imports the cluster layer, which
            # imports this module.
            from repro.verify.events import as_sink

            recorder = as_sink(recorder)
        self.recorder = recorder
        if recorder is not None:
            # KV events are emitted at the replica's clock via this closure;
            # the manager itself stays clock- and replica-agnostic.
            self.kv_cache.observer = self._on_kv_event
        self._release_decoding = release_on == "first_token"
        # The last executed batch, unless that step released a request.
        self._last_batch: ScheduledBatch | None = None
        # Set by a leap that stopped because the next re-run's growth does
        # not fit; the next step() then calls the scheduler without checking
        # that growth again.
        self._growth_refused = False

        # Pending requests as (ready_time, seq, request), sorted from _cursor on.
        self._pending: list[tuple[float, int, Request]] = []
        self._cursor = 0
        self._seq = 0
        self._dirty = False
        self.waiting: list[Request] = []
        self.running: list[Request] = []
        self.clock = 0.0
        self.busy_time = 0.0
        self.steps_executed = 0
        self.released: list[Request] = []

        # Incremental load accounting (see module docstring): counters over
        # every accepted-but-unreleased request, kept exactly in sync with
        # scan_load() at enqueue, chunk execution and release.
        self.load_num_requests = 0
        self.load_total_tokens = 0
        self.load_prefill_tokens = 0

    def _on_kv_event(self, kind: str, request_id: int, blocks: int, **extra) -> None:
        """KVCacheManager observer: stamp KV mutations with clock and usage.

        ``extra`` carries the rest of the manager's payload: the private and
        shared block split and cache-hit tokens of ``kv_shared_alloc``, the
        evictions of ``kv_alloc`` and the release split of ``kv_free``
        (``kv_double_free`` carries none).
        """
        self.recorder.emit(
            kind,
            time=self.clock,
            replica_id=self.replica_id,
            request_id=request_id,
            blocks=blocks,
            used_blocks=self.kv_cache.used_blocks,
            cached_blocks=self.kv_cache.cached_blocks,
            total_blocks=self.kv_cache.total_blocks,
            **extra,
        )

    # ------------------------------------------------------------- intake

    def enqueue(self, request: Request, ready_time: float | None = None) -> None:
        """Hand a request to this replica, runnable from ``ready_time`` on.

        ``ready_time`` defaults to the request's ``arrival_time``; the request
        object is never mutated.  Out-of-order enqueues are allowed (the
        pending tail is re-sorted lazily).
        """
        ready = request.arrival_time if ready_time is None else ready_time
        remaining_prefill = request.remaining_prefill_tokens
        self.load_num_requests += 1
        self.load_total_tokens += remaining_prefill + request.remaining_decode_tokens
        self.load_prefill_tokens += remaining_prefill
        self._seq += 1
        item = (ready, self._seq, request)
        if self._pending and len(self._pending) > self._cursor and item < self._pending[-1]:
            self._dirty = True
        self._pending.append(item)
        if self.recorder is not None:
            self.recorder.emit(
                "enqueued",
                time=ready,
                replica_id=self.replica_id,
                request_id=request.request_id,
                arrival_time=request.arrival_time,
                prefill_tokens=request.prefill_tokens,
                decode_tokens=request.decode_tokens,
                tenant=request.tenant,
            )

    def _ensure_sorted(self) -> None:
        if self._dirty:
            tail = self._pending[self._cursor :]
            tail.sort()
            self._pending[self._cursor :] = tail
            self._dirty = False

    def _admit_arrivals(self) -> None:
        """Move every pending request whose ready time has passed into waiting."""
        self._ensure_sorted()
        pending, cursor = self._pending, self._cursor
        first_admitted = cursor
        while cursor < len(pending) and pending[cursor][0] <= self.clock:
            self.waiting.append(pending[cursor][2])
            cursor += 1
        if self.recorder is not None and cursor > first_admitted:
            for index in range(first_admitted, cursor):
                self.recorder.emit(
                    "arrival",
                    time=self.clock,
                    replica_id=self.replica_id,
                    request_id=pending[index][2].request_id,
                    ready=pending[index][0],
                )
        self._cursor = cursor
        if cursor > _COMPACT_THRESHOLD and cursor * 2 > len(pending):
            del pending[:cursor]
            self._cursor = 0

    # ------------------------------------------------------------ queries

    @property
    def num_pending(self) -> int:
        return len(self._pending) - self._cursor

    @property
    def num_outstanding(self) -> int:
        """Requests this replica has accepted but not yet released."""
        return self.num_pending + len(self.waiting) + len(self.running)

    def outstanding_requests(self) -> Iterator[Request]:
        """Iterate every request accepted but not yet released (any order)."""
        for i in range(self._cursor, len(self._pending)):
            yield self._pending[i][2]
        yield from self.waiting
        yield from self.running

    def scan_load(self) -> tuple[int, int, int]:
        """Recompute ``(num_requests, total_tokens, prefill_tokens)`` by scan.

        O(outstanding) reference implementation of the incremental
        ``load_*`` counters, kept for the load-accounting invariant
        (``repro.verify.invariants``) and the tests' scan-checking router.
        """
        num = tokens = prefill_tokens = 0
        for request in self.outstanding_requests():
            num += 1
            remaining_prefill = request.remaining_prefill_tokens
            tokens += remaining_prefill + request.remaining_decode_tokens
            prefill_tokens += remaining_prefill
        return num, tokens, prefill_tokens

    def next_ready_time(self) -> float | None:
        """Earliest time this replica could next make progress; None if drained."""
        if self.waiting or self.running:
            return self.clock
        self._ensure_sorted()
        if self._cursor < len(self._pending):
            return max(self.clock, self._pending[self._cursor][0])
        return None

    @property
    def is_drained(self) -> bool:
        return self.next_ready_time() is None

    # ------------------------------------------------------------ stepping

    def steady_batch(self) -> ScheduledBatch | None:
        """The last batch when this step may re-run it (the rule is in the
        module docstring), else ``None``.  Override to reschedule every step."""
        batch = self._last_batch
        if (
            batch is None
            or batch.prefill_items
            or batch.preempted
            or len(batch.decode_requests) != len(self.running)
            or (self.waiting and batch.admission_blocked is None)
        ):
            return None
        return batch

    def _grow(self, decodes: list[Request], ahead: int = 0) -> bool:
        """Grow ``decodes`` by their next token's KV with the growth pass of
        ``Scheduler.prepare_decodes`` (:meth:`KVCacheManager.grow_all`);
        ``ahead`` counts re-runs not yet committed to the requests.  Returns
        False, growing nothing, when the cache lacks the blocks.  Full
        reservation grows nothing."""
        return not self.scheduler.preemption or self.kv_cache.grow_all(decodes, ahead)

    def step(self) -> StepOutcome:
        """Execute the next iteration (advancing the local clock past any idle
        gap first) and return the requests it released.

        Calling ``step()`` on a drained replica is a no-op returning an
        outcome with ``executed == False``.
        """
        refused, self._growth_refused = self._growth_refused, False
        while True:
            self._admit_arrivals()
            if not self.waiting and not self.running:
                if self._cursor >= len(self._pending):
                    return StepOutcome()
                self.clock = self._pending[self._cursor][0]
                continue

            if self.steps_executed >= MAX_ITERATIONS:
                raise RuntimeError(
                    f"simulation exceeded {MAX_ITERATIONS} iterations without draining"
                )
            running_ids_before = (
                {request.request_id for request in self.running}
                if self.recorder is not None
                else None
            )
            batch = None if refused else self.steady_batch()
            if batch is not None and self._grow(batch.decode_requests):
                batch.advance_decode_sums()
            else:
                batch = self.scheduler.schedule(
                    self.waiting, self.running, self.kv_cache, self.clock
                )
            # Preemptions put recompute debt back on the clock (remaining
            # prefill grows); prefix-cache hits retire prompt tokens without
            # executing them.  Both must flow through the load counters.
            for _, lost in batch.preempted:
                self.load_prefill_tokens += lost
                self.load_total_tokens += lost
            for _, cached in batch.prefix_hits:
                self.load_prefill_tokens -= cached
                self.load_total_tokens -= cached
            if batch.is_empty:
                # Nothing runnable right now (e.g. memory full of decodes that
                # are all finished this instant); jump to the next arrival.
                if self._cursor < len(self._pending):
                    self._ensure_sorted()
                    self.clock = max(self.clock, self._pending[self._cursor][0])
                    continue
                raise RuntimeError(
                    "scheduler produced an empty batch with no future arrivals: "
                    f"waiting={len(self.waiting)} running={len(self.running)}"
                )

            result = self.engine.execute(batch)
            iteration_start = self.clock
            self.clock += result.duration
            self.busy_time += result.duration
            self.steps_executed += 1
            if self.recorder is not None:
                self._record_iteration(batch, running_ids_before, iteration_start, result)

            # Apply end-of-iteration state updates.
            for request, chunk in batch.prefill_items:
                # Completing a prefill also emits the first output token, so
                # the decode backlog can drop by one beyond the chunk itself.
                decode_before = request.remaining_decode_tokens
                request.advance_prefill(chunk, self.clock)
                self.load_prefill_tokens -= chunk
                self.load_total_tokens -= chunk + (
                    decode_before - request.remaining_decode_tokens
                )
            # A request is released when its state changed this step (or,
            # releasing at first token, whenever it decodes): scan only after
            # a prefill ran or a decode left DECODING.
            release_decoding = self._release_decoding
            scan = release_decoding or bool(batch.prefill_items)
            for request in batch.decode_requests:
                request.advance_decode(self.clock)
                scan = scan or request.state is not _DECODING
            self.load_total_tokens -= len(batch.decode_requests)
            released: list[Request] = []
            if scan:
                released = [
                    r
                    for r in self.running
                    if r.state is _FINISHED or (release_decoding and r.state is _DECODING)
                ]
            self._last_batch = None if released else batch
            if released:
                released_ids = {r.request_id for r in released}
                for request in released:
                    self.kv_cache.free(request.request_id)
                    remaining_prefill = request.remaining_prefill_tokens
                    self.load_num_requests -= 1
                    self.load_total_tokens -= (
                        remaining_prefill + request.remaining_decode_tokens
                    )
                    self.load_prefill_tokens -= remaining_prefill
                self.running = [r for r in self.running if r.request_id not in released_ids]
                self.released.extend(released)
                if self.recorder is not None:
                    for request in released:
                        self.recorder.emit(
                            "released",
                            time=self.clock,
                            replica_id=self.replica_id,
                            request_id=request.request_id,
                            state=request.state.value,
                        )
                        if request.state is RequestState.FINISHED:
                            self.recorder.emit(
                                "completed",
                                time=self.clock,
                                replica_id=self.replica_id,
                                request_id=request.request_id,
                            )
            return StepOutcome(released=released, result=result)

    def advance(self, until: float = math.inf) -> StepOutcome:
        """Run the next step, then every re-run step that starts before ``until``.

        After arrival admission, a steady batch (:meth:`steady_batch`) leaps:
        its re-runs are run in bulk while each starts strictly before both
        ``until`` and the next pending ready time, stopping before the step in
        which its first decode finishes, before a step whose KV growth the
        cache cannot supply, and at ``MAX_ITERATIONS``.  Otherwise one
        :meth:`step` runs, and a leap follows when it released nothing.  After
        a leap stopped by KV growth, the next step goes to the scheduler: no
        leap runs until a :meth:`step` has run.
        The outcome is that of the step, or of the last leaped step when the
        call only leaped.  Clocks, counters, requests and recorded events
        end exactly as if each step had run through :meth:`step`.
        """
        self._admit_arrivals()
        batch = None if self._growth_refused else self.steady_batch()
        if batch is not None:
            result = self._leap(batch, until)
            if result is not None:
                return StepOutcome(result=result)
        outcome = self.step()
        if outcome.executed and not outcome.released:
            batch = self.steady_batch()
            if batch is not None:
                self._leap(batch, until)
        return outcome

    def _crossings(self, decodes: list[Request]) -> list[list[tuple[int, Request]]]:
        """The decodes, in batch order, bucketed by re-run index modulo the
        block size.  A decode holds the blocks of its context, so it first
        crosses a block boundary at re-run ``first`` = held tokens − context
        (≥ 0), then every ``block_size`` re-runs; re-run j grows the decodes
        of bucket ``j % block_size`` whose ``first <= j``."""
        kv_cache = self.kv_cache
        block_size = kv_cache.config.block_size
        due: list[list[tuple[int, Request]]] = [[] for _ in range(block_size)]
        for request in decodes:
            first = kv_cache.blocks_of(request.request_id) * block_size - request.context_tokens
            due[first % block_size].append((first, request))
        return due

    def _leap(self, batch: ScheduledBatch, until: float) -> IterationResult | None:
        """Re-run the steady ``batch`` over every step :meth:`advance` allows.

        Each step first grows the decodes crossing a block boundary
        (:meth:`_crossings`, :meth:`_grow`) at its start clock, and the leap
        ends before a step whose growth does not fit, so no step is priced
        that does not run, and sets ``_growth_refused`` for the next
        :meth:`step`.  Each step is priced by
        :meth:`InferenceEngine.rerun_durations` and advances the clock and
        busy time by the same float additions as :meth:`step`.  The requests
        are committed once, after the last step: each decode's last token
        landed at the leap's start, so one list of clock differences extends
        every decode's ``token_intervals``.  Returns the last step's result,
        or ``None`` when no step may leap.
        """
        decodes = batch.decode_requests
        steps = min(
            min(request.remaining_decode_tokens for request in decodes) - 1,
            MAX_ITERATIONS - self.steps_executed,
        )
        self._ensure_sorted()
        if self._cursor < len(self._pending):
            until = min(until, self._pending[self._cursor][0])
        clock = self.clock
        if steps <= 0 or not clock < until:
            return None
        due = self._crossings(decodes) if self.scheduler.preemption else None
        block_size = self.kv_cache.config.block_size
        busy_time = self.busy_time
        num_tokens = len(decodes)
        recorder = self.recorder
        intervals: list[float] = []
        durations = self.engine.rerun_durations(batch)
        while True:
            leaped = len(intervals)
            if due is not None:
                crossing = [r for first, r in due[leaped % block_size] if first <= leaped]
                if crossing:
                    self.clock = clock  # the growth's KV events carry the step's start
                    if not self._grow(crossing, leaped):
                        self._growth_refused = True
                        break
            duration = next(durations)
            start = clock
            clock += duration
            busy_time += duration
            intervals.append(clock - start)
            if recorder is not None:
                self._record_batch(batch, start, clock, duration, num_tokens)
            if len(intervals) == steps or not clock < until:
                break
        leaped = len(intervals)
        if not leaped:
            return None
        self.clock = clock
        self.busy_time = busy_time
        self.steps_executed += leaped
        self.engine.total_iterations += leaped
        self.load_total_tokens -= num_tokens * leaped
        count, context_sum, min_context = batch.context_sums()
        batch.decode_sums = (count, context_sum + count * leaped, min_context + leaped)
        for request in decodes:
            request.token_intervals.extend(intervals)
            request.last_token_time = clock
            request.decode_done_tokens += leaped
        return IterationResult(duration, num_tokens, False)

    def _record_iteration(self, batch, running_ids_before: set[int], start: float, result) -> None:
        """Emit the preempted / admitted / batch_formed / step / chunk events
        of one iteration."""
        recorder = self.recorder
        for request, lost in batch.preempted:
            recorder.emit(
                "preempted",
                time=start,
                replica_id=self.replica_id,
                request_id=request.request_id,
                lost_tokens=lost,
                preemption_count=request.preemption_count,
            )
        preempted_ids = {request.request_id for request, _ in batch.preempted}
        for request in self.running:
            # Newly admitted, or preempted and re-admitted within this very
            # iteration (its previous admission ended at the preempt event).
            if request.request_id in running_ids_before and request.request_id not in preempted_ids:
                continue
            recorder.emit(
                "admitted",
                time=start,
                replica_id=self.replica_id,
                request_id=request.request_id,
            )
        self._record_batch(batch, start, self.clock, result.duration, result.num_tokens)

    def _record_batch(
        self, batch: ScheduledBatch, start: float, end: float, duration: float, num_tokens: int
    ) -> None:
        """Emit the batch_formed / step / chunk events of one iteration."""
        recorder = self.recorder
        recorder.emit(
            "batch_formed",
            time=start,
            replica_id=self.replica_id,
            scheduler=self.scheduler.name,
            num_prefill_tokens=batch.num_prefill_tokens,
            num_decode_tokens=batch.num_decode_tokens,
            largest_prefill_item=max((tokens for _, tokens in batch.prefill_items), default=0),
            chunk_size=getattr(self.scheduler, "chunk_size", None),
            max_prefill_tokens=getattr(self.scheduler, "max_prefill_tokens_per_step", None),
            max_batch_size=self.scheduler.limits.max_batch_size,
            is_hybrid=batch.is_hybrid,
            admission_blocked=batch.admission_blocked,
        )
        recorder.emit(
            "step",
            time=start,
            replica_id=self.replica_id,
            duration=duration,
            num_tokens=num_tokens,
            num_waiting=len(self.waiting),
            num_running=len(self.running),
            kv_used_blocks=self.kv_cache.used_blocks,
            kv_total_blocks=self.kv_cache.total_blocks,
        )
        for request, chunk in batch.prefill_items:
            recorder.emit(
                "chunk_executed",
                time=end,
                replica_id=self.replica_id,
                request_id=request.request_id,
                phase="prefill",
                tokens=chunk,
            )
        for request in batch.decode_requests:
            recorder.emit(
                "chunk_executed",
                time=end,
                replica_id=self.replica_id,
                request_id=request.request_id,
                phase="decode",
                tokens=1,
            )

    def run_to_completion(self) -> None:
        """Advance until drained: the plain single-replica loop."""
        while self.next_ready_time() is not None:
            if not self.advance().executed:
                break
