"""Scheduler interface for the serving simulator.

A scheduler decides, at each iteration, which requests run and how many of
their tokens are processed: it admits waiting requests into the running set
(subject to KV-cache capacity), forms the iteration's batch and hands it to
the engine.  The two schedulers the paper compares are implemented in
``scheduler_vllm`` (prefill-prioritising, no chunking) and
``scheduler_sarathi`` (chunked prefills + hybrid batching).

Admission policy depends on the memory-pressure mode:

* **Full reservation** (default, ``preemption=False``) — admission reserves
  prompt + output tokens up front, so an admitted request can always grow its
  KV cache and the simulator never needs to evict anything.  Under memory
  pressure this stalls admission instead.
* **Preemption-with-recompute** (``preemption=True``) — admission reserves
  only the prompt (plus any already-generated tokens and one slot for the
  next output token); decodes then grow their allocation step by step.  When
  a decode cannot grow, the lowest-priority running request is preempted:
  its blocks are freed and it re-enters the waiting queue to recompute from
  its prompt (vLLM's recompute preemption mode).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request, RequestState
from repro.utils.validation import check_positive


#: ``ScheduledBatch.admission_blocked`` reasons — why a scheduler stopped
#: admitting with requests still waiting.  A replica re-runs a steady decode
#: batch past a waiting queue only when its batch recorded one (the re-run
#: contract in :class:`Scheduler`), each ``batch_formed`` event carries the
#: batch's reason, and perfbench's traced runs count the ``BLOCKED_KV``
#: batches ``schedule`` returns.
BLOCKED_KV = "kv"
BLOCKED_BUDGET = "budget"
BLOCKED_BATCH_SIZE = "batch_size"
BLOCKED_ADMISSION_CAP = "admission_cap"
BLOCKED_PREFILL_SLOTS = "prefill_slots"


@dataclass(frozen=True)
class SchedulerLimits:
    """Admission limits shared by all schedulers."""

    max_batch_size: int = 256
    max_admissions_per_step: int = 64

    def __post_init__(self) -> None:
        check_positive("max_batch_size", self.max_batch_size)
        check_positive("max_admissions_per_step", self.max_admissions_per_step)


class Scheduler(ABC):
    """Base scheduler: owns admission control against the KV cache.

    **Re-run contract.**  Suppose the previous batch only decoded every
    request in ``running`` (all still decoding), so it admitted and
    preempted nothing, nothing was released since, and either nothing waits
    or that batch recorded why admission blocked.  Then the queue head is
    still refused for the same reason: decode growth only lowers
    ``free_blocks``, and its LRU evictions change no admission's riders.
    ``schedule`` must then grow each decode's KV by one token with the
    growth pass of :meth:`prepare_decodes` and return that same decode-only
    batch, with the same ``admission_blocked``, changing no other state and
    reading nothing else (``now`` included), unless that growth exceeds
    ``free_blocks``, in which case it preempts.
    ``ReplicaRuntime.advance`` leaps through such re-runs without calling it
    (``ReplicaRuntime.steady_batch`` decides) and makes the same growth
    itself with the same helper (:meth:`KVCacheManager.grow_all`); a re-run
    whose growth does not fit goes to ``schedule``, as every
    ``ReplicaRuntime.step`` call does.
    """

    name: str = "base"

    def __init__(
        self, limits: SchedulerLimits | None = None, preemption: bool = False
    ) -> None:
        self.limits = limits or SchedulerLimits()
        self.preemption = preemption

    # ------------------------------------------------------------ admission

    def reserve_tokens(self, request: Request) -> int:
        """KV tokens an admission of ``request`` must reserve.

        Full-reservation mode books the final context (prompt + all output
        tokens); preemption mode books only what the prefill needs — the
        prompt, any output tokens already generated before a preemption
        (their KV is recomputed alongside the prompt's) and one slot for the
        next output token — and lets decode steps grow the rest on demand.
        """
        if self.preemption:
            return request.prefill_tokens + request.decode_done_tokens + 1
        return request.total_tokens

    def can_admit(self, request: Request, kv_cache: KVCacheManager) -> bool:
        """Whether the KV cache can take an admission of ``request`` now."""
        return kv_cache.can_admit_request(request, self.reserve_tokens(request))

    def admit(
        self,
        request: Request,
        kv_cache: KVCacheManager,
        batch: ScheduledBatch | None = None,
    ) -> None:
        """Reserve KV-cache capacity for a request being moved into running.

        With prefix caching enabled on the manager, cached prompt-prefix
        tokens are applied to the request (skipping their recompute) and the
        hit is recorded on ``batch`` so the runtime can adjust its load
        counters and event stream.
        """
        cached = kv_cache.admit_request(request, self.reserve_tokens(request))
        if cached:
            request.apply_prefix_cache_hit(cached)
            if batch is not None:
                batch.prefix_hits.append((request, cached))

    # ----------------------------------------------------------- preemption

    def prepare_decodes(
        self,
        waiting: list[Request],
        running: list[Request],
        kv_cache: KVCacheManager,
        batch: ScheduledBatch,
    ) -> list[Request]:
        """Select the iteration's decode set, growing KV allocations first.

        The decode set is the running decodes, capped at the batch-size
        limit.  In preemption mode each must first grow its allocation by
        one token.  One growth pass adds up the blocks they need: when the
        sum fits ``free_blocks`` they grow, in batch order, and run
        (:meth:`KVCacheManager.grow_all`).  Otherwise
        :meth:`_grow_preempting` grows them one at a time, preempting the
        lowest-priority running request (the latest admitted, vLLM's victim
        order) whenever the cache cannot supply a decode's blocks.

        **Pinned preemption/readmission ordering** (asserted by both
        schedulers, pinned by the ``test_sched_*_preempt_ordering`` tests in
        ``tests/test_stateful_corpus.py``):

        1. Preempted requests re-enter the waiting queue at the *front*, in
           their original admission order, ahead of every arrival already
           waiting — including arrivals with the same ready time as the
           preemption pass.  Recompute priority beats fresh arrivals.
        2. A request preempted in a scheduling pass is never re-admitted in
           that same pass.  (Freeing and re-reserving the same request is
           block-for-block symmetric, and the growth that triggered the
           preemption consumes at least one of the freed blocks, so this is
           unreachable today — the assertion keeps future allocator changes
           from silently re-introducing same-pass preempt/readmit churn.)
        """
        decoding = self.decoding_requests(running)
        decodes = decoding[: self.limits.max_batch_size]
        if not self.preemption or kv_cache.grow_all(decodes):
            return decodes
        return self._grow_preempting(decoding, waiting, running, kv_cache, batch)

    def _grow_preempting(
        self,
        decoding: list[Request],
        waiting: list[Request],
        running: list[Request],
        kv_cache: KVCacheManager,
        batch: ScheduledBatch,
    ) -> list[Request]:
        """Grow ``decoding`` one decode at a time, preempting victims from
        the tail of ``running`` until each decode's blocks fit; return the
        decodes that run (at most ``max_batch_size``)."""
        scheduled: list[Request] = []
        scheduled_ids: set[int] = set()
        preempted_ids: set[int] = set()
        victims = list(running)  # admission order; lowest priority at the tail
        for request in decoding:
            if request.state is not RequestState.DECODING:
                continue  # preempted as a victim earlier in this pass
            if len(scheduled) >= self.limits.max_batch_size:
                break
            target = request.context_tokens + 1
            needed = kv_cache.blocks_needed(request.request_id, target)
            while needed > kv_cache.free_blocks:
                victim = None
                while victims:
                    candidate = victims.pop()
                    if (
                        candidate is not request
                        and candidate.request_id not in preempted_ids
                        and candidate.request_id not in scheduled_ids
                    ):
                        victim = candidate
                        break
                if victim is None:
                    break
                self._preempt(victim, kv_cache, batch, preempted_ids)
            if needed <= kv_cache.free_blocks:
                if needed:
                    kv_cache.allocate(request.request_id, target)
                scheduled.append(request)
                scheduled_ids.add(request.request_id)
            else:
                # Even an otherwise-empty cache cannot grow this request: its
                # final context simply does not fit.  Anything else would
                # preempt/readmit it forever.
                others = kv_cache.used_blocks - kv_cache.blocks_of(request.request_id)
                if others <= 0:
                    raise RuntimeError(
                        f"request {request.request_id} cannot grow to "
                        f"{target} tokens even with the KV cache to itself "
                        f"(capacity {kv_cache.config.capacity_tokens} tokens)"
                    )
                self._preempt(request, kv_cache, batch, preempted_ids)
        if preempted_ids:
            # Re-queue at the front, preserving admission order among the
            # preempted, so recompute priority beats fresh arrivals.
            waiting[:0] = [r for r in running if r.request_id in preempted_ids]
            running[:] = [r for r in running if r.request_id not in preempted_ids]
        return scheduled

    @staticmethod
    def check_readmission_ordering(batch: ScheduledBatch, admitted_ids: set[int]) -> None:
        """Assert rule 2 of the pinned ordering: no same-pass readmission.

        ``admitted_ids`` are the requests the calling scheduler admitted from
        the waiting queue during this pass; none of them may also appear in
        the pass's preempted set.
        """
        if not batch.preempted or not admitted_ids:
            return
        same_pass = {request.request_id for request, _ in batch.preempted} & admitted_ids
        assert not same_pass, (
            f"requests {sorted(same_pass)} were preempted and re-admitted in "
            "the same scheduling pass, violating the pinned "
            "preemption/readmission ordering (see Scheduler.prepare_decodes)"
        )

    @staticmethod
    def _preempt(
        victim: Request,
        kv_cache: KVCacheManager,
        batch: ScheduledBatch,
        preempted_ids: set[int],
    ) -> None:
        kv_cache.free(victim.request_id)
        lost = victim.preempt()
        batch.preempted.append((victim, lost))
        preempted_ids.add(victim.request_id)

    # ------------------------------------------------------------- schedule

    @abstractmethod
    def schedule(
        self,
        waiting: list[Request],
        running: list[Request],
        kv_cache: KVCacheManager,
        now: float,
    ) -> ScheduledBatch:
        """Form the next iteration's batch.

        Implementations may move requests from ``waiting`` to ``running``
        (admission) and must respect ``self.limits`` and the KV cache.
        """

    # --------------------------------------------------------------- helpers

    @staticmethod
    def decoding_requests(running: list[Request]) -> list[Request]:
        return [request for request in running if request.state == RequestState.DECODING]

    @staticmethod
    def prefilling_requests(running: list[Request]) -> list[Request]:
        return [
            request
            for request in running
            if request.state in (RequestState.QUEUED, RequestState.PREFILLING)
            and request.remaining_prefill_tokens > 0
        ]
