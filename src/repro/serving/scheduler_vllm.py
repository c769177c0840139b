"""The original vLLM scheduler: prefill-prioritising, un-chunked prompts.

Whenever any request is waiting (and fits in the KV cache), the scheduler runs
a prefill-only iteration over one or more whole prompts, pausing every ongoing
decode.  Otherwise it runs a decode-only iteration over all running requests.
This maximises decode batch size and gives low TTFT, but pausing decodes for
multi-second prompt prefills creates the generation stalls (high tail TBT) the
paper's Figure 2(a) and Tables 5–6 show.
"""

from __future__ import annotations

from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request
from repro.serving.scheduler import (
    BLOCKED_ADMISSION_CAP,
    BLOCKED_BATCH_SIZE,
    BLOCKED_BUDGET,
    BLOCKED_KV,
    Scheduler,
    SchedulerLimits,
)
from repro.utils.validation import check_positive


class VLLMScheduler(Scheduler):
    """Prefill-prioritising scheduler (vLLM original, Figure 2(a))."""

    name = "vLLM"

    def __init__(
        self,
        max_prefill_tokens_per_step: int = 16384,
        limits: SchedulerLimits | None = None,
        preemption: bool = False,
    ) -> None:
        super().__init__(limits, preemption=preemption)
        self.max_prefill_tokens_per_step = check_positive(
            "max_prefill_tokens_per_step", max_prefill_tokens_per_step
        )

    def schedule(
        self,
        waiting: list[Request],
        running: list[Request],
        kv_cache: KVCacheManager,
        now: float,
    ) -> ScheduledBatch:
        batch = ScheduledBatch()

        # Prefills first: admit as many whole prompts as fit the token budget,
        # the KV cache and the batch-size limit.
        blocked = None
        if waiting:
            admitted: list[Request] = []
            budget = self.max_prefill_tokens_per_step
            for request in waiting:
                if len(admitted) >= self.limits.max_admissions_per_step:
                    blocked = BLOCKED_ADMISSION_CAP
                    break
                if len(running) + len(admitted) >= self.limits.max_batch_size:
                    blocked = BLOCKED_BATCH_SIZE
                    break
                # Budget the tokens that will actually execute: a prefix-cache
                # hit shrinks the prompt's compute (lookup is non-mutating and
                # returns 0 with caching off).
                prompt = request.prefill_tokens - kv_cache.lookup_prefix(request)[1]
                if admitted and prompt > budget:
                    blocked = BLOCKED_BUDGET
                    break
                if not self.can_admit(request, kv_cache):
                    blocked = BLOCKED_KV
                    break
                self.admit(request, kv_cache, batch)
                admitted.append(request)
                budget -= prompt
                if budget <= 0:
                    blocked = BLOCKED_BUDGET
                    break
            if admitted:
                # Admission consumed a prefix of the waiting queue: one splice.
                del waiting[: len(admitted)]
                for request in admitted:
                    running.append(request)
                    # The whole *remaining* prompt: identical to the full
                    # prompt unless a prefix-cache hit already covered part.
                    batch.prefill_items.append((request, request.remaining_prefill_tokens))
                if waiting:
                    batch.admission_blocked = blocked
                # Ongoing decodes are paused for this iteration (prefill
                # priority); no preemption can have happened, so the pinned
                # no-same-pass-readmission ordering holds structurally here.
                self.check_readmission_ordering(
                    batch, {request.request_id for request in admitted}
                )
                return batch

        # No prefill work could be scheduled: run a decode-only iteration
        # (under preemption, after every decode's KV growth is secured).
        # Any request preempted here waits at the queue front until a later
        # pass — this pass admits nothing, satisfying the pinned ordering.
        decoding = self.prepare_decodes(waiting, running, kv_cache, batch)
        batch.decode_requests.extend(decoding)
        if waiting:
            batch.admission_blocked = blocked
        return batch
