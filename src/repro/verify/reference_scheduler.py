"""Frozen reference copies of the scheduler's decode growth and KV admission check.

:func:`reference_prepare_decodes` is ``Scheduler.prepare_decodes`` and
:meth:`ReferenceKVCacheManager.can_admit_request` is
``KVCacheManager.can_admit_request`` as they stood before the growth pass
and the riders memo: under preemption every decode grows on its own,
re-reading ``free_blocks`` and preempting whenever its blocks do not fit,
and every admission check walks the request's prefix chain.  They are
duplicates, not imports (like
:class:`~repro.verify.reference_engine.ReferenceEngine`), so
:class:`~repro.verify.oracles.ReschedulingRuntime`, which runs on them, is
an independent reference for the fast paths instead of inheriting a bug
from them.  :func:`use_references` installs both on a runtime.
"""

from __future__ import annotations

import copy
import math
from types import MethodType
from typing import TYPE_CHECKING

from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheManager
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import Scheduler

if TYPE_CHECKING:
    from repro.serving.replica import ReplicaRuntime


class ReferenceKVCacheManager(KVCacheManager):
    """A ``KVCacheManager`` whose admission check walks the chain every call."""

    def can_admit_request(self, request: Request, reserve_tokens: int) -> bool:
        target_blocks = math.ceil(reserve_tokens / self.config.block_size)
        chain = self._request_chain(request)[:target_blocks]
        riders = sum(1 for block_hash in chain if block_hash in self._shared_refcount)
        return target_blocks - riders <= self.free_blocks


def reference_prepare_decodes(
    scheduler: Scheduler,
    waiting: list[Request],
    running: list[Request],
    kv_cache: KVCacheManager,
    batch: ScheduledBatch,
) -> list[Request]:
    """``scheduler``'s decode set, each decode growing one token in turn.

    Under preemption a decode whose blocks do not fit preempts the running
    requests from the tail (the latest admitted first) until they do, or
    is preempted itself; the preempted re-enter ``waiting`` at the front.
    """
    decoding = [request for request in running if request.state == RequestState.DECODING]
    if not scheduler.preemption:
        return decoding[: scheduler.limits.max_batch_size]

    def preempt(victim: Request) -> None:
        kv_cache.free(victim.request_id)
        lost = victim.preempt()
        batch.preempted.append((victim, lost))
        preempted_ids.add(victim.request_id)

    scheduled: list[Request] = []
    scheduled_ids: set[int] = set()
    preempted_ids: set[int] = set()
    victims = list(running)  # admission order; lowest priority at the tail
    for request in decoding:
        if request.state is not RequestState.DECODING:
            continue  # preempted as a victim earlier in this pass
        if len(scheduled) >= scheduler.limits.max_batch_size:
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
            preempt(victim)
        if needed <= kv_cache.free_blocks:
            if needed:
                kv_cache.allocate(request.request_id, target)
            scheduled.append(request)
            scheduled_ids.add(request.request_id)
        else:
            others = kv_cache.used_blocks - kv_cache.blocks_of(request.request_id)
            if others <= 0:
                raise RuntimeError(
                    f"request {request.request_id} cannot grow to "
                    f"{target} tokens even with the KV cache to itself "
                    f"(capacity {kv_cache.config.capacity_tokens} tokens)"
                )
            preempt(request)
    if preempted_ids:
        waiting[:0] = [r for r in running if r.request_id in preempted_ids]
        running[:] = [r for r in running if r.request_id not in preempted_ids]
    return scheduled


def use_references(runtime: ReplicaRuntime) -> None:
    """Run ``runtime``'s scheduling on the frozen copies.

    Its KV cache becomes a :class:`ReferenceKVCacheManager`, and its
    scheduler is replaced by a copy whose ``prepare_decodes`` is
    :func:`reference_prepare_decodes` (the caller's scheduler object is
    left as it was).  Call it before the runtime's first step.
    """
    runtime.kv_cache.__class__ = ReferenceKVCacheManager
    scheduler = copy.copy(runtime.scheduler)
    setattr(scheduler, "prepare_decodes", MethodType(reference_prepare_decodes, scheduler))
    runtime.scheduler = scheduler
