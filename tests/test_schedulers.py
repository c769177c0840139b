"""Tests for the vLLM and Sarathi schedulers."""

from __future__ import annotations

import pytest

from repro.serving.batch import ScheduledBatch
from repro.serving.kv_cache import KVCacheConfig, KVCacheManager
from repro.serving.request import Request
from repro.serving.scheduler import Scheduler, SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify.reference_scheduler import reference_prepare_decodes


def _kv(capacity=200_000):
    return KVCacheManager(KVCacheConfig(capacity_tokens=capacity))


def _requests(n, prefill=4096, decode=128):
    return [
        Request(request_id=i, prefill_tokens=prefill, decode_tokens=decode) for i in range(n)
    ]


class TestVLLMScheduler:
    def test_prefill_prioritised_over_decodes(self):
        scheduler = VLLMScheduler()
        kv = _kv()
        running = _requests(2)
        for request in running:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        waiting = [Request(request_id=10, prefill_tokens=2048, decode_tokens=64)]
        batch = scheduler.schedule(waiting, running, kv, now=1.0)
        # The new prompt runs alone; ongoing decodes are paused (the stall source).
        assert batch.prefill_items and not batch.decode_requests
        assert batch.prefill_items[0][1] == 2048
        assert waiting == []

    def test_whole_prompt_scheduled_unchunked(self):
        scheduler = VLLMScheduler()
        kv = _kv()
        waiting = [Request(request_id=0, prefill_tokens=30_000, decode_tokens=10)]
        batch = scheduler.schedule(waiting, [], kv, now=0.0)
        assert batch.prefill_items[0][1] == 30_000

    def test_decode_batch_when_no_waiting(self):
        scheduler = VLLMScheduler()
        kv = _kv()
        running = _requests(3)
        for request in running:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        batch = scheduler.schedule([], running, kv, now=1.0)
        assert len(batch.decode_requests) == 3
        assert not batch.prefill_items

    def test_admission_respects_memory(self):
        scheduler = VLLMScheduler()
        kv = _kv(capacity=5000)
        waiting = _requests(3, prefill=4000, decode=100)
        batch = scheduler.schedule(waiting, [], kv, now=0.0)
        # Only the first request fits.
        assert len(batch.prefill_items) == 1
        assert len(waiting) == 2

    def test_multiple_prompts_share_token_budget(self):
        scheduler = VLLMScheduler(max_prefill_tokens_per_step=8192)
        kv = _kv()
        waiting = _requests(4, prefill=4096, decode=16)
        batch = scheduler.schedule(waiting, [], kv, now=0.0)
        assert len(batch.prefill_items) == 2


class TestSarathiScheduler:
    def test_hybrid_batch_formation(self):
        scheduler = SarathiScheduler(chunk_size=512)
        kv = _kv()
        decoding = _requests(4, prefill=1024, decode=64)
        for request in decoding:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        waiting = [Request(request_id=99, prefill_tokens=4096, decode_tokens=128)]
        batch = scheduler.schedule(waiting, decoding, kv, now=1.0)
        assert len(batch.decode_requests) == 4
        assert len(batch.prefill_items) == 1
        # The chunk respects the token budget after decodes take their share.
        assert batch.prefill_items[0][1] == 512 - 4
        assert batch.total_tokens == 512
        assert batch.is_hybrid

    def test_decodes_never_paused(self):
        scheduler = SarathiScheduler(chunk_size=256)
        kv = _kv()
        decoding = _requests(8)
        for request in decoding:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        waiting = [Request(request_id=50, prefill_tokens=8192, decode_tokens=10)]
        batch = scheduler.schedule(waiting, decoding, kv, now=0.0)
        assert len(batch.decode_requests) == 8

    def test_chunking_across_iterations(self):
        scheduler = SarathiScheduler(chunk_size=1024)
        kv = _kv()
        waiting = [Request(request_id=0, prefill_tokens=2500, decode_tokens=8)]
        running: list[Request] = []
        chunks = []
        for step in range(3):
            batch = scheduler.schedule(waiting, running, kv, now=float(step))
            assert len(batch.prefill_items) == 1
            request, chunk = batch.prefill_items[0]
            chunks.append(chunk)
            request.advance_prefill(chunk, now=float(step) + 0.5)
        assert chunks == [1024, 1024, 452]

    def test_budget_exhausted_by_decodes(self):
        scheduler = SarathiScheduler(chunk_size=8)
        kv = _kv()
        decoding = _requests(8)
        for request in decoding:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        waiting = [Request(request_id=30, prefill_tokens=100, decode_tokens=5)]
        batch = scheduler.schedule(waiting, decoding, kv, now=0.0)
        assert not batch.prefill_items

    def test_admission_respects_memory(self):
        scheduler = SarathiScheduler(chunk_size=1024)
        kv = _kv(capacity=5000)
        waiting = _requests(2, prefill=4000, decode=500)
        batch = scheduler.schedule(waiting, [], kv, now=0.0)
        assert len(batch.prefill_items) == 1
        assert len(waiting) == 1

    def test_max_batch_size_limit(self):
        scheduler = SarathiScheduler(chunk_size=1024, limits=SchedulerLimits(max_batch_size=4))
        kv = _kv()
        decoding = _requests(10)
        for request in decoding:
            kv.allocate(request.request_id, request.total_tokens)
            request.advance_prefill(request.prefill_tokens, now=0.0)
        batch = scheduler.schedule([], decoding, kv, now=0.0)
        assert len(batch.decode_requests) == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SarathiScheduler(chunk_size=0)
        with pytest.raises(ValueError):
            VLLMScheduler(max_prefill_tokens_per_step=0)


class TestPreemptionReadmissionOrdering:
    """The pinned ordering contract (Scheduler.prepare_decodes docstring).

    Rule 1: recompute victims re-enter the waiting queue at the FRONT, in
    admission order, ahead of same-timestamp arrivals already waiting.
    Rule 2: no request is preempted and re-admitted within one pass (the
    schedulers assert this themselves via check_readmission_ordering; the
    corpus entries sched_*_preempt_ordering.json replay full traces).
    """

    @pytest.mark.parametrize("scheduler_cls", [SarathiScheduler, VLLMScheduler])
    def test_victim_splices_ahead_of_waiting_arrival(self, scheduler_cls):
        if scheduler_cls is SarathiScheduler:
            scheduler = SarathiScheduler(chunk_size=1024, preemption=True)
        else:
            scheduler = VLLMScheduler(preemption=True)
        kv = _kv(capacity=160)
        # Two running decodes filling the cache; one blocked arrival waiting.
        running = _requests(2, prefill=64, decode=20)
        for request in running:
            kv.allocate(request.request_id, 80)
            request.advance_prefill(request.prefill_tokens, now=0.0)
            while request.decode_done_tokens < 16:
                request.advance_decode(now=0.0)
        waiting = [Request(request_id=9, prefill_tokens=64, decode_tokens=4)]
        batch = scheduler.schedule(waiting, running, kv, now=0.0)
        # Decode growth can't fit: the last-admitted request is preempted and
        # must wait AHEAD of request 9 even though 9 was already queued.
        assert [request.request_id for request, _ in batch.preempted] == [1]
        assert [request.request_id for request in waiting] == [1, 9]
        # Rule 2: the preempting pass admitted nothing.
        assert not batch.prefill_items

    def test_check_readmission_ordering_rejects_overlap(self):
        from repro.serving.batch import ScheduledBatch
        from repro.serving.scheduler import Scheduler

        batch = ScheduledBatch()
        victim = Request(request_id=3, prefill_tokens=8, decode_tokens=2)
        batch.preempted.append((victim, 1))
        with pytest.raises(AssertionError):
            Scheduler.check_readmission_ordering(batch, {3})
        # Disjoint sets pass.
        Scheduler.check_readmission_ordering(batch, {4})


class TestPrepareDecodesMatchesReference:
    """``Scheduler.prepare_decodes`` (one growth pass, then the per-decode
    loop when the growth does not fit) must do exactly what the frozen
    per-decode reference does: the same decode set, queues, preemptions and
    KV calls, in the same order."""

    #: name -> (prompt lengths, capacity in blocks, max_batch_size).  A
    #: decode's context is its prompt + 1, so a prompt of 16k - 1 tokens
    #: sits on a block boundary and needs a block for its next token.
    CASES = {
        "fits": ([47, 30, 63, 20, 95], 64, 256),
        "over_the_batch_limit": ([47, 63, 79, 95, 31, 15], 64, 4),
        "preempts": ([63, 47, 60, 31], 13, 256),
        "preempts_over_the_batch_limit": ([63, 47, 31, 15, 79], 15, 3),
    }

    @staticmethod
    def _run(prepare, prompts, capacity_blocks, max_batch_size):
        scheduler = SarathiScheduler(
            chunk_size=1024,
            limits=SchedulerLimits(max_batch_size=max_batch_size),
            preemption=True,
        )
        kv = KVCacheManager(KVCacheConfig(capacity_tokens=capacity_blocks * 16))
        running = []
        for request_id, prompt in enumerate(prompts):
            request = Request(request_id=request_id, prefill_tokens=prompt, decode_tokens=64)
            kv.allocate(request_id, prompt + 1)
            request.advance_prefill(prompt, now=0.0)
            running.append(request)
        calls = []
        kv.observer = lambda kind, request_id, blocks, **extra: calls.append(
            (kind, request_id, blocks, extra)
        )
        waiting = [Request(request_id=99, prefill_tokens=16, decode_tokens=4)]
        batch = ScheduledBatch()
        decodes = prepare(scheduler, waiting, running, kv, batch)
        return (
            [request.request_id for request in decodes],
            [request.request_id for request in waiting],
            [request.request_id for request in running],
            [(request.request_id, lost) for request, lost in batch.preempted],
            calls,
            [kv.blocks_of(request_id) for request_id in range(len(prompts))],
        )

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_frozen_reference(self, case):
        prompts, capacity_blocks, max_batch_size = self.CASES[case]
        got = self._run(Scheduler.prepare_decodes, prompts, capacity_blocks, max_batch_size)
        want = self._run(reference_prepare_decodes, prompts, capacity_blocks, max_batch_size)
        assert got == want
        decodes, _, _, preempted, calls, _ = got
        assert len(decodes) == min(len(prompts) - len(preempted), max_batch_size)
        assert bool(preempted) == case.startswith("preempts")
        assert any(kind == "kv_alloc" for kind, *_ in calls)
