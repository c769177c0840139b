"""KV memory-pressure subsystem: prefix caching, preemption, affinity routing.

Covers the satellite edge cases called out for this subsystem — eviction
during allocation, preempt-then-readmit, zero-capacity caches, the
double-free counter — plus the allocator differential oracle (the manager
with caching off against ``ReferenceAllocator``), the shared-prefix
workload tagging and the prefix-affinity router, and recorded end-to-end
runs through the full invariant checker.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.router import PrefixAffinityRouter, ReplicaLoad, get_router
from repro.models.config import paper_deployment
from repro.serving.kv_cache import (
    KVCacheConfig,
    KVCacheManager,
    prefix_block_hashes,
)
from repro.serving.request import Request, RequestState
from repro.serving.scheduler import SchedulerLimits
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.scheduler_vllm import VLLMScheduler
from repro.verify.events import KV_ALLOC, KV_FREE, KV_SHARED_ALLOC, PREEMPTED, EventRecorder
from repro.verify.invariants import (
    check_event_log,
    check_kv_drain_balance,
)
from repro.verify.oracles import kv_allocator_equivalence, kv_allocator_operations
from repro.workloads import build_scenario
from repro.workloads.shapes import get_shape


def caching_manager(capacity_tokens=1024, block_size=16) -> KVCacheManager:
    return KVCacheManager(
        KVCacheConfig(
            capacity_tokens=capacity_tokens,
            block_size=block_size,
            enable_prefix_caching=True,
        )
    )


def prefixed(request_id, prefill=256, decode=16, prefix_id="sys", prefix_tokens=128):
    return Request(
        request_id=request_id,
        prefill_tokens=prefill,
        decode_tokens=decode,
        prefix_id=prefix_id,
        prefix_tokens=prefix_tokens,
    )


class TestPrefixChain:
    def test_chain_is_deterministic_and_positional(self):
        chain = prefix_block_hashes("sys", 4)
        assert chain == prefix_block_hashes("sys", 4)
        assert len(set(chain)) == 4
        assert prefix_block_hashes("other", 4)[0] != chain[0]

    def test_chain_commits_to_prior_blocks(self):
        # Block i of two different prefixes never collides, even at the same
        # position, because each hash chains the previous one.
        a = prefix_block_hashes("sys-a", 8)
        b = prefix_block_hashes("sys-b", 8)
        assert not set(a) & set(b)


class TestPrefixSharing:
    def test_second_request_shares_prefix_blocks(self):
        manager = caching_manager()
        cached = manager.admit_request(prefixed(1), 256 + 16)
        assert cached == 0  # cold cache
        assert manager.stats.prefix_block_misses == 128 // 16
        cached = manager.admit_request(prefixed(2), 256 + 16)
        assert cached == 128  # all 8 prefix blocks hit
        assert manager.stats.prefix_block_hits == 8
        # 8 shared + 2x (17 - 8) private blocks pinned.
        assert manager.used_blocks == 8 + 2 * 9

    def test_free_after_last_release_moves_blocks_to_lru(self):
        manager = caching_manager()
        manager.admit_request(prefixed(1), 272)
        manager.admit_request(prefixed(2), 272)
        manager.free(1)
        assert manager.cached_blocks == 0  # request 2 still references them
        manager.free(2)
        assert manager.cached_blocks == 8  # last release: blocks become evictable
        assert manager.used_blocks == 0
        # A later admission revives them from the LRU (still hits).
        cached = manager.admit_request(prefixed(3), 272)
        assert cached == 128
        assert manager.stats.evictions == 0

    def test_cache_hit_never_covers_whole_prompt(self):
        manager = caching_manager()
        manager.admit_request(prefixed(1, prefill=128, prefix_tokens=128), 144)
        cached = manager.admit_request(prefixed(2, prefill=128, prefix_tokens=128), 144)
        assert cached == 127  # one token always left to compute

    def test_hit_accounting_stops_at_first_miss(self):
        manager = caching_manager(capacity_tokens=4096)
        manager.admit_request(prefixed(1, prefill=512, prefix_tokens=64), 528)
        # Same prefix id but a longer declared prefix: blocks 0-3 hit, 4+ miss.
        request = prefixed(2, prefill=512, prefix_tokens=128)
        cached = manager.admit_request(request, 528)
        assert cached == 64

    def test_unprefixed_requests_never_share(self):
        manager = caching_manager()
        manager.admit_request(prefixed(1, prefix_id=None, prefix_tokens=0), 272)
        cached = manager.admit_request(prefixed(2, prefix_id=None, prefix_tokens=0), 272)
        assert cached == 0
        assert manager.stats.prefix_lookups == 0


class TestEvictionEdgeCases:
    def test_eviction_during_allocation(self):
        # 16 blocks total.  Fill 8 with a cached (unreferenced) prefix, then
        # admit a request needing 12 fresh blocks: 4 LRU blocks must be
        # evicted mid-allocation, and the admission must succeed.
        manager = caching_manager(capacity_tokens=256, block_size=16)
        manager.admit_request(prefixed(1, prefill=128, prefix_tokens=128), 128)
        manager.free(1)
        assert manager.cached_blocks == 8
        manager.admit_request(
            prefixed(2, prefill=180, prefix_id="other", prefix_tokens=0), 192
        )
        assert manager.stats.evictions == 4
        assert manager.used_blocks == 12
        assert manager.cached_blocks == 4

    def test_own_chain_blocks_survive_allocation_eviction(self):
        # A re-admission both revives its own cached chain and needs fresh
        # blocks; the revival must be pinned before eviction runs so the
        # allocator never evicts blocks it is about to reuse.
        manager = caching_manager(capacity_tokens=256, block_size=16)
        manager.admit_request(prefixed(1, prefill=128, prefix_tokens=128), 128)
        manager.free(1)
        cached = manager.admit_request(prefixed(2, prefill=240, prefix_tokens=128), 256)
        assert cached == 128
        assert manager.stats.evictions == 0

    def test_lru_eviction_order_is_least_recently_released(self):
        manager = caching_manager(capacity_tokens=256, block_size=16)
        manager.admit_request(prefixed(1, prefill=64, prefix_id="a", prefix_tokens=64), 64)
        manager.admit_request(prefixed(2, prefill=64, prefix_id="b", prefix_tokens=64), 64)
        manager.free(1)  # "a" released first -> evicted first
        manager.free(2)
        # 10 private blocks against 8 free + 8 cached: 2 evictions, from the
        # least-recently-released end ("a"'s leading blocks).
        manager.admit_request(
            prefixed(3, prefill=140, prefix_id="c", prefix_tokens=0), 160
        )
        assert manager.stats.evictions == 2
        # "b" blocks were the survivors: re-admitting "b" still fully hits...
        assert manager.admit_request(
            prefixed(4, prefill=64, prefix_id="b", prefix_tokens=64), 64
        ) == 63
        # ...while "a" lost its leading blocks, so its contiguous reuse is gone.
        assert manager.lookup_prefix(
            prefixed(5, prefill=64, prefix_id="a", prefix_tokens=64)
        )[1] == 0

    def test_exhausted_with_nothing_evictable_raises(self):
        manager = caching_manager(capacity_tokens=64, block_size=16)
        manager.admit_request(prefixed(1, prefill=64, prefix_tokens=64), 64)
        with pytest.raises(MemoryError):
            manager.admit_request(prefixed(2, prefix_id="other"), 64)


class TestZeroCapacity:
    def test_sub_block_capacity_rejected_in_caching_mode(self):
        # Would floor to zero blocks; rejected at config construction so the
        # failure names the cause instead of surfacing as admission stalls.
        with pytest.raises(ValueError, match="smaller than one block"):
            KVCacheConfig(capacity_tokens=8, block_size=16, enable_prefix_caching=True)

    def test_sub_block_capacity_rejected_in_flat_mode(self):
        with pytest.raises(ValueError, match="smaller than one block"):
            KVCacheConfig(capacity_tokens=8, block_size=16)


class TestDoubleFreeCounter:
    def test_noop_free_is_counted(self):
        manager = caching_manager()
        manager.free(42)
        assert manager.stats.double_free_count == 1
        violations = check_kv_drain_balance([manager])
        assert any("double-free" in v.message for v in violations)

    def test_flat_mode_counts_too(self):
        manager = KVCacheManager(KVCacheConfig(capacity_tokens=1024))
        manager.allocate(1, 64)
        manager.free(1)
        manager.free(1)
        assert manager.stats.double_free_count == 1

    def test_clean_run_has_zero(self):
        manager = caching_manager()
        manager.admit_request(prefixed(1), 272)
        manager.free(1)
        assert check_kv_drain_balance([manager]) == []


class TestSeedAllocatorOracle:
    """With caching off the manager keeps the seed allocator's semantics,
    held against ``ReferenceAllocator(caching=False)``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_operation_sequences(self, seed):
        operations = kv_allocator_operations(seed)
        assert {op for op, _, _ in operations} == {"admit", "allocate", "free"}
        assert kv_allocator_equivalence(operations) == []

    @settings(max_examples=30, deadline=None)
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(("admit", "allocate", "free")),
                st.integers(min_value=0, max_value=6),
                st.integers(min_value=1, max_value=400),
            ),
            max_size=60,
        )
    )
    def test_property_equivalence(self, operations):
        assert kv_allocator_equivalence(operations) == []


class TestPreemption:
    def _pressure_trace(self):
        # Five concurrent decode-heavy requests against a cache that fits
        # roughly two full contexts: growth must preempt.
        return [
            Request(request_id=i, prefill_tokens=96, decode_tokens=160, arrival_time=0.0)
            for i in range(5)
        ]

    @pytest.fixture()
    def run(self, single_replica):
        def run(scheduler, capacity=512, recorder=None):
            simulator = single_replica(
                paper_deployment("llama-3-8b"),
                scheduler=scheduler,
                kv_config=KVCacheConfig(capacity_tokens=capacity, block_size=16),
                recorder=recorder,
            )
            return simulator, simulator.run(self._pressure_trace())

        return run

    def test_preempt_then_readmit_completes(self, run):
        recorder = EventRecorder()
        simulator, result = run(
            SarathiScheduler(chunk_size=256, preemption=True), recorder=recorder
        )
        assert all(r.is_finished for r in result.requests)
        assert result.metrics.fleet.num_preemptions > 0
        assert check_event_log(recorder) == []
        assert check_kv_drain_balance(simulator.replicas) == []
        preempted = recorder.of_kind(PREEMPTED)
        assert preempted and all(e.data["lost_tokens"] >= 0 for e in preempted)

    def test_victims_are_lowest_priority(self, run):
        recorder = EventRecorder()
        _, result = run(SarathiScheduler(chunk_size=256, preemption=True), recorder=recorder)
        preempted_ids = {e.request_id for e in recorder.of_kind(PREEMPTED)}
        # Request 0 (earliest admitted = highest priority) is never a victim.
        assert 0 not in preempted_ids

    def test_vllm_preemption_completes(self, run):
        recorder = EventRecorder()
        simulator, result = run(
            VLLMScheduler(limits=SchedulerLimits(max_batch_size=8), preemption=True),
            recorder=recorder,
        )
        assert all(r.is_finished for r in result.requests)
        assert check_event_log(recorder) == []

    def test_seed_admission_stalls_where_preemption_serves(self, run):
        # Full-reservation admission serializes this trace (requests admit
        # one at a time); preemption-mode admission books only the prompt and
        # overlaps them, cutting TTFT tails.
        _, stalled = run(SarathiScheduler(chunk_size=256), capacity=512)
        _, served = run(SarathiScheduler(chunk_size=256, preemption=True), capacity=512)
        assert served.metrics.fleet.ttft_p99 < stalled.metrics.fleet.ttft_p99
        assert all(r.is_finished for r in served.requests)

    def test_infeasible_request_raises_clearly(self, single_replica):
        trace = [Request(request_id=0, prefill_tokens=64, decode_tokens=512)]
        simulator = single_replica(
            paper_deployment("llama-3-8b"),
            scheduler=SarathiScheduler(chunk_size=256, preemption=True),
            kv_config=KVCacheConfig(capacity_tokens=256, block_size=16),
        )
        with pytest.raises(RuntimeError, match="cannot grow"):
            simulator.run(trace)

    def test_preempt_resets_request_state(self):
        request = Request(request_id=1, prefill_tokens=64, decode_tokens=8)
        request.advance_prefill(64, now=1.0)
        request.advance_decode(now=1.1)
        lost = request.preempt()
        assert lost == 64
        assert request.state is RequestState.QUEUED
        assert request.preemption_count == 1
        assert request.decode_done_tokens == 2  # generated tokens retained
        # Recompute: prefill re-runs, no token re-emitted at completion.
        request.advance_prefill(64, now=2.0)
        assert request.state is RequestState.DECODING
        assert request.decode_done_tokens == 2
        assert request.first_token_time == 1.0


class TestCachingWithPreemptionEndToEnd:
    def test_recorded_run_passes_all_invariants(self, single_replica):
        recorder = EventRecorder()
        simulator = single_replica(
            paper_deployment("llama-3-8b"),
            scheduler=SarathiScheduler(chunk_size=512, preemption=True),
            kv_config=KVCacheConfig(
                capacity_tokens=8192, block_size=16, enable_prefix_caching=True
            ),
            recorder=recorder,
        )
        result = simulator.run(build_scenario("shared-prefix-chat", num_requests=24, seed=3))
        assert all(r.is_finished for r in result.requests)
        assert check_event_log(recorder) == []
        assert check_kv_drain_balance(simulator.replicas) == []
        shared = recorder.of_kind(KV_SHARED_ALLOC)
        assert shared and any(e.data["cached_tokens"] > 0 for e in shared)
        assert result.kv_stats.hit_rate > 0.0

    def test_caching_off_run_shares_nothing(self, single_replica):
        """Tagged requests with caching off: every block private, none cached."""
        recorder = EventRecorder()
        simulator = single_replica(
            paper_deployment("llama-3-8b"),
            scheduler=SarathiScheduler(chunk_size=512, preemption=True),
            kv_config=KVCacheConfig(capacity_tokens=8192, block_size=16),
            recorder=recorder,
        )
        result = simulator.run(build_scenario("shared-prefix-chat", num_requests=24, seed=3))
        assert all(r.prefix_id is not None for r in result.requests)
        assert check_event_log(recorder) == []
        admissions = recorder.of_kind(KV_SHARED_ALLOC)
        growths = recorder.of_kind(KV_ALLOC)
        assert len(admissions) >= len(result.requests) and growths
        for event in admissions:
            shared = ("shared_new", "shared_revived", "shared_ref_hits", "cached_tokens")
            assert [event.data[key] for key in shared] == [0, 0, 0, 0]
            assert event.data["evictions"] == 0
            assert event.data["private_blocks"] == event.data["blocks"]
        assert all(event.data["evictions"] == 0 for event in growths)
        for event in recorder.of_kind(KV_FREE):
            assert (event.data["shared_released"], event.data["to_cache"]) == (0, 0)
        kv_events = admissions + growths + recorder.of_kind(KV_FREE)
        assert all(event.data["cached_blocks"] == 0 for event in kv_events)
        assert result.kv_stats.prefix_lookups == 0


class TestCachingOffIsTheCacheWithoutChains:
    """Caching off on tagged requests == caching on with the tags removed."""

    @staticmethod
    def _operations(seed, count=160):
        rng = np.random.default_rng(seed)
        operations = []
        for _ in range(count):
            request_id = int(rng.integers(0, 8))
            op = ("admit", "admit", "grow", "free")[int(rng.integers(0, 4))]
            prefill = int(rng.integers(1, 200))
            prefix_tokens = int(rng.integers(0, prefill + 1))
            prefix_id = ("a", "b")[int(rng.integers(0, 2))]
            operations.append((op, request_id, prefill, prefix_id, prefix_tokens))
        return operations

    @staticmethod
    def _state(manager, request_ids):
        return (
            manager.used_blocks,
            manager.cached_blocks,
            manager.free_blocks,
            [(manager.holds(rid), manager.blocks_of(rid)) for rid in request_ids],
            dict(manager._shared_refcount),
            list(manager._lru),
            manager.stats.counter_totals(),
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_tagged_off_matches_untagged_on(self, seed):
        off = KVCacheManager(KVCacheConfig(capacity_tokens=512, block_size=16))
        on = caching_manager(capacity_tokens=512)
        emitted = {"off": [], "on": []}
        off.observer = lambda *args, **extra: emitted["off"].append((args, extra))
        on.observer = lambda *args, **extra: emitted["on"].append((args, extra))
        for index, (op, rid, prefill, prefix_id, prefix_tokens) in enumerate(
            self._operations(seed)
        ):
            tagged = prefixed(rid, prefill, prefix_id=prefix_id, prefix_tokens=prefix_tokens)
            untagged = prefixed(rid, prefill, prefix_id=None, prefix_tokens=0)
            outcomes = []
            for manager, request in ((off, tagged), (on, untagged)):
                try:
                    if op == "admit":
                        outcome = manager.admit_request(request, prefill + 16)
                    elif op == "grow":
                        outcome = manager.allocate(rid, manager.blocks_of(rid) * 16 + prefill)
                    else:
                        outcome = manager.free(rid)
                except (MemoryError, ValueError) as error:
                    outcome = type(error).__name__
                outcomes.append(outcome)
            label = f"op {index}: {op} r{rid}"
            assert outcomes[0] == outcomes[1], label
            assert off.lookup_prefix(tagged) == on.lookup_prefix(untagged), label
            assert self._state(off, range(8)) == self._state(on, range(8)), label
            assert emitted["off"] == emitted["on"], label
        assert any(args[0] == "kv_shared_alloc" for args, _ in emitted["off"])


class TestSharedPrefixWorkloads:
    def test_shapes_tag_prefixes(self):
        for name, groups in (("shared-prefix-chat", 4), ("rag-corpus", 8)):
            requests = get_shape(name).build(64, seed=5)
            assert all(r.prefix_id is not None for r in requests)
            assert all(0 < r.prefix_tokens <= r.prefill_tokens for r in requests)
            assert len({r.prefix_id for r in requests}) <= groups

    def test_rag_corpus_popularity_is_skewed(self):
        requests = get_shape("rag-corpus").build(256, seed=5)
        counts = {}
        for request in requests:
            counts[request.prefix_id] = counts.get(request.prefix_id, 0) + 1
        assert max(counts.values()) > 2 * min(counts.values())

    def test_fresh_copy_carries_prefix(self):
        request = prefixed(1)
        copy = request.fresh_copy()
        assert copy.prefix_id == request.prefix_id
        assert copy.prefix_tokens == request.prefix_tokens


class TestPrefixAffinityRouter:
    def _loads(self, tokens):
        return [
            ReplicaLoad(
                replica_id=i,
                num_requests=1,
                outstanding_tokens=t,
                outstanding_prefill_tokens=0,
            )
            for i, t in enumerate(tokens)
        ]

    def test_sticky_by_prefix(self):
        router = PrefixAffinityRouter()
        first = router.choose(self._loads([100, 50, 75]), prefixed(1, prefix_id="a"))
        assert first == 1  # least tokens
        # Same prefix sticks even though replica 2 is now lighter.
        again = router.choose(self._loads([100, 80, 10]), prefixed(2, prefix_id="a"))
        assert again == 1

    def test_spills_when_home_is_overloaded(self):
        router = PrefixAffinityRouter(spill_factor=2.0, spill_slack_tokens=0)
        router.choose(self._loads([0, 50]), prefixed(1, prefix_id="a"))  # home: 0
        choice = router.choose(self._loads([1000, 10]), prefixed(2, prefix_id="a"))
        assert choice == 1  # re-homed
        # And the new home sticks while it stays within the spill limit.
        assert router.choose(self._loads([20, 30]), prefixed(3, prefix_id="a")) == 1

    def test_unprefixed_falls_back_to_least_tokens(self):
        router = PrefixAffinityRouter()
        request = Request(request_id=1, prefill_tokens=10, decode_tokens=2)
        assert router.choose(self._loads([30, 20, 40]), request) == 1

    def test_reset_clears_homes(self):
        router = get_router("prefix-affinity")
        router.choose(self._loads([50, 10]), prefixed(1, prefix_id="a"))
        router.reset()
        assert router._homes == {}
