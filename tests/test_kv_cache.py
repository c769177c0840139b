"""Tests for the paged KV-cache manager."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.kv_cache import KVCacheConfig, KVCacheManager


def _manager(capacity_tokens=1024, block_size=16):
    return KVCacheManager(KVCacheConfig(capacity_tokens=capacity_tokens, block_size=block_size))


class TestKVCacheConfig:
    def test_num_blocks(self):
        assert KVCacheConfig(capacity_tokens=1024, block_size=16).num_blocks == 64

    def test_for_deployment(self, llama3_deployment):
        config = KVCacheConfig.for_deployment(llama3_deployment)
        assert config.capacity_tokens > 100_000

    def test_for_deployment_too_small(self, llama3_deployment):
        with pytest.raises(ValueError):
            KVCacheConfig.for_deployment(llama3_deployment, gpu_memory_bytes=1e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            KVCacheConfig(capacity_tokens=0)


class TestAllocation:
    def test_allocate_and_free(self):
        manager = _manager()
        manager.allocate(request_id=1, new_total_tokens=100)
        assert manager.blocks_of(1) == 7  # ceil(100/16)
        assert manager.used_blocks == 7
        manager.free(1)
        assert manager.used_blocks == 0
        assert not manager.holds(1)

    def test_grow_allocation(self):
        manager = _manager()
        manager.allocate(1, 16)
        manager.allocate(1, 48)
        assert manager.used_blocks == 3
        assert manager.blocks_of(1) == 3

    def test_regrow_within_block_is_free(self):
        manager = _manager()
        manager.allocate(1, 10)
        assert manager.blocks_needed(1, 16) == 0

    def test_can_allocate(self):
        manager = _manager(capacity_tokens=64)
        assert manager.can_allocate(1, 64)
        assert not manager.can_allocate(1, 65)

    def test_exhaustion_raises(self):
        manager = _manager(capacity_tokens=64)
        manager.allocate(1, 64)
        with pytest.raises(MemoryError):
            manager.allocate(2, 16)

    def test_free_unknown_is_noop(self):
        _manager().free(42)

    def test_utilization(self):
        manager = _manager(capacity_tokens=160)
        assert manager.used_blocks == 0
        manager.allocate(1, 80)
        assert manager.used_blocks == manager.total_blocks // 2


class TestEdgeCases:
    """Edge cases surfaced by the verify-subsystem's invariant checker."""

    def test_sub_block_capacity_rejected_at_construction(self):
        # A capacity smaller than one block floors to zero usable blocks;
        # such a cache can never admit anything and used to die much later
        # with an opaque empty-batch error, so the config now rejects it.
        with pytest.raises(ValueError, match="smaller than one block"):
            KVCacheConfig(capacity_tokens=8, block_size=16)
        with pytest.raises(ValueError, match="smaller than one block"):
            KVCacheConfig(capacity_tokens=15, block_size=16)
        # One full block is the smallest legal cache.
        assert KVCacheConfig(capacity_tokens=16, block_size=16).num_blocks == 1

    def test_exact_fit_allocation(self):
        manager = _manager(capacity_tokens=64, block_size=16)
        manager.allocate(1, 64)
        assert manager.free_blocks == 0
        assert manager.used_blocks == manager.total_blocks
        # Growing within the existing blocks is free; past them is refused.
        assert manager.can_allocate(1, 64)
        assert not manager.can_allocate(1, 65)
        assert not manager.can_allocate(2, 1)
        manager.free(1)
        assert manager.can_allocate(2, 64)

    def test_exact_fit_across_requests(self):
        manager = _manager(capacity_tokens=64, block_size=16)
        for request_id in range(4):
            manager.allocate(request_id, 16)
        assert manager.free_blocks == 0
        with pytest.raises(MemoryError):
            manager.allocate(9, 1)

    def test_non_strict_free_stays_a_noop(self):
        manager = _manager()
        manager.free(42)
        assert manager.used_blocks == 0

    def test_failed_allocation_leaves_state_untouched(self):
        manager = _manager(capacity_tokens=64)
        manager.allocate(1, 32)
        with pytest.raises(MemoryError):
            manager.allocate(2, 64)
        assert manager.used_blocks == 2
        assert manager.blocks_of(2) == 0
        assert not manager.holds(2)


class TestInvariants:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(0, 10), st.integers(1, 300)),
            min_size=1,
            max_size=40,
        )
    )
    def test_used_blocks_never_exceed_total(self, operations):
        """Allocating and freeing in any order never over-commits the cache."""
        manager = _manager(capacity_tokens=2048)
        active: set[int] = set()
        for request_id, tokens in operations:
            target = manager.blocks_of(request_id) * 16 + tokens
            if manager.can_allocate(request_id, target):
                manager.allocate(request_id, target)
                active.add(request_id)
            elif request_id in active:
                manager.free(request_id)
                active.discard(request_id)
            assert 0 <= manager.used_blocks <= manager.total_blocks
            assert manager.free_blocks == manager.total_blocks - manager.used_blocks
