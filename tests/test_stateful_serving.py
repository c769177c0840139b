"""Tier-1 entry points for the stateful serving-API machines.

The machines live in :mod:`repro.verify.stateful`; exposing their generated
``TestCase`` classes here runs them under the active hypothesis profile
(``ci`` by default — small, derandomized example counts; ``nightly`` in the
scheduled fuzz job escalates to hundreds of examples).  See
``docs/testing.md`` for turning a failure into a regression test.
"""

from __future__ import annotations

import pytest

from repro.verify.oracles import ReferenceAllocator, compare_allocator_to_model
from repro.verify.stateful import (
    ClusterInterleavingMachine,
    KVCacheMachine,
    SchedulerReplicaMachine,
)

TestKVCacheStateful = KVCacheMachine.TestCase
TestSchedulerReplicaStateful = SchedulerReplicaMachine.TestCase
TestClusterInterleavingStateful = ClusterInterleavingMachine.TestCase


class TestReferenceAllocator:
    """The model itself must uphold the basics it judges the manager by."""

    def test_fresh_model_is_empty(self):
        model = ReferenceAllocator(num_blocks=4, block_size=16, caching=True)
        assert model.used == 0
        assert model.free == 4

    def test_flat_mode_ignores_prefixes(self):
        from repro.serving.request import Request

        model = ReferenceAllocator(num_blocks=8, block_size=16, caching=False)
        request = Request(
            request_id=1,
            prefill_tokens=32,
            decode_tokens=1,
            prefix_id="p",
            prefix_tokens=32,
        )
        assert model.admit(request, 32) == 0
        assert model.refcount == {}
        assert model.private == {1: 2}

    def test_release_of_unknown_id_counts_double_free(self):
        model = ReferenceAllocator(num_blocks=4, block_size=16, caching=True)
        model.release(99)
        assert model.double_frees == 1

    def test_model_agrees_with_fresh_manager(self):
        from repro.serving.kv_cache import KVCacheConfig, KVCacheManager

        manager = KVCacheManager(
            KVCacheConfig(
                capacity_tokens=64, block_size=16, enable_prefix_caching=True
            )
        )
        model = ReferenceAllocator(num_blocks=4, block_size=16, caching=True)
        assert compare_allocator_to_model(manager, model) == []

    def test_exhaustion_raises_memory_error(self):
        from repro.serving.request import Request

        model = ReferenceAllocator(num_blocks=2, block_size=16, caching=False)
        model.grow(1, 32)
        with pytest.raises(MemoryError):
            model.admit(
                Request(request_id=2, prefill_tokens=16, decode_tokens=1), 16
            )
