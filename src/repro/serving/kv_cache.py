"""Paged KV-cache manager (vLLM-style block allocator) with prefix caching.

The KV cache is the GPU-memory resident state of every running request.  Its
capacity bounds how many requests can run concurrently, which is what couples
the scheduler's admission decisions to memory.  We model a block allocator
with a configurable block size (vLLM uses 16 tokens per block) over the token
capacity implied by the deployment's free GPU memory.

Every admission resolves the request's shared-prefix chain against the
block cache.  Requests tagged with a ``prefix_id`` share the blocks covering
their common prompt prefix.  Block identity is a vLLM-style hash chain (each
block hash commits to every token block before it), shared blocks are
reference-counted, and blocks whose last reference drops land on an LRU free
list where they stay reusable until the allocator evicts them for fresh
capacity.  A contiguous run of leading prefix-block hits lets the scheduler
skip recomputing those prompt tokens (always leaving at least one token to
compute, as vLLM does).

Prefix caching is opt-in (``enable_prefix_caching=True``).  With it off,
every chain is empty: each block is private to one request, no block is
shared, cached or evicted, and the differential oracle in
``repro.verify.oracles`` pins the allocator to the original block allocator.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from hashlib import blake2b
from typing import Iterable

from repro.models.config import Deployment
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class KVCacheConfig:
    """Static configuration of the KV cache."""

    capacity_tokens: int
    block_size: int = 16
    enable_prefix_caching: bool = False

    def __post_init__(self) -> None:
        check_positive("capacity_tokens", self.capacity_tokens)
        check_positive("block_size", self.block_size)
        if self.capacity_tokens < self.block_size:
            # A sub-block capacity floors to num_blocks == 0: every admission
            # would fail and the scheduler dies later with an opaque
            # "empty batch" error.  Reject it here, where the cause is clear.
            raise ValueError(
                f"capacity_tokens={self.capacity_tokens} is smaller than one "
                f"block (block_size={self.block_size}); the cache would hold "
                "zero blocks and every admission would fail"
            )

    @property
    def num_blocks(self) -> int:
        return self.capacity_tokens // self.block_size

    @classmethod
    def for_deployment(
        cls,
        deployment: Deployment,
        gpu_memory_bytes: float = 80e9,
        block_size: int = 16,
        enable_prefix_caching: bool = False,
    ) -> "KVCacheConfig":
        """Size the cache from the deployment's free GPU memory."""
        capacity = deployment.kv_cache_capacity_tokens(gpu_memory_bytes)
        if capacity < block_size:
            raise ValueError(
                f"deployment {deployment.model.name} leaves {max(capacity, 0)} tokens of "
                f"KV capacity in {gpu_memory_bytes/1e9:.0f} GB, less than one "
                f"{block_size}-token block"
            )
        return cls(
            capacity_tokens=capacity,
            block_size=block_size,
            enable_prefix_caching=enable_prefix_caching,
        )


@dataclass
class KVCacheStats:
    """Counters accumulated by one :class:`KVCacheManager` over its lifetime.

    ``double_free_count`` counts frees of ids holding no blocks — the
    drain-balance invariant (``repro.verify.invariants``) asserts it is zero,
    so silent double-frees can no longer hide behind the no-op path.
    """

    prefix_block_hits: int = 0
    prefix_block_misses: int = 0
    prefix_tokens_reused: int = 0
    evictions: int = 0
    shared_admissions: int = 0
    double_free_count: int = 0

    @property
    def prefix_lookups(self) -> int:
        return self.prefix_block_hits + self.prefix_block_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of prefix-block lookups served from the cache."""
        lookups = self.prefix_lookups
        return self.prefix_block_hits / lookups if lookups else 0.0

    def as_row(self) -> dict[str, float]:
        return {
            "prefix_block_hits": self.prefix_block_hits,
            "prefix_block_misses": self.prefix_block_misses,
            "prefix_hit_rate": round(self.hit_rate, 4),
            "prefix_tokens_reused": self.prefix_tokens_reused,
            "kv_evictions": self.evictions,
            "kv_double_frees": self.double_free_count,
        }

    def counter_totals(self) -> dict[str, int]:
        """The raw monotone counters, keyed to match the telemetry layer.

        ``repro.obs.sampler.FleetSampler.window_totals()`` uses the same
        keys, so ``sampler integrals == counter_totals()`` is a one-line
        golden assertion (the fig19 reconciliation test).
        """
        return {
            "prefix_hits": self.prefix_block_hits,
            "prefix_misses": self.prefix_block_misses,
            "prefix_tokens_reused": self.prefix_tokens_reused,
            "evictions": self.evictions,
            "shared_admissions": self.shared_admissions,
            "double_frees": self.double_free_count,
        }

    def merge(self, other: "KVCacheStats") -> "KVCacheStats":
        """Aggregate counters across managers (e.g. a cluster's replicas)."""
        return KVCacheStats(
            prefix_block_hits=self.prefix_block_hits + other.prefix_block_hits,
            prefix_block_misses=self.prefix_block_misses + other.prefix_block_misses,
            prefix_tokens_reused=self.prefix_tokens_reused + other.prefix_tokens_reused,
            evictions=self.evictions + other.evictions,
            shared_admissions=self.shared_admissions + other.shared_admissions,
            double_free_count=self.double_free_count + other.double_free_count,
        )


def prefix_block_hashes(prefix_id: str, num_blocks: int) -> list[int]:
    """vLLM-style hash chain over the blocks of one shared prefix.

    Block ``i``'s hash commits to the prefix identity, its position and the
    hash of the block before it, so two requests share block ``i`` only when
    their entire prefix up to and including block ``i`` is identical.  The
    hash is content-stable across processes (unlike builtin ``hash``, which
    is randomized per interpreter by ``PYTHONHASHSEED``).
    """
    chain: list[int] = []
    previous = 0
    for index in range(num_blocks):
        digest = blake2b(
            f"{prefix_id}|{index}|{previous:x}".encode(), digest_size=8
        ).digest()
        previous = int.from_bytes(digest, "big")
        chain.append(previous)
    return chain


class KVCacheManager:
    """Block-granular KV-cache allocator with prefix sharing.

    Allocation is tracked per request id; allocating more tokens for an
    existing request extends its block list (the paged-attention model).

    ``observer``, when set, is called as ``observer(kind, request_id, blocks,
    **extra)`` after every mutation (``kind`` is ``"kv_alloc"``, ``"kv_free"``,
    ``"kv_shared_alloc"`` or ``"kv_double_free"``); the replica runtime uses it
    to emit KV events onto its :class:`~repro.verify.events.EventRecorder`.  It
    defaults to ``None`` and costs one ``is not None`` check per mutation when
    unused.
    """

    def __init__(self, config: KVCacheConfig) -> None:
        self.config = config
        self._allocated_blocks: dict[int, int] = {}
        self.observer = None
        self.stats = KVCacheStats()
        self._total_blocks = config.num_blocks
        self._private_total = 0
        self._shared_refcount: dict[int, int] = {}
        # Chain hashes each request holds, in chain order (absent when empty).
        self._shared_holds: dict[int, list[int]] = {}
        self._lru: OrderedDict[int, None] = OrderedDict()
        self._chain_cache: dict[str, list[int]] = {}
        # (prefix id, chain blocks) -> how many of those blocks are in
        # _shared_refcount; cleared whenever a block enters or leaves it.
        self._riders: dict[tuple[str, int], int] = {}

    # ----------------------------------------------------------- capacity

    @property
    def total_blocks(self) -> int:
        return self._total_blocks

    @property
    def used_blocks(self) -> int:
        """Blocks pinned by live requests (shared blocks counted once)."""
        return self._private_total + len(self._shared_refcount)

    @property
    def cached_blocks(self) -> int:
        """Unreferenced prefix blocks kept warm on the LRU free list."""
        return len(self._lru)

    @property
    def free_blocks(self) -> int:
        """Blocks allocatable right now (LRU-cached blocks are evictable)."""
        return self._total_blocks - self._private_total - len(self._shared_refcount)

    def blocks_needed(self, request_id: int, new_total_tokens: int) -> int:
        """Additional blocks needed to grow a request to ``new_total_tokens``."""
        current_blocks = self._allocated_blocks.get(request_id, 0)
        target_blocks = math.ceil(new_total_tokens / self.config.block_size)
        return max(0, target_blocks - current_blocks)

    def can_allocate(self, request_id: int, new_total_tokens: int) -> bool:
        """Whether the cache can grow ``request_id`` to ``new_total_tokens`` tokens."""
        return self.blocks_needed(request_id, new_total_tokens) <= self.free_blocks

    def blocks_of(self, request_id: int) -> int:
        """Blocks currently held by ``request_id`` (shared blocks included)."""
        return self._allocated_blocks.get(request_id, 0)

    # ------------------------------------------------------ prefix chains

    def _chain_for(self, prefix_id: str, num_blocks: int) -> list[int]:
        chain = self._chain_cache.get(prefix_id)
        if chain is None or len(chain) < num_blocks:
            chain = prefix_block_hashes(prefix_id, num_blocks)
            self._chain_cache[prefix_id] = chain
        return chain[:num_blocks]

    def _chain_blocks(self, request) -> int:
        """Length of ``request``'s shared-prefix chain: 0 for untagged
        requests and whenever prefix caching is off, so every block of such
        an admission is private."""
        if getattr(request, "prefix_id", None) is None or not self.config.enable_prefix_caching:
            return 0
        return min(request.prefix_tokens, request.prefill_tokens) // self.config.block_size

    def _request_chain(self, request) -> list[int]:
        """Shared-prefix block hashes an admission of ``request`` would hold."""
        num_blocks = self._chain_blocks(request)
        return self._chain_for(request.prefix_id, num_blocks) if num_blocks > 0 else []

    def lookup_prefix(self, request) -> tuple[int, int]:
        """(hit_blocks, cached_tokens) an admission would reuse, without mutating.

        Hits are the *contiguous leading* chain blocks currently resident
        (referenced or on the LRU); reused tokens are capped so at least one
        prompt token is always recomputed.
        """
        hits = 0
        for block_hash in self._request_chain(request):
            if block_hash in self._shared_refcount or block_hash in self._lru:
                hits += 1
            else:
                break
        cached_tokens = min(hits * self.config.block_size, request.prefill_tokens - 1)
        return hits, max(0, cached_tokens)

    # --------------------------------------------------------- admission

    def can_admit_request(self, request, reserve_tokens: int) -> bool:
        """Whether an admission reserving ``reserve_tokens`` fits right now.

        Chain blocks already *referenced* by another request are free riders;
        blocks revived off the LRU count in full — they pin a block that was
        evictable a moment ago — as do misses and the private remainder.
        The rider count of a chain is memoized until a block enters or
        leaves the referenced set (an admission's misses and revivals, a
        free's last releases), so a queue head refused again and again
        walks its chain once per such change.
        """
        target_blocks = math.ceil(reserve_tokens / self.config.block_size)
        chain_blocks = min(self._chain_blocks(request), target_blocks)
        riders = 0
        if chain_blocks > 0:
            key = (request.prefix_id, chain_blocks)
            riders = self._riders.get(key, -1)
            if riders < 0:
                refcount = self._shared_refcount
                chain = self._chain_for(request.prefix_id, chain_blocks)
                riders = sum(1 for block_hash in chain if block_hash in refcount)
                self._riders[key] = riders
        return target_blocks - riders <= self.free_blocks

    def admit_request(self, request, reserve_tokens: int) -> int:
        """Allocate ``reserve_tokens`` for an admission; return reused tokens.

        The request's shared-prefix chain is resolved against the block cache
        (hits increment refcounts or revive LRU entries, misses consume fresh
        blocks) and the remaining reservation is private; the returned token
        count is how much prompt compute the scheduler may skip.  An empty
        chain makes the whole reservation private and returns 0.
        """
        check_positive("reserve_tokens", reserve_tokens)
        request_id = request.request_id
        if request_id in self._allocated_blocks:
            # Re-admitting a live id must not silently *grow* its allocation:
            # that would turn a scheduler double-admit bug into quiet memory
            # creep (found by the stateful machine in repro.verify.stateful).
            raise ValueError(
                f"request {request_id} already holds blocks; grow with allocate()"
            )
        target_blocks = math.ceil(reserve_tokens / self.config.block_size)
        chain = self._request_chain(request)[:target_blocks]
        refcount = self._shared_refcount
        fresh_needed = target_blocks - sum(
            1 for block_hash in chain if block_hash in refcount
        )
        if fresh_needed > self.free_blocks:
            raise MemoryError(
                f"KV cache exhausted: request {request_id} needs {fresh_needed} fresh "
                f"blocks, only {self.free_blocks} free"
            )
        ref_hits = revived = 0
        leading = True
        leading_hits = 0
        # Pin every resident chain block (refcount bump or LRU revival) before
        # anything is evicted, so this admission's own fresh blocks can never
        # evict a block its chain is about to reuse.
        misses: list[int] = []
        for block_hash in chain:
            if block_hash in refcount:
                refcount[block_hash] += 1
                ref_hits += 1
                leading_hits += 1 if leading else 0
            elif block_hash in self._lru:
                del self._lru[block_hash]
                refcount[block_hash] = 1
                revived += 1
                leading_hits += 1 if leading else 0
            else:
                leading = False
                misses.append(block_hash)
        private = target_blocks - len(chain)
        evictions = self._make_room(len(misses) + private)
        for block_hash in misses:
            refcount[block_hash] = 1
        if misses or revived:
            self._riders.clear()
        self._private_total += private
        if chain:
            self._shared_holds[request_id] = chain
        self._allocated_blocks[request_id] = target_blocks
        cached_tokens = min(
            leading_hits * self.config.block_size, request.prefill_tokens - 1
        )
        cached_tokens = max(0, cached_tokens)
        self.stats.prefix_block_hits += ref_hits + revived
        self.stats.prefix_block_misses += len(misses)
        self.stats.prefix_tokens_reused += cached_tokens
        self.stats.shared_admissions += 1
        if self.observer is not None:
            self.observer(
                "kv_shared_alloc",
                request_id,
                private + len(misses) + revived,
                private_blocks=private,
                shared_new=len(misses),
                shared_revived=revived,
                shared_ref_hits=ref_hits,
                evictions=evictions,
                cached_tokens=cached_tokens,
            )
        return cached_tokens

    def _make_room(self, blocks: int) -> int:
        """Evict LRU heads, oldest first, so ``blocks`` fresh blocks fit.

        Callers have checked ``blocks <= free_blocks``, so the LRU always
        holds enough blocks.  Returns the number evicted; an evicted block's
        contents are gone for good, and a later chain lookup of its hash
        misses.
        """
        evictions = max(0, self.used_blocks + len(self._lru) + blocks - self._total_blocks)
        for _ in range(evictions):
            self._lru.popitem(last=False)
        self.stats.evictions += evictions
        return evictions

    # ---------------------------------------------------------- mutation

    def allocate(self, request_id: int, new_total_tokens: int) -> None:
        """Grow (or create) a request's allocation to cover ``new_total_tokens``.

        Growth blocks are always private to the request — only admissions
        (:meth:`admit_request`) resolve shared-prefix chains.
        """
        check_positive("new_total_tokens", new_total_tokens)
        needed = self.blocks_needed(request_id, new_total_tokens)
        if needed > self.free_blocks:
            raise MemoryError(
                f"KV cache exhausted: request {request_id} needs {needed} blocks, "
                f"only {self.free_blocks} free"
            )
        evictions = self._make_room(needed)
        self._private_total += needed
        self._allocated_blocks[request_id] = self._allocated_blocks.get(request_id, 0) + needed
        if self.observer is not None:
            self.observer("kv_alloc", request_id, needed, evictions=evictions)

    def grow_all(self, requests: Iterable, ahead: int = 0) -> bool:
        """Grow each of ``requests`` to hold its next token when all of them fit.

        A request's next token is its ``context_tokens + ahead + 1``-th.  When
        the blocks every request needs for it add up to at most
        ``free_blocks``, each request that needs any is grown by one
        :meth:`allocate` call, in the order given, and this returns True;
        otherwise nothing is grown and this returns False.
        """
        block_size = self.config.block_size
        held = self._allocated_blocks
        growing: list[tuple[int, int]] = []
        needed = 0
        for request in requests:
            target = request.context_tokens + ahead + 1
            blocks = -(-target // block_size) - held.get(request.request_id, 0)
            if blocks > 0:
                needed += blocks
                growing.append((request.request_id, target))
        if needed > self.free_blocks:
            return False
        for request_id, target in growing:
            self.allocate(request_id, target)
        return True

    def free(self, request_id: int) -> None:
        """Release every block held by ``request_id``.

        Private blocks return to the pool immediately, while shared blocks
        only become evictable (LRU) once their last reference is released —
        the free-after-last-release rule the event-log invariant checks.
        Freeing an id with no allocation is a no-op (the release path may
        free ids it never managed to admit) but is *counted* in
        ``stats.double_free_count``.
        """
        blocks = self._allocated_blocks.pop(request_id, None)
        if blocks is None:
            self.stats.double_free_count += 1
            if self.observer is not None:
                # Absorbed double-frees must still reach the telemetry layer,
                # or the sampler reconciliation cannot cover the counter.
                self.observer("kv_double_free", request_id, 0)
            return
        hold = self._shared_holds.pop(request_id, ())
        private = blocks - len(hold)
        self._private_total -= private
        to_cache = 0
        for block_hash in hold:
            refcount = self._shared_refcount[block_hash] - 1
            if refcount == 0:
                del self._shared_refcount[block_hash]
                self._lru[block_hash] = None
                to_cache += 1
            else:
                self._shared_refcount[block_hash] = refcount
        if to_cache:
            self._riders.clear()
        if self.observer is not None:
            self.observer(
                "kv_free",
                request_id,
                blocks,
                private_blocks=private,
                shared_released=len(hold),
                to_cache=to_cache,
            )

    def holds(self, request_id: int) -> bool:
        return request_id in self._allocated_blocks
