"""Unit tests for router policies."""

from __future__ import annotations

import pytest

from repro.cluster.router import (
    COST_OBJECTIVES,
    CostAwareRouter,
    LeastOutstandingRequestsRouter,
    LeastOutstandingTokensRouter,
    PrefillAwareRouter,
    ReplicaLoad,
    ROUTERS,
    RoundRobinRouter,
    get_router,
)
from repro.serving.request import Request


def loads(*triples):
    """Build ReplicaLoad list from (num_requests, tokens, prefill_tokens)."""
    return [
        ReplicaLoad(
            replica_id=i,
            num_requests=num,
            outstanding_tokens=tokens,
            outstanding_prefill_tokens=prefill,
        )
        for i, (num, tokens, prefill) in enumerate(triples)
    ]


REQUEST = Request(request_id=99, prefill_tokens=100, decode_tokens=10)


class TestRoundRobin:
    def test_cycles(self):
        router = RoundRobinRouter()
        pool = loads((0, 0, 0), (5, 500, 100), (9, 900, 300))
        assert [router.choose(pool, REQUEST) for _ in range(5)] == [0, 1, 2, 0, 1]

    def test_reset(self):
        router = RoundRobinRouter()
        pool = loads((0, 0, 0), (0, 0, 0))
        router.choose(pool, REQUEST)
        router.reset()
        assert router.choose(pool, REQUEST) == 0

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            RoundRobinRouter().choose([], REQUEST)


class TestJSQFamily:
    def test_least_requests(self):
        pool = loads((4, 100, 50), (2, 900, 800), (3, 10, 5))
        assert LeastOutstandingRequestsRouter().choose(pool, REQUEST) == 1

    def test_least_tokens(self):
        pool = loads((4, 100, 50), (2, 900, 800), (3, 10, 5))
        assert LeastOutstandingTokensRouter().choose(pool, REQUEST) == 2

    def test_prefill_aware_prefers_decode_heavy_backlog(self):
        # Replica 1 has more total tokens but almost no prefill backlog.
        pool = loads((3, 500, 400), (3, 700, 10))
        assert PrefillAwareRouter().choose(pool, REQUEST) == 1

    def test_prefill_aware_tiebreak_on_total_tokens(self):
        pool = loads((3, 700, 100), (3, 500, 100))
        assert PrefillAwareRouter().choose(pool, REQUEST) == 1

    def test_deterministic_tiebreak_lowest_index(self):
        pool = loads((2, 100, 50), (2, 100, 50))
        for router_cls in (
            LeastOutstandingRequestsRouter,
            LeastOutstandingTokensRouter,
            PrefillAwareRouter,
        ):
            assert router_cls().choose(pool, REQUEST) == 0


class TestTieBreaking:
    """Equal backlogs must deterministically pick the lowest index, so
    simulations are reproducible regardless of load-snapshot source."""

    def test_least_tokens_equal_backlogs(self):
        pool = loads((1, 640, 100), (9, 640, 500), (5, 640, 0))
        assert LeastOutstandingTokensRouter().choose(pool, REQUEST) == 0

    def test_prefill_aware_equal_prefill_and_total(self):
        pool = loads((4, 300, 120), (2, 300, 120), (8, 300, 120))
        assert PrefillAwareRouter().choose(pool, REQUEST) == 0

    def test_prefill_aware_equal_prefill_unequal_total(self):
        # Prefill ties everywhere; the lower *total* wins over a lower index.
        pool = loads((1, 500, 120), (1, 400, 120), (1, 400, 120))
        assert PrefillAwareRouter().choose(pool, REQUEST) == 1

    def test_all_idle_pool_picks_first(self):
        pool = [ReplicaLoad.zero(i) for i in range(4)]
        for router_cls in (
            LeastOutstandingRequestsRouter,
            LeastOutstandingTokensRouter,
            PrefillAwareRouter,
        ):
            assert router_cls().choose(pool, REQUEST) == 0


class TestZeroedSnapshots:
    """Policies with ``needs_loads = False`` receive zeroed snapshots; they
    must behave identically to receiving real loads."""

    def test_round_robin_ignores_load_fields(self):
        zeroed = [ReplicaLoad.zero(i) for i in range(3)]
        real = loads((9, 900, 900), (0, 0, 0), (4, 400, 100))
        a, b = RoundRobinRouter(), RoundRobinRouter()
        assert [a.choose(zeroed, REQUEST) for _ in range(6)] == [
            b.choose(real, REQUEST) for _ in range(6)
        ]

    def test_zero_snapshot_fields(self):
        load = ReplicaLoad.zero(7)
        assert load.replica_id == 7
        assert load.num_requests == 0
        assert load.outstanding_tokens == 0
        assert load.outstanding_prefill_tokens == 0

    def test_needs_loads_declarations(self):
        assert RoundRobinRouter.needs_loads is False
        for router_cls in (
            LeastOutstandingRequestsRouter,
            LeastOutstandingTokensRouter,
            PrefillAwareRouter,
        ):
            assert router_cls.needs_loads is True


def priced(*entries):
    """Build ReplicaLoad list from (tokens, cost_per_hour, perf_weight)."""
    return [
        ReplicaLoad(
            replica_id=i,
            num_requests=1,
            outstanding_tokens=tokens,
            outstanding_prefill_tokens=0,
            cost_per_hour=cost,
            perf_weight=perf,
        )
        for i, (tokens, cost, perf) in enumerate(entries)
    ]


class TestCostAwareRouter:
    def test_uniform_cost_degenerates_to_least_tokens(self):
        """At uniform cost/perf the scores order exactly like backlogs —
        the mixed-generation differential oracle depends on this."""
        pool = priced((640, 2.0, 1.0), (120, 2.0, 1.0), (500, 2.0, 1.0))
        bare = loads((1, 640, 0), (1, 120, 0), (1, 500, 0))
        assert CostAwareRouter().choose(pool, REQUEST) == 1
        assert CostAwareRouter().choose(pool, REQUEST) == LeastOutstandingTokensRouter().choose(
            bare, REQUEST
        )

    def test_prefers_cheap_replica_at_equal_load(self):
        pool = priced((100, 8.0, 1.0), (100, 2.0, 1.0))
        assert CostAwareRouter().choose(pool, REQUEST) == 1
        assert CostAwareRouter("usd-per-token").choose(pool, REQUEST) == 1

    def test_prefers_fast_replica_at_equal_cost(self):
        pool = priced((100, 4.0, 1.0), (100, 4.0, 3.5))
        assert CostAwareRouter().choose(pool, REQUEST) == 1
        assert CostAwareRouter("usd-per-token").choose(pool, REQUEST) == 1

    def test_fast_replica_absorbs_more_backlog(self):
        # 3x the perf at the same rate: worth routing to even with 2x backlog.
        pool = priced((200, 4.0, 3.0), (100, 4.0, 1.0))
        assert CostAwareRouter().choose(pool, REQUEST) == 0

    def test_usd_per_token_is_static_greedy(self):
        # Cheapest $/token wins regardless of backlog...
        pool = priced((900, 1.0, 1.0), (0, 4.0, 1.0))
        assert CostAwareRouter("usd-per-token").choose(pool, REQUEST) == 0
        # ...and backlog only breaks exact $/token ties.
        tied = priced((900, 2.0, 1.0), (100, 4.0, 2.0))
        assert CostAwareRouter("usd-per-token").choose(tied, REQUEST) == 1

    def test_full_tie_falls_to_lowest_index(self):
        pool = priced((300, 2.0, 1.0), (300, 2.0, 1.0), (300, 2.0, 1.0))
        for objective in COST_OBJECTIVES:
            assert CostAwareRouter(objective).choose(pool, REQUEST) == 0

    def test_unpriced_replicas_treated_as_uniform(self):
        """cost_per_hour == 0 (no pricing attached) must mean 'uniform', not
        'free', so unpriced fleets route like least-tokens."""
        pool = priced((640, 0.0, 0.0), (120, 0.0, 0.0), (500, 0.0, 0.0))
        for objective in COST_OBJECTIVES:
            assert CostAwareRouter(objective).choose(pool, REQUEST) == 1

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError, match="perf-per-dollar"):
            CostAwareRouter("cheapest-vibes")

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            CostAwareRouter().choose([], REQUEST)

    def test_registered(self):
        assert get_router("cost-aware").name == "cost-aware"
        assert CostAwareRouter.needs_loads is True


class TestRegistry:
    def test_registry_contains_at_least_three_policies(self):
        assert len(ROUTERS) >= 3

    @pytest.mark.parametrize("name", sorted(ROUTERS))
    def test_get_router(self, name):
        router = get_router(name)
        assert router.name == name

    def test_unknown_router(self):
        with pytest.raises(ValueError):
            get_router("random-drop")
