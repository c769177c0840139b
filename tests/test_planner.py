"""Capacity planner: grid enumeration, feasibility, ranking, determinism."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.planner import PlannerConfig, capacity_plan


SMALL = PlannerConfig(
    scenario="shared-prefix-chat",
    num_requests=10,
    seed=7,
    replica_counts=(2,),
    routers=("least-tokens", "cost-aware"),
    replica_mixes=("a100", "a6000~"),
)


@pytest.fixture(scope="module")
def small_plan():
    return capacity_plan(SMALL)


class TestConfig:
    def test_round_trip_exact(self):
        """``repro plan`` emits ``dataclasses.asdict(config)``; its JSON
        rebuilds the config exactly, floats and grid axes included."""
        data = json.loads(json.dumps(dataclasses.asdict(SMALL)))
        axes = {key: tuple(value) for key, value in data.items() if isinstance(value, list)}
        assert PlannerConfig(**{**data, **axes}) == SMALL

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="replica_mixes"):
            PlannerConfig(replica_mixes=())

    def test_bad_prefill_fraction_rejected(self):
        for fraction in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError, match="prefill_fractions"):
                PlannerConfig(prefill_fractions=(fraction,))

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            PlannerConfig(replica_counts=(2, 0))
        with pytest.raises(ValueError):
            PlannerConfig(num_requests=0)


class TestGrid:
    def test_candidate_count(self, small_plan):
        # 1 fleet size x colocated x 2 routers x 2 mixes.
        assert len(small_plan.candidates) == 4

    def test_rows_are_flat_and_json_ready(self, small_plan):
        rows = small_plan.rows()
        json.dumps(rows)
        for row in rows:
            assert row["replicas"] == 2
            assert row["cost_usd"] > 0

    def test_disaggregated_needs_two_replicas(self):
        config = PlannerConfig(
            num_requests=8,
            replica_counts=(1,),
            topologies=("disaggregated",),
        )
        assert len(capacity_plan(config).candidates) == 0

    def test_duplicate_pool_sizes_collapse(self):
        config = PlannerConfig(
            num_requests=8,
            replica_counts=(2,),
            topologies=("disaggregated",),
            # All three fractions round to a 1-replica prefill pool.
            prefill_fractions=(0.3, 0.5, 0.6),
        )
        plan = capacity_plan(config)
        assert len(plan.candidates) == 1
        assert plan.candidates[0].prefill_replicas == 1


class TestRanking:
    def test_best_is_cheapest_feasible(self, small_plan):
        best = small_plan.best
        assert best is not None and best.feasible
        assert best.metrics.cost_usd == min(
            c.metrics.cost_usd for c in small_plan.feasible
        )

    def test_impossible_slo_yields_no_plan(self):
        config = PlannerConfig(
            num_requests=8,
            replica_counts=(2,),
            ttft_p99_target_s=1e-6,
            tbt_p99_target_s=1e-6,
        )
        plan = capacity_plan(config)
        assert plan.best is None
        assert plan.feasible == ()
        for candidate in plan.candidates:
            assert not candidate.feasible
            assert any("ttft_p99" in v for v in candidate.violations)
            assert candidate.row()["violations"]

    def test_summary_shape(self, small_plan):
        summary = small_plan.summary()
        assert summary["scenario"] == "shared-prefix-chat"
        assert summary["candidates"] == 4
        assert summary["best"] is not None
        json.dumps(summary)


class TestDeterminism:
    def test_same_config_same_plan(self, small_plan):
        again = capacity_plan(SMALL)
        assert again.rows() == small_plan.rows()
        assert again.summary() == small_plan.summary()
        best, again_best = small_plan.best, again.best
        assert (best.label if best else None) == (again_best.label if again_best else None)
