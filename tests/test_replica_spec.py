"""ReplicaSpec economics, the redesigned ClusterSpec, and heterogeneous fleets.

Covers the serving-economics API surface: default hourly rates per GPU
generation, spot pricing, the legacy-homogeneous /
explicit-heterogeneous dual form of ``ClusterSpec``, the mix-string parser,
and the differential oracle that pins a uniform-cost heterogeneous fleet to
its homogeneous twin bit-for-bit.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.gpu.config import get_gpu
from repro.models.config import (
    DEFAULT_HOURLY_RATES,
    ClusterSpec,
    ReplicaSpec,
    paper_deployment,
    replica_specs_from_mix,
)

A100 = paper_deployment("llama-3-8b")
A6000 = paper_deployment("llama-3-8b", gpu=get_gpu("a6000"))


class TestReplicaSpecRates:
    def test_default_on_demand_rate(self):
        spec = ReplicaSpec(A100)
        expected = DEFAULT_HOURLY_RATES[A100.gpu.name]["on_demand"] * A100.tensor_parallel
        assert spec.cost_per_hour == expected

    def test_spot_rate(self):
        on_demand = ReplicaSpec(A6000)
        spot = ReplicaSpec(A6000, spot=True)
        assert spot.cost_per_hour < on_demand.cost_per_hour
        assert spot.cost_per_hour == (
            DEFAULT_HOURLY_RATES[A6000.gpu.name]["spot"] * A6000.tensor_parallel
        )

    def test_rate_scales_with_tensor_parallel(self):
        tp4 = dataclasses.replace(A100, tensor_parallel=4)
        assert ReplicaSpec(tp4).cost_per_hour == pytest.approx(
            4 * DEFAULT_HOURLY_RATES[A100.gpu.name]["on_demand"]
        )

    def test_explicit_rate_wins(self):
        spec = ReplicaSpec(A100, on_demand_per_hour=9.99)
        assert spec.cost_per_hour == 9.99
        spot = ReplicaSpec(A100, spot_per_hour=0.77, spot=True)
        assert spot.cost_per_hour == 0.77

    def test_unknown_gpu_without_rate_raises(self):
        custom = dataclasses.replace(A100, gpu=dataclasses.replace(A100.gpu, name="TPU-v9"))
        spec = ReplicaSpec(custom)
        with pytest.raises(ValueError, match="TPU-v9"):
            _ = spec.cost_per_hour
        # An explicit rate makes any hardware billable.
        assert ReplicaSpec(custom, on_demand_per_hour=2.5).cost_per_hour == 2.5

    def test_unpriced_gpu_bills_zero(self):
        custom = dataclasses.replace(A100, gpu=dataclasses.replace(A100.gpu, name="TPU-v9"))
        assert ReplicaSpec(custom).billed_per_hour == 0.0
        assert ReplicaSpec(custom, on_demand_per_hour=2.5).billed_per_hour == 2.5
        assert ReplicaSpec(A6000, spot=True).billed_per_hour == (
            ReplicaSpec(A6000, spot=True).cost_per_hour
        )

    def test_cost_per_second(self):
        """A replica billed 3,600 $/h costs 1 $ per second it is active."""
        from repro.workloads.scenario import run_scenario

        spec = ClusterSpec(replicas=(ReplicaSpec(A100, on_demand_per_hour=3600.0),))
        metrics = run_scenario("shared-prefix-chat", num_requests=4, seed=0, spec=spec).metrics
        (replica,) = metrics.replicas
        assert replica.active_seconds > 0
        assert replica.cost_usd == pytest.approx(replica.active_seconds)
        assert metrics.cost_usd == replica.cost_usd

    def test_every_priced_gpu_has_both_kinds(self):
        for name, rates in DEFAULT_HOURLY_RATES.items():
            assert set(rates) == {"on_demand", "spot"}, name
            assert 0 < rates["spot"] < rates["on_demand"], name


class TestClusterSpecDualForm:
    def test_legacy_form_is_homogeneous(self):
        spec = ClusterSpec(A100, 3)
        assert spec.deployment == A100
        assert len(spec.resolved_replicas) == 3
        assert all(r.deployment == A100 for r in spec.resolved_replicas)
        assert spec.deployment_for(2) == A100

    def test_uniform_explicit_list_fills_deployment(self):
        spec = ClusterSpec(replicas=(ReplicaSpec(A100), ReplicaSpec(A100)))
        assert spec.deployment == A100
        assert spec.num_replicas == 2

    def test_mixed_list_is_heterogeneous(self):
        spec = ClusterSpec(replicas=(ReplicaSpec(A100), ReplicaSpec(A6000)))
        assert spec.deployment is None
        assert spec.deployment_for(0) == A100
        assert spec.deployment_for(1) == A6000

    def test_fleet_cost_is_sum_of_replicas(self):
        specs = (ReplicaSpec(A100), ReplicaSpec(A6000, spot=True))
        spec = ClusterSpec(replicas=specs)
        assert spec.cost_per_hour == pytest.approx(sum(s.cost_per_hour for s in specs))

    def test_deployment_with_mismatched_list_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(A100, 2, replicas=(ReplicaSpec(A6000), ReplicaSpec(A6000)))

    def test_num_replicas_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_replicas=3, replicas=(ReplicaSpec(A100),))

    def test_legacy_form_needs_positive_count(self):
        with pytest.raises(ValueError):
            ClusterSpec(A100, 0)


class TestPrefillBoundary:
    """The prefill_replicas error must name both values and the auto-split rule."""

    def test_equal_to_fleet_size_rejected(self):
        with pytest.raises(ValueError) as err:
            ClusterSpec(A100, 3, topology="disaggregated", prefill_replicas=3)
        message = str(err.value)
        assert "prefill_replicas=3" in message
        assert "num_replicas=3" in message
        assert "auto split" in message

    def test_above_fleet_size_rejected(self):
        with pytest.raises(ValueError) as err:
            ClusterSpec(A100, 2, topology="disaggregated", prefill_replicas=5)
        assert "prefill_replicas=5" in str(err.value)
        assert "num_replicas=2" in str(err.value)

    def test_largest_valid_pool_accepted(self):
        spec = ClusterSpec(A100, 3, topology="disaggregated", prefill_replicas=2)
        assert spec.prefill_replicas == 2


class TestMixParser:
    def test_counts_and_spot_markers(self):
        specs = replica_specs_from_mix("a100:2+a6000:1~")
        assert len(specs) == 3
        assert [s.deployment.gpu.name for s in specs] == [
            A100.gpu.name,
            A100.gpu.name,
            A6000.gpu.name,
        ]
        assert [s.spot for s in specs] == [False, False, True]

    def test_count_defaults_to_one(self):
        specs = replica_specs_from_mix("a100")
        assert len(specs) == 1 and not specs[0].spot

    def test_global_spot_flag(self):
        specs = replica_specs_from_mix("a100:2", spot=True)
        assert all(s.spot for s in specs)

    def test_pairs_input(self):
        specs = replica_specs_from_mix([("a100", 1), ("a6000", 2)])
        assert [s.deployment.gpu.name for s in specs] == [
            A100.gpu.name,
            A6000.gpu.name,
            A6000.gpu.name,
        ]

    def test_unknown_gpu_rejected(self):
        with pytest.raises(ValueError):
            replica_specs_from_mix("warpcore:2")

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            replica_specs_from_mix("a100:0")


class TestHeterogeneousDifferential:
    """Uniform-cost heterogeneous fleets must be bit-identical to their
    homogeneous twins — heterogeneity alone cannot perturb a simulation."""

    @staticmethod
    def _run(spec, router):
        from repro.workloads.scenario import run_scenario

        return run_scenario(
            "shared-prefix-chat", num_requests=10, seed=5, spec=spec, router=router
        )

    def _timings(self, result):
        return {
            r.request_id: (r.first_token_time, r.finish_time) for r in result.requests
        }

    @pytest.mark.parametrize("router", ["least-tokens", "cost-aware"])
    def test_uniform_heterogeneous_matches_homogeneous(self, router):
        homogeneous = self._run(ClusterSpec(A100, 3), router)
        heterogeneous = self._run(
            ClusterSpec(replicas=tuple(ReplicaSpec(A100) for _ in range(3))), router
        )
        assert self._timings(heterogeneous) == self._timings(homogeneous)
        assert heterogeneous.metrics.as_row() == homogeneous.metrics.as_row()

    def test_cost_aware_matches_least_tokens_on_homogeneous_fleet(self):
        baseline = self._run(ClusterSpec(A100, 3), "least-tokens")
        priced = self._run(ClusterSpec(A100, 3), "cost-aware")
        assert self._timings(priced) == self._timings(baseline)
