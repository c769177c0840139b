"""Fleet sampler: cadence, window integrals and counter reconciliation.

The golden test (the fig19 reconciliation) pins the acceptance criterion:
the sampled time-series must *integrate* to exactly the totals the run's
aggregate counters report — ``FleetSampler.window_totals()`` against
``KVCacheStats.counter_totals()`` and ``ServingMetrics`` — across the
Figure 19 capacity sweep.  A sampler that drops or double-counts a window
cannot pass.
"""

from __future__ import annotations

import csv

import pytest

from repro.bench.pressure_rows import (
    FIG19_CAPACITIES,
    FIG19_SEED,
    memory_pressure_simulator,
)
from repro.models.config import paper_deployment
from repro.obs.sampler import FleetSampler
from repro.obs.telemetry import Telemetry
from repro.workloads import build_scenario


@pytest.fixture(scope="module")
def deployment():
    return paper_deployment("llama-3-8b")


def run_pressured(deployment, capacity, num_requests=24, interval=0.5):
    telemetry = Telemetry(sample_interval=interval)
    simulator = memory_pressure_simulator(
        deployment,
        capacity_tokens=capacity,
        prefix_caching=True,
        preemption=True,
        recorder=telemetry,
    )
    result = simulator.run(
        build_scenario("shared-prefix-chat", num_requests=num_requests, seed=FIG19_SEED)
    )
    telemetry.finalize()
    return telemetry, result


class TestCadence:
    def test_rows_land_on_interval_boundaries(self, deployment):
        telemetry, result = run_pressured(deployment, 16384, interval=0.5)
        times = sorted({row["time_s"] for row in telemetry.sampler.rows})
        assert len(times) >= 3
        for boundary in times[:-1]:  # the last row is the partial window
            assert boundary == pytest.approx(round(boundary / 0.5) * 0.5)
        assert times[-1] <= result.makespan + 0.5

    def test_finalize_is_idempotent(self, deployment):
        telemetry, _ = run_pressured(deployment, 16384)
        before = len(telemetry.sampler.rows)
        telemetry.finalize()
        assert len(telemetry.sampler.rows) == before

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            FleetSampler(interval=0.0)

    def test_clear_resets_state(self, deployment):
        telemetry, _ = run_pressured(deployment, 16384)
        telemetry.sampler.clear()
        assert not telemetry.sampler.rows
        assert telemetry.sampler.window_totals()["completions"] == 0


class TestGoldenReconciliation:
    """Satellite: fig19 prefix-cache series vs KVCacheStats counters."""

    @pytest.mark.parametrize("capacity", FIG19_CAPACITIES["shared-prefix-chat"])
    def test_sampler_integrals_equal_counter_totals(self, deployment, capacity):
        telemetry, result = run_pressured(deployment, capacity)
        totals = telemetry.sampler.window_totals()
        kv = result.kv_stats.counter_totals()
        # Exact equality, not approx: both sides count the same events.
        assert {key: totals[key] for key in kv} == kv

    def test_sampler_integrals_equal_serving_metrics(self, deployment):
        telemetry, result = run_pressured(deployment, 8192)
        totals = telemetry.sampler.window_totals()
        metrics = result.metrics.fleet
        assert totals["completions"] == metrics.num_requests
        assert totals["preemptions"] == metrics.num_preemptions
        assert totals["prefix_tokens_reused"] == metrics.cached_prefix_tokens
        # Every preemption forces one re-admission.
        assert totals["admissions"] == totals["completions"] + totals["preemptions"]
        # Prefill completion emits each request's first token; the remaining
        # decode tokens all execute as decode chunks.
        assert totals["decode_tokens"] == sum(
            request.decode_tokens - 1 for request in result.requests
        )

    def test_final_hit_rate_matches_kv_stats(self, deployment):
        telemetry, result = run_pressured(deployment, 8192)
        last = telemetry.sampler.rows[-1]
        assert last["prefix_hit_rate"] == pytest.approx(
            result.kv_stats.hit_rate, abs=1e-6
        )

    def test_registry_counters_agree_with_sampler(self, deployment):
        telemetry, _ = run_pressured(deployment, 8192)
        totals = telemetry.sampler.window_totals()
        registry = telemetry.registry
        assert registry.total("serving_completions_total") == totals["completions"]
        assert registry.total("serving_preemptions_total") == totals["preemptions"]
        assert registry.total("kv_prefix_hits_total") == totals["prefix_hits"]
        assert registry.total("kv_evictions_total") == totals["evictions"]
        assert (
            registry.total("serving_prefill_tokens_total") == totals["prefill_tokens"]
        )
        assert registry.total("serving_decode_tokens_total") == totals["decode_tokens"]


class TestSeriesQueries:
    def test_fleet_series_sums_replicas(self, deployment):
        telemetry, _ = run_pressured(deployment, 16384)
        fleet = telemetry.sampler.fleet_series()
        rows = telemetry.sampler.rows
        assert sum(point["completions"] for point in fleet) == sum(
            row["completions"] for row in rows
        )
        assert all(point["replicas"] == 1 for point in fleet)
        # On a single-replica run the per-replica series is the whole series.
        assert telemetry.sampler.replica_series(0) == rows
        assert telemetry.sampler.replica_series(7) == []

    def test_kv_usage_is_tracked(self, deployment):
        telemetry, _ = run_pressured(deployment, 8192)
        used = [row["kv_used_blocks"] for row in telemetry.sampler.rows]
        assert max(used) > 0
        assert all(row["kv_total_blocks"] == 8192 // 16 for row in telemetry.sampler.rows)
        assert all(0.0 <= row["kv_utilization"] <= 1.0 for row in telemetry.sampler.rows)

    def test_csv_roundtrip(self, deployment, tmp_path):
        telemetry, _ = run_pressured(deployment, 16384)
        path = telemetry.sampler.to_csv(tmp_path / "series.csv")
        with path.open(newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(telemetry.sampler.rows)
        assert int(rows[0]["replica_id"]) == 0
        integral = sum(int(row["completions"]) for row in rows)
        assert integral == telemetry.sampler.window_totals()["completions"]


class TestControlGauges:
    """Fleet gauges emitted by the elastic control plane (fig20)."""

    @pytest.fixture(scope="class")
    def elastic_run(self, deployment):
        from repro.cluster import (
            AdmissionPolicy,
            AutoscalerPolicy,
            ClusterSimulator,
            ColocatedTopology,
            ControlPlane,
        )
        from repro.serving.scheduler_sarathi import SarathiScheduler

        telemetry = Telemetry(sample_interval=1.0)
        control = ControlPlane(
            autoscaler=AutoscalerPolicy(
                min_replicas=1,
                max_replicas=4,
                scale_up_queue_depth=4.0,
                scale_down_queue_depth=0.5,
                cold_start_s=2.0,
                cooldown_s=5.0,
            ),
            admission=AdmissionPolicy(max_queue_per_replica=16),
        )
        topology = ColocatedTopology(
            deployment,
            num_replicas=1,
            scheduler_factory=lambda: SarathiScheduler(chunk_size=1024),
        )
        simulator = ClusterSimulator(
            topology, router="least-tokens", recorder=telemetry, control=control
        )
        result = simulator.run(build_scenario("arxiv-summarization", 48, seed=5, qps=3.0))
        telemetry.finalize()
        return telemetry, result

    def test_live_replica_gauge_tracks_the_fleet(self, elastic_run):
        telemetry, result = elastic_run
        fleet = telemetry.sampler.fleet_series()
        live = [point["live_replicas"] for point in fleet]
        assert live[0] == 1
        assert max(live) == result.metrics.peak_replicas
        assert max(live) > 1

    def test_gauges_stamped_on_every_row_of_a_cut(self, elastic_run):
        telemetry, _ = elastic_run
        by_time: dict[float, set[int]] = {}
        for row in telemetry.sampler.rows:
            by_time.setdefault(row["time_s"], set()).add(row["live_replicas"])
        # The gauge is a fleet-level value carried on each replica's row.
        assert all(len(values) == 1 for values in by_time.values())

    def test_rejection_totals_reconcile(self, elastic_run):
        telemetry, result = elastic_run
        totals = telemetry.sampler.window_totals()
        assert totals["rejections"] == result.metrics.fleet.num_rejected
        fleet = telemetry.sampler.fleet_series()
        assert sum(point["rejections"] for point in fleet) == totals["rejections"]
        for point in fleet:
            assert point["shed_rate"] == pytest.approx(
                point["rejections"] / telemetry.sampler.interval
            )

    def test_static_run_gauges_are_flat(self, deployment):
        telemetry, result = run_pressured(deployment, 16384)
        assert all(
            row["live_replicas"] == 1 and row["rejections"] == 0
            and row["shed_rate"] == 0.0
            for row in telemetry.sampler.rows
        )
        assert telemetry.sampler.window_totals()["rejections"] == 0
