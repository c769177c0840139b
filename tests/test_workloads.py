"""Unit tests for the workload scenario engine (registry, arrivals, tenants,
trace I/O) and its integration with the serving and cluster simulators."""

from __future__ import annotations

import pytest

from repro.cluster import ClusterSimulator, ClusterSweepPoint, run_sweep_point, topology_from_spec
from repro.models.config import ClusterSpec
from repro.serving.scheduler_sarathi import SarathiScheduler
from repro.serving.attention_backend import PODBackend
from repro.workloads import (
    ARRIVAL_PROCESSES,
    SCENARIOS,
    SHAPES,
    SLO_CLASSES,
    DiurnalArrivals,
    PoissonArrivals,
    ReplayArrivals,
    StepSurgeArrivals,
    TenantSpec,
    build_scenario,
    compose_tenants,
    get_arrival_process,
    get_scenario,
    get_shape,
    get_slo_class,
    load_trace,
    save_trace,
    scenario_table,
    slo_targets,
    uniform_workload,
)


class TestRegistries:
    def test_scenario_registry_contents(self):
        assert len(SCENARIOS) >= 5
        assert {"enterprise-internal", "arxiv-summarization", "multi-tenant-slo"} <= set(SCENARIOS)
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.arrival in ARRIVAL_PROCESSES
            if scenario.shape is not None:
                assert scenario.shape in SHAPES
            for tenant in scenario.tenants:
                assert tenant.shape in SHAPES

    def test_unknown_names_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("sharegpt")
        with pytest.raises(ValueError, match="unknown shape"):
            get_shape("nope")
        with pytest.raises(ValueError, match="unknown arrival"):
            get_arrival_process("nope", qps=1.0)
        with pytest.raises(ValueError, match="unknown SLO"):
            get_slo_class("platinum")

    def test_scenario_table_covers_registry(self):
        rows = scenario_table()
        assert {row["scenario"] for row in rows} == set(SCENARIOS)
        assert all(row["arrival"] and row["shape_mix"] for row in rows)

    def test_scenario_must_set_shape_xor_tenants(self):
        from repro.workloads.scenario import Scenario

        with pytest.raises(ValueError, match="exactly one"):
            Scenario(name="bad", description="", arrival="poisson", qps=1.0)
        with pytest.raises(ValueError, match="exactly one"):
            Scenario(
                name="bad",
                description="",
                arrival="poisson",
                qps=1.0,
                shape="internal",
                tenants=(TenantSpec("a", "internal"),),
            )

    def test_build_scenario_overrides(self):
        base = build_scenario("arxiv-summarization", num_requests=16, seed=2)
        faster = build_scenario("arxiv-summarization", num_requests=16, seed=2, qps=8.5)
        assert len(base) == len(faster) == 16
        # Same shapes, compressed arrivals (10x rate => earlier last arrival).
        assert [(r.prefill_tokens, r.decode_tokens) for r in base] == [
            (r.prefill_tokens, r.decode_tokens) for r in faster
        ]
        assert faster[-1].arrival_time < base[-1].arrival_time


class TestArrivalProcesses:
    def test_poisson_assign_matches_times(self):
        requests = uniform_workload(50, 100, 10)
        assigned = PoissonArrivals(2.0).assign(requests, seed=9)
        times = PoissonArrivals(2.0).times(50, seed=9)
        assert [r.arrival_time for r in assigned] == times
        assert [r.arrival_time for r in requests] == times  # assigned in place

    def test_diurnal_rate_oscillates_around_qps(self):
        process = DiurnalArrivals(qps=4.0, period=100.0, depth=0.5)
        assert process.rate(25.0) == pytest.approx(6.0)  # peak
        assert process.rate(75.0) == pytest.approx(2.0)  # trough
        assert process.rate(0.0) == pytest.approx(4.0)
        with pytest.raises(ValueError):
            DiurnalArrivals(qps=1.0, depth=1.0)

    def test_step_surge_rate_profile(self):
        process = StepSurgeArrivals(
            qps=2.0, surge_factor=3.0, surge_start=10.0, surge_duration=20.0, ramp=4.0
        )
        assert process.rate(0.0) == 2.0
        assert process.rate(12.0) == pytest.approx(4.0)  # halfway up the ramp
        assert process.rate(20.0) == 6.0  # plateau
        assert process.rate(100.0) == 2.0  # back to base
        pure_step = StepSurgeArrivals(qps=2.0, surge_start=10.0, surge_duration=20.0)
        assert pure_step.rate(10.0) == 6.0
        assert pure_step.rate(9.999) == 2.0

    def test_surge_concentrates_arrivals(self):
        """More arrivals land per second inside the surge window than outside."""
        process = StepSurgeArrivals(
            qps=2.0, surge_factor=5.0, surge_start=20.0, surge_duration=40.0
        )
        times = process.times(300, seed=0)
        in_window = [t for t in times if 20.0 <= t < 60.0]
        assert len(in_window) / 40.0 > 2.0 * 1.5  # well above the base rate

    def test_replay_validation(self):
        with pytest.raises(ValueError):
            ReplayArrivals([])
        with pytest.raises(ValueError):
            ReplayArrivals([2.0, 1.0])
        with pytest.raises(ValueError):
            ReplayArrivals([-1.0])
        with pytest.raises(TypeError):
            ReplayArrivals.from_qps(2.0)

    def test_gamma_burst_mean_rate(self):
        times = get_arrival_process("gamma-burst", qps=5.0, burstiness=4.0).times(4000, seed=1)
        assert 4000 / times[-1] == pytest.approx(5.0, rel=0.15)


class TestTenants:
    def test_duplicate_tenant_names_rejected(self):
        tenants = (TenantSpec("a", "internal"), TenantSpec("a", "arxiv"))
        with pytest.raises(ValueError, match="duplicate"):
            compose_tenants(tenants, 10)

    def test_empty_tenants_rejected(self):
        with pytest.raises(ValueError):
            compose_tenants((), 10)

    def test_weights_steer_traffic_share(self):
        tenants = (
            TenantSpec("heavy", "short-chat", weight=9.0),
            TenantSpec("light", "short-chat", weight=1.0),
        )
        requests = compose_tenants(tenants, 400, seed=0)
        heavy = sum(1 for r in requests if r.tenant == "heavy")
        assert heavy / 400 == pytest.approx(0.9, abs=0.08)

    def test_slo_targets_mapping(self):
        tenants = (
            TenantSpec("chat", "short-chat", SLO_CLASSES["interactive"]),
            TenantSpec("batch", "rag", SLO_CLASSES["batch"]),
        )
        targets = slo_targets(tenants)
        assert targets["chat"].ttft_target_s < targets["batch"].ttft_target_s


class TestTraceIO:
    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="expected header"):
            load_trace(path)

    def test_empty_trace_rejected(self, tmp_path):
        requests = build_scenario("short-chat-diurnal", num_requests=1, seed=0)
        with pytest.raises(ValueError):
            save_trace([], tmp_path / "x.csv")
        path = save_trace(requests, tmp_path / "only_header_next.csv")
        path.write_text(path.read_text().splitlines()[0] + "\n")
        with pytest.raises(ValueError, match="no requests"):
            load_trace(path)

    def test_malformed_row_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("request_id,arrival_time,prefill_tokens,decode_tokens,tenant\n0,1.0,5\n")
        with pytest.raises(ValueError, match="expected 5 fields"):
            load_trace(path)

    @pytest.mark.parametrize(
        "row, field",
        [
            ("1,nan,64,4,", "arrival_time"),
            ("1,inf,64,4,", "arrival_time"),
            ("1,-0.5,64,4,", "arrival_time"),
            ("1,0.5,x,4,", "invalid literal"),
        ],
    )
    def test_bad_row_names_file_and_line(self, tmp_path, row, field):
        path = tmp_path / "bad_row.csv"
        header = "request_id,arrival_time,prefill_tokens,decode_tokens,tenant"
        path.write_text(f"{header}\n0,0.1,64,4,\n{row}\n")
        with pytest.raises(ValueError, match=f"bad_row.csv:3: .*{field}"):
            load_trace(path)

    def test_replay_through_simulator(self, tmp_path, llama3_deployment, single_replica):
        """Trace → CSV → ReplayArrivals → simulator: the full replay loop."""
        original = build_scenario("multi-tenant-slo", num_requests=8, seed=4)
        path = save_trace(original, tmp_path / "trace.csv")
        loaded = load_trace(path)
        replay = ReplayArrivals([r.arrival_time for r in loaded])
        assert replay.times(len(loaded)) == [r.arrival_time for r in original]
        simulator = single_replica(
            llama3_deployment,
            scheduler=SarathiScheduler(chunk_size=1024),
            backend=PODBackend(llama3_deployment),
        )
        result = simulator.run(loaded)
        assert result.metrics.fleet.num_requests == 8


class TestSimulatorIntegration:
    def test_serving_simulator_run_scenario_deterministic(self, llama3_deployment, single_replica):
        def run():
            simulator = single_replica(
                llama3_deployment,
                scheduler=SarathiScheduler(chunk_size=1024),
                backend=PODBackend(llama3_deployment),
            )
            return simulator.run_scenario("code-completion-surge", num_requests=12, seed=3)

        first, second = run(), run()
        assert first.metrics == second.metrics

    def test_cluster_simulator_run_scenario_slices_tenants(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=2)
        simulator = ClusterSimulator(topology_from_spec(spec), router="round-robin")
        result = simulator.run_scenario("multi-tenant-slo", num_requests=12, seed=1, qps=4.0)
        assert result.metrics.per_tenant
        assert sum(m.num_requests for m in result.metrics.per_tenant.values()) == 12
        rows = result.metrics.tenant_rows()
        assert {row["tenant"] for row in rows} == set(result.metrics.per_tenant)

    def test_sweep_point_accepts_scenario_workloads(self):
        point = ClusterSweepPoint(
            num_replicas=2,
            workload="rag-burst",
            qps_per_replica=0.7,
            requests_per_replica=4,
            seed=2,
        )
        row = run_sweep_point(point)
        assert row["workload"] == "rag-burst"
        assert row["req_per_min"] > 0
        assert row["requests"] == 8

    def test_sweep_point_unknown_workload_rejected(self):
        point = ClusterSweepPoint(num_replicas=1, workload="no-such-scenario")
        with pytest.raises(ValueError, match="unknown scenario"):
            run_sweep_point(point)

    def test_untenanted_cluster_run_has_no_tenant_slices(self, llama3_deployment):
        spec = ClusterSpec(llama3_deployment, num_replicas=1)
        simulator = ClusterSimulator(topology_from_spec(spec), router="round-robin")
        result = simulator.run_scenario("arxiv-summarization", num_requests=4, seed=0, qps=2.0)
        assert result.metrics.per_tenant == {}
        assert result.metrics.tenant_rows() == []
