"""Tests for the parallel cluster sweep runner and its bench integration."""

from __future__ import annotations

import json

import pytest

from repro.bench.reporting import ResultTable
from repro.bench.sweeps import cluster_scaling_grid
from repro.cluster import sweep
from repro.cluster.sweep import ClusterSweepPoint, run_cluster_sweep, run_sweep_point
from repro.models.config import ClusterSpec, paper_deployment

FAST = dict(requests_per_replica=6, qps_per_replica=1.0, seed=11)


class TestGrid:
    def test_grid_shape(self):
        grid = cluster_scaling_grid(
            cluster_sizes=(2, 4),
            routers=("round-robin", "least-tokens", "prefill-aware"),
            topologies=("colocated", "disaggregated"),
        )
        assert len(grid) == 12
        assert {p.num_replicas for p in grid} == {2, 4}
        assert {p.router for p in grid} == {"round-robin", "least-tokens", "prefill-aware"}
        assert {p.topology for p in grid} == {"colocated", "disaggregated"}

    def test_grid_forwards_common_kwargs(self):
        grid = cluster_scaling_grid(cluster_sizes=(2,), requests_per_replica=7, seed=3)
        assert all(p.requests_per_replica == 7 and p.seed == 3 for p in grid)

    def test_iso_load_scaling(self):
        point = ClusterSweepPoint(num_replicas=4, qps_per_replica=0.85, requests_per_replica=10)
        assert point.num_requests == 40
        assert point.qps == pytest.approx(3.4)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            ClusterSweepPoint(num_replicas=0)
        with pytest.raises(ValueError):
            ClusterSweepPoint(num_replicas=2, qps_per_replica=0.0)

    def test_label(self):
        point = ClusterSweepPoint(num_replicas=2, router="least-tokens")
        assert "least-tokens" in point.label()
        assert "x2" in point.label()


class TestRunner:
    def test_single_point(self):
        row = run_sweep_point(ClusterSweepPoint(num_replicas=2, **FAST))
        assert row["topology"] == "colocated"
        assert row["replicas"] == 2
        assert row["requests"] == 12
        assert row["gpus"] == 4  # llama-3-8b is TP-2
        assert row["req_per_min"] > 0

    def test_point_runs_through_run_scenario(self, monkeypatch):
        """A point is one ``run_scenario`` call on the point's ``ClusterSpec``,
        its workload label resolved to its scenario, and its row carries
        that run's metrics."""
        calls = []
        run_scenario = sweep.run_scenario

        def recorded(name, **kwargs):
            calls.append((name, kwargs))
            return run_scenario(name, **kwargs)

        monkeypatch.setattr(sweep, "run_scenario", recorded)
        point = ClusterSweepPoint(
            num_replicas=2, router="least-tokens", topology="disaggregated", **FAST
        )
        row = run_sweep_point(point)
        ((name, kwargs),) = calls
        assert name == "arxiv-summarization"
        assert kwargs == {
            "spec": ClusterSpec(paper_deployment("llama-3-8b"), 2, topology="disaggregated"),
            "num_requests": 12,
            "seed": 11,
            "qps": point.qps,
            "router": "least-tokens",
            "chunk_size": 1024,
        }
        metrics = run_scenario(name, **kwargs).metrics.as_row()
        assert {key: row[key] for key in metrics} == metrics

    def test_serial_matches_parallel(self):
        grid = [
            ClusterSweepPoint(num_replicas=2, router="round-robin", **FAST),
            ClusterSweepPoint(num_replicas=2, router="least-tokens", **FAST),
            ClusterSweepPoint(
                num_replicas=2, router="round-robin", topology="disaggregated", **FAST
            ),
        ]
        serial = run_cluster_sweep(grid, parallel=False)
        parallel = run_cluster_sweep(grid, max_workers=2)
        assert serial == parallel

    def test_results_in_input_order(self):
        grid = [
            ClusterSweepPoint(num_replicas=size, **FAST)
            for size in (3, 2)
        ]
        rows = run_cluster_sweep(grid, max_workers=2)
        assert [row["replicas"] for row in rows] == [3, 2]

    def test_empty_grid(self):
        assert run_cluster_sweep([]) == []

    def test_disaggregated_point_reports_transfers(self):
        row = run_sweep_point(
            ClusterSweepPoint(num_replicas=2, topology="disaggregated", **FAST)
        )
        assert row["topology"] == "disaggregated"
        assert row["kv_transfers"] > 0
        assert row["kv_transfer_ms_mean"] > 0


class TestReportingIntegration:
    def test_save_json_round_trip(self, tmp_path):
        table = ResultTable("cluster scaling")
        table.add_row({"topology": "colocated", "req_per_min": 12.5, "replicas": 2})
        table.add_row({"topology": "disaggregated", "req_per_min": 11.0, "replicas": 2})
        path = table.save_json(tmp_path / "sweep.json")
        payload = json.loads(path.read_text())
        assert payload["title"] == "cluster scaling"
        assert payload["columns"] == ["topology", "req_per_min", "replicas"]
        assert payload["rows"][1]["replicas"] == 2  # native int preserved

    def test_save_json_creates_parents(self, tmp_path):
        table = ResultTable("t")
        table.add_row({"a": 1})
        path = table.save_json(tmp_path / "nested" / "dir" / "out.json")
        assert path.exists()
