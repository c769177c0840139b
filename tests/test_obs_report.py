"""Run-report generator: artifact bundle contents and ``repro report``."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.obs.report import generate_report, scenario_telemetry


@pytest.fixture(scope="module")
def small_run():
    return scenario_telemetry(
        "shared-prefix-chat", num_requests=12, seed=19, capacity_tokens=8192
    )


class TestGenerateReport:
    def test_bundle_files(self, small_run, tmp_path):
        telemetry, summary = small_run
        paths = generate_report(telemetry, tmp_path, title="t", summary=summary)
        assert set(paths) == {"html", "markdown", "timeseries_csv", "trace_json"}
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_html_is_self_contained(self, small_run, tmp_path):
        telemetry, summary = small_run
        paths = generate_report(
            telemetry, tmp_path, title="shared-prefix report", summary=summary
        )
        html = paths["html"].read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "shared-prefix report" in html
        for section in (
            "Latency distributions",
            "Fleet time-series",
            "Slowest requests",
            "Metric registry",
        ):
            assert section in html
        assert "request_e2e_s" in html
        assert "<script src=" not in html  # no external assets

    def test_markdown_tables(self, small_run, tmp_path):
        telemetry, summary = small_run
        paths = generate_report(telemetry, tmp_path, title="md", summary=summary)
        markdown = paths["markdown"].read_text()
        assert markdown.startswith("# md")
        assert "| metric |" in markdown or "| request |" in markdown
        assert "## Slowest requests" in markdown

    def test_trace_json_loads(self, small_run, tmp_path):
        telemetry, _ = small_run
        paths = generate_report(telemetry, tmp_path, title="t")
        payload = json.loads(paths["trace_json"].read_text())
        assert payload["traceEvents"]


class TestCLI:
    def test_single_replica_smoke(self, tmp_path, capsys):
        code = main(
            [
                "report",
                "--scenario",
                "shared-prefix-chat",
                "--num-requests",
                "8",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "report"),
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert (tmp_path / "report" / "report.html").exists()
        assert manifest["summary"]["scenario"] == "shared-prefix-chat"

    def test_cluster_smoke(self, tmp_path, capsys):
        code = main(
            [
                "report",
                "--scenario",
                "shared-prefix-chat",
                "--num-requests",
                "12",
                "--replicas",
                "2",
                "--router",
                "prefix-affinity",
                "--out",
                str(tmp_path / "cluster-report"),
            ]
        )
        assert code == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["summary"]["replicas"] == 2
        assert (tmp_path / "cluster-report" / "timeseries.csv").exists()
