"""The ``repro`` operator CLI: help surface, dispatch, and subcommand smoke runs."""

from __future__ import annotations

import csv
import io
import json

import pytest

from repro.cli import build_parser, main

SUBCOMMANDS = ("run", "sweep", "plan", "report", "diff", "lint")


def subparser(name):
    parser = build_parser()
    for action in parser._actions:
        if hasattr(action, "choices") and isinstance(action.choices, dict):
            return action.choices[name]
    raise AssertionError("no subparsers registered")


class TestHelpSurface:
    """Structural --help snapshots: stable across argparse's per-version
    formatting differences, strict about the option surface itself."""

    def test_top_level_lists_every_subcommand(self):
        text = build_parser().format_help()
        for name in SUBCOMMANDS:
            assert name in text

    @pytest.mark.parametrize("name", SUBCOMMANDS)
    def test_subcommand_help_renders(self, name):
        text = subparser(name).format_help()
        assert "usage:" in text
        assert f"repro {name}" in text

    @pytest.mark.parametrize(
        "name, options",
        [
            (
                "run",
                {
                    "--scenario", "--num-requests", "--seed", "--qps", "--model",
                    "--replicas", "--topology", "--prefill-replicas", "--router",
                    "--mix", "--chunk-size", "--backend", "--list", "--format", "--out",
                },
            ),
            (
                "sweep",
                {
                    "--scenario", "--replicas", "--topologies", "--routers",
                    "--qps-per-replica", "--requests-per-replica", "--chunk-size",
                    "--serial", "--format", "--out",
                },
            ),
            (
                "plan",
                {
                    "--scenario", "--replica-counts", "--topologies",
                    "--prefill-fractions", "--chunk-sizes", "--routers", "--mixes",
                    "--ttft-p99", "--tbt-p99", "--latency-p99", "--format", "--out",
                },
            ),
            (
                "report",
                {
                    "--scenario", "--replicas", "--router", "--capacity-tokens",
                    "--interval", "--out",
                },
            ),
            (
                "diff",
                {
                    "--baseline", "--current", "--pattern", "--rtol", "--atol",
                    "--list", "--markdown-summary", "--format", "--out",
                },
            ),
            (
                "lint",
                {
                    "--format", "--rules", "--baseline", "--write-baseline", "--root",
                    "--list-rules",
                },
            ),
        ],
    )
    def test_option_surface(self, name, options):
        declared = {
            string
            for action in subparser(name)._actions
            for string in action.option_strings
        }
        missing = options - declared
        assert not missing, f"repro {name} lost options: {sorted(missing)}"

    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 2
        capsys.readouterr()


class TestRun:
    def test_single_replica_json(self, capsys):
        assert main(["run", "--num-requests", "6", "--seed", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "run"
        assert payload["metrics"]["req_per_min"] > 0
        # One replica is a one-replica fleet: same payload as any cluster run.
        assert payload["metrics"]["replicas"] == 1
        assert set(payload) == {"command", "config", "metrics", "economics", "control"}

    def test_cluster_json_carries_economics(self, capsys):
        assert (
            main(
                [
                    "run", "--num-requests", "8", "--seed", "1",
                    "--replicas", "2", "--router", "cost-aware",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["metrics"]["replicas"] == 2
        assert payload["economics"]["cost_usd"] > 0
        assert payload["economics"]["fleet_usd_per_hour"] > 0

    def test_heterogeneous_mix_csv(self, capsys):
        assert (
            main(
                [
                    "run", "--num-requests", "8", "--seed", "1",
                    "--mix", "a100:1+a6000:1~", "--router", "cost-aware",
                    "--format", "csv",
                ]
            )
            == 0
        )
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 1
        assert rows[0]["mix"] == "a100:1+a6000:1~"
        assert float(rows[0]["cost_usd"]) > 0

    def test_list_scenarios(self, capsys):
        assert main(["run", "--list"]) == 0
        payload = json.loads(capsys.readouterr().out)
        names = {row["scenario"] for row in payload["scenarios"]}
        assert "shared-prefix-chat" in names

    def test_out_file_writes_manifest(self, tmp_path, capsys):
        out = tmp_path / "run.json"
        assert main(["run", "--num-requests", "4", "--seed", "1", "--out", str(out)]) == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["wrote"] == str(out)
        json.loads(out.read_text())


class TestSweep:
    def test_serial_grid(self, capsys):
        assert (
            main(
                [
                    "sweep", "--scenario", "arxiv", "--replicas", "1", "2",
                    "--requests-per-replica", "4", "--serial", "--format", "csv",
                ]
            )
            == 0
        )
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["replicas"] for row in rows] == ["1", "2"]


class TestPlan:
    def test_small_grid_json(self, capsys):
        assert (
            main(
                [
                    "plan", "--num-requests", "8", "--seed", "3",
                    "--replica-counts", "2", "--mixes", "a100", "a6000~",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["candidates"] == 2
        assert len(payload["candidates"]) == 2
        assert payload["best"] is None or payload["best"]["feasible"] == 1


class TestReport:
    def test_bundle_manifest(self, tmp_path, capsys):
        out = tmp_path / "bundle"
        assert (
            main(
                [
                    "report", "--scenario", "shared-prefix-chat",
                    "--num-requests", "6", "--seed", "1", "--out", str(out),
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert (out / "report.html").exists()
        assert payload["summary"]["scenario"] == "shared-prefix-chat"


class TestDiff:
    def test_identical_directories_pass(self, capsys):
        assert main(["diff", "--baseline", "results", "--current", "results"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True and payload["regressions"] == []

    def test_divergence_fails(self, tmp_path, capsys):
        baseline, current = tmp_path / "base", tmp_path / "cur"
        baseline.mkdir(), current.mkdir()
        (baseline / "t.csv").write_text("metric,value\nthroughput,100.0\n")
        (current / "t.csv").write_text("metric,value\nthroughput,50.0\n")
        assert main(["diff", "--baseline", str(baseline), "--current", str(current)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False and payload["regressions"]

    def test_list_artifacts(self, capsys):
        assert main(["diff", "--baseline", "results", "--current", "results", "--list"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "fig21_capacity_planner.csv" in payload["artifacts"]


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "repro" in proc.stdout
