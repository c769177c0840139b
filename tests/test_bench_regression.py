"""Tests for the perf/regression gate (``repro.bench.regression``, run as ``repro diff``).

The acceptance demonstration lives here: perturbing a *committed* baseline
metric beyond tolerance makes the gate exit nonzero, while an identical copy
passes.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import pytest

from repro.bench.regression import (
    DEFAULT_ATOL,
    column_tolerance,
    compare_directories,
    compare_rows,
    load_rows,
)
from repro.cli import main

RESULTS_DIR = Path(__file__).resolve().parents[1] / "results"


def write_csv(path: Path, rows: list[dict]) -> None:
    with path.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture()
def dirs(tmp_path):
    baseline = tmp_path / "baseline"
    current = tmp_path / "current"
    baseline.mkdir()
    current.mkdir()
    rows = [
        {"system": "Sarathi", "qps": "0.85", "req_per_min": "20.42", "stalls_pct": "1.2"},
        {"system": "vLLM", "qps": "0.85", "req_per_min": "18.10", "stalls_pct": "14.6"},
    ]
    write_csv(baseline / "tab.csv", rows)
    write_csv(current / "tab.csv", rows)
    payload = {"title": "t", "columns": ["a", "b"], "rows": [{"a": 1, "b": 2.5}]}
    (baseline / "sweep.json").write_text(json.dumps(payload))
    (current / "sweep.json").write_text(json.dumps(payload))
    return baseline, current


class TestLoadRows:
    def test_csv_numbers_are_parsed(self, dirs):
        baseline, _ = dirs
        rows = load_rows(baseline / "tab.csv")
        assert rows[0]["req_per_min"] == 20.42
        assert rows[0]["system"] == "Sarathi"

    def test_json_rows_keep_native_types(self, dirs):
        baseline, _ = dirs
        rows = load_rows(baseline / "sweep.json")
        assert rows == [{"a": 1, "b": 2.5}]


class TestCompare:
    def test_identical_directories_pass(self, dirs):
        baseline, current = dirs
        assert compare_directories(baseline, current) == []

    def test_out_of_tolerance_metric_is_a_regression(self, dirs):
        baseline, current = dirs
        rows = load_rows(current / "tab.csv")
        rows[0]["req_per_min"] = 22.5  # ~10% off
        write_csv(current / "tab.csv", [{k: str(v) for k, v in r.items()} for r in rows])
        regressions = compare_directories(baseline, current)
        assert len(regressions) == 1
        assert "req_per_min" in regressions[0]

    def test_within_tolerance_jitter_passes(self, dirs):
        baseline, current = dirs
        rows = load_rows(current / "tab.csv")
        rows[0]["req_per_min"] = 20.42 * (1 + 1e-4)
        write_csv(current / "tab.csv", [{k: str(v) for k, v in r.items()} for r in rows])
        assert compare_directories(baseline, current) == []

    def test_row_count_change_is_a_regression(self, dirs):
        baseline, current = dirs
        rows = load_rows(current / "tab.csv")
        write_csv(current / "tab.csv", [{k: str(v) for k, v in rows[0].items()}])
        regressions = compare_directories(baseline, current)
        assert any("row count changed" in line for line in regressions)

    def test_missing_artifact_is_a_regression(self, dirs):
        baseline, current = dirs
        (current / "tab.csv").unlink()
        regressions = compare_directories(baseline, current)
        assert any("missing" in line for line in regressions)

    def test_string_column_change_is_a_regression(self, dirs):
        baseline, current = dirs
        rows = load_rows(current / "tab.csv")
        rows[1]["system"] = "vLLM2"
        write_csv(current / "tab.csv", [{k: str(v) for k, v in r.items()} for r in rows])
        regressions = compare_directories(baseline, current)
        assert any("'system'" in line for line in regressions)

    def test_empty_baseline_fails_loudly(self, tmp_path):
        baseline = tmp_path / "empty"
        baseline.mkdir()
        regressions = compare_directories(baseline, tmp_path)
        assert any("no baseline artifacts" in line for line in regressions)


class TestColumnTolerances:
    def test_percent_columns_get_an_absolute_floor(self):
        tolerance = column_tolerance("stalls_200ms_pct")
        assert tolerance.atol == 0.05
        assert tolerance.matches(0.0, 0.04)
        assert not tolerance.matches(0.0, 0.5)

    def test_default_tolerance_is_tight(self):
        tolerance = column_tolerance("req_per_min")
        assert tolerance.atol == DEFAULT_ATOL
        assert not tolerance.matches(20.0, 21.0)

    def test_compare_rows_uses_overrides(self):
        baseline = [{"stalls_pct": 0.0}]
        assert compare_rows("x", baseline, [{"stalls_pct": 0.04}]) == []
        assert compare_rows("x", baseline, [{"stalls_pct": 0.5}]) != []


def diff(*args: str) -> int:
    return main(["diff", *args])


class TestCLIGate:
    """Acceptance: ``repro diff`` exits nonzero when a committed metric is perturbed."""

    def test_clean_copy_of_committed_results_passes(self, tmp_path):
        snapshot = tmp_path / "snapshot"
        shutil.copytree(RESULTS_DIR, snapshot)
        assert diff("--baseline", str(snapshot), "--current", str(RESULTS_DIR)) == 0

    def test_perturbed_committed_metric_fails(self, tmp_path, capsys):
        perturbed = tmp_path / "perturbed"
        shutil.copytree(RESULTS_DIR, perturbed)
        path = perturbed / "fig15_pd_ratio.csv"
        rows = list(csv.DictReader(path.open()))
        rows[0]["Sarathi_req_per_min"] = str(
            float(rows[0]["Sarathi_req_per_min"]) * 1.05
        )
        write_csv(path, rows)
        exit_code = diff("--baseline", str(RESULTS_DIR), "--current", str(perturbed))
        assert exit_code == 1
        assert "Sarathi_req_per_min" in capsys.readouterr().out

    def test_list_mode(self, capsys):
        assert diff("--baseline", str(RESULTS_DIR), "--current", str(RESULTS_DIR), "--list") == 0
        out = capsys.readouterr().out
        assert "fig15_pd_ratio.csv" in out
        assert "fig16_cluster_scaling.json" in out

    def test_markdown_summary_appends_the_verdict(self, tmp_path, capsys):
        summary = tmp_path / "summary.md"
        summary.write_text("# earlier step\n")
        clean = ["--baseline", str(RESULTS_DIR), "--current", str(RESULTS_DIR)]
        assert diff(*clean, "--markdown-summary", str(summary)) == 0
        perturbed = tmp_path / "perturbed"
        perturbed.mkdir()
        (perturbed / "t.csv").write_text("metric,value\nthroughput,50.0\n")
        baseline = tmp_path / "baseline"
        baseline.mkdir()
        (baseline / "t.csv").write_text("metric,value\nthroughput,100.0\n")
        args = ["--baseline", str(baseline), "--current", str(perturbed)]
        assert diff(*args, "--markdown-summary", str(summary)) == 1
        capsys.readouterr()
        text = summary.read_text()
        assert text.startswith("# earlier step\n")
        assert text.count("## Perf regression gate") == 2
        assert "artifact(s)** match" in text
        assert "**1 regression(s)**" in text and "column 'value'" in text
