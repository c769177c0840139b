"""Perf/regression gate: diff fresh benchmark artifacts against baselines.

The benchmark suite regenerates every ``results/*.csv`` / ``results/*.json``
artifact deterministically (seeded RNGs, analytic cost models).  This module
compares a freshly generated results directory against a committed baseline
snapshot with per-metric tolerances and reports every divergence — the CI
perf gate runs it (as ``repro diff``) after the benchmarks and fails the
build on any regression::

    cp -r results results-baseline        # snapshot the committed artifacts
    python -m pytest benchmarks -x -q     # regenerates results/
    python -m repro diff --baseline results-baseline --current results

Exit status is 0 when every artifact matches within tolerance and 1
otherwise; ``--list`` shows which artifacts would be compared.  To
*intentionally* re-baseline after a behaviour change, regenerate the
benchmarks and commit the updated ``results/`` files (see README
"Verification").
"""

from __future__ import annotations

import csv
import fnmatch
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Sequence

#: Default tolerance for numeric metrics: matches the golden-regression
#: harness — tight enough to trip on behaviour changes, loose enough to
#: absorb last-ulp float differences after the benchmarks' rounding.
DEFAULT_RTOL = 2e-3
DEFAULT_ATOL = 2e-3

#: Per-column tolerance overrides as ``(glob pattern, rtol, atol)``; first
#: match wins.  Percentage-valued columns get a small absolute floor so a
#: 0.0→0.01 stall-fraction jitter does not gate the build.
DEFAULT_COLUMN_TOLERANCES: tuple[tuple[str, float, float], ...] = (
    ("*_pct", 2e-3, 0.05),
    ("util_*", 2e-3, 0.005),
)


@dataclass(frozen=True)
class Tolerance:
    rtol: float
    atol: float

    def matches(self, expected: float, actual: float) -> bool:
        return abs(actual - expected) <= self.atol + self.rtol * abs(expected)


def column_tolerance(
    column: str,
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
    overrides: Sequence[tuple[str, float, float]] = DEFAULT_COLUMN_TOLERANCES,
) -> Tolerance:
    """Tolerance for one metric column (first matching override wins)."""
    for pattern, o_rtol, o_atol in overrides:
        if fnmatch.fnmatch(column, pattern):
            return Tolerance(o_rtol, o_atol)
    return Tolerance(rtol, atol)


def _parse_value(value: Any) -> Any:
    """CSV cells arrive as strings; recover numbers where possible."""
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return value
    return value


def load_rows(path: Path) -> list[dict[str, Any]]:
    """Load one artifact (CSV or benchmark-JSON) into a list of row dicts."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return [dict(row) for row in payload["rows"]]
    with path.open(newline="") as handle:
        return [
            {key: _parse_value(value) for key, value in row.items()}
            for row in csv.DictReader(handle)
        ]


def compare_rows(
    name: str,
    baseline: list[dict[str, Any]],
    current: list[dict[str, Any]],
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[str]:
    """Row-by-row diff of one artifact; returns human-readable regressions."""
    regressions: list[str] = []
    if len(baseline) != len(current):
        return [f"{name}: row count changed ({len(baseline)} baseline, {len(current)} current)"]
    for index, (expected, actual) in enumerate(zip(baseline, current)):
        if set(expected) != set(actual):
            regressions.append(f"{name} row {index}: columns changed")
            continue
        for column, value in expected.items():
            got = actual[column]
            if isinstance(value, (int, float)) and isinstance(got, (int, float)):
                if not column_tolerance(column, rtol, atol).matches(float(value), float(got)):
                    regressions.append(
                        f"{name} row {index} column {column!r}: baseline {value}, "
                        f"current {got}"
                    )
            elif str(value) != str(got):
                regressions.append(
                    f"{name} row {index} column {column!r}: baseline {value!r}, "
                    f"current {got!r}"
                )
    return regressions


#: Artifacts never compared by the gate: ``BENCH_*.json`` files are host
#: self-profiles (wall clock / peak RSS — machine-dependent by nature),
#: uploaded as CI artifacts for trend-watching but meaningless to diff.
EXCLUDED_ARTIFACTS = ("BENCH_*",)


def discover_artifacts(directory: Path, patterns: Sequence[str]) -> list[Path]:
    """Result artifacts in ``directory`` matching any of ``patterns``."""
    found: list[Path] = []
    for pattern in patterns:
        found.extend(sorted(directory.glob(pattern)))
    # De-duplicate while preserving order (a file can match two patterns).
    unique: dict[Path, None] = {
        path: None
        for path in found
        if not any(fnmatch.fnmatch(path.name, skip) for skip in EXCLUDED_ARTIFACTS)
    }
    return list(unique)


def compare_directories(
    baseline_dir: Path,
    current_dir: Path,
    patterns: Sequence[str] = ("*.csv", "*.json"),
    rtol: float = DEFAULT_RTOL,
    atol: float = DEFAULT_ATOL,
) -> list[str]:
    """Diff every baseline artifact against its freshly generated counterpart."""
    regressions: list[str] = []
    artifacts = discover_artifacts(baseline_dir, patterns)
    if not artifacts:
        return [f"no baseline artifacts found under {baseline_dir}"]
    for baseline_path in artifacts:
        current_path = current_dir / baseline_path.name
        if not current_path.exists():
            regressions.append(f"{baseline_path.name}: missing from {current_dir}")
            continue
        try:
            baseline_rows = load_rows(baseline_path)
            current_rows = load_rows(current_path)
        except (json.JSONDecodeError, KeyError, csv.Error) as error:
            regressions.append(f"{baseline_path.name}: unreadable artifact ({error})")
            continue
        regressions.extend(
            compare_rows(baseline_path.name, baseline_rows, current_rows, rtol, atol)
        )
    return regressions


def write_markdown_summary(
    path: Path,
    baseline_dir: Path,
    artifacts: Sequence[Path],
    regressions: Sequence[str],
) -> None:
    """Append a GitHub-flavoured markdown report (for ``$GITHUB_STEP_SUMMARY``).

    Reviewers get the verdict and the per-metric deltas in the workflow run's
    summary page instead of having to scroll build logs.
    """
    lines = ["## Perf regression gate", ""]
    if regressions:
        lines.append(
            f"❌ **{len(regressions)} regression(s)** against `{baseline_dir}`:"
        )
        lines.append("")
        lines.append("| # | divergence |")
        lines.append("|---|---|")
        for index, regression in enumerate(regressions, 1):
            escaped = regression.replace("|", "\\|")
            lines.append(f"| {index} | {escaped} |")
    else:
        lines.append(
            f"✅ **{len(artifacts)} artifact(s)** match `{baseline_dir}` within "
            f"tolerance."
        )
        lines.append("")
        lines.append("<details><summary>Artifacts compared</summary>")
        lines.append("")
        for artifact in artifacts:
            lines.append(f"- `{artifact.name}`")
        lines.append("")
        lines.append("</details>")
    lines.append("")
    with path.open("a") as handle:
        handle.write("\n".join(lines))
