"""CLI, baseline and reporter tests for ``repro lint``.

Exit-code contract: 0 when nothing is new against the baseline, 1 when at
least one finding is, 2 on usage errors.  Tests drive ``repro lint`` through
:func:`repro.cli.main` on ``tmp_path`` trees so they never depend on the
repo's own sources or its committed baseline.
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from repro.analysis.baseline import load_baseline, subtract_baseline, write_baseline
from repro.analysis.findings import Finding
from repro.analysis.report import Report, render_json, render_text
from repro.cli import main as repro_main

CLEAN = "import numpy as np\nrng = np.random.default_rng(7)\n"
DIRTY = "import numpy as np\nnp.random.shuffle(xs)\ntotal = np.random.random()\n"


@pytest.fixture
def tree(tmp_path):
    """A tiny package tree with one clean and one dirty module."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "clean.py").write_text(CLEAN)
    (pkg / "dirty.py").write_text(DIRTY)
    return tmp_path


def main(argv):
    """``repro lint <argv>``."""
    return repro_main(["lint", *argv])


def run_cli(args, tree):
    """Run ``repro lint`` rooted at the fixture tree, never the repo baseline."""
    return main([str(tree / "pkg"), "--root", str(tree), *args])


# ------------------------------------------------------------------ exit codes


class TestExitCodes:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert main([str(tmp_path / "mod.py"), "--root", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "OK: 0 new finding(s)" in out

    def test_findings_exit_one(self, tree, capsys):
        assert run_cli([], tree) == 1
        out = capsys.readouterr().out
        assert "FAIL: 2 new finding(s)" in out
        assert "pkg/dirty.py:2:0: determinism:" in out

    def test_unknown_rule_exits_two(self, tree):
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--rules", "no-such-rule"], tree)
        assert excinfo.value.code == 2

    def test_missing_path_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope.txt"), "--root", str(tmp_path)])
        assert excinfo.value.code == 2

    def test_rules_subset_limits_what_gates(self, tree):
        assert run_cli(["--rules", "determinism"], tree) == 1
        assert run_cli(["--rules", "default-off,caller-mutation"], tree) == 0

    def test_list_rules_prints_registry(self, tree, capsys):
        assert run_cli(["--list-rules"], tree) == 0
        out = capsys.readouterr().out
        for name in ("event-schema", "determinism", "default-off", "caller-mutation"):
            assert f"{name}:" in out


# -------------------------------------------------------------------- baseline


class TestBaselineWorkflow:
    def test_write_then_rerun_is_green(self, tree, capsys):
        baseline = tree / "baseline.json"
        assert run_cli(["--write-baseline", "--baseline", str(baseline)], tree) == 0
        assert "wrote 2 finding(s)" in capsys.readouterr().err
        assert run_cli(["--baseline", str(baseline)], tree) == 0
        out = capsys.readouterr().out
        assert "OK: 0 new finding(s), 2 baselined" in out

    def test_new_finding_still_gates_with_baseline(self, tree):
        baseline = tree / "baseline.json"
        run_cli(["--write-baseline", "--baseline", str(baseline)], tree)
        dirty = tree / "pkg" / "dirty.py"
        dirty.write_text(dirty.read_text() + "draw = np.random.normal()\n")
        assert run_cli(["--baseline", str(baseline)], tree) == 1

    def test_fixing_a_baselined_finding_stays_green(self, tree):
        baseline = tree / "baseline.json"
        run_cli(["--write-baseline", "--baseline", str(baseline)], tree)
        (tree / "pkg" / "dirty.py").write_text(CLEAN)
        assert run_cli(["--baseline", str(baseline)], tree) == 0

    def test_corrupt_baseline_is_a_usage_error(self, tree):
        baseline = tree / "baseline.json"
        baseline.write_text('{"version": 99, "findings": []}')
        with pytest.raises(SystemExit) as excinfo:
            run_cli(["--baseline", str(baseline)], tree)
        assert excinfo.value.code == 2

    def test_round_trip_preserves_fingerprint_counts(self, tmp_path):
        findings = [
            Finding("determinism", "a.py", 3, 0, "msg one"),
            Finding("determinism", "a.py", 9, 4, "msg one"),  # duplicate fingerprint
            Finding("event-schema", "b.py", 1, 0, "msg two"),
        ]
        path = tmp_path / "baseline.json"
        write_baseline(path, findings)
        loaded = load_baseline(path)
        assert loaded == Counter(
            {
                ("determinism", "a.py", "msg one"): 2,
                ("event-schema", "b.py", "msg two"): 1,
            }
        )

    def test_subtract_keeps_extra_duplicates_as_new(self):
        finding = Finding("determinism", "a.py", 3, 0, "msg")
        baseline = Counter({finding.fingerprint(): 1})
        new, baselined = subtract_baseline([finding, finding], baseline)
        assert len(baselined) == 1
        assert len(new) == 1

    def test_write_is_deterministic(self, tmp_path):
        findings = [
            Finding("event-schema", "b.py", 1, 0, "zz"),
            Finding("determinism", "a.py", 5, 0, "aa"),
        ]
        first, second = tmp_path / "one.json", tmp_path / "two.json"
        write_baseline(first, findings)
        write_baseline(second, list(reversed(findings)))
        assert first.read_bytes() == second.read_bytes()


# ------------------------------------------------------------------- reporters


class TestReporters:
    def test_json_payload_shape(self, tree, capsys):
        assert run_cli(["--format", "json"], tree) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["files_checked"] == 2
        assert payload["counts"] == {"new": 2, "baselined": 0, "suppressed": 0}
        assert sorted(payload["rules"]) == [
            "caller-mutation",
            "default-off",
            "determinism",
            "event-schema",
        ]
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["path"] == "pkg/dirty.py"

    def test_json_suppressed_entries_carry_reason(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "import time\n"
            "time.time()  # repro-lint: disable=determinism -- profiler wall time\n"
        )
        code = main(
            [str(tmp_path / "mod.py"), "--root", str(tmp_path), "--format", "json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["suppressed"] == 1
        assert payload["suppressed"][0]["reason"] == "profiler wall time"

    def test_text_report_tail_summarizes_run(self):
        report = Report(
            new=[],
            baselined=[Finding("determinism", "a.py", 1, 0, "old")],
            suppressed=[],
            files_checked=3,
            rules=["determinism"],
        )
        text = render_text(report)
        assert text.endswith(
            "OK: 0 new finding(s), 1 baselined, 0 suppressed across 3 file(s) "
            "[rules: determinism]"
        )
        assert report.exit_code == 0

    def test_json_and_text_agree_on_verdict(self):
        report = Report(
            new=[Finding("determinism", "a.py", 1, 0, "fresh")],
            baselined=[],
            suppressed=[],
            files_checked=1,
            rules=["determinism"],
        )
        assert report.exit_code == 1
        assert "FAIL" in render_text(report)
        assert json.loads(render_json(report))["ok"] is False
