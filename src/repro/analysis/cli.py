"""``repro lint`` — run the project-contract lint pass.

:func:`add_arguments` declares the flags and :func:`run` executes them;
:mod:`repro.cli` mounts both as its ``lint`` subcommand.

Exit codes: 0 when no finding is new against the baseline, 1 when at least
one is, 2 on usage errors.  ``--write-baseline`` accepts the current
findings as the new baseline and exits 0 (the adopt-then-burn-down
workflow); ``--format json`` emits the full machine-readable report the CI
job renders into ``$GITHUB_STEP_SUMMARY``.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

from repro.analysis import RULES, build_rules
from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    load_baseline,
    subtract_baseline,
    write_baseline,
)
from repro.analysis.engine import LintEngine
from repro.analysis.report import Report, render_json, render_text


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare the lint flags on ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to lint (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--rules",
        help="comma-separated subset of rules to run (default: all)",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="baseline file of accepted findings "
        f"(default: {DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="accept the current findings as the baseline and exit 0",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=Path("."),
        help="directory findings paths are reported relative to (default: .)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )


def run(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    """Lint ``args.paths``; usage errors exit 2 through ``parser.error``."""
    if args.list_rules:
        for name, factory in sorted(RULES.items()):
            print(f"{name}: {factory().description}")
        return 0

    rule_names = (
        [name.strip() for name in args.rules.split(",") if name.strip()]
        if args.rules
        else None
    )
    try:
        rules = build_rules(rule_names)
    except KeyError as exc:
        parser.error(str(exc.args[0]))

    engine = LintEngine(rules)
    try:
        result = engine.run(args.paths, root=args.root)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    baseline_path = args.baseline
    if baseline_path is None and DEFAULT_BASELINE.exists():
        baseline_path = DEFAULT_BASELINE

    if args.write_baseline:
        target = baseline_path if baseline_path is not None else DEFAULT_BASELINE
        write_baseline(target, result.findings)
        print(
            f"wrote {len(result.findings)} finding(s) to {target}",
            file=sys.stderr,
        )
        return 0

    baseline: Counter[tuple[str, str, str]] = Counter()
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load baseline {baseline_path}: {exc}")

    new, baselined = subtract_baseline(result.findings, baseline)
    report = Report.from_result(
        result, new, baselined, rules=[rule.name for rule in rules]
    )
    rendered = render_json(report) if args.format == "json" else render_text(report)
    print(rendered)
    return report.exit_code
