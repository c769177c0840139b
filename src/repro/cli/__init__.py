"""``repro`` — the operator CLI for the POD-Attention reproduction.

One argparse surface over the library's operational entry points::

    repro run     one scenario on one fleet (serving or cluster simulator)
    repro sweep   replica x router x topology grids (parallel rollout runner)
    repro plan    capacity planner: cheapest fleet that meets the SLOs
    repro report  telemetry run report bundle (HTML / markdown / CSV / trace)
    repro diff    perf-regression gate over results/ artifact directories

Invoke as ``python -m repro`` (always available) or via the ``repro``
console script when the package is installed.  Every subcommand prints
machine-readable output — JSON by default, CSV via ``--format csv`` where
the result is tabular — and exits nonzero only on operational failure
(``diff`` treats an out-of-tolerance artifact as failure; that is its job).
"""

from repro.cli.main import build_parser, main

__all__ = ["build_parser", "main"]
