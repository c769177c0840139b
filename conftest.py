"""Session guard: a test run must leave the committed ``results/`` artifacts intact.

``pytest`` at the repo root runs ``benchmarks/`` before ``tests/``, and every
benchmark rewrites its ``results/`` artifact.  So the session snapshots the
artifacts committed at ``HEAD`` when it starts (read with ``git archive``;
the working tree only outside a git checkout).  The golden tests read that
snapshot (the ``results_snapshot`` fixture), never the files in ``results/``,
so a drifted tree left behind by an earlier run cannot become the baseline.
At session end the artifacts in ``results/`` are diffed against the snapshot
with ``repro diff``'s tolerances
(:func:`repro.bench.regression.compare_directories`), and any divergence
fails the session.  To re-baseline on purpose, commit the regenerated files
and rerun.
"""

from __future__ import annotations

import io
import shutil
import subprocess
import tarfile
import tempfile
from pathlib import Path

import pytest

from repro.bench.regression import compare_directories, discover_artifacts

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_SNAPSHOT = pytest.StashKey[Path]()
_SOURCE = pytest.StashKey[str]()
_DRIFT = pytest.StashKey[list[str]]()


def _snapshot_committed(snapshot: Path) -> bool:
    """Write the top-level files of ``results/`` at ``HEAD`` into ``snapshot``.

    Returns ``False`` when there is no committed ``results/`` to read (git
    missing, not a checkout, or no such tree at ``HEAD``).
    """
    try:
        archive = subprocess.run(
            ["git", "archive", "--format=tar", "HEAD:./results"],
            cwd=RESULTS_DIR.parent,
            capture_output=True,
            check=True,
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return False
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        for member in tar.getmembers():
            if member.isfile() and "/" not in member.name:
                (snapshot / member.name).write_bytes(tar.extractfile(member).read())
    return True


def pytest_sessionstart(session: pytest.Session) -> None:
    snapshot = Path(tempfile.mkdtemp(prefix="results-snapshot-"))
    source = "git HEAD"
    if not _snapshot_committed(snapshot):
        source = "working tree (no committed results/)"
        for artifact in discover_artifacts(RESULTS_DIR, ("*.csv", "*.json")):
            shutil.copy2(artifact, snapshot / artifact.name)
    session.config.stash[_SNAPSHOT] = snapshot
    session.config.stash[_SOURCE] = source


def pytest_report_header(config: pytest.Config) -> str:
    return f"results/ baseline: {config.stash.get(_SOURCE, 'none')}"


def pytest_sessionfinish(session: pytest.Session) -> None:
    snapshot = session.config.stash.get(_SNAPSHOT, None)
    if snapshot is None:
        return
    drift = compare_directories(snapshot, RESULTS_DIR) if any(snapshot.iterdir()) else []
    shutil.rmtree(snapshot, ignore_errors=True)
    session.config.stash[_DRIFT] = drift
    if drift:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config: pytest.Config) -> None:
    drift = config.stash.get(_DRIFT, [])
    if drift:
        terminalreporter.section("results/ drifted from the committed artifacts", red=True)
        for line in drift:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def results_snapshot(pytestconfig: pytest.Config) -> Path:
    """The committed ``results/`` artifacts, as of the session's start."""
    return pytestconfig.stash[_SNAPSHOT]
