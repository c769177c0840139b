"""Tier-1 checks of the project's source contracts, run on the code that ships.

* **event-schema** — every :class:`EventRecorder` validates every emission
  against ``EVENT_SCHEMAS``, so each test that records a run checks the
  emission sites it reaches.  Here: the declaration tables agree with each
  other and the validator accepts and rejects what it should.
* **determinism** — an AST scan of every module under ``src/repro``: no
  module-level or unseeded RNG, no wall-clock reads, no iteration order taken
  from a bare set.  It stays a static scan because it must also hold on paths
  no test runs.
* **default-off** — every ``bool`` or optional field of a config dataclass
  (a ``@dataclass`` whose name ends in one of :data:`CONFIG_SUFFIXES`)
  defaults to ``False`` or ``None``, so a feature is off until a caller opts
  in and the committed ``results/`` stay byte-identical as features land.
* **caller-mutation** — ``ClusterSimulator.run`` leaves the caller's request
  list and ``Request`` objects untouched; ``tests/test_cluster_simulator.py``
  (``TestClusterValidation::test_run_does_not_mutate_caller_requests``)
  checks it on a trace that is out of arrival order.

Plus the mypy gate over the strict islands (``repro.verify``, ``repro.obs``,
``repro.cluster.control``), skipped when mypy is not installed locally.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.verify.events import (
    ALL_KINDS,
    EVENT_SCHEMAS,
    GLOBAL_CLOCK_KINDS,
    EventRecorder,
    validate_event_payload,
)

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


# ------------------------------------------------------------------ mypy gate


class TestMypyStrictIslands:
    def test_strict_islands_pass(self):
        pytest.importorskip("mypy")
        proc = subprocess.run(
            [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert proc.returncode == 0, f"mypy failed:\n{proc.stdout}\n{proc.stderr}"


# -------------------------------------------------------------- event-schema


class TestEventSchemaTables:
    def test_schema_covers_exactly_all_kinds(self):
        assert set(EVENT_SCHEMAS) == set(ALL_KINDS)

    def test_all_kinds_has_no_duplicates(self):
        assert len(ALL_KINDS) == len(set(ALL_KINDS))

    def test_global_clock_kinds_are_declared(self):
        assert GLOBAL_CLOCK_KINDS <= set(ALL_KINDS)

    def test_payload_keys_never_shadow_envelope_fields(self):
        envelope = {"kind", "time", "replica_id", "request_id"}
        for kind, schema in EVENT_SCHEMAS.items():
            assert not (schema & envelope), kind


class TestRecorderValidates:
    def test_declared_subset_payload_is_accepted(self):
        recorder = EventRecorder()
        recorder.emit("arrival", time=0.0, request_id=1)
        recorder.emit("chunk_executed", time=1.0, request_id=1, tokens=8)
        assert len(recorder) == 2

    def test_unknown_kind_raises(self):
        recorder = EventRecorder()
        with pytest.raises(ValueError, match="unknown event kind"):
            recorder.emit("not_a_kind", time=0.0)

    def test_undeclared_payload_key_raises(self):
        recorder = EventRecorder()
        with pytest.raises(ValueError, match="bogus"):
            recorder.emit("arrival", time=0.0, request_id=1, bogus=3)
        assert len(recorder) == 0

    def test_validator_checks_every_declared_kind(self):
        for kind, schema in EVENT_SCHEMAS.items():
            validate_event_payload(kind, {key: None for key in schema})
            with pytest.raises(ValueError):
                validate_event_payload(kind, {"definitely_undeclared_key": 1})


# --------------------------------------------------------------- determinism

#: Seeded-generator constructors: fine with a seed, violations without one.
GENERATOR_CONSTRUCTORS = frozenset({"default_rng", "RandomState", "Random"})
#: ``numpy.random`` names that are generator plumbing, not ambient draws.
NUMPY_PLUMBING = frozenset(
    {"Generator", "SeedSequence", "BitGenerator"}
    | {"PCG64", "PCG64DXSM", "MT19937", "Philox", "SFC64"}
)
#: Wall-clock reads; ``time.perf_counter`` / ``process_time`` measure host cost
#: for the self-profiler and never feed simulated results, so they are allowed.
WALL_CLOCKS = frozenset(
    {"time.time", "time.time_ns"}
    | {f"datetime.{cls}.{fn}" for cls in ("datetime", "date") for fn in ("now", "utcnow", "today")}
)


def _imported_names(tree: ast.Module) -> dict[str, str]:
    """Local name -> the dotted name it was imported as."""
    names: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    names[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    names[top] = top
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                names[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return names


def _dotted(node: ast.expr, names: dict[str, str]) -> str | None:
    """The imported dotted name an expression refers to, if it is one."""
    if isinstance(node, ast.Name):
        return names.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, names)
        return f"{base}.{node.attr}" if base else None
    return None


def _is_bare_set(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


def determinism_violations(source: str) -> list[str]:
    """``"line: problem"`` for each way ``source`` can break seeded replay."""
    tree = ast.parse(source)
    names = _imported_names(tree)
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)) and _is_bare_set(node.iter):
            found.append((node.lineno, "for loop over a bare set"))
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            if any(_is_bare_set(generator.iter) for generator in node.generators):
                found.append((node.lineno, "comprehension over a bare set"))
        elif isinstance(node, ast.Call):
            func = node.func
            dotted = _dotted(func, names) or ""
            module, _, name = dotted.rpartition(".")
            if module in ("numpy.random", "random"):
                if name in GENERATOR_CONSTRUCTORS:
                    if not (node.args or node.keywords):
                        found.append((node.lineno, f"unseeded generator {dotted}()"))
                elif not (module == "numpy.random" and name in NUMPY_PLUMBING):
                    found.append((node.lineno, f"ambient RNG call {dotted}()"))
            elif dotted in WALL_CLOCKS:
                found.append((node.lineno, f"wall-clock read {dotted}()"))
            elif len(node.args) == 1 and _is_bare_set(node.args[0]):
                if isinstance(func, ast.Name) and func.id in ("list", "tuple"):
                    found.append((node.lineno, f"{func.id}() of a bare set"))
                elif isinstance(func, ast.Attribute) and func.attr == "join":
                    found.append((node.lineno, "str.join() over a bare set"))
    return [f"{line}: {problem}" for line, problem in sorted(found)]


MODULES = sorted(path.relative_to(SRC).as_posix() for path in (SRC / "repro").rglob("*.py"))


class TestDeterminism:
    """Every result must replay from its seed on any host and hash seed."""

    @pytest.mark.parametrize("module", MODULES)
    def test_module(self, module):
        assert determinism_violations((SRC / module).read_text()) == []

    @pytest.mark.parametrize(
        "source, problem",
        [
            ("import numpy as np\nnp.random.default_rng()", "unseeded generator"),
            ("from numpy import random as npr\nnpr.rand(3)", "ambient RNG call"),
            ("import random\nrandom.shuffle(xs)", "ambient RNG call"),
            ("from random import Random\nRandom()", "unseeded generator"),
            ("import time\ntime.time()", "wall-clock read time.time()"),
            ("from datetime import datetime\ndatetime.now()", "wall-clock read"),
            ("for x in set(xs):\n    pass", "for loop over a bare set"),
            ("ys = [x for x in {a, b}]", "comprehension over a bare set"),
            ("ys = tuple(frozenset(xs))", "tuple() of a bare set"),
            ("text = ','.join({a, b})", "str.join() over a bare set"),
        ],
    )
    def test_scan_flags(self, source, problem):
        violations = determinism_violations(source)
        assert len(violations) == 1 and problem in violations[0], violations

    @pytest.mark.parametrize(
        "source",
        [
            "import numpy as np\nrng = np.random.default_rng(7)\nnp.random.SeedSequence(7)\n"
            "import random\nrandom.Random(seed=7)",
            "import time\ntime.perf_counter()\ntime.process_time()\n"
            "for x in sorted(set(xs)):\n    rng.random()",
        ],
    )
    def test_scan_accepts(self, source):
        assert determinism_violations(source) == []


# --------------------------------------------------------------- default-off

#: Class-name suffixes that mark a dataclass as configuration.
CONFIG_SUFFIXES = ("Config", "Policy", "Spec", "Limits", "Options")

#: ``"Class.field"`` -> why the field may ship without a disabled default.
DEFAULT_OFF_EXEMPT = {
    "FuzzConfig.multi_tenant": (
        "a required workload coordinate that every fuzz sample draws, not a behaviour gate"
    ),
}


def _config_dataclasses() -> dict[str, type]:
    """Every config dataclass defined in the ``repro`` package, by name."""
    found: dict[str, type] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                inspect.isclass(obj)
                and obj.__module__ == module.__name__
                and name.endswith(CONFIG_SUFFIXES)
                and dataclasses.is_dataclass(obj)
            ):
                found[name] = obj
    return found


CONFIG_CLASSES = _config_dataclasses()


class TestDefaultOff:
    """Every knob of a config dataclass ships disabled."""

    def test_discovery_finds_every_config_dataclass(self):
        assert sorted(CONFIG_CLASSES) == [
            "AdmissionPolicy",
            "AutoscalerPolicy",
            "ClusterSpec",
            "FuzzConfig",
            "GPUSpec",
            "KVCacheConfig",
            "MicrobenchConfig",
            "ModelConfig",
            "PODConfig",
            "PlannerConfig",
            "ReplicaSpec",
            "SchedulerLimits",
            "TenantSpec",
        ]

    @pytest.mark.parametrize("name", sorted(CONFIG_CLASSES))
    def test_knobs_ship_disabled(self, name):
        offenders = []
        for field in dataclasses.fields(CONFIG_CLASSES[name]):
            if f"{name}.{field.name}" in DEFAULT_OFF_EXEMPT:
                continue
            # ``from __future__ import annotations``: the type is its source text.
            annotation = field.type
            if annotation == "bool":
                disabled = False
            elif "| None" in annotation or annotation.startswith(("None |", "Optional[")):
                disabled = None
            else:
                continue
            if field.default is not disabled:
                default = "nothing" if field.default is dataclasses.MISSING else field.default
                offenders.append(f"{field.name}: {annotation} defaults to {default!r}")
        assert offenders == [], f"{name} knobs must default to False / None"
