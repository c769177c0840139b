"""Project-contract static analysis for the repro codebase.

The repo's correctness story is otherwise *dynamic* — the invariant checker,
the stateful machines and the control invariants all catch contract
violations only when a test executes the offending path.  This package turns
the standing codebase contracts into an AST-level lint pass that runs in
seconds on every commit:

* ``event-schema`` — every ``emit(...)``/``Event(...)`` call site uses a kind
  declared in :data:`repro.verify.events.EVENT_SCHEMAS` with payload keys ⊆
  the declared schema, and the declaration tables themselves stay consistent.
* ``determinism`` — no unseeded RNG, wall-clock reads or bare-``set``
  iteration order leaking into simulation results.
* ``default-off`` — boolean/optional fields of config dataclasses default to
  disabled (the "all knobs default-off" contract), against an explicit
  allowlist.
* ``caller-mutation`` — public ``run``/``simulate`` entry points never mutate
  their request-list parameters without first rebinding to fresh copies.

Findings are suppressible per line (``# repro-lint: disable=<rule> -- why``),
diffable against a committed baseline file, and rendered as text or JSON.
``python -m repro lint`` exits nonzero on any new finding; the pass also
runs as a tier-1 pytest self-check, so the analyzer analyzes the repo that
ships it.  See ``docs/static_analysis.md`` for the rule catalog and the
suppression/baseline workflow.
"""

from __future__ import annotations

from typing import Callable

from repro.analysis.baseline import (
    load_baseline,
    subtract_baseline,
    write_baseline,
)
from repro.analysis.engine import (
    LintEngine,
    LintResult,
    ModuleContext,
    Rule,
    check_source,
)
from repro.analysis.findings import Finding, Suppression, parse_suppressions
from repro.analysis.report import render_json, render_text
from repro.analysis.rules_config import DefaultOffRule
from repro.analysis.rules_determinism import DeterminismRule
from repro.analysis.rules_events import EventSchemaRule
from repro.analysis.rules_mutation import CallerMutationRule

#: Registry of rule factories, keyed by the rule name used in suppressions
#: and ``--rules``.  Adding a rule = one module with a ``Rule`` subclass plus
#: one entry here (and a catalog row in ``docs/static_analysis.md``).
RULES: dict[str, Callable[[], Rule]] = {
    EventSchemaRule.name: EventSchemaRule,
    DeterminismRule.name: DeterminismRule,
    DefaultOffRule.name: DefaultOffRule,
    CallerMutationRule.name: CallerMutationRule,
}


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in registry order."""
    return [factory() for factory in RULES.values()]


def build_rules(names: list[str] | None = None) -> list[Rule]:
    """Instantiate the named rules (all of them when ``names`` is None)."""
    if names is None:
        return default_rules()
    unknown = sorted(set(names) - set(RULES))
    if unknown:
        raise KeyError(
            f"unknown rule(s) {unknown}; registered: {sorted(RULES)}"
        )
    return [RULES[name]() for name in names]


__all__ = [
    "RULES",
    "CallerMutationRule",
    "DefaultOffRule",
    "DeterminismRule",
    "EventSchemaRule",
    "Finding",
    "LintEngine",
    "LintResult",
    "ModuleContext",
    "Rule",
    "Suppression",
    "build_rules",
    "check_source",
    "default_rules",
    "load_baseline",
    "parse_suppressions",
    "render_json",
    "render_text",
    "subtract_baseline",
    "write_baseline",
]
