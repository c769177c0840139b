"""``caller-mutation``: public entry points never mutate caller request lists.

Callers of ``ClusterSimulator.run`` and the other ``run`` entry points
replay one trace through several configurations, so they hold onto the
list they passed in — a simulator that sorts, pops or overwrites that list
corrupts the caller's view (the PR 4 cluster-input-mutation bug).  The
contract: an entry point either leaves the parameter alone or *first*
rebinds it to fresh copies (``requests = [r.fresh_copy() for r in
requests]``) and works on those.

This rule checks every function named ``run`` / ``simulate`` (or prefixed
``run_`` / ``simulate_``) with a parameter named ``requests`` (or ending in
``_requests``).  Mutating operations on the parameter — in-place method
calls (``sort``/``append``/…), item assignment/deletion, ``+=`` — are
findings unless a rebind of the name appears earlier in the function.  The
model is deliberately linear (first rebind wins, source order): entry
points here are straight-line setup code, and a contract checker should be
predictable enough to reason about from the finding message alone.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import ModuleContext, Rule
from repro.analysis.findings import Finding

_ENTRY_NAMES = ("run", "simulate")
_PARAM_NAME = "requests"

#: In-place mutators of list/dict/set objects.
_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "remove",
        "pop",
        "clear",
        "sort",
        "reverse",
        "add",
        "discard",
        "update",
        "setdefault",
        "popitem",
    }
)


def _is_entry_point(name: str) -> bool:
    return name in _ENTRY_NAMES or name.startswith(("run_", "simulate_"))


def _is_request_param(name: str) -> bool:
    return name == _PARAM_NAME or name.endswith("_" + _PARAM_NAME)


class CallerMutationRule(Rule):
    name = "caller-mutation"
    description = (
        "run/simulate entry points must not mutate request-list parameters "
        "without first rebinding to fresh_copy() copies"
    )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ) and _is_entry_point(node.name):
                yield from self._check_function(ctx, node)

    def _check_function(
        self, ctx: ModuleContext, func: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        params = [
            arg.arg
            for arg in (
                *func.args.posonlyargs,
                *func.args.args,
                *func.args.kwonlyargs,
            )
            if _is_request_param(arg.arg)
        ]
        for param in params:
            yield from self._check_param(ctx, func, param)

    def _check_param(
        self,
        ctx: ModuleContext,
        func: ast.FunctionDef | ast.AsyncFunctionDef,
        param: str,
    ) -> Iterator[Finding]:
        first_rebind: tuple[int, int] | None = None
        mutations: list[tuple[tuple[int, int], ast.AST, str]] = []

        for node in ast.walk(func):
            position = (getattr(node, "lineno", 0), getattr(node, "col_offset", 0))
            if _rebinds(node, param):
                if first_rebind is None or position < first_rebind:
                    first_rebind = position
                continue
            described = _describes_mutation(node, param)
            if described is not None:
                mutations.append((position, node, described))

        for position, node, described in sorted(mutations, key=lambda m: m[0]):
            if first_rebind is not None and position > first_rebind:
                continue  # operates on the local copy made by the rebind
            yield Finding(
                rule=self.name,
                path=ctx.path,
                line=position[0],
                col=position[1],
                message=(
                    f"entry point '{func.name}' mutates caller parameter "
                    f"'{param}' via {described} — rebind to fresh copies "
                    f"first ({param} = [r.fresh_copy() for r in {param}])"
                ),
            )


def _rebinds(node: ast.AST, param: str) -> bool:
    """A statement that rebinds ``param`` to a new object (defensive copy)."""
    if isinstance(node, ast.Assign):
        return any(
            isinstance(target, ast.Name) and target.id == param
            for target in node.targets
        )
    if isinstance(node, ast.AnnAssign):
        return (
            isinstance(node.target, ast.Name)
            and node.target.id == param
            and node.value is not None
        )
    return False


def _describes_mutation(node: ast.AST, param: str) -> str | None:
    """A short description when ``node`` mutates ``param`` in place."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in _MUTATING_METHODS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == param
    ):
        return f".{node.func.attr}()"
    if isinstance(node, ast.Assign):
        for target in node.targets:
            if _is_param_subscript(target, param):
                return "item assignment"
    if isinstance(node, ast.AugAssign):
        if isinstance(node.target, ast.Name) and node.target.id == param:
            return "augmented assignment (+= mutates the caller's list)"
        if _is_param_subscript(node.target, param):
            return "augmented item assignment"
    if isinstance(node, ast.Delete):
        for target in node.targets:
            if _is_param_subscript(target, param):
                return "item deletion"
    return None


def _is_param_subscript(node: ast.AST, param: str) -> bool:
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == param
    )
