"""Rule ``bus-guard``: hot-path emits hide behind a falsy bus check.

The observability contract since the sink layer landed: the event bus
is *falsy until subscribed*, and every producer on the per-packet hot
path tests that before constructing an event —

    if bus:
        bus.emit(VictimArrival(now, size, is_attack))

so an unobserved run pays one pointer test per site and never allocates
an event.  The <2% idle-overhead benchmark gate assumes this shape; one
unguarded ``bus.emit(Event(...))`` on the packet path allocates per
packet and erodes the budget without failing any functional test.

Accepted guard shapes, both checked lexically:

* the emit sits in the body of an ``if`` whose test asserts the same
  bus expression truthy (bare ``if bus:`` or an ``and``-conjunct);
* the enclosing function opens with a guard clause
  ``if not bus: return`` (before the emit, in the function's direct
  body) — the early-exit idiom for multi-emit publishers.

Call-boundary guards ("my caller checked") are invisible to a lexical
analysis, so they are not accepted: the emit takes its own guard, and
the cost is one more pointer test.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.analyzer import LintRule, ModuleSource, register_rule
from repro.lint.asthelpers import (
    dotted_name,
    ends_control_flow,
    falsy_operands,
    truthy_operands,
)
from repro.lint.findings import Finding


def _is_bus_expr(name: str | None) -> bool:
    """Whether a dotted name plausibly denotes a metric bus/sink."""
    if name is None:
        return False
    leaf = name.split(".")[-1]
    return leaf == "bus" or leaf.endswith("_bus")


@register_rule
class BusGuardRule(LintRule):
    id = "bus-guard"
    title = "hot-path bus.emit must be dominated by a falsy bus check"
    rationale = (
        "the bus is falsy until subscribed; guarding the emit keeps the "
        "unobserved per-packet path to one pointer test and zero "
        "allocations (the BENCH_obs <2% overhead gate)"
    )
    scope = (
        "repro.sim", "repro.core", "repro.attacks", "repro.transport",
        "repro.metrics", "repro.counting",
    )

    def check_module(self, src: ModuleSource) -> Iterable[Finding]:
        parents = src.parents()
        findings: list[Finding] = []
        for node in ast.walk(src.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "emit"
            ):
                continue
            bus = dotted_name(node.func.value)
            if not _is_bus_expr(bus):
                continue
            if not self._guarded(node, bus, parents):
                findings.append(src.finding(
                    self.id, node,
                    f"{bus}.emit(...) is not dominated by a falsy "
                    f"`if {bus}:` check (or an `if not {bus}: return` "
                    "guard clause)",
                ))
        return findings

    def _guarded(
        self,
        node: ast.AST,
        bus: str,
        parents: dict[ast.AST, tuple[ast.AST, str]],
    ) -> bool:
        # Walk ancestors: an `if <bus-truthy>:` whose *body* contains the
        # emit guards it; landing in the orelse does not.
        child: ast.AST = node
        func: ast.AST | None = None
        while child in parents:
            parent, fieldname = parents[child]
            if isinstance(parent, ast.If) and fieldname == "body":
                if bus in truthy_operands(parent.test):
                    return True
            if isinstance(parent, ast.IfExp) and fieldname == "body":
                if bus in truthy_operands(parent.test):
                    return True
            if func is None and isinstance(
                parent, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                func = parent
            child = parent
        # Guard clause: `if not bus: return` earlier in the enclosing
        # function's direct body (direct body only — that is the one
        # placement that lexically dominates everything after it).
        if func is not None:
            emit_line = getattr(node, "lineno", 0)
            for stmt in func.body:
                if stmt.lineno >= emit_line:
                    break
                if (
                    isinstance(stmt, ast.If)
                    and ends_control_flow(stmt.body)
                    and bus in falsy_operands(stmt.test)
                ):
                    return True
        return False
