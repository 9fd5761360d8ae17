"""Rule ``slots-on-hotpath``: per-packet and per-flow classes stay slotted.

The engine allocates one :class:`Packet` per generated packet and one
:class:`Event` handle per scheduled callback — millions per campaign
cell.  MAFIC allocates a table entry and an arrival-rate monitor per
flow, and under source rotation every attack packet is a new flow.
``__slots__`` on those classes is worth ~30-40% of their memory
and a measurable allocation-rate win, and it is exactly the kind of
property that vanishes silently: drop the declaration during a
refactor and every test still passes, only the perf-smoke gate drifts.

The roster below names the classes the benchmarks were tuned around.
Additionally, every event dataclass in ``repro.obs.events`` must be
declared ``@dataclass(slots=True)`` — events are allocated per packet
whenever a sink is attached.

A class on the roster that no longer exists is also a finding: the
roster is part of the invariant, and a rename must update it (or the
class genuinely lost its hot-path role and the roster entry goes).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.analyzer import LintRule, ModuleSource, register_rule
from repro.lint.asthelpers import has_slots
from repro.lint.findings import Finding

#: module -> class names that must declare ``__slots__``.
HOT_CLASSES: dict[str, tuple[str, ...]] = {
    "repro.sim.packet": ("FlowKey", "Packet", "_PacketPool"),
    "repro.sim.engine": ("Event", "SeriesEvent"),
    "repro.obs.bus": ("_Subscription",),
    "repro.core.tables": ("SftEntry",),
    "repro.util.stats": ("WindowedCount",),
}


@register_rule
class SlotsOnHotpathRule(LintRule):
    id = "slots-on-hotpath"
    title = "per-packet and per-flow classes declare __slots__"
    rationale = (
        "packets, event handles, flow-table entries and rate monitors "
        "are allocated up to millions of times per cell; losing "
        "__slots__ regresses memory and allocation rate without failing "
        "any functional test"
    )
    scope = tuple(HOT_CLASSES) + ("repro.obs.events",)

    def check_module(self, src: ModuleSource) -> Iterable[Finding]:
        classes = {
            node.name: node
            for node in ast.walk(src.tree)
            if isinstance(node, ast.ClassDef)
        }
        findings: list[Finding] = []
        for name in HOT_CLASSES.get(src.module or "", ()):
            node = classes.get(name)
            if node is None:
                findings.append(src.finding(
                    self.id, 1,
                    f"hot-path class {name} not found in {src.module}; "
                    "renamed classes must update the slots-on-hotpath "
                    "roster (repro/lint/rules/slots.py)",
                ))
            elif not has_slots(node):
                findings.append(src.finding(
                    self.id, node,
                    f"hot-path class {name} does not declare __slots__ "
                    "(directly or via @dataclass(slots=True))",
                ))
        if src.module == "repro.obs.events":
            for name, node in classes.items():
                declares_kind = any(
                    isinstance(stmt, ast.Assign)
                    and any(
                        isinstance(t, ast.Name) and t.id == "kind"
                        for t in stmt.targets
                    )
                    for stmt in node.body
                )
                if declares_kind and not has_slots(node):
                    findings.append(src.finding(
                        self.id, node,
                        f"event class {name} must be "
                        "@dataclass(slots=True); events are allocated "
                        "per packet when a sink is attached",
                    ))
        return findings
