"""Rule ``write-only-state``: no list that is only ever appended to.

A list the code grows and nothing reads is memory that grows with the
run and buys nothing.  ``TcpSender.cwnd_history`` (a tuple per ACK, in
every run) and ``DynamicWorkload.senders`` (every finished sender, kept
alive) were two; only tests read the first, nothing the second.

By attribute name across the analyzed files: a list a method creates
(``self.x = []`` or ``self.x = list()``) that is grown somewhere
(``.x.append`` / ``.extend`` / ``.insert``) and read nowhere (no other
load of ``.x``, no ``"x"`` string as in ``getattr``) is a finding.  A
read of that name on any object counts, so the rule errs toward silence;
run over part of the package, it cannot see readers outside that part.
Dataclass fields are a record's output, read by its receiver, and are
not checked.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.analyzer import LintRule, ModuleSource, Project, register_rule
from repro.lint.findings import Finding

#: Methods that grow a list without reading it.
GROWERS = frozenset({"append", "extend", "insert"})


def list_attributes(src: ModuleSource) -> Iterable[tuple[ast.AST, str, str]]:
    """(assignment, class name, attribute) per ``self.x = []`` (or
    ``list()``) in a method of a class of ``src``."""
    for cls in ast.walk(src.tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        methods = [s for s in cls.body if isinstance(s, ast.FunctionDef)]
        for node in (n for method in methods for n in ast.walk(method)):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
            else:
                continue
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and (isinstance(value, ast.List) or (
                    isinstance(value, ast.Call)
                    and isinstance(value.func, ast.Name)
                    and value.func.id == "list"
                ))
            ):
                yield node, cls.name, target.attr


def grown_and_read(src: ModuleSource) -> tuple[set[str], set[str]]:
    """(attribute names grown in ``src``, names read in ``src``)."""
    grown: dict[int, str] = {}  # id(receiver node) -> attribute name
    for node in ast.walk(src.tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in GROWERS
            and isinstance(node.func.value, ast.Attribute)
        ):
            grown[id(node.func.value)] = node.func.value.attr
    read: set[str] = set()
    for node in ast.walk(src.tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            if id(node) not in grown:
                read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return set(grown.values()), read


@register_rule
class WriteOnlyStateRule(LintRule):
    id = "write-only-state"
    title = "no list attribute is appended to and never read"
    rationale = (
        "a list the code grows and nothing reads is memory that grows "
        "with the run for nothing (a per-ACK cwnd history, every "
        "finished sender kept alive); tests reading it do not count"
    )
    project_wide = True

    def check_project(self, project: Project) -> Iterable[Finding]:
        sources = [src for src in project.sources if self.applies_to(src.module)]
        grown: set[str] = set()
        read: set[str] = set()
        for src in sources:
            src_grown, src_read = grown_and_read(src)
            grown |= src_grown
            read |= src_read
        for src in sources:
            for node, owner, name in list_attributes(src):
                if name in grown and name not in read:
                    yield src.finding(
                        self.id, node,
                        f"{owner}.{name} is appended to but never read; "
                        "delete it, or read it where it is needed",
                    )
