"""Rule registry, source model, and the analysis driver.

The moving parts:

* :data:`RULES` — a :class:`repro.util.registry.Registry` of
  :class:`LintRule` subclasses; :func:`register_rule` is the decorator
  rules self-register with (exactly the pattern the topology/workload/
  attack/defense registries established).
* :class:`ModuleSource` — one parsed Python file: path, derived module
  name and AST.
* :class:`Project` — the whole analyzed file set plus the repo root,
  for rules that cross files (twin-parity, event-kind-registry).
* :func:`analyze` — run every rule over a path set and return a
  deterministic :class:`LintReport`.

No comment or file excuses a finding.  A genuine exception is a rule
change, reviewed like code: a narrower ``scope`` or a roster edit.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

from repro.lint.findings import Finding
from repro.util.registry import Registry

#: rule-id -> LintRule subclass.  Rules self-register at import time;
#: :func:`load_rules` imports the bundled rule modules.
RULES: Registry[type["LintRule"]] = Registry("lint rule")

#: Directory names never descended into when expanding a path.
_SKIP_DIRS = frozenset({"__pycache__", "build", ".git", ".ruff_cache"})


def register_rule(cls: type["LintRule"]) -> type["LintRule"]:
    """Class decorator: file ``cls`` under ``cls.id`` in :data:`RULES`."""
    if not cls.id:
        raise ValueError(f"{cls.__name__} must define a non-empty id")
    RULES.register(cls.id, doc=cls.title)(cls)
    return cls


def load_rules() -> None:
    """Import the bundled rule modules (idempotent registration)."""
    import repro.lint.rules  # noqa: F401  (import-for-side-effect)


class LintRule:
    """Base class for one invariant check.

    ``scope`` is a tuple of dotted module prefixes; :meth:`check_module`
    only runs on files whose derived module name falls under one of
    them.  Project-wide rules (``project_wide = True``) additionally get
    one :meth:`check_project` call with the whole file set.
    """

    id: str = ""
    title: str = ""
    #: Why the invariant exists — printed by ``lint --list-rules``.
    rationale: str = ""
    scope: tuple[str, ...] = ("repro",)
    project_wide: bool = False

    def applies_to(self, module: str | None) -> bool:
        """Whether this rule inspects a module of the given dotted name."""
        if module is None:
            return False
        return any(
            module == prefix or module.startswith(prefix + ".")
            for prefix in self.scope
        )

    def check_module(self, src: "ModuleSource") -> Iterable[Finding]:
        """Per-file findings (called once per in-scope module)."""
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Cross-file findings (called once per analysis run)."""
        return ()


def module_name_for(path: Path) -> str | None:
    """Derive the dotted module name from a file path.

    Anchors on the last path component named ``repro`` so both the
    in-repo layout (``src/repro/sim/link.py`` -> ``repro.sim.link``)
    and synthetic trees (``/tmp/seed/repro/sim/bad.py``) resolve; files
    outside any ``repro`` package return ``None`` and are skipped by
    every scoped rule.
    """
    parts = path.with_suffix("").parts
    if "repro" not in parts:
        return None
    anchor = len(parts) - 1 - parts[::-1].index("repro")
    dotted = list(parts[anchor:])
    if dotted[-1] == "__init__":
        dotted.pop()
    return ".".join(dotted)


class ModuleSource:
    """One Python source file prepared for rule inspection."""

    def __init__(
        self,
        text: str,
        path: Path | str = "<fixture>",
        module: str | None = None,
        display_path: str | None = None,
    ) -> None:
        self.text = text
        self.path = Path(path)
        self.module = (
            module if module is not None else module_name_for(self.path)
        )
        self.display_path = (
            display_path if display_path is not None
            else self.path.as_posix()
        )
        self._tree: ast.Module | None = None
        self._parents: dict[ast.AST, tuple[ast.AST, str]] | None = None

    @classmethod
    def from_file(cls, path: Path, root: Path | None = None) -> "ModuleSource":
        """Load a file, displaying its path relative to ``root``."""
        display = None
        if root is not None:
            try:
                display = path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                display = path.as_posix()
        return cls(
            path.read_text(encoding="utf-8"), path, display_path=display
        )

    @property
    def tree(self) -> ast.Module:
        """The parsed AST (raises :class:`SyntaxError` on broken files)."""
        if self._tree is None:
            self._tree = ast.parse(self.text, filename=str(self.path))
        return self._tree

    def parents(self) -> dict[ast.AST, tuple[ast.AST, str]]:
        """child node -> (parent node, field name) for ancestry walks."""
        if self._parents is None:
            table: dict[ast.AST, tuple[ast.AST, str]] = {}
            for parent in ast.walk(self.tree):
                for fieldname, value in ast.iter_fields(parent):
                    if isinstance(value, ast.AST):
                        table[value] = (parent, fieldname)
                    elif isinstance(value, list):
                        for item in value:
                            if isinstance(item, ast.AST):
                                table[item] = (parent, fieldname)
            self._parents = table
        return self._parents

    def finding(
        self, rule: str, where: ast.AST | int, message: str
    ) -> Finding:
        """Build a :class:`Finding` anchored at a node or line number."""
        line = where if isinstance(where, int) else getattr(where, "lineno", 0)
        return Finding(
            rule=rule, path=self.display_path, line=line, message=message
        )


@dataclass
class Project:
    """The analyzed file set, for cross-file rules."""

    sources: list[ModuleSource]
    root: Path | None = None

    def source_for(self, module: str) -> ModuleSource | None:
        """The analyzed source of a dotted module name, if present."""
        for src in self.sources:
            if src.module == module:
                return src
        return None


@dataclass
class LintReport:
    """Deterministic result of one :func:`analyze` run."""

    findings: list[Finding] = field(default_factory=list)
    files: int = 0
    errors: list[Finding] = field(default_factory=list)  # unparseable files

    @property
    def all_findings(self) -> list[Finding]:
        """Rule findings plus parse errors (what the gate counts)."""
        return sorted(
            self.findings + self.errors, key=lambda f: f.sort_key
        )


def iter_python_files(paths: Iterable[Path | str]) -> Iterator[Path]:
    """Expand files/directories to sorted ``*.py`` paths (skips caches)."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            for sub in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(sub.parts):
                    yield sub
        elif path.suffix == ".py":
            yield path


def _instantiate(rules: Iterable[str] | None) -> list[LintRule]:
    load_rules()
    names = list(rules) if rules is not None else RULES.names()
    return [RULES.get(name)() for name in names]


def analyze(
    paths: Iterable[Path | str],
    rules: Iterable[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Run the (selected) rules over ``paths`` and report findings.

    ``root`` anchors display paths and tells project-wide rules where
    companion non-Python sources (``_corec.c``) live.  Findings are
    sorted, and parse failures are reported as findings of the
    pseudo-rule ``parse-error`` rather than raised —
    a broken file must fail the gate, not crash it.
    """
    report = LintReport()
    sources: list[ModuleSource] = []
    for path in iter_python_files(paths):
        src = ModuleSource.from_file(path, root=root)
        report.files += 1
        try:
            src.tree
        except SyntaxError as exc:
            report.errors.append(
                src.finding(
                    "parse-error", exc.lineno or 0, f"cannot parse: {exc.msg}"
                )
            )
            continue
        sources.append(src)
    project = Project(sources=sources, root=root)

    raw: list[Finding] = []
    for rule in _instantiate(rules):
        for src in sources:
            if rule.applies_to(src.module):
                raw.extend(rule.check_module(src))
        if rule.project_wide:
            raw.extend(rule.check_project(project))
    report.findings = sorted(set(raw), key=lambda f: f.sort_key)
    return report


def analyze_source(
    text: str,
    module: str,
    rules: Iterable[str] | None = None,
    path: str = "<fixture>",
) -> list[Finding]:
    """Fixture helper: run per-module rules over one source snippet.

    Returns the findings, sorted.  Used heavily by the self-test
    suite; project-wide rules' cross-file passes don't run here (they
    have dedicated entry points that take explicit inputs).
    """
    src = ModuleSource(text, path=path, module=module)
    raw: list[Finding] = []
    for rule in _instantiate(rules):
        if rule.applies_to(src.module):
            raw.extend(rule.check_module(src))
    return sorted(set(raw), key=lambda f: f.sort_key)
