"""``repro.lint`` — the repo's invariant analyzer.

Nine PRs of this codebase accumulated load-bearing invariants that used
to live only in review discipline: the simulation layers must be
wall-clock- and global-RNG-free (golden masters depend on it), every
hot-path ``bus.emit(...)`` must hide behind a falsy bus check (the <2%
observability-overhead gate depends on it), campaign store writes must
be atomic (the chaos suite depends on it), the compiled scheduler core
must remain an API-exact twin of the pure engine (the no-re-record
policy depends on it).  This package enforces them mechanically, at
commit time, from the stdlib :mod:`ast`.

Architecture (mirrors the component registries of ``repro.util``):

* :class:`~repro.lint.analyzer.LintRule` subclasses self-register with
  :func:`~repro.lint.analyzer.register_rule` into the
  :data:`~repro.lint.analyzer.RULES` registry — adding a rule is a
  one-file change under :mod:`repro.lint.rules`.
* :func:`~repro.lint.analyzer.analyze` drives every registered rule
  over a file set and returns a deterministic
  :class:`~repro.lint.analyzer.LintReport`.

Every finding fails the gate (``python -m repro lint --check``): no
comment, side file or output mode excuses one.  A genuine exception
is a rule change (a scope or roster edit), reviewed like code.

CLI::

    python -m repro lint [--check] [--rule RULE-ID] [--list-rules] [paths ...]
"""

from repro.lint.analyzer import (
    LintReport,
    LintRule,
    ModuleSource,
    Project,
    RULES,
    analyze,
    register_rule,
)
from repro.lint.findings import Finding

__all__ = [
    "Finding",
    "LintReport",
    "LintRule",
    "ModuleSource",
    "Project",
    "RULES",
    "analyze",
    "register_rule",
]
