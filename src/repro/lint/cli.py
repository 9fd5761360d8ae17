"""``repro lint`` — run the invariant analyzer from the command line.

Modes:

* default — print every finding and a ``N file(s): M finding(s)``
  summary, always exit 0; the reporting mode for local exploration.
* ``--check`` — the CI gate: exit 1 on any finding.
* ``--rule RULE-ID`` — run only the named rules (repeatable).
* ``--list-rules`` — the rule roster with each invariant's rationale.

A path that does not exist, a path with no Python file under it and an
unknown rule id are usage errors (exit 2) that name the culprit: a typo
must not read as findings, nor pass a gate that checked nothing.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.analyzer import RULES, analyze, iter_python_files, load_rules


def _default_root() -> Path:
    """The repo root when running from a checkout, else the CWD.

    Anchored on the installed package location: ``src/repro`` two
    levels up from this file's parent means the checkout layout.
    """
    package_dir = Path(__file__).resolve().parent.parent
    if package_dir.parent.name == "src":
        return package_dir.parent.parent
    return Path.cwd()


def _default_paths(root: Path) -> list[Path]:
    src = root / "src" / "repro"
    return [src] if src.is_dir() else [root]


def _lint_path(raw: str) -> Path:
    """A path argument: it must exist and hold at least one Python file."""
    path = Path(raw)
    if not path.exists():
        raise argparse.ArgumentTypeError(f"no such file or directory: {raw}")
    if next(iter_python_files([path]), None) is None:
        raise argparse.ArgumentTypeError(f"no Python file under {raw}")
    return path


def add_parser(sub: argparse._SubParsersAction) -> None:
    """Register the ``lint`` subcommand on the main CLI."""
    load_rules()
    p = sub.add_parser(
        "lint",
        help="statically check the repo's determinism/atomicity/"
        "twin-parity invariants",
    )
    p.add_argument(
        "paths", nargs="*", type=_lint_path,
        help="files or directories (default: the repro package)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="exit nonzero on any finding (the CI gate)",
    )
    p.add_argument(
        "--rule", action="append", dest="rules", metavar="RULE-ID",
        choices=RULES.names(), help="run only this rule (repeatable)",
    )
    p.add_argument("--list-rules", action="store_true",
                   help="list the registered rules and exit")


def cmd(args: argparse.Namespace) -> int:
    if args.list_rules:
        return _list_rules()

    root = _default_root()
    report = analyze(
        args.paths or _default_paths(root), rules=args.rules, root=root
    )
    findings = report.all_findings
    for finding in findings:
        print(finding.render())
    print(f"{report.files} file(s): {len(findings)} finding(s)",
          file=sys.stderr)

    if args.check and findings:
        print(
            f"lint --check: {len(findings)} finding(s); fix the code, or "
            "change the rule (its scope or roster) in a reviewed edit",
            file=sys.stderr,
        )
        return 1
    return 0


def _list_rules() -> int:
    for name in RULES.names():
        rule = RULES.get(name)
        print(f"{name:<22} {rule.title}")
        if rule.rationale:
            print(f"{'':<22} why: {rule.rationale}")
        if rule.scope:
            print(f"{'':<22} scope: {', '.join(rule.scope)}")
    return 0
