"""Rule ``no-wallclock-in-sim``: the sim layers own no wall clock.

Simulation determinism is the repo's foundational contract: the same
seed must produce bit-identical artifacts on any host, which is what
golden masters, campaign resume, and ``campaign diff`` all stand on.
Wall-clock reads (``time.time``, ``datetime.now``) and *global* RNG
draws (``random.random``, ``np.random.rand``) smuggle host state into
that computation.  Seeded, locally constructed generators
(``np.random.default_rng(seed)``, ``random.Random(seed)``) stay legal —
the rule polices ambient state, not randomness itself.

Timing that intentionally reads the wall clock (benchmark harnesses,
campaign lease heartbeats) lives outside the scoped packages; code that
needs the clock moves out of the scope, and a package that must read it
leaves the scope in a reviewed edit of :attr:`NoWallclockRule.scope`.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.analyzer import LintRule, ModuleSource, register_rule
from repro.lint.findings import Finding

#: time-module attributes that read (or block on) the host clock.
CLOCK_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns", "localtime",
    "gmtime", "ctime", "asctime", "strftime", "sleep",
})

#: datetime-class constructors that capture "now".
DATETIME_NOW_ATTRS = frozenset({"now", "utcnow", "today"})

#: stdlib-random names that are *not* ambient state (seeded locals).
RANDOM_ALLOWED = frozenset({"Random", "SystemRandom", "getstate", "setstate"})

#: np.random names that construct seeded generators (legal) rather than
#: draw from the hidden global RandomState (illegal).
NP_RANDOM_ALLOWED = frozenset({
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
})


@register_rule
class NoWallclockRule(LintRule):
    id = "no-wallclock-in-sim"
    title = "sim/defense layers must not read the wall clock or global RNG"
    rationale = (
        "golden masters and campaign resume require runs to be a pure "
        "function of (config, seed); ambient time/RNG breaks that silently"
    )
    scope = (
        "repro.sim", "repro.core", "repro.attacks", "repro.transport",
        "repro.metrics", "repro.counting",
    )

    def check_module(self, src: ModuleSource) -> Iterable[Finding]:
        time_mods: set[str] = set()
        datetime_mods: set[str] = set()
        datetime_classes: set[str] = set()
        random_mods: set[str] = set()
        np_random_mods: set[str] = set()
        numpy_mods: set[str] = set()
        findings: list[Finding] = []

        for node in ast.walk(src.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if alias.name == "time":
                        time_mods.add(bound)
                    elif alias.name == "datetime":
                        datetime_mods.add(bound)
                    elif alias.name == "random":
                        random_mods.add(bound)
                    elif alias.name == "numpy":
                        numpy_mods.add(bound)
                    elif alias.name == "numpy.random":
                        np_random_mods.add(alias.asname or "numpy")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "time":
                    for alias in node.names:
                        if alias.name in CLOCK_ATTRS:
                            findings.append(src.finding(
                                self.id, node,
                                f"imports time.{alias.name} — wall-clock "
                                "reads are forbidden in the sim layers",
                            ))
                elif node.module == "datetime":
                    for alias in node.names:
                        if alias.name in ("datetime", "date"):
                            datetime_classes.add(alias.asname or alias.name)
                elif node.module == "random":
                    for alias in node.names:
                        if alias.name not in RANDOM_ALLOWED:
                            findings.append(src.finding(
                                self.id, node,
                                f"imports random.{alias.name} — the global "
                                "random module is host state; use a seeded "
                                "np.random.default_rng/random.Random",
                            ))
                elif node.module in ("numpy.random", "numpy.random.mtrand"):
                    for alias in node.names:
                        if alias.name not in NP_RANDOM_ALLOWED:
                            findings.append(src.finding(
                                self.id, node,
                                f"imports numpy.random.{alias.name} — "
                                "global-state draw; use default_rng(seed)",
                            ))

        for node in ast.walk(src.tree):
            if not isinstance(node, ast.Attribute):
                continue
            value = node.value
            if isinstance(value, ast.Name):
                base = value.id
                if base in time_mods and node.attr in CLOCK_ATTRS:
                    findings.append(src.finding(
                        self.id, node,
                        f"{base}.{node.attr} reads the host clock; "
                        "simulation time comes from sim.now",
                    ))
                elif base in datetime_classes and (
                    node.attr in DATETIME_NOW_ATTRS
                ):
                    findings.append(src.finding(
                        self.id, node,
                        f"{base}.{node.attr} captures wall-clock time",
                    ))
                elif base in random_mods and (
                    node.attr not in RANDOM_ALLOWED
                ):
                    findings.append(src.finding(
                        self.id, node,
                        f"{base}.{node.attr} draws from the global random "
                        "module; use a seeded generator",
                    ))
                elif base in np_random_mods and (
                    node.attr not in NP_RANDOM_ALLOWED
                ):
                    findings.append(src.finding(
                        self.id, node,
                        f"{base}.{node.attr} draws from numpy's hidden "
                        "global RandomState; use default_rng(seed)",
                    ))
            elif isinstance(value, ast.Attribute) and isinstance(
                value.value, ast.Name
            ):
                # np.random.<fn> / datetime.datetime.now chains.
                root, mid = value.value.id, value.attr
                if (
                    root in numpy_mods
                    and mid == "random"
                    and node.attr not in NP_RANDOM_ALLOWED
                ):
                    findings.append(src.finding(
                        self.id, node,
                        f"{root}.random.{node.attr} draws from numpy's "
                        "hidden global RandomState; use default_rng(seed)",
                    ))
                elif (
                    root in datetime_mods
                    and mid in ("datetime", "date")
                    and node.attr in DATETIME_NOW_ATTRS
                ):
                    findings.append(src.finding(
                        self.id, node,
                        f"{root}.{mid}.{node.attr} captures wall-clock time",
                    ))
        return findings
