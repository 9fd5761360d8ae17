"""Tests for the analyzer core: module naming, findings, parse errors,
rule selection, the registry, and allow comments that excuse nothing."""

from pathlib import Path

import pytest

import repro.sim.engine
from repro.lint.analyzer import RULES, analyze, load_rules, module_name_for
from repro.lint.findings import Finding


class TestModuleNameFor:
    def test_src_layout(self):
        assert (
            module_name_for(Path("src/repro/sim/link.py"))
            == "repro.sim.link"
        )

    def test_anchors_on_last_repro_component(self):
        # Synthetic trees (CI's seeded-violation check) resolve too.
        assert (
            module_name_for(Path("/tmp/seed/repro/sim/bad.py"))
            == "repro.sim.bad"
        )

    def test_init_maps_to_package(self):
        assert module_name_for(Path("src/repro/__init__.py")) == "repro"

    def test_outside_repro_is_none(self):
        assert module_name_for(Path("tests/sim/test_link.py")) is None


class TestFinding:
    def test_render(self):
        f = Finding(rule="bus-guard", path="a/b.py", line=7, message="oops")
        assert f.render() == "a/b.py:7: [bus-guard] oops"


class TestAnalyze:
    def test_parse_error_is_a_finding(self, tmp_path):
        bad = tmp_path / "repro" / "sim"
        bad.mkdir(parents=True)
        (bad / "broken.py").write_text("def f(:\n", encoding="utf-8")
        report = analyze([tmp_path])
        assert report.files == 1
        assert [f.rule for f in report.all_findings] == ["parse-error"]

    def test_findings_are_deterministic(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(
            "import time\nt = time.time()\n", encoding="utf-8"
        )
        (pkg / "b.py").write_text(
            "def f(bus, ev):\n    bus.emit(ev)\n", encoding="utf-8"
        )
        first = analyze([tmp_path], root=tmp_path)
        second = analyze([tmp_path], root=tmp_path)
        assert first.all_findings == second.all_findings
        assert [f.rule for f in first.all_findings] == [
            "no-wallclock-in-sim", "bus-guard"
        ]
        # root-relative display paths, POSIX-style
        assert first.all_findings[0].path == "repro/sim/a.py"

    def test_rule_selection(self, tmp_path):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "a.py").write_text(
            "import time\nt = time.time()\n"
            "def f(bus, ev):\n    bus.emit(ev)\n",
            encoding="utf-8",
        )
        report = analyze([tmp_path], rules=["bus-guard"])
        assert [f.rule for f in report.all_findings] == ["bus-guard"]


class TestRegistry:
    def test_all_six_rules_registered(self):
        load_rules()
        assert {
            "no-wallclock-in-sim", "bus-guard", "atomic-write",
            "event-kind-registry", "slots-on-hotpath", "twin-parity",
        } <= set(RULES.names())


ENGINE_PY = Path(repro.sim.engine.__file__)

#: rule-id -> a ``repro`` tree (relative path -> text) that the rule
#: flags.  Twin parity drifts the real engine from its C twin.
SEEDED = {
    "no-wallclock-in-sim": {"repro/sim/a.py": (
        "import time\n\ndef stamp():\n    return time.time()\n"
    )},
    "bus-guard": {"repro/sim/a.py": (
        "def publish(bus, ev):\n    bus.emit(ev)\n"
    )},
    "atomic-write": {"repro/campaign/a.py": (
        "def save(path, payload):\n    path.write_text(payload)\n"
    )},
    "slots-on-hotpath": {"repro/obs/bus.py": (
        "class _Subscription:\n"
        "    def __init__(self, sink):\n"
        "        self.sink = sink\n"
    )},
    "write-only-state": {"repro/counting/pushback.py": (
        "class Coordinator:\n"
        "    def __init__(self):\n"
        "        self.reports = []\n"
        "\n"
        "    def on_epoch(self, report):\n"
        "        self.reports.append(report)\n"
    )},
    "event-kind-registry": {"repro/obs/events.py": (
        "class MetricEvent:\n    kind = \"event\"\n\n"
        "class Arrival(MetricEvent):\n    kind = \"arrival\"\n\n"
        "class Departure(MetricEvent):\n    kind = \"departure\"\n\n"
        "EVENT_TYPES = {cls.kind: cls for cls in (Arrival,)}\n"
    )},
    "twin-parity": {
        "repro/sim/engine.py": ENGINE_PY.read_text(encoding="utf-8").replace(
            "def peek_time", "def _peek_time"
        ),
        "repro/sim/_corec.c": (ENGINE_PY.parent / "_corec.c").read_text(
            encoding="utf-8"
        ),
    },
}


class TestAllowCommentsExcuseNothing:
    """No rule honours a ``# repro: allow[...]`` comment: a seeded
    violation reports the same findings with one above each flagged
    line, through the whole :func:`analyze` pass."""

    def test_every_rule_has_a_seeded_violation(self):
        load_rules()
        assert set(SEEDED) == set(RULES.names())

    @pytest.mark.parametrize("rule", sorted(SEEDED))
    def test_flagged_lines_stay_flagged(self, rule, tmp_path):
        for name, text in SEEDED[rule].items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        before = analyze([tmp_path], rules=[rule], root=tmp_path).findings
        assert before and {f.rule for f in before} == {rule}

        allow = f"# repro: allow[*]\n# repro: allow[{rule}] reviewed\n"
        for path in {f.path for f in before}:
            target = tmp_path / path
            lines = target.read_text(encoding="utf-8").splitlines(True)
            flagged = {f.line for f in before if f.path == path}
            for line in sorted(flagged, reverse=True):
                lines.insert(line - 1, allow)
            target.write_text("".join(lines), encoding="utf-8")
        after = analyze([tmp_path], rules=[rule], root=tmp_path).findings

        assert [(f.rule, f.path, f.message) for f in after] == [
            (f.rule, f.path, f.message) for f in before
        ]
