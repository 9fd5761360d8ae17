"""Twin-parity self-tests: the real surfaces agree, and seeded
mutations of either side are caught.

The mutation tests are the proof the rule has teeth: each one renames
or re-signatures something in a *copy* of the real sources and asserts
the drift is reported — so a future refactor cannot silently weaken
the parser into matching nothing.
"""

from pathlib import Path

import pytest

import repro.sim.engine
from repro.lint.analyzer import analyze
from repro.lint.rules.twin import (
    compare_surfaces,
    parse_c_surface,
    parse_pure_surface,
)

ENGINE_PY = Path(repro.sim.engine.__file__)
COREC = ENGINE_PY.parent / "_corec.c"


@pytest.fixture(scope="module")
def py_text():
    return ENGINE_PY.read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def c_text():
    return COREC.read_text(encoding="utf-8")


class TestParsers:
    def test_c_surface_shape(self, c_text):
        surface = parse_c_surface(c_text)
        assert set(surface) == {"Event", "SeriesEvent", "Simulator"}
        sim = surface["Simulator"]
        assert "schedule" in sim.methods
        assert sim.methods["run"] == ("until", "max_events")
        assert {"stop", "pending", "peek_time", "queue_stats"} <= sim.noargs
        assert sim.init_params == ()  # an empty kwlist, still compared
        assert sim.attrs == {"events_executed", "now"}

    def test_c_base_chain_unions(self, c_text):
        series = parse_c_surface(c_text)["SeriesEvent"]
        # cancel comes from Event_Type via tp_base; extend/stop are own.
        assert {"cancel", "extend", "stop"} <= set(series.methods)
        assert "index" in series.attrs and "time" in series.attrs

    def test_pure_surface_shape(self, py_text):
        surface = parse_pure_surface(py_text)
        sim = surface["Simulator"]
        assert sim.methods["run"] == ("until", "max_events")
        assert sim.init_params == ()
        event = surface["Event"]
        assert "cancel" in event.methods
        assert {"cancelled", "times", "fn"} <= event.attrs
        assert "_sim" not in event.attrs  # private slots stay private


class TestParity:
    def test_head_surfaces_agree(self, c_text, py_text):
        drifts = compare_surfaces(
            parse_c_surface(c_text), parse_pure_surface(py_text)
        )
        assert drifts == []

    def test_renamed_c_method_is_drift(self, c_text, py_text):
        mutated = c_text.replace('"postpone"', '"postpone_v2"')
        drifts = compare_surfaces(
            parse_c_surface(mutated), parse_pure_surface(py_text)
        )
        assert any("postpone" in d for d in drifts)

    def test_mutated_kwlist_is_drift(self, c_text, py_text):
        mutated = c_text.replace(
            '{"until", "max_events", NULL}', '{"until", "limit", NULL}'
        )
        assert mutated != c_text
        drifts = compare_surfaces(
            parse_c_surface(mutated), parse_pure_surface(py_text)
        )
        assert any("kwlist" in d and "run" in d for d in drifts)

    def test_constructor_parameter_on_one_side_is_drift(self, c_text, py_text):
        mutated = c_text.replace(
            'static char *kwlist[] = {NULL};',
            'static char *kwlist[] = {"queue", NULL};',
        )
        assert mutated != c_text
        drifts = compare_surfaces(
            parse_c_surface(mutated), parse_pure_surface(py_text)
        )
        assert any("__init__" in d and "queue" in d for d in drifts)

    def test_removed_pure_method_is_drift(self, c_text, py_text):
        mutated = py_text.replace("def peek_time", "def _peek_time")
        drifts = compare_surfaces(
            parse_c_surface(c_text), parse_pure_surface(mutated)
        )
        assert any(
            "peek_time" in d and "compiled" in d for d in drifts
        )

    def test_renamed_c_member_is_drift(self, c_text, py_text):
        mutated = c_text.replace('"events_executed"', '"events_done"')
        drifts = compare_surfaces(
            parse_c_surface(mutated), parse_pure_surface(py_text)
        )
        assert any("events_executed" in d for d in drifts)
        assert any("events_done" in d for d in drifts)


class TestRuleEndToEnd:
    def test_clean_on_real_tree(self):
        report = analyze([ENGINE_PY.parent])
        assert [
            f for f in report.all_findings if f.rule == "twin-parity"
        ] == []

    def test_mutated_tree_fails(self, tmp_path, c_text, py_text):
        pkg = tmp_path / "repro" / "sim"
        pkg.mkdir(parents=True)
        (pkg / "engine.py").write_text(py_text, encoding="utf-8")
        (pkg / "_corec.c").write_text(
            c_text.replace('"postpone"', '"postpone_v2"'), encoding="utf-8"
        )
        report = analyze([tmp_path], rules=["twin-parity"])
        twin = [f for f in report.all_findings if f.rule == "twin-parity"]
        assert twin and any("postpone" in f.message for f in twin)
