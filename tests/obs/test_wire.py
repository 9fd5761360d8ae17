"""The wire format: ``encode_line`` is ``json.dumps(to_dict())``, byte for byte."""

import dataclasses
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs
from repro.obs.events import (
    EVENT_TYPES,
    CampaignRun,
    MetricEvent,
    RunCompleted,
    VictimArrival,
    encode_line,
    event_from_dict,
)


def reference_line(event: MetricEvent) -> str:
    return json.dumps(event.to_dict(), separators=(",", ":")) + "\n"


_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([
        float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-7, 1e22,
        1e16, 5e-324, 1.7976931348623157e308,
    ]),
)
_INTS = st.integers(min_value=-(2 ** 70), max_value=2 ** 70)
_TEXT = st.one_of(
    st.text(),
    st.sampled_from([
        "", 'quote"d', "back\\slash", "tab\there", "nul\x00", "\x1f\x7f",
        "café", "  ", "\U0001f600", "</script>",
    ]),
)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), _INTS, _FLOATS, _TEXT,
)
_POINTS = st.dictionaries(
    _TEXT,
    st.recursive(
        _JSON_LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(_TEXT, inner, max_size=3),
        ),
        max_leaves=6,
    ),
    max_size=4,
)

#: Declared field type -> values of exactly that type.
_DECLARED = {
    "float": _FLOATS,
    "int": _INTS,
    "str": _TEXT,
    "bool": st.booleans(),
    "dict": _POINTS,
}

#: What a producer may put in a field whatever it declares: a bool in an
#: int field, an int in a float field, a float subclass, ``None``.
_OFF_TYPE = st.one_of(
    st.booleans(), _INTS, _FLOATS, _TEXT, st.none(),
    _FLOATS.map(np.float64),
)


def events_of(cls, off_type: bool):
    fields = {}
    for field in dataclasses.fields(cls):
        declared = _DECLARED[field.type]
        fields[field.name] = (
            st.one_of(declared, _OFF_TYPE) if off_type else declared
        )
    return st.builds(cls, **fields)


ANY_EVENT = st.one_of(*(
    events_of(cls, off_type)
    for cls in EVENT_TYPES.values() for off_type in (False, True)
))


class TestEncodeLine:
    @given(ANY_EVENT)
    @settings(max_examples=600, deadline=None)
    def test_equals_json_dumps_of_to_dict(self, event):
        assert encode_line(event) == reference_line(event)

    @pytest.mark.parametrize("cls", EVENT_TYPES.values(),
                             ids=lambda cls: cls.kind)
    def test_every_kind_with_default_looking_values(self, cls):
        """One deterministic case per kind, so a broken kind is named."""
        plain = {"float": 1.5, "int": 7, "str": "x", "bool": True,
                 "dict": {"attack.rate": 2.0, "nested": {"empty": {}}}}
        event = cls(**{
            field.name: plain[field.type]
            for field in dataclasses.fields(cls)
        })
        line = encode_line(event)
        assert line == reference_line(event)
        assert line.endswith("}\n") and line.count("\n") == 1
        assert event_from_dict(json.loads(line)) == event

    @pytest.mark.parametrize("value, spelled", [
        (float("nan"), "NaN"), (float("inf"), "Infinity"),
        (float("-inf"), "-Infinity"), (-0.0, "-0.0"), (1e-7, "1e-07"),
        (1e22, "1e+22"), (3, "3"), (True, "true"), (None, "null"),
        (np.float64(0.25), "0.25"),
    ])
    def test_float_field_spellings(self, value, spelled):
        event = VictimArrival(time=value, size=1, is_attack=False)
        assert encode_line(event) == (
            '{"kind":"victim.arrival","time":%s,"size":1,"is_attack":false}\n'
            % spelled
        )
        assert encode_line(event) == reference_line(event)

    def test_bool_in_an_int_field_stays_a_bool(self):
        event = VictimArrival(time=0.0, size=True, is_attack=1)
        assert encode_line(event) == reference_line(event)
        assert '"size":true,"is_attack":1}' in encode_line(event)

    def test_numpy_scalars_follow_json(self):
        """``np.float64`` is a float to ``json``; ``np.int64`` is not an
        int and is refused — the encoder refuses it the same way."""
        completed = RunCompleted(
            time=np.float64(4.5), run_id="r", seed=1, alpha=np.float64(99.5),
            beta=0.0, theta_p=0.0, theta_n=0.0, lr=0.0,
            events_executed=10, wall_seconds=0.1,
        )
        assert encode_line(completed) == reference_line(completed)
        refused = VictimArrival(time=0.0, size=np.int64(1000), is_attack=False)
        with pytest.raises(TypeError):
            reference_line(refused)
        with pytest.raises(TypeError):
            encode_line(refused)

    def test_strings_are_escaped_as_json_escapes_them(self):
        point = {'k"ey': "v\\al\n", "café": "\U0001f600", "": {}}
        event = CampaignRun(
            time=0.0, run_id="tab\tid\x00", seed=1, point=point,
            alpha=1.0, beta=2.0, wall_seconds=0.5,
        )
        line = encode_line(event)
        assert line == reference_line(event)
        assert line.isascii()
        assert json.loads(line)["point"] == point

    def test_a_new_event_class_needs_no_registration(self, monkeypatch):
        """Entering a class in ``EVENT_TYPES`` is all it takes: the
        encoder and the field table are derived on first use."""

        @dataclass(slots=True)
        class QueueDepth(MetricEvent):
            kind = 'queue.depth "quoted" {braced}'

            link: str
            depth: int
            share: float = 0.5

        monkeypatch.setitem(EVENT_TYPES, QueueDepth.kind, QueueDepth)
        event = QueueDepth(time=1.25, link="a->b", depth=3)
        line = encode_line(event)
        assert line == reference_line(event)
        assert event_from_dict(json.loads(line)) == event


class TestRoundTrip:
    @given(ANY_EVENT)
    @settings(max_examples=300, deadline=None)
    def test_event_from_dict_inverts_to_dict(self, event):
        payload = event.to_dict()
        assert list(payload) == ["kind"] + [
            field.name for field in dataclasses.fields(event)
        ]
        rebuilt = event_from_dict(payload)
        assert type(rebuilt) is type(event)
        # Dataclass equality compares field tuples, which short-cut on
        # identity, so a NaN that made the trip still compares equal.
        assert rebuilt == event


def test_one_serialisation_of_an_event_in_the_package():
    """Recordings, worker stdout and SSE all go through ``encode_line``."""
    package = Path(repro.obs.__file__).parent
    offenders = [
        f"{path.name}:{number}"
        for path in sorted(package.glob("*.py"))
        for number, text in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"json\.dumps\(.*to_dict\(\)", text)
    ]
    assert offenders == []
