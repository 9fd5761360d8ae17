"""Fixture-snippet tests: each rule's positive, negative, and
suppressed cases.

Every rule gets at least one snippet it must flag, one idiomatic
snippet it must not, and one flagged snippet silenced by an inline
``# repro: allow[rule-id]`` — the three behaviors that make a linter
trustworthy enough to gate CI on.
"""

import textwrap

from repro.lint.analyzer import analyze_source


def run(rule, module, source):
    return analyze_source(textwrap.dedent(source), module, rules=[rule])


class TestNoWallclock:
    RULE = "no-wallclock-in-sim"

    def test_flags_time_time(self):
        findings = run(self.RULE, "repro.sim.foo", """
            import time

            def stamp():
                return time.time()
        """)
        assert len(findings) == 1
        assert "host clock" in findings[0].message

    def test_flags_aliased_import(self):
        findings = run(self.RULE, "repro.core.foo", """
            import time as _t

            def stamp():
                return _t.monotonic()
        """)
        assert len(findings) == 1

    def test_flags_from_time_import(self):
        findings = run(self.RULE, "repro.sim.foo", """
            from time import perf_counter
        """)
        assert len(findings) == 1

    def test_flags_global_random(self):
        findings = run(self.RULE, "repro.attacks.foo", """
            import random

            def jitter():
                return random.random()
        """)
        assert len(findings) == 1
        assert "seeded" in findings[0].message

    def test_flags_np_global_random(self):
        findings = run(self.RULE, "repro.transport.foo", """
            import numpy as np

            def noise(n):
                return np.random.rand(n)
        """)
        assert len(findings) == 1

    def test_flags_datetime_now(self):
        findings = run(self.RULE, "repro.metrics.foo", """
            from datetime import datetime

            def when():
                return datetime.now()
        """)
        assert len(findings) == 1

    def test_allows_seeded_generators(self):
        findings = run(self.RULE, "repro.sim.foo", """
            import numpy as np
            from random import Random

            def make(seed):
                return np.random.default_rng(seed), Random(seed)
        """)
        assert findings == []

    def test_out_of_scope_module_ignored(self):
        findings = run(self.RULE, "repro.analysis.foo", """
            import time

            def stamp():
                return time.time()
        """)
        assert findings == []

    def test_inline_allow_suppresses(self):
        findings = run(self.RULE, "repro.sim.foo", """
            import time

            def stamp():
                # repro: allow[no-wallclock-in-sim] bench-only helper
                return time.time()
        """)
        assert findings == []


class TestBusGuard:
    RULE = "bus-guard"

    def test_flags_unguarded_emit(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(bus, ev):
                bus.emit(ev)
        """)
        assert len(findings) == 1
        assert "falsy" in findings[0].message

    def test_flags_emit_in_else_branch(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(self, ev):
                if self.bus:
                    pass
                else:
                    self.bus.emit(ev)
        """)
        assert len(findings) == 1

    def test_accepts_if_bus_guard(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(bus, ev):
                if bus:
                    bus.emit(ev)
        """)
        assert findings == []

    def test_accepts_attribute_bus_guard(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(self, ev):
                if self.bus and ev is not None:
                    self.bus.emit(ev)
        """)
        assert findings == []

    def test_accepts_guard_clause(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(bus, a, b):
                if not bus:
                    return
                bus.emit(a)
                bus.emit(b)
        """)
        assert findings == []

    def test_is_not_none_alone_is_not_a_guard(self):
        # A NullSink is not None but must still short-circuit the emit.
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(bus, ev):
                if bus is not None:
                    bus.emit(ev)
        """)
        assert len(findings) == 1

    def test_non_bus_receiver_ignored(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def fire(signal, ev):
                signal.emit(ev)
        """)
        assert findings == []

    def test_inline_allow_suppresses(self):
        findings = run(self.RULE, "repro.sim.foo", """
            def publish(bus, ev):
                # repro: allow[bus-guard] caller holds the guard
                bus.emit(ev)
        """)
        assert findings == []


class TestAtomicWrite:
    RULE = "atomic-write"

    def test_flags_text_mode_open(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            def save(path, payload):
                with open(path, "w") as f:
                    f.write(payload)
        """)
        assert len(findings) == 1
        assert "mkstemp" in findings[0].message

    def test_flags_gzip_open_write(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            import gzip

            def save(path, payload):
                with gzip.open(path, mode="wb") as f:
                    f.write(payload)
        """)
        assert len(findings) == 1

    def test_flags_write_text(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            def save(path, payload):
                path.write_text(payload)
        """)
        assert len(findings) == 1

    def test_flags_non_literal_mode(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            def save(path, payload, mode):
                with open(path, mode) as f:
                    f.write(payload)
        """)
        assert len(findings) == 1

    def test_read_mode_ok(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            def load(path):
                with open(path) as f:
                    return f.read()

            def load_binary(path):
                with open(path, "rb") as f:
                    return f.read()
        """)
        assert findings == []

    def test_fdopen_is_blessed(self):
        # A file object over an fd is downstream of os.open/mkstemp,
        # i.e. already inside an atomic-write helper.
        findings = run(self.RULE, "repro.campaign.foo", """
            import os

            def save(fd, payload):
                with os.fdopen(fd, "wb") as f:
                    f.write(payload)
        """)
        assert findings == []

    def test_out_of_scope_module_ignored(self):
        findings = run(self.RULE, "repro.analysis.foo", """
            def save(path, payload):
                path.write_text(payload)
        """)
        assert findings == []

    def test_inline_allow_suppresses(self):
        findings = run(self.RULE, "repro.campaign.foo", """
            def save(path, payload):
                # repro: allow[atomic-write] scratch file outside the store
                path.write_text(payload)
        """)
        assert findings == []


class TestSlotsOnHotpath:
    RULE = "slots-on-hotpath"

    def test_flags_missing_slots(self):
        findings = run(self.RULE, "repro.obs.bus", """
            class _Subscription:
                def __init__(self, sink):
                    self.sink = sink
        """)
        assert len(findings) == 1
        assert "__slots__" in findings[0].message

    def test_accepts_slots(self):
        findings = run(self.RULE, "repro.obs.bus", """
            class _Subscription:
                __slots__ = ("sink",)

                def __init__(self, sink):
                    self.sink = sink
        """)
        assert findings == []

    def test_flags_renamed_roster_class(self):
        # The roster is part of the invariant: a rename must update it.
        findings = run(self.RULE, "repro.obs.bus", """
            class _Sub:
                __slots__ = ("sink",)
        """)
        assert len(findings) == 1
        assert "roster" in findings[0].message

    def test_flags_an_unslotted_per_link_class(self):
        findings = run(self.RULE, "repro.sim.link", """
            class SimplexLink:
                def __init__(self, sim):
                    self.sim = sim
        """)
        assert len(findings) == 1
        assert "SimplexLink" in findings[0].message

    def test_flags_a_per_atr_dataclass_without_slots_true(self):
        findings = run(self.RULE, "repro.core.mafic", """
            from dataclasses import dataclass

            @dataclass
            class MaficStats:
                packets_examined: int = 0

            class MaficAgent:
                __slots__ = ("sim",)
        """)
        assert [f.message.split()[2] for f in findings] == ["MaficStats"]

    def test_event_dataclass_needs_slots_true(self):
        findings = run(self.RULE, "repro.obs.events", """
            from dataclasses import dataclass

            @dataclass
            class Sample:
                kind = "sample"
                time: float
        """)
        assert len(findings) == 1

    def test_event_dataclass_with_slots_true_ok(self):
        findings = run(self.RULE, "repro.obs.events", """
            from dataclasses import dataclass

            @dataclass(slots=True)
            class Sample:
                kind = "sample"
                time: float
        """)
        assert findings == []

    def test_inline_allow_suppresses(self):
        findings = run(self.RULE, "repro.obs.bus", """
            class _Subscription:  # repro: allow[slots-on-hotpath] cold path
                def __init__(self, sink):
                    self.sink = sink
        """)
        assert findings == []
