"""Tests for repro.core.tables — the SFT/NFT/PDT transitions of Figure 2."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labels import FlowLabel
from repro.core.tables import FlowTables, SftEntry, TableName
from repro.util.stats import WindowedCount

labels = st.builds(FlowLabel, st.integers(min_value=0, max_value=2**64 - 1))


def sft_entry(label, start=1.0, deadline=1.5, baseline=100.0):
    return SftEntry(
        label=label,
        probe_started=start,
        deadline=deadline,
        baseline_rate=baseline,
        monitor=WindowedCount(0.25),
    )


class TestTransitions:
    def test_admit_and_lookup(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        assert t.lookup(label) is TableName.SFT
        assert label in t

    def test_promote_to_nice(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        t.promote_to_nice(label, now=2.0)
        assert t.lookup(label) is TableName.NFT
        assert t.nft[label] == 2.0  # the NFT keeps the admission time
        assert label not in t.sft

    def test_condemn_from_sft(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        t.condemn(label, reason="unresponsive")
        assert t.lookup(label) is TableName.PDT
        assert t.pdt[label] == "unresponsive"  # the PDT keeps the reason
        assert label not in t.sft

    def test_condemn_unknown_flow_directly(self):
        t = FlowTables()
        label = FlowLabel(9)
        t.condemn(label, reason="illegal_source")
        assert t.lookup(label) is TableName.PDT

    def test_condemn_idempotent(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.condemn(label, "illegal_source")
        # A second verdict keeps the first reason and admits nothing.
        t.condemn(label, "unresponsive")
        assert t.pdt[label] == "illegal_source"
        assert t.counters.pdt_admissions == 1

    def test_pdt_wins_lookup_priority(self):
        # A condemned flow must stay condemned even with stale entries.
        t = FlowTables()
        label = FlowLabel(1)
        t.sft[label] = sft_entry(label)
        t.pdt[label] = "unresponsive"
        assert t.lookup(label) is TableName.PDT

    def test_double_admit_rejected(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        with pytest.raises(ValueError):
            t.admit_suspicious(sft_entry(label))

    def test_admit_condemned_rejected(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.condemn(label, "unresponsive")
        with pytest.raises(ValueError):
            t.admit_suspicious(sft_entry(label))

    def test_promote_missing_rejected(self):
        with pytest.raises(KeyError):
            FlowTables().promote_to_nice(FlowLabel(1), 1.0)

    def test_demote_from_nice(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        t.promote_to_nice(label, 2.0)
        t.demote_from_nice(label)
        assert t.lookup(label) is None

    def test_condemn_removes_nft_entry(self):
        t = FlowTables()
        label = FlowLabel(1)
        t.admit_suspicious(sft_entry(label))
        t.promote_to_nice(label, 2.0)
        t.condemn(label, "unresponsive")
        assert t.lookup(label) is TableName.PDT
        assert label not in t.nft


class TestBookkeeping:
    def test_flush_clears_everything(self):
        t = FlowTables()
        t.admit_suspicious(sft_entry(FlowLabel(1)))
        t.condemn(FlowLabel(2), "unresponsive")
        t.flush()
        assert t.occupancy() == {"sft": 0, "nft": 0, "pdt": 0}
        assert t.counters.flushes == 1

    def test_admission_counters(self):
        t = FlowTables()
        t.admit_suspicious(sft_entry(FlowLabel(1)))
        t.promote_to_nice(FlowLabel(1), 2.0)
        t.condemn(FlowLabel(2), "x")
        assert t.counters.sft_admissions == 1
        assert t.counters.nft_admissions == 1
        assert t.counters.pdt_admissions == 1

    @given(st.lists(labels, min_size=1, max_size=50, unique=True))
    @settings(max_examples=25)
    def test_flow_in_exactly_one_table(self, flow_labels):
        """Invariant: a label never occupies two tables at once."""
        t = FlowTables()
        for i, label in enumerate(flow_labels):
            t.admit_suspicious(sft_entry(label))
            if i % 3 == 0:
                t.promote_to_nice(label, 1.0)
            elif i % 3 == 1:
                t.condemn(label, "unresponsive")
        for label in flow_labels:
            memberships = sum(
                (label in table) for table in (t.sft, t.nft, t.pdt)
            )
            assert memberships <= 1
