"""MAFIC's per-flow state is bounded by the flows inside one rate window.

Under per-packet source rotation every attack packet is a new flow that
gets an arrival-rate monitor.  These pin the footprint structurally (no
timing, no RSS):

(a) after 10,000 one-packet flows spread over 20 rate windows, the
    agent holds at most twice the flows of one window, plus 64, monitors
    (the sweep fires when the dict has doubled since the last sweep);
(b) a monitor with one arrival is at most 200 bytes: its slots and one
    list of arrival times (no weights, no 64-slot deque block);
(c) SFT entries carry no ``__dict__``, an NFT entry is its admission
    time alone and a PDT entry its reason alone.

Before idle monitors were swept, (a) found all 10,000 monitors alive,
each a two-deque ``WindowedRate``, and (c) found a ``__dict__`` on every
table entry; (b) found 680 bytes per monitor while the times sat in a
deque.
"""

import sys

import numpy as np

from repro.core.config import MaficConfig
from repro.core.labels import FlowLabel
from repro.core.mafic import MaficAgent
from repro.core.tables import FlowTables, SftEntry
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet

VICTIM_IP = 0x0A630001
RATE_WINDOW = 0.2
FLOWS = 10_000
WINDOWS = 20


class _Prober:
    def probe(self, packet):
        pass


def _rotated_agent():
    """An agent after FLOWS one-packet flows, evenly over WINDOWS windows."""
    sim = Simulator()
    agent = MaficAgent(
        sim,
        Router(sim, "atr"),
        victim_matcher=lambda ip: ip == VICTIM_IP,
        config=MaficConfig(
            drop_probability=0.9, default_rtt=0.05, rate_window=RATE_WINDOW
        ),
        rng=np.random.default_rng(1),
        prober=_Prober(),
    )
    agent.activate(0.0)
    step = WINDOWS * RATE_WINDOW / FLOWS
    peak = 0
    for i in range(FLOWS):
        now = i * step
        sim.run(until=now)
        src = 0x0A000000 + i
        agent.on_packet(Packet(flow=FlowKey(src, VICTIM_IP, 1024, 80)), None, now)
        peak = max(peak, len(agent._monitors))
    return agent, peak


def test_monitors_bounded_by_one_window_of_flows():
    agent, peak = _rotated_agent()
    per_window = FLOWS // WINDOWS
    bound = 2 * per_window + 64
    assert len(agent._monitors) <= bound
    assert peak <= bound


def test_a_one_arrival_monitor_is_at_most_200_bytes():
    agent, _ = _rotated_agent()
    monitors = list(agent._monitors.values())
    monitors += [entry.monitor for entry in agent.tables.sft.values()]
    assert monitors
    for monitor in monitors:
        assert type(monitor).__slots__ == ("window", "_times", "_next_expiry")
        assert len(monitor._times) <= 1
        assert sys.getsizeof(monitor) + sys.getsizeof(monitor._times) <= 200


def test_table_entries_have_no_dict():
    label = FlowLabel(1)
    entry = SftEntry(label=label, probe_started=0.0, deadline=1.0, baseline_rate=0.0)
    assert not hasattr(entry, "__dict__")
    tables = FlowTables()
    tables.admit_suspicious(entry)
    tables.promote_to_nice(label, 2.5)
    assert tables.nft == {label: 2.5}
    assert type(tables.nft[label]) is float
    # The PDT holds the one thing read back of a condemned flow: why.
    tables.condemn(FlowLabel(2), "unresponsive")
    assert tables.pdt == {FlowLabel(2): "unresponsive"}
