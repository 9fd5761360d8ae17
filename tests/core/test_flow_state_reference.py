"""Reference equivalence for MAFIC's per-flow state.

Two mechanisms shrink what a flow costs, and neither may move a bit:

* :class:`~repro.util.stats.WindowedCount` (one deque of arrival times)
  must read exactly like :class:`~repro.util.stats.WindowedRate` with
  unit weights — floats compared by ``.hex()``;
* sweeping idle pre-admission monitors must be invisible: an agent that
  sweeps and one whose sweep threshold is infinite, fed the same packet
  stream in lockstep, return the same verdict for every packet with the
  same drop reason, and end every packet with identical stats and
  tables.  Streams mix per-packet source rotation with persistent flows
  that ``renotice_interval`` demotes from the NFT and re-probes, so a
  flow's monitor is swept and then needed again.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import MaficConfig
from repro.core.labels import label_of_packet
from repro.core.mafic import MaficAgent
from repro.sim.address import AddressSpace
from repro.sim.engine import Simulator
from repro.sim.node import Router
from repro.sim.packet import FlowKey, Packet
from repro.util.stats import WindowedCount, WindowedRate

VICTIM_IP = 0x0A630001
RATE_WINDOW = 0.2


# ------------------------------------------------------------- the window

_ops = st.lists(
    st.tuples(
        st.sampled_from(("record", "rate", "count")),
        st.floats(min_value=0.0, max_value=0.5, allow_nan=False),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=200, deadline=None)
@given(
    window=st.floats(min_value=1e-3, max_value=2.0, allow_nan=False),
    ops=_ops,
)
def test_windowed_count_reads_as_unit_weight_windowed_rate(window, ops):
    count, rate = WindowedCount(window), WindowedRate(window)
    now = 0.0
    for op, step in ops:
        now += step
        if op == "record":
            count.record(now)
            rate.record(now)
        elif op == "rate":
            assert count.rate(now).hex() == rate.rate(now).hex()
        else:
            assert count.count(now) == rate.count(now)


def test_idle_means_nothing_left_in_the_window():
    window = WindowedCount(0.2)
    assert window.idle(0.0)
    window.record(1.0)
    assert not window.idle(1.1)
    # The boundary is exclusive, as in _expire: exactly window-old is out.
    assert window.idle(1.0 + 0.2)
    assert window.count(1.0 + 0.2) == 0


# --------------------------------------------------------------- lockstep


class _Prober:
    def probe(self, packet):
        pass


class _Log:
    """Observer recording each decision in order."""

    def __init__(self):
        self.events = []

    def on_defense_drop(self, packet, reason, now, atr=""):
        self.events.append(("drop", packet.uid, reason))

    def on_defense_pass(self, packet, now, atr=""):
        self.events.append(("pass", packet.uid))

    def on_verdict(self, label, verdict, now, atr=""):
        self.events.append(("verdict", int(label), verdict))

    def on_probe(self, label, now, atr=""):
        self.events.append(("probe", int(label)))

    def on_pushback(self, active, now, atr=""):
        self.events.append(("pushback", active))


def _agent(config, space):
    sim = Simulator()
    log = _Log()
    agent = MaficAgent(
        sim,
        Router(sim, "atr"),
        victim_matcher=lambda ip: ip == VICTIM_IP,
        config=config,
        rng=np.random.default_rng(7),
        address_space=space,
        prober=_Prober(),
        observer=log,
    )
    agent.activate(0.0)
    return agent, log


def _stream(seed, packets, windows, rotate_share, persistent, illegal_share, space):
    """(time, FlowKey) pairs spanning ``windows`` rate windows."""
    rng = np.random.default_rng(seed)
    subnet = space.subnets[0]
    times = np.sort(rng.uniform(0.0, windows * RATE_WINDOW, packets))
    steady = [
        FlowKey(subnet.base + 1 + i, VICTIM_IP, 2000 + i, 80)
        for i in range(persistent)
    ]
    out = []
    for i, t in enumerate(times):
        draw = rng.random()
        if draw < illegal_share:
            src = 0xC8000000 + int(rng.integers(0, 1 << 16))
            key = FlowKey(src, VICTIM_IP, 1024 + i % 60000, 80)
        elif draw < illegal_share + rotate_share or not steady:
            src = subnet.base + 1 + int(rng.integers(0, subnet.size - 2))
            key = FlowKey(src, VICTIM_IP, 1024 + i % 60000, 80)
        else:
            key = steady[int(rng.integers(0, len(steady)))]
        out.append((float(t), key))
    return out


def _entries(table):
    return {
        int(label): tuple(
            tuple(value._times) if isinstance(value, WindowedCount) else value
            for value in (getattr(entry, f.name) for f in dataclasses.fields(entry))
        )
        for label, entry in table.items()
    }


def _assert_same_state(sweeper, reference, now):
    assert sweeper.stats == reference.stats
    assert sweeper.tables.counters == reference.tables.counters
    for name in ("sft", "nft", "pdt"):
        assert _entries(getattr(sweeper.tables, name)) == _entries(
            getattr(reference.tables, name)
        )
    # Every monitor the sweeper still holds reads like the reference's;
    # every one it dropped was idle.
    cutoff = now - RATE_WINDOW
    assert sweeper._monitors.keys() <= reference._monitors.keys()
    for label, kept in reference._monitors.items():
        mine = sweeper._monitors.get(label)
        if mine is None:
            assert kept.idle(now)
        else:
            assert [t for t in mine._times if t > cutoff] == [
                t for t in kept._times if t > cutoff
            ]


def _lockstep(config, stream, space, check_every=40):
    """Feed both agents; return (sweeper, reference, swept-then-reused).

    Return values are compared per packet; the decision logs (which hold
    every drop reason), stats and tables every ``check_every`` packets
    and at the end."""
    sweeper, sweeper_log = _agent(config, space)
    reference, reference_log = _agent(config, space)
    reference._sweep_at = math.inf
    reused = 0
    for i, (t, key) in enumerate(stream):
        sweeper.sim.run(until=t)
        reference.sim.run(until=t)
        # The agents only read the packet, so both see the same one.
        packet = Packet(flow=key)
        label = label_of_packet(packet)
        if label in reference._monitors and label not in sweeper._monitors:
            reused += label not in sweeper.tables
        assert sweeper.on_packet(packet, None, t) == reference.on_packet(
            packet, None, t
        )
        if i % check_every == 0:
            assert sweeper_log.events == reference_log.events
            _assert_same_state(sweeper, reference, t)
    assert sweeper_log.events == reference_log.events
    _assert_same_state(sweeper, reference, stream[-1][0])
    return sweeper, reference, reused


def _space():
    space = AddressSpace()
    space.allocate_subnet(16)
    return space


def test_sweeping_agent_matches_a_non_sweeping_one_under_rotation_and_reprobing():
    space = _space()
    config = MaficConfig(
        drop_probability=0.7,
        default_rtt=0.3,
        rate_window=RATE_WINDOW,
        renotice_interval=0.3,
        max_sft_entries=40,
        max_pdt_entries=32,
    )
    stream = _stream(
        seed=3, packets=3000, windows=30, rotate_share=0.1, persistent=30,
        illegal_share=0.05, space=space,
    )
    sweeper, reference, reused = _lockstep(config, stream, space)
    # The mechanism was exercised, not merely present.
    assert len(sweeper._monitors) < len(reference._monitors) / 2
    assert reused > 0
    assert reference.tables.counters.sft_evictions > 0
    assert reference.tables.counters.pdt_evictions > 0
    assert reference.stats.verdicts_nice > 0


@settings(max_examples=10, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    pd=st.sampled_from((0.3, 0.9, 1.0)),
    renotice=st.sampled_from((0.0, 0.15, 0.5)),
    rotate_share=st.floats(0.2, 0.9),
    persistent=st.integers(0, 20),
    max_sft=st.sampled_from((0, 16)),
    rtt=st.sampled_from((0.02, 0.1, 0.3)),
)
def test_sweep_is_invisible_on_random_streams(
    seed, pd, renotice, rotate_share, persistent, max_sft, rtt
):
    space = _space()
    config = MaficConfig(
        drop_probability=pd,
        default_rtt=rtt,
        rate_window=RATE_WINDOW,
        renotice_interval=renotice,
        max_sft_entries=max_sft,
    )
    stream = _stream(
        seed=seed, packets=1000, windows=24, rotate_share=rotate_share,
        persistent=persistent, illegal_share=0.02, space=space,
    )
    sweeper, reference, _ = _lockstep(config, stream, space)
    assert len(sweeper._monitors) <= len(reference._monitors)
