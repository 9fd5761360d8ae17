"""Tests for repro.sim.link."""

import numpy as np
import pytest

from repro.sim.link import SimplexLink
from repro.sim.packet import FlowKey, Packet
from repro.sim.queues import DropTailQueue, DRRQueue, REDQueue


class _Capture:
    """A node stand-in that records deliveries."""

    def __init__(self, sim, name="cap"):
        self.sim = sim
        self.name = name
        self.received = []

    def receive(self, packet, via=None):
        self.received.append((self.sim.now, packet))

    def attach_link(self, link):
        pass


def make_link(sim, bandwidth=8e6, delay=0.01, capacity=4):
    src = _Capture(sim, "src")
    dst = _Capture(sim, "dst")
    link = SimplexLink(sim, src, dst, bandwidth, delay, DropTailQueue(capacity))
    return link, dst


def pkt(size=1000, seq=0):
    return Packet(flow=FlowKey(1, 2, 3, 4), size=size, seq=seq)


class TestTransmission:
    def test_delivery_after_tx_plus_prop_delay(self, sim):
        link, dst = make_link(sim, bandwidth=8e6, delay=0.01)
        link.send(pkt(size=1000))  # tx = 1ms, prop = 10ms
        sim.run()
        t, _ = dst.received[0]
        assert t == pytest.approx(0.011)

    def test_serialization_spaces_packets(self, sim):
        link, dst = make_link(sim, bandwidth=8e6, delay=0.0)
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))
        sim.run()
        t0, t1 = dst.received[0][0], dst.received[1][0]
        assert t1 - t0 == pytest.approx(0.001)  # one tx time apart

    def test_queue_overflow_drops(self, sim):
        link, dst = make_link(sim, capacity=2)
        # One in flight + 2 queued fit; more are dropped.
        results = [link.send(pkt(seq=i)) for i in range(5)]
        sim.run()
        assert results.count(False) == 2
        assert len(dst.received) == 3

    def test_counters(self, sim):
        link, _ = make_link(sim)
        link.send(pkt())
        link.send(pkt())
        sim.run()
        assert link.packets_sent == 2
        assert link.bytes_sent == 2000
        assert link.packets_offered == 2

    def test_hop_count_incremented(self, sim):
        link, dst = make_link(sim)
        p = pkt()
        link.send(p)
        sim.run()
        assert dst.received[0][1].hop_count == 1

    def test_utilization(self, sim):
        link, _ = make_link(sim, bandwidth=8e6)
        link.send(pkt(size=1000))
        sim.run()
        assert link.utilization(1.0) == pytest.approx(0.001)
        assert link.utilization(0.0) == 0.0

    def test_invalid_parameters(self, sim):
        src, dst = _Capture(sim), _Capture(sim)
        with pytest.raises(ValueError):
            SimplexLink(sim, src, dst, bandwidth_bps=0)
        with pytest.raises(ValueError):
            SimplexLink(sim, src, dst, delay=-1)

    @pytest.mark.parametrize("field", ["bandwidth_bps", "delay"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_parameters_fail_at_construction(self, sim, field, value):
        """Stored, either would stop the run at its first packet, inside
        the engine, far from the builder that passed it."""
        src, dst = _Capture(sim), _Capture(sim)
        with pytest.raises(ValueError, match=field):
            SimplexLink(sim, src, dst, **{field: value})


class _CountingHook:
    def __init__(self, verdict=True):
        self.seen = 0
        self.verdict = verdict

    def on_packet(self, packet, link, now):
        self.seen += 1
        return self.verdict


class TestHeadHooks:
    def test_hook_sees_every_offer(self, sim):
        link, _ = make_link(sim)
        hook = _CountingHook()
        link.add_head_hook(hook)
        for i in range(3):
            link.send(pkt(seq=i))
        assert hook.seen == 3

    def test_consuming_hook_drops(self, sim):
        link, dst = make_link(sim)
        link.add_head_hook(_CountingHook(verdict=False))
        assert not link.send(pkt())
        sim.run()
        assert dst.received == []
        assert link.hook_drops == 1

    def test_hooks_run_in_order_and_short_circuit(self, sim):
        link, _ = make_link(sim)
        first = _CountingHook(verdict=False)
        second = _CountingHook()
        link.add_head_hook(first)
        link.add_head_hook(second)
        link.send(pkt())
        assert first.seen == 1
        assert second.seen == 0

    def test_remove_hook(self, sim):
        link, _ = make_link(sim)
        hook = _CountingHook(verdict=False)
        link.add_head_hook(hook)
        link.remove_head_hook(hook)
        assert link.send(pkt())
        assert hook.seen == 0

    def test_head_hooks_property(self, sim):
        link, _ = make_link(sim)
        hook = _CountingHook()
        link.add_head_hook(hook)
        assert link.head_hooks == (hook,)


# --------------------------------------------------------------------------
# Parity of the idle cut-through with the link spelled the long way


class _LoggedSim:
    """A simulator front that logs each ``schedule_anon`` a link makes.

    ``seq`` is drawn per call, so the log's order is the ``seq`` order.
    """

    def __init__(self, sim):
        self._sim = sim
        self.log = []

    @property
    def now(self):
        return self._sim.now

    def schedule_anon(self, time, fn, *args):
        self.log.append(("deliver" if args else "wake", time))
        return self._sim.schedule_anon(time, fn, *args)


class _ReferenceLink:
    """The link algorithm with nothing folded away: every offer is an
    ``enqueue``, every transmission a ``dequeue`` followed by ``__len__``."""

    def __init__(self, sim, dst, bandwidth_bps, delay, queue):
        self.sim = sim
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.delay = delay
        self.queue = queue
        self.busy_until = 0.0
        self.pending = False

    def send(self, packet):
        now = self.sim.now
        if not self.queue.enqueue(packet, now):
            return False
        if not self.pending:
            if self.busy_until <= now:
                self._drain(now)
            else:
                self.pending = True
                self.sim.schedule_anon(self.busy_until, self._wake)
        return True

    def _drain(self, now):
        packet = self.queue.dequeue()
        if packet is None:
            return
        depart = now + packet.size * 8.0 / self.bandwidth_bps
        self.busy_until = depart
        self.sim.schedule_anon(depart + self.delay, self.dst.receive, packet, self)
        if len(self.queue):
            self.pending = True
            self.sim.schedule_anon(depart, self._wake)

    def _wake(self):
        self.pending = False
        self._drain(self.sim.now)


def _queue(kind):
    if kind == "droptail":
        return DropTailQueue(capacity=6)
    if kind == "droptail-1":
        return DropTailQueue(capacity=1)
    if kind == "red":
        return REDQueue(capacity=6, min_thresh=1.0, max_thresh=4.0, max_prob=0.5,
                        weight=0.5, rng=np.random.default_rng(7))
    return DRRQueue(capacity=6, quantum=500)


#: (time, size, source) offers: arrivals on an idle link, a burst into a
#: busy one, then more than the queue holds, then idle again.  1000 B at
#: 8 Mb/s is 1 ms on the wire.
_SCRIPT = (
    [(0.000, 1000, 1), (0.010, 400, 2), (0.020, 1000, 1)]
    + [(0.0300 + 0.0001 * i, 1000 - 100 * (i % 3), 1 + i % 3) for i in range(5)]
    + [(0.0500, 1000, 1 + i % 4) for i in range(12)]
    + [(0.2000, 700, 3), (0.3000, 1000, 1)]
)


def _play(link_of, discipline, sim_cls, script=None):
    """Run ``script`` (default ``_SCRIPT``) through the link
    ``link_of(front, dst, queue)`` builds.

    Returns everything the two links must agree on.
    """
    sim = sim_cls()
    front = _LoggedSim(sim)
    dst = _Capture(sim, "dst")
    queue = _queue(discipline)
    link = link_of(front, dst, queue)
    accepted = []
    for n, (time, size, source) in enumerate(script or _SCRIPT):
        packet = Packet(flow=FlowKey(source, 9, 3, 4), size=size, seq=n)
        sim.schedule_at(time, lambda p=packet: accepted.append(link.send(p)))
    sim.run()
    return {
        "accepted": accepted,
        "deliveries": [(t, p.seq) for t, p in dst.received],
        "schedule_log": front.log,
        "enqueued": queue.enqueued,
        "drops": queue.drops,
        "left": len(queue),
        "red_average": getattr(queue, "average_occupancy", None),
    }


@pytest.mark.parametrize("discipline", ["droptail", "red", "drr"])
def test_link_matches_the_long_way_round(sim, discipline):
    def real(front, dst, queue):
        return SimplexLink(front, _Capture(front, "src"), dst, 8e6, 0.002, queue)

    def reference(front, dst, queue):
        return _ReferenceLink(front, dst, 8e6, 0.002, queue)

    got = _play(real, discipline, type(sim))
    want = _play(reference, discipline, type(sim))
    assert got == want  # floats compared exactly: same arithmetic, same order
    assert want["drops"] > 0 and want["left"] == 0  # the script overflowed


class TestWakeUps:
    def test_burst_into_busy_link_keeps_one_wake_up(self, sim):
        front = _LoggedSim(sim)
        dst = _Capture(sim, "dst")
        link = SimplexLink(front, _Capture(sim, "src"), dst, 8e6, 0.01,
                           DropTailQueue(8))
        for i in range(5):
            assert link.send(pkt(seq=i))
        # One packet on the wire, four queued behind a single wake-up.
        assert front.log == [("deliver", 0.011), ("wake", 0.001)]
        assert sim.pending() == 2
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1, 2, 3, 4]
        # Each wake-up re-armed itself only after sending: never two at once.
        wakes = [t for kind, t in front.log if kind == "wake"]
        assert wakes == sorted(set(wakes)) and len(wakes) == 4

    def test_idle_offer_asks_for_no_backlog(self, sim):
        class _Asked(DropTailQueue):
            asked = 0

            def __len__(self):
                self.asked += 1
                return super().__len__()

        link, dst = make_link(sim)
        link.queue = queue = _Asked(4)
        queue.asked = 0  # the assignment itself may look
        link.send(pkt(seq=0))
        sim.run(until=1.0)
        link.send(pkt(seq=1))
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1]
        assert queue.enqueued == 2  # the discipline saw both arrivals
        assert queue.asked == 0
        link.send(pkt(seq=2))
        link.send(pkt(seq=3))  # a backlog: its one wake-up asks, once
        sim.run()
        assert queue.asked == 1


class TestQueueAssignment:
    def _backlog(self, n):
        queue = DropTailQueue(8)
        for i in range(n):
            queue.enqueue(pkt(seq=i), 0.0)
        return queue

    def test_backlog_assigned_to_idle_link_drains_unprompted(self, sim):
        link, dst = make_link(sim, bandwidth=8e6, delay=0.0)
        link.queue = self._backlog(3)
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 1, 2]
        assert [t for t, _ in dst.received] == pytest.approx([0.001, 0.002, 0.003])

    def test_backlog_assigned_to_busy_link_waits_for_the_wire(self, sim):
        link, dst = make_link(sim, bandwidth=8e6, delay=0.0)
        link.send(pkt(seq=9))  # on the wire until 1 ms
        link.queue = self._backlog(1)
        link.send(pkt(seq=1))  # joins the backlog, behind its wake-up
        sim.run()
        assert [p.seq for _, p in dst.received] == [9, 0, 1]
        assert [t for t, _ in dst.received] == pytest.approx([0.001, 0.002, 0.003])

    def test_empty_queue_swapped_under_a_pending_wake_up(self, sim):
        link, dst = make_link(sim, bandwidth=8e6, delay=0.0)
        link.send(pkt(seq=0))
        link.send(pkt(seq=1))  # queued; wake-up pending
        link.queue = DropTailQueue(4)  # the old backlog goes with its queue
        sim.run()
        assert [p.seq for _, p in dst.received] == [0]
        assert link.send(pkt(seq=2))  # and the link is not wedged
        sim.run()
        assert [p.seq for _, p in dst.received] == [0, 2]


class TestIdlePassThrough:
    """A drop-tail queue lets an idle link keep the packet it would only
    hand straight back (``idle_pass_through``); anything that would notice
    the difference is still offered every packet."""

    @staticmethod
    def _spying(base, *args):
        class _Spy(base):
            offers = 0
            departures = 0

            def enqueue(self, packet, now):
                self.offers += 1
                return super().enqueue(packet, now)

            def dequeue(self):
                self.departures += 1
                return super().dequeue()

        return _Spy(*args)

    def _idle_sends(self, sim, link, n):
        for i in range(n):
            assert link.send(pkt(seq=i))
            sim.run(until=sim.now + 1.0)  # idle again before the next

    def test_drop_tail_counts_what_it_was_not_handed(self, sim):
        # That neither method runs is test_hop_cost's three frames.
        link, dst = make_link(sim)
        queue = link.queue
        assert queue.idle_pass_through
        self._idle_sends(sim, link, 3)
        assert len(dst.received) == 3
        assert (queue.enqueued, queue.drops, len(queue)) == (3, 0, 0)

    def test_subclass_overriding_the_discipline_sees_every_offer(self, sim):
        link, dst = make_link(sim)
        link.queue = queue = self._spying(DropTailQueue, 4)
        assert not queue.idle_pass_through
        self._idle_sends(sim, link, 3)
        assert (queue.offers, queue.departures, queue.enqueued) == (3, 3, 3)
        assert len(dst.received) == 3

    def test_instance_that_replaces_enqueue_sees_every_offer(self, sim):
        link, _ = make_link(sim)
        queue = DropTailQueue(4)
        seen = []
        admit = queue.enqueue

        def spy(packet, now):
            seen.append(packet.seq)
            return admit(packet, now)

        queue.enqueue = spy
        link.queue = queue
        self._idle_sends(sim, link, 3)
        assert seen == [0, 1, 2] and queue.enqueued == 3

    def test_red_swapped_in_mid_run_turns_the_skip_off(self, sim):
        link, dst = make_link(sim)
        self._idle_sends(sim, link, 2)
        link.queue = red = self._spying(
            REDQueue, 6, 1.0, 4.0, 0.5, 0.5, np.random.default_rng(7)
        )
        self._idle_sends(sim, link, 3)
        assert (red.offers, red.departures, red.enqueued) == (3, 3, 3)
        link.queue = DropTailQueue(4)  # and back on again
        self._idle_sends(sim, link, 2)
        assert link.queue.enqueued == 2 and len(dst.received) == 7

    def test_capacity_one_under_a_burst_drops_what_the_reference_drops(self, sim):
        # Five at once into an idle link, twice; then spaced arrivals.
        script = (
            [(0.0, 1000, 1)] * 5 + [(0.0005, 1000, 2)]
            + [(0.010, 500, 3)] * 5
            + [(0.100, 1000, 1), (0.200, 1000, 2)]
        )

        def real(front, dst, queue):
            return SimplexLink(front, _Capture(front, "src"), dst, 8e6, 0.002, queue)

        def reference(front, dst, queue):
            return _ReferenceLink(front, dst, 8e6, 0.002, queue)

        got = _play(real, "droptail-1", type(sim), script)
        want = _play(reference, "droptail-1", type(sim), script)
        assert got == want
        # One on the wire and one queued survive each burst of five.
        assert want["accepted"][:5] == [True, True, False, False, False]
        assert (want["enqueued"], want["drops"]) == (6, 7)
