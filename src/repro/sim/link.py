"""Simplex links with bandwidth, propagation delay, and head hooks.

The *head hook* is the architectural seam the paper describes: NS-2
subclasses ``Connector`` ("a subclass of Connector named LogLogCounter is
added to the head of each SimplexLink") and MAFIC's dropper sits at the
same place.  A hook sees every packet about to enter the link's queue and
may consume (drop) it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

from repro.sim.packet import Packet
from repro.sim.queues import DropTailQueue, PacketQueue
from repro.util.validation import check_non_negative, check_positive

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator
    from repro.sim.node import Node

#: The event class a link emits, imported by :func:`_bind_events` once a
#: bus is attached: a bus-free run never loads :mod:`repro.obs`.
LinkDrop = None


class LinkHook(Protocol):
    """Objects attachable at a link head.

    ``on_packet`` returns True to let the packet continue into the queue,
    False to consume it (the hook has dropped or diverted the packet).
    """

    def on_packet(self, packet: Packet, link: "SimplexLink", now: float) -> bool: ...


class SimplexLink:
    """A unidirectional link ``src -> dst``.

    Models serialization at ``bandwidth_bps`` plus fixed propagation
    ``delay``; packets wait in ``queue`` while the link is busy.  Hooks run
    in attachment order before enqueue; counters track utilization for the
    metrics layer.
    """

    __slots__ = (
        "bandwidth_bps", "delay", "sim", "src", "dst", "_receive",
        "_busy_until", "_drain_pending", "_queue", "_q_pass_idle", "name",
        "_head_hooks", "_up", "packets_sent", "bytes_sent",
        "packets_offered", "hook_drops", "failure_drops", "_bus",
    )

    def __init__(
        self,
        sim: "Simulator",
        src: "Node",
        dst: "Node",
        bandwidth_bps: float = 10e6,
        delay: float = 0.005,
        queue: PacketQueue | None = None,
        name: str | None = None,
    ) -> None:
        # A non-finite value would surface only at the first packet, as
        # an event time the engine refuses, far from whoever passed it.
        self.bandwidth_bps = check_positive("bandwidth_bps", bandwidth_bps)
        self.delay = check_non_negative("delay", delay)
        self.sim = sim
        self.src = src
        self.dst = dst
        # Bound once: each delivery's heap entry holds it, so the
        # destination's ``receive(packet, self)`` runs with no link frame.
        self._receive = dst.receive
        # The transmitter is a busy-until timestamp, not an event: a
        # packet offered to an idle link is dequeued and its delivery
        # scheduled immediately, with no intermediate tx-complete event.
        # A continuation wake-up exists only while a backlog is queued,
        # and the converse is what send() relies on: no wake-up pending
        # means the queue is empty.
        self._busy_until = 0.0
        self._drain_pending = False
        self.queue = queue if queue is not None else DropTailQueue()
        self.name = name if name is not None else f"{src.name}->{dst.name}"
        # A tuple, rebuilt on attach/detach: most links never get a hook,
        # and every one of those shares the empty tuple.
        self._head_hooks: tuple[LinkHook, ...] = ()
        self._up = True
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_offered = 0
        self.hook_drops = 0
        self.failure_drops = 0
        self._bus = None

    @property
    def bus(self):
        """The observability bus drops are published on (None = off)."""
        return self._bus

    @bus.setter
    def bus(self, bus) -> None:
        if bus is not None:
            _bind_events()
        self._bus = bus

    @property
    def queue(self) -> PacketQueue:
        """The link's head-of-line queue (assignable; defences swap it)."""
        return self._queue

    @queue.setter
    def queue(self, queue: PacketQueue) -> None:
        self._queue = queue
        # Asked once per assignment: may send() keep a packet that meets
        # an empty queue, instead of passing it through enqueue/dequeue?
        self._q_pass_idle = getattr(queue, "idle_pass_through", False)
        # A queue that arrives with a backlog gets its wake-up here, so
        # "no wake-up pending" keeps meaning "queue empty".
        if not self._drain_pending and len(queue):
            self._drain_pending = True
            self.sim.schedule_anon(
                max(self._busy_until, self.sim.now), self._drain_event
            )

    def add_head_hook(self, hook: LinkHook) -> None:
        """Attach a hook at the link head (NS-2 Connector seam)."""
        self._head_hooks = (*self._head_hooks, hook)

    def remove_head_hook(self, hook: LinkHook) -> None:
        """Detach a previously attached hook (ValueError if absent)."""
        at = self._head_hooks.index(hook)
        self._head_hooks = self._head_hooks[:at] + self._head_hooks[at + 1:]

    @property
    def head_hooks(self) -> tuple[LinkHook, ...]:
        """Hooks currently attached, in execution order."""
        return self._head_hooks

    @property
    def is_up(self) -> bool:
        """Whether the link currently accepts traffic."""
        return self._up

    def set_down(self) -> None:
        """Fail the link: new offers drop; packets in flight still arrive
        (they are already on the wire)."""
        self._up = False

    def set_up(self) -> None:
        """Restore a failed link."""
        self._up = True

    def send(self, packet: Packet) -> bool:
        """Offer ``packet`` to the link.

        Runs head hooks, then enqueues; returns False when the link is
        down, a hook consumed the packet, or the queue dropped it.  A
        refused packet is dead — hooks and queues copy what they keep —
        so it is recycled into the pool here.
        """
        self.packets_offered += 1
        if not self._up:
            self.failure_drops += 1
            packet.release()
            self._drop_event("down")
            return False
        sim = self.sim
        now = sim.now
        for hook in self._head_hooks:
            if not hook.on_packet(packet, self, now):
                self.hook_drops += 1
                packet.release()
                self._drop_event("hook")
                return False
        if self._drain_pending or self._busy_until > now or not self._q_pass_idle:
            if not self._queue.enqueue(packet, now):
                packet.release()
                self._drop_event("queue")
                return False
            if self._drain_pending:
                return True  # queued behind a backlog; the wake-up will reach it
            if self._busy_until > now:
                self._drain_pending = True
                sim.schedule_anon(self._busy_until, self._drain_event)
                return True
            # Idle transmitter and no wake-up pending: the queue held
            # nothing before this packet, so it hands back this one and is
            # empty again — straight onto the wire, with no backlog to ask
            # about.  The discipline saw the arrival and the departure.
            packet = self._queue.dequeue()
        else:
            # The same idle link, and a queue that declares the round trip
            # through it would change nothing but this count.
            self._queue.enqueued += 1
        # Inlined transmission_delay (same arithmetic, minus a call).
        depart = now + packet.size * 8.0 / self.bandwidth_bps
        self._busy_until = depart
        # Counted when committed to the wire: at most the one packet
        # still serializing differs from the old at-tx-complete counters.
        self.packets_sent += 1
        self.bytes_sent += packet.size
        # The hop is counted here, not on arrival: nothing can observe
        # the packet between the wire and the destination's receive().
        packet.hop_count += 1
        sim.schedule_anon(depart + self.delay, self._receive, packet, self)
        return True

    def _drain_event(self) -> None:
        """The wake-up: put the head of the backlog on the wire (the same
        steps as an idle send()) and re-arm while a backlog remains."""
        self._drain_pending = False
        queue = self._queue
        packet = queue.dequeue()
        if packet is None:  # the backlog's queue was swapped out meanwhile
            return
        depart = self.sim.now + packet.size * 8.0 / self.bandwidth_bps
        self._busy_until = depart
        self.packets_sent += 1
        self.bytes_sent += packet.size
        packet.hop_count += 1
        schedule_anon = self.sim.schedule_anon
        # Delivery first, then the wake-up: the order of ``seq`` draws.
        schedule_anon(depart + self.delay, self._receive, packet, self)
        if len(queue):
            self._drain_pending = True
            schedule_anon(depart, self._drain_event)

    def _drop_event(self, reason: str) -> None:
        """Publish one ``link.drop`` event (bus attached and listening).

        Checked with ``is not None`` first: drops sit on the hot path and
        the plain identity test is the cheapest possible guard.
        """
        bus = self._bus
        if bus is not None and bus:
            bus.emit(LinkDrop(self.sim.now, self.name, reason))

    def utilization(self, elapsed: float) -> float:
        """Fraction of capacity used over ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        return (self.bytes_sent * 8.0) / (self.bandwidth_bps * elapsed)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"SimplexLink({self.name}, {self.bandwidth_bps / 1e6:.1f}Mbps, "
            f"{self.delay * 1e3:.1f}ms, qlen={len(self.queue)})"
        )


def _bind_events() -> None:
    """Bind :data:`LinkDrop` (a bus is being attached)."""
    global LinkDrop
    from repro.obs import events

    LinkDrop = events.LinkDrop
