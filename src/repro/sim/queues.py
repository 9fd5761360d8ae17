"""Link queues: drop-tail (NS-2's default), RED, and DRR fair queueing.

Queues hold packets awaiting transmission at the head of a simplex link.
Sizes are counted in packets, as in the paper's NS-2 setup.  DRR is
included because per-flow fair queueing is the classic *queueing-level*
answer to floods — and its failure against source-rotating attacks
(every packet a new "flow") is part of the motivation for MAFIC-style
per-flow verdicts.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from repro.sim.packet import Packet
from repro.util.rng import Pcg64Stream


class PacketQueue(Protocol):
    """Interface link queues implement.

    A discipline may also declare ``idle_pass_through`` (see
    :class:`DropTailQueue`); one that does not is offered every packet.
    """

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Accept or drop ``packet``; return True when accepted."""
        ...

    def dequeue(self) -> Packet | None:
        """Pop the next packet to transmit, or None when empty."""
        ...

    def __len__(self) -> int: ...


class DropTailQueue:
    """Bounded FIFO; arrivals beyond ``capacity`` packets are dropped."""

    __slots__ = ("capacity", "_queue", "drops", "enqueued")

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity)
        # No FIFO until a packet really enters the queue: a link whose
        # arrivals all take idle pass-through never allocates one.
        self._queue: deque[Packet] | tuple[()] = ()
        self.drops = 0
        self.enqueued = 0

    @property
    def idle_pass_through(self) -> bool:
        """Whether an arrival at the empty queue is always admitted and
        handed straight back by the next ``dequeue``, changing nothing but
        ``enqueued``.  A link that knows the queue is empty may then count
        the packet and keep it, calling neither method.

        True of drop-tail (capacity is at least one and there is no other
        state) — but only of *this* ``enqueue``/``dequeue`` pair: a subclass
        that overrides either one is offered every packet.  A discipline
        that must see every arrival (RED's average, DRR's deficits) simply
        has no such attribute.
        """
        return (
            getattr(self.enqueue, "__func__", None) is DropTailQueue.enqueue
            and getattr(self.dequeue, "__func__", None) is DropTailQueue.dequeue
        )

    def enqueue(self, packet: Packet, now: float) -> bool:
        """FIFO admit unless full."""
        queue = self._queue
        if len(queue) >= self.capacity:
            self.drops += 1
            return False
        try:
            queue.append(packet)
        except AttributeError:  # the first packet in: make the FIFO
            self._queue = deque((packet,))
        self.enqueued += 1
        return True

    def dequeue(self) -> Packet | None:
        """Pop in FIFO order."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)


class DRRQueue:
    """Deficit Round Robin fair queueing (Shreedhar & Varghese).

    Packets are classified by flow hash into per-flow FIFOs served round
    robin with a byte ``quantum`` per visit.  Arrivals beyond the shared
    ``capacity`` drop from the *longest* per-flow queue (so one flooding
    flow cannot starve the rest — the longest-queue-drop policy of the
    original paper).
    """

    __slots__ = (
        "capacity", "quantum", "_queues", "_deficits", "_active", "_total",
        "drops", "enqueued",
    )

    def __init__(self, capacity: int = 64, quantum: int = 1500) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if quantum <= 0:
            raise ValueError("quantum must be positive")
        self.capacity = int(capacity)
        self.quantum = int(quantum)
        self._queues: dict[int, deque[Packet]] = {}
        self._deficits: dict[int, float] = {}
        self._active: deque[int] = deque()  # round-robin order of flow ids
        self._total = 0
        self.drops = 0
        self.enqueued = 0

    def enqueue(self, packet: Packet, now: float) -> bool:
        """Classify by flow; on overflow, drop from the longest queue."""
        flow = packet.flow_hash
        if self._total >= self.capacity:
            longest = max(self._queues, key=lambda f: len(self._queues[f]))
            if longest == flow and len(self._queues.get(flow, ())) > 0:
                # Arriving packet joins the longest queue: drop it instead.
                self.drops += 1
                return False
            victim_queue = self._queues[longest]
            victim = victim_queue.pop()  # drop that flow's newest packet
            victim.release()  # dead: it left the queue and no one holds it
            self.drops += 1
            self._total -= 1
            if not victim_queue:
                self._forget(longest)
        queue = self._queues.get(flow)
        if queue is None:
            queue = deque()
            self._queues[flow] = queue
            self._deficits[flow] = 0.0
            self._active.append(flow)
        queue.append(packet)
        self._total += 1
        self.enqueued += 1
        return True

    def dequeue(self) -> Packet | None:
        """Serve flows round robin, a quantum of bytes per visit.

        Deficits grow by one quantum per visit, so the loop always
        terminates: after at most ``ceil(head.size / quantum)`` rounds
        some head packet becomes eligible.
        """
        if self._total == 0:
            return None
        while self._active:
            flow = self._active[0]
            queue = self._queues.get(flow)
            if not queue:
                self._active.popleft()
                self._forget(flow)
                continue
            head = queue[0]
            if self._deficits[flow] < head.size:
                # Not enough deficit: grant a quantum, move to the back.
                self._deficits[flow] += self.quantum
                self._active.rotate(-1)
                continue
            self._deficits[flow] -= head.size
            queue.popleft()
            self._total -= 1
            if not queue:
                self._active.popleft()
                self._forget(flow)
            return head
        return None

    def _forget(self, flow: int) -> None:
        self._queues.pop(flow, None)
        self._deficits.pop(flow, None)

    @property
    def active_flows(self) -> int:
        """Flows currently holding packets."""
        return len(self._queues)

    def __len__(self) -> int:
        return self._total


class REDQueue:
    """Random Early Detection (Floyd/Jacobson) over a bounded FIFO.

    Provided for completeness of the substrate (NS-2 ships RED and DDoS
    studies often enable it); MAFIC's own dropping is a separate mechanism
    at the link head, not a queue discipline.
    """

    __slots__ = (
        "capacity", "min_thresh", "max_thresh", "max_prob", "weight", "_rng",
        "_queue", "_avg", "_count_since_drop", "drops", "early_drops",
        "enqueued",
    )

    def __init__(
        self,
        capacity: int = 64,
        min_thresh: float = 5.0,
        max_thresh: float = 15.0,
        max_prob: float = 0.1,
        weight: float = 0.002,
        rng=None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < min_thresh < max_thresh <= capacity:
            raise ValueError("need 0 < min_thresh < max_thresh <= capacity")
        if not 0 < max_prob <= 1:
            raise ValueError("max_prob must be in (0, 1]")
        if not 0 < weight <= 1:
            raise ValueError("weight must be in (0, 1]")
        self.capacity = int(capacity)
        self.min_thresh = float(min_thresh)
        self.max_thresh = float(max_thresh)
        self.max_prob = float(max_prob)
        self.weight = float(weight)
        self._rng = rng if rng is not None else Pcg64Stream(0)
        self._queue: deque[Packet] = deque()
        self._avg = 0.0
        self._count_since_drop = 0
        self.drops = 0
        self.early_drops = 0
        self.enqueued = 0

    @property
    def average_occupancy(self) -> float:
        """EWMA queue length RED gates on."""
        return self._avg

    def enqueue(self, packet: Packet, now: float) -> bool:
        """RED admission: early-drop probabilistically between thresholds."""
        self._avg += self.weight * (len(self._queue) - self._avg)
        if len(self._queue) >= self.capacity:
            self.drops += 1
            self._count_since_drop = 0
            return False
        if self._avg >= self.max_thresh:
            self.drops += 1
            self.early_drops += 1
            self._count_since_drop = 0
            return False
        if self._avg >= self.min_thresh:
            base = self.max_prob * (self._avg - self.min_thresh) / (
                self.max_thresh - self.min_thresh
            )
            denom = max(1e-9, 1.0 - self._count_since_drop * base)
            p_drop = min(1.0, base / denom)
            if self._rng.random() < p_drop:
                self.drops += 1
                self.early_drops += 1
                self._count_since_drop = 0
                return False
            self._count_since_drop += 1
        self._queue.append(packet)
        self.enqueued += 1
        return True

    def dequeue(self) -> Packet | None:
        """Pop in FIFO order."""
        return self._queue.popleft() if self._queue else None

    def __len__(self) -> int:
        return len(self._queue)
