"""What a drop-tail queue allocates: its FIFO, and only once a packet waits.

On the largest domain the ledger runs (``huge_topology(8)``) 1,154 links
each held a 64-slot deque, 0.86 MiB in all, though only 287 of them ever
queue a packet.  The rest put every packet straight on an idle wire
(idle pass-through: the link counts the packet and calls neither
``enqueue`` nor ``dequeue``).  ``DropTailQueue`` now makes its deque when
the first packet really enters the queue, and keeps it from then on.
"""

import tracemalloc

from repro.sim import queues
from tests.sim.test_link import make_link, pkt


def _blocks_from_queues(snapshot) -> int:
    held = snapshot.filter_traces([tracemalloc.Filter(True, queues.__file__)])
    return sum(stat.count for stat in held.statistics("filename"))


def _traced(step) -> int:
    """Blocks allocated in ``queues.py`` that are still live after ``step()``."""
    tracemalloc.start()
    try:
        step()
        return _blocks_from_queues(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()


def test_idle_pass_through_allocates_no_fifo(sim):
    made = []

    def build_and_send_idle():
        link, dst = make_link(sim)
        for i in range(20):
            assert link.send(pkt(seq=i))
            sim.run(until=sim.now + 1.0)  # idle again before the next
        made.append((link, dst))

    assert _traced(build_and_send_idle) == 0
    [(link, dst)] = made
    assert len(dst.received) == 20 and link.queue.enqueued == 20


def test_a_backlog_allocates_the_fifo_once(sim):
    link, dst = make_link(sim, capacity=4)
    sent = iter(range(100))
    fifos = []

    def backlogs(rounds):
        def step():
            for _ in range(rounds):
                for _ in range(3):  # one on the wire, two queued behind it
                    assert link.send(pkt(seq=next(sent)))
                fifos.append(link.queue._queue)
                sim.run(until=sim.now + 1.0)  # drained
        return step

    assert _traced(backlogs(1)) > 0  # the deque, made by the first wait
    assert _traced(backlogs(5)) == 0  # and reused by every later one
    assert all(fifo is fifos[0] for fifo in fifos)
    assert len(dst.received) == 18 and link.queue.enqueued == 18
