"""A flow first seen beyond a gap costs the sink one number.

Under source rotation most attack packets that reach the victim are
flows of their own whose one arrival lands beyond a gap; the sink keeps
such a flow as its bare seq and makes the per-flow record only on a
second arrival.  ``test_sink_reference.py``'s property may or may not
draw that shape; these pin it on hand-made streams, against the same
four-dict reference and with the same ACK, counter and timer checks:
a flow first seen beyond a gap, a second gap opened before the first is
filled, both filled, a stale retransmission, with and without the
delayed-ACK timer.
"""

import pytest

from repro.transport.sink import AckingSink
from tests.transport.test_sink_reference import FLOWS, FourDictSink, _drive

ARRIVALS = [
    (0.0, 0, "skip", 2),   # flow 0 first seen at seq 2: a lone seq
    (0.01, 0, "skip", 1),  # seq 4, a second gap before the first fills
    (0.01, 0, "back", 4),  # seq 0: in order, frontier 1
    (0.0, 0, "back", 3),   # seq 1: fills the first gap, frontier 3
    (0.0, 0, "back", 1),   # seq 3: fills the second gap, frontier 5
    (0.0, 0, "back", 4),   # seq 0: a stale retransmission
    (0.0, 1, "skip", 3),   # flow 1: one arrival beyond a gap, never again
    (0.0, 2, "ack", 1),    # noise
]


@pytest.mark.parametrize("delayed_ack, acked, counts", [
    (0.0, [0, 0, 1, 3, 5, 5, 0], (7, 3, 0)),
    # seq 0 held, seq 1 ACKs both; seq 3 held until the stale copy.
    (0.04, [0, 0, 3, 5, 5, 0], (6, 3, 1)),
])
def test_a_lone_seq_reads_like_the_four_dict_sink(delayed_ack, acked, counts):
    old_sink, old = _drive(FourDictSink, ARRIVALS, 3, delayed_ack, 40)
    new_sink, new = _drive(AckingSink, ARRIVALS, 3, delayed_ack, 40)
    assert new == old
    acks, counters, _, armed, _, _ = new
    assert [ack[2] for ack in acks] == acked
    assert counters[:3] == counts and armed == 0
    assert new_sink.frontiers() == {FLOWS[0].hashed(): 5, FLOWS[1].hashed(): 0}
    # Flow 1 is its seq alone; flow 0 became a record on its second
    # arrival, and its reorder set went once both gaps were filled.
    assert new_sink._flows[FLOWS[1].hashed()] == 3
    assert type(new_sink._flows[FLOWS[1].hashed()]) is int
    assert new_sink._flows[FLOWS[0].hashed()].ooo is None
