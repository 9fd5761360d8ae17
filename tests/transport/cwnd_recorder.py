"""A test-side ``(now, cwnd)`` history of one :class:`TcpSender`.

The sender keeps no history of its own (nothing in the simulator reads
one); a test that wants the window's trajectory wraps the three
handlers that move it — new ACK, duplicate ACK and retransmission
timeout — on the instance, and reads the list this returns.
"""


def record_cwnd(sender) -> list[tuple[float, float]]:
    """Install the wrappers on ``sender`` (before it starts); return the
    list each handler call appends ``(now, cwnd)`` to."""
    history: list[tuple[float, float]] = []

    def on_ack(handler):
        def wrapped(packet, now):
            handler(packet, now)
            history.append((now, sender.cwnd))
        return wrapped

    def on_timeout(handler):
        def wrapped():
            handler()
            history.append((sender.sim.now, sender.cwnd))
        return wrapped

    sender._on_new_ack = on_ack(sender._on_new_ack)
    sender._on_dup_ack = on_ack(sender._on_dup_ack)
    sender._on_timeout = on_timeout(sender._on_timeout)
    return history
