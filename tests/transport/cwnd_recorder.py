"""A test-side ``(now, cwnd)`` history of a :class:`TcpSender`.

The sender keeps no history of its own (nothing in the simulator reads
one), and a slotted sender takes no per-instance handler.  A test that
wants the window's trajectory builds its sender from
``recording(sender_cls)``: a subclass whose three handlers that move
the window — new ACK, duplicate ACK and retransmission timeout — each
append ``(now, cwnd)`` to the instance's ``cwnd_history`` after running.
"""


def recording(sender_cls):
    """``sender_cls`` with its window moves logged to ``cwnd_history``."""

    class Recording(sender_cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.cwnd_history: list[tuple[float, float]] = []

        def _on_new_ack(self, packet, now):
            super()._on_new_ack(packet, now)
            self.cwnd_history.append((now, self.cwnd))

        def _on_dup_ack(self, packet, now):
            super()._on_dup_ack(packet, now)
            self.cwnd_history.append((now, self.cwnd))

        def _on_timeout(self):
            super()._on_timeout()
            self.cwnd_history.append((self.sim.now, self.cwnd))

    return Recording
