"""Control-plane latency model for pushback signalling.

The coordinator logic in :mod:`repro.counting.pushback` decides *what* to
tell each ATR; this module models *when* the message arrives.  The paper's
victim router sends its DDoS notification across the same domain the data
travels, so activation is not instantaneous: each request is delayed by
the shortest-path propagation latency from the victim's last-hop router to
the ATR (plus a fixed processing allowance per hop).

Use :class:`ControlPlane` as the bridge between a
:class:`~repro.counting.pushback.PushbackCoordinator` and the per-ATR
agents::

    plane = ControlPlane(sim, topology.adjacency, "lasthop", dispatch)
    coordinator = PushbackCoordinator(..., on_request=plane.send)

where ``dispatch(request)`` performs the actual activation.  With
``instant=True`` the plane degrades to a pass-through (the default wiring
of the experiment harness, matching the paper's simulation where the
trigger is modelled as immediate).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.counting.pushback import PushbackRequest
from repro.sim.routing import Adjacency, shortest_path_tree
from repro.util.validation import check_non_negative

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator


@dataclass
class SignalRecord:
    """One delivered (or dropped) control message, for inspection."""

    request: PushbackRequest
    sent_at: float
    delivered_at: float | None  # None = undeliverable (no path)
    hops: int = 0


class ControlPlane:
    """Delivers pushback requests with topology-derived latency.

    Parameters
    ----------
    sim:
        Simulation clock used to schedule deliveries.
    adjacency:
        The router graph, ``{name: {neighbour: link delay}}`` (a
        topology's ``adjacency``).
    victim_router:
        Name of the router originating the notifications.
    dispatch:
        Callback receiving each request at its delivery time.
    per_hop_processing:
        Fixed processing delay added per hop (router CPU, queueing of
        control traffic); 1 ms default.
    instant:
        When True, requests are dispatched synchronously with zero delay
        (pass-through mode).
    """

    def __init__(
        self,
        sim: "Simulator",
        adjacency: Adjacency,
        victim_router: str,
        dispatch: Callable[[PushbackRequest], None],
        per_hop_processing: float = 0.001,
        instant: bool = False,
    ) -> None:
        check_non_negative("per_hop_processing", per_hop_processing)
        self.sim = sim
        self.adjacency = adjacency
        self.victim_router = victim_router
        self.dispatch = dispatch
        self.per_hop_processing = float(per_hop_processing)
        self.instant = instant
        self.records: list[SignalRecord] = []
        # One Dijkstra from the victim router, run when the first request
        # needs it, answers every ATR.
        self._latencies: dict[str, tuple[float, int]] | None = None

    def latency_to(self, atr_name: str) -> tuple[float, int] | None:
        """(propagation delay, hop count) from the victim router, or
        None when unreachable."""
        if self._latencies is None:
            dist, pred = shortest_path_tree(self.adjacency, self.victim_router)
            hops: dict[str, int] = {}
            for node in dist:  # settling order: a predecessor comes first
                hops[node] = hops[pred[node]] + 1 if node in pred else 0
            self._latencies = {
                node: (float(delay), hops[node]) for node, delay in dist.items()
            }
        return self._latencies.get(atr_name)

    def send(self, request: PushbackRequest) -> None:
        """Dispatch ``request`` after its control-path latency."""
        now = self.sim.now
        if self.instant:
            self.records.append(
                SignalRecord(request=request, sent_at=now, delivered_at=now)
            )
            self.dispatch(request)
            return
        latency = self.latency_to(request.atr_name)
        if latency is None:
            self.records.append(
                SignalRecord(request=request, sent_at=now, delivered_at=None)
            )
            return
        delay, hops = latency
        total = delay + hops * self.per_hop_processing
        record = SignalRecord(
            request=request, sent_at=now, delivered_at=now + total, hops=hops
        )
        self.records.append(record)
        self.sim.schedule(total, self.dispatch, request)

    @property
    def delivered(self) -> list[SignalRecord]:
        """Records of messages that were (or will be) delivered."""
        return [r for r in self.records if r.delivered_at is not None]

    @property
    def undeliverable(self) -> list[SignalRecord]:
        """Records of messages with no control path."""
        return [r for r in self.records if r.delivered_at is None]

    def mean_latency(self) -> float:
        """Mean delivery latency over delivered messages (0 when none)."""
        delivered = self.delivered
        if not delivered:
            return 0.0
        return sum(r.delivered_at - r.sent_at for r in delivered) / len(delivered)
