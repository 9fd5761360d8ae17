"""The MAFIC per-ATR agent: Figure 2's control flow as a link-head hook.

Attached at the head of an ingress router's uplink (the NS-2 Connector
seam), the agent examines every DATA packet bound for the protected
victim prefix while a pushback episode is active:

1. Illegal/unreachable claimed source  -> PDT, drop.
2. Flow in PDT                         -> drop.
3. Flow in NFT                         -> pass (normal routing).
4. Flow in SFT                         -> update its arrival rate, check
   the verdict timer, drop with probability ``Pd``.
5. Unknown flow                        -> policy decision: with
   probability ``Pd`` drop the packet, forge duplicate ACKs toward the
   claimed source, and admit the flow to the SFT with a ``2 x RTT``
   verdict timer; otherwise pass (the flow stays unknown and faces the
   gate again on its next packet).

At the verdict timer the flow's arrival rate over the probe window is
compared against the baseline captured at admission: a reduced rate is
the TCP-friendly response (move to NFT); an undiminished rate condemns
the flow to the PDT.

Deactivation ("Pushback Continue? -> No") ends dropping and flushes all
tables, per Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol

from repro.core.config import MaficConfig
from repro.core.policy import AdaptiveMaficPolicy, DropDecision, DropPolicy
from repro.core.probe import DupAckProber
from repro.core.tables import FlowTables, SftEntry, TableName
from repro.sim.packet import Packet, PacketType
from repro.util.rng import Pcg64Stream
from repro.util.stats import WindowedCount

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.address import AddressSpace
    from repro.sim.engine import Simulator
    from repro.sim.link import SimplexLink
    from repro.sim.node import Router


#: Smallest monitor count that triggers a sweep of idle monitors.
_MIN_SWEEP = 64


class DefenseObserver(Protocol):
    """Metrics seam: the agent reports every decision it takes.

    Drops, passes, probes, verdicts and pushback starts/stops: Figure
    2's chain end to end, so the observer is the defence's only event
    log.  ``atr`` names the reporting agent's ingress router; one
    observer serves the whole defence line, so it is the only way a
    consumer can attribute a decision to an ATR.  It defaults to ``""``
    so observers that never name the ATR keep working.
    """

    def on_defense_drop(
        self, packet: Packet, reason: str, now: float, atr: str = ""
    ) -> None: ...

    def on_defense_pass(
        self, packet: Packet, now: float, atr: str = ""
    ) -> None: ...

    def on_verdict(
        self, label: int, verdict: str, now: float, atr: str = ""
    ) -> None: ...

    def on_probe(self, label: int, now: float, atr: str = "") -> None: ...

    def on_pushback(self, active: bool, now: float, atr: str = "") -> None: ...


@dataclass
class MaficStats:
    """Internal counters (ground-truth-free; metrics live in observers)."""

    packets_examined: int = 0
    packets_dropped_probe: int = 0
    packets_dropped_pdt: int = 0
    packets_dropped_illegal: int = 0
    packets_dropped_policy: int = 0
    packets_passed: int = 0
    probes_initiated: int = 0
    verdicts_nice: int = 0
    verdicts_cut: int = 0
    verdicts_insufficient: int = 0
    activations: int = 0
    deactivations: int = 0


class MaficAgent:
    """One ATR's MAFIC instance.

    Parameters
    ----------
    sim, router:
        The clock and the ingress router this agent defends from.
    victim_matcher:
        Predicate over destination addresses: which packets are "destined
        to victim" (normally the victim subnet's ``contains``).
    config:
        The :class:`~repro.core.config.MaficConfig` knobs.
    rng:
        Random stream for the Bernoulli(Pd) gate.
    address_space:
        Legality oracle for claimed sources (Section III.A's PDT rule);
        ``None`` disables the illegal-source shortcut.
    policy:
        The probing decision policy; defaults to
        :class:`~repro.core.policy.AdaptiveMaficPolicy` with the
        config's ``Pd``.  Baseline policies (proportional drop, aggregate
        rate limit) plug in here for comparison runs — when a baseline
        returns plain DROP the agent drops without probing or tables.
    prober:
        Duplicate-ACK generator; defaults to a
        :class:`~repro.core.probe.DupAckProber` on ``router``.
    observer:
        Optional metrics observer.
    """

    def __init__(
        self,
        sim: "Simulator",
        router: "Router",
        victim_matcher: Callable[[int], bool],
        config: MaficConfig | None = None,
        rng=None,
        address_space: "AddressSpace | None" = None,
        policy: DropPolicy | None = None,
        prober: DupAckProber | None = None,
        observer: "DefenseObserver | None" = None,
    ) -> None:
        self.sim = sim
        self.router = router
        self.victim_matcher = victim_matcher
        self.config = config if config is not None else MaficConfig()
        self._rng = rng if rng is not None else Pcg64Stream(0)
        self.address_space = address_space
        if policy is None:
            policy = AdaptiveMaficPolicy(self.config.drop_probability, self._rng)
        self.policy = policy
        self.prober = (
            prober
            if prober is not None
            else DupAckProber(
                sim,
                router,
                dup_acks_per_probe=self.config.dup_acks_per_probe,
                ack_size=self.config.probe_ack_size,
            )
        )
        self.observer = observer
        # Cached for the observer calls on the per-packet path.
        self._atr = router.name

        self.active = False
        self.tables = FlowTables()
        self.stats = MaficStats()
        # Arrival-rate monitors for every victim-bound flow seen while
        # active: "Calculate Arriving Rate" needs a pre-admission baseline.
        # Idle ones are swept once the dict doubles (see _sweep_monitors).
        self._monitors: dict[int, WindowedCount] = {}
        self._sweep_at = _MIN_SWEEP
        self._verdict_events: dict[int, object] = {}
        #: Monitored packets required before SFT admission.  One suffices:
        #: a cold baseline cannot condemn a responsive flow because the
        #: verdict also requires ``min_packets_for_verdict`` arrivals and
        #: measures the trailing half-window, where a conforming TCP has
        #: already gone quiet.
        self.min_baseline_packets = 1

    # ------------------------------------------------------- control plane

    def activate(self, now: float | None = None) -> None:
        """Pushback start: begin adaptive dropping."""
        if self.active:
            return
        self.active = True
        self.stats.activations += 1
        if self.observer is not None:
            self.observer.on_pushback(True, self._now(now), self._atr)

    def refresh(self, now: float | None = None) -> None:
        """Pushback refresh: keep going (no state change needed)."""
        if not self.active:
            self.activate(now)

    def deactivate(self, now: float | None = None) -> None:
        """Pushback stop: end dropping and flush all tables (Figure 2)."""
        if not self.active:
            return
        self.active = False
        self.stats.deactivations += 1
        for event in self._verdict_events.values():
            cancel = getattr(event, "cancel", None)
            if cancel is not None:
                cancel()
        self._verdict_events.clear()
        self._monitors.clear()
        self.tables.flush()
        self.policy.reset()
        if self.observer is not None:
            self.observer.on_pushback(False, self._now(now), self._atr)

    # ----------------------------------------------------------- data path

    def on_packet(self, packet: Packet, link: "SimplexLink", now: float) -> bool:
        """LinkHook entry: True lets the packet continue, False drops it."""
        if not self.active:
            return True
        if packet.ptype is not PacketType.DATA:
            return True
        if not self.victim_matcher(packet.dst_ip):
            return True
        self.stats.packets_examined += 1
        label = packet.flow._hash64  # label_of_packet, inline

        # Illegal or unreachable claimed source: straight to the PDT.
        if (
            self.config.drop_illegal_sources
            and self.address_space is not None
            and not self.address_space.is_legal_source(packet.src_ip)
        ):
            if label not in self.tables.pdt:
                self._enforce_pdt_cap()
                self.tables.condemn(label, "illegal_source")
                self._notify_verdict(label, "illegal_source", now)
            return self._drop(packet, "illegal", now)

        # Inline table dispatch (PDT, NFT, SFT order, per Figure 2): one
        # dict probe per table instead of lookup() followed by a second
        # keyed access in the handler.
        tables = self.tables
        if label in tables.pdt:
            return self._drop(packet, "pdt", now)
        admitted_at = tables.nft.get(label)
        if admitted_at is not None:
            return self._pass_nice(packet, label, admitted_at, now)
        if label in tables.sft:
            return self._handle_suspicious(packet, label, now)
        return self._handle_unknown(packet, label, now)

    # ------------------------------------------------------ table handlers

    def _pass_nice(
        self, packet: Packet, label: int, admitted_at: float, now: float
    ) -> bool:
        if (
            self.config.renotice_interval > 0
            and now - admitted_at >= self.config.renotice_interval
        ):
            # Verdict has aged out: forget it so the flow is re-probed.
            self.tables.demote_from_nice(label)
        self.stats.packets_passed += 1
        if self.observer is not None:
            self.observer.on_defense_pass(packet, now, self._atr)
        return True

    def _handle_suspicious(self, packet: Packet, label: int, now: float) -> bool:
        entry = self.tables.sft[label]
        entry.packets_seen += 1
        if entry.monitor is not None:
            entry.monitor.record(now)
        monitor = self._monitors.get(label)
        if monitor is not None:
            monitor.record(now)
        if now >= entry.deadline:
            # Data-driven timeout check (Figure 2); the scheduled verdict
            # event normally fires first, but a packet racing it decides
            # identically.  Re-dispatch against the post-verdict table.
            self._verdict(label)
            table = self.tables.lookup(label)
            if table is TableName.PDT:
                return self._drop(packet, "pdt", now)
            return self._pass_nice(packet, label, self.tables.nft[label], now)
        if self._rng.random() < self.config.drop_probability:
            return self._drop(packet, "probe", now)
        self.stats.packets_passed += 1
        if self.observer is not None:
            self.observer.on_defense_pass(packet, now, self._atr)
        return True

    def _handle_unknown(self, packet: Packet, label: int, now: float) -> bool:
        monitors = self._monitors
        monitor = monitors.get(label)
        if monitor is None:
            if len(monitors) >= self._sweep_at:
                monitors = self._sweep_monitors(now)
            monitor = monitors[label] = WindowedCount(self.config.rate_window)
        monitor.record(now)

        decision = self.policy.decide(packet, now)
        if decision is DropDecision.PASS:
            self.stats.packets_passed += 1
            if self.observer is not None:
                self.observer.on_defense_pass(packet, now, self._atr)
            return True
        if decision is DropDecision.DROP:
            # Baseline policies (proportional, rate-limit) drop blindly.
            return self._drop(packet, "policy", now)

        # DROP_AND_PROBE: drop this packet and send the duplicate-ACK
        # probe.  Admit to the SFT once the baseline has enough samples;
        # otherwise the flow faces the gate again on its next packet.
        self.prober.probe(packet)
        self.stats.probes_initiated += 1
        if self.observer is not None:
            self.observer.on_probe(label, now, self._atr)
        if monitor.count(now) >= self.min_baseline_packets:
            self._admit_suspicious(packet, label, monitor, now)
        return self._drop(packet, "probe", now)

    def _admit_suspicious(
        self, packet: Packet, label: int, monitor: WindowedCount, now: float
    ) -> None:
        cap = self.config.max_sft_entries
        if cap and len(self.tables.sft) >= cap:
            evicted = self.tables.evict_oldest_sft()
            if evicted is not None:
                event = self._verdict_events.pop(evicted.label, None)
                cancel = getattr(event, "cancel", None)
                if cancel is not None:
                    cancel()
                self._monitors.pop(evicted.label, None)
        rtt = self._estimate_rtt(packet, now)
        window = self.config.probe_window(rtt)
        # The verdict monitor spans only the second half of the probe
        # window: a conforming TCP may still flush up to a full window of
        # in-flight segments during the first RTT; its *response* (the
        # stall after loss) shows in the second RTT.
        entry = SftEntry(
            label=label,
            probe_started=now,
            deadline=now + window,
            baseline_rate=monitor.rate(now),
            packets_seen=1,
            monitor=WindowedCount(window / 2.0),
        )
        entry.monitor.record(now)
        self.tables.admit_suspicious(entry)
        self._verdict_events[label] = self.sim.schedule_at(
            entry.deadline, self._verdict, label
        )

    def _sweep_monitors(self, now: float) -> dict[int, WindowedCount]:
        """Drop the monitors with no arrival inside the window at ``now``.

        An idle monitor reads exactly like the fresh one a flow's next
        unknown packet would create, so dropping it changes nothing.  SFT
        flows keep theirs: _handle_suspicious records into the monitor it
        finds and never creates one.  Sweeping when the dict has doubled
        since the last sweep keeps the cost amortised O(1) per new flow.
        """
        sft = self.tables.sft
        monitors = self._monitors = {
            label: monitor
            for label, monitor in self._monitors.items()
            if label in sft or not monitor.idle(now)
        }
        self._sweep_at = max(_MIN_SWEEP, 2 * len(monitors))
        return monitors

    # -------------------------------------------------------------- verdict

    def _verdict(self, label: int) -> None:
        entry = self.tables.sft.get(label)
        if entry is None:
            return
        now = self.sim.now
        event = self._verdict_events.pop(label, None)
        if event is not None:
            cancel = getattr(event, "cancel", None)
            if cancel is not None:
                cancel()
        window = max(1e-9, entry.deadline - entry.probe_started)
        half = window / 2.0
        # Response-period rate: arrivals in the trailing half-window.  A
        # conforming TCP flushes its in-flight pipeline during the first
        # half (up to ~1 RTT) and stalls in the second; an unresponsive
        # sender is flat across both.  Comparing the halves makes the
        # verdict self-relative, so a cold pre-admission baseline (the
        # flow's very first packet triggered the probe) cannot condemn a
        # responsive flow.
        second_half_count = entry.monitor.count(now) if entry.monitor is not None else 0
        probe_rate = second_half_count / half
        first_half_rate = max(0, entry.packets_seen - second_half_count) / half
        reference = max(entry.baseline_rate, first_half_rate)
        if entry.packets_seen < self.config.min_packets_for_verdict:
            # Too quiet to judge: that silence IS the TCP-friendly response.
            self.tables.promote_to_nice(label, now)
            self.stats.verdicts_insufficient += 1
            self.stats.verdicts_nice += 1
            self._notify_verdict(label, "nice", now)
            return
        if probe_rate <= self.config.response_ratio * reference:
            self.tables.promote_to_nice(label, now)
            self.stats.verdicts_nice += 1
            self._notify_verdict(label, "nice", now)
        else:
            self._enforce_pdt_cap()
            self.tables.condemn(label, "unresponsive")
            self.stats.verdicts_cut += 1
            self._notify_verdict(label, "cut", now)

    def _notify_verdict(self, label: int, verdict: str, now: float) -> None:
        if self.observer is not None:
            self.observer.on_verdict(label, verdict, now, self._atr)

    def _enforce_pdt_cap(self) -> None:
        cap = self.config.max_pdt_entries
        if cap and len(self.tables.pdt) >= cap:
            self.tables.evict_oldest_pdt()

    # -------------------------------------------------------------- helpers

    def _estimate_rtt(self, packet: Packet, now: float) -> float | None:
        """RTT from the TCP timestamp echo when present.

        A data packet's ``ts_ecr`` echoes the peer's last timestamp; the
        gap ``now - ts_ecr`` upper-bounds the source<->here<->peer loop.
        Senders that never saw an ACK carry ``ts_ecr == 0`` — fall back to
        the configured default.
        """
        if packet.ts_ecr > 0:
            sample = now - packet.ts_ecr
            if 0 < sample < 10.0:
                # The echo covers peer->source->here; the configured
                # default floors it so the probe window never undershoots
                # the true loop (which also includes here->peer).
                return max(sample, self.config.default_rtt)
        return None

    def _drop(self, packet: Packet, reason: str, now: float) -> bool:
        stats = self.stats
        if reason == "probe":
            stats.packets_dropped_probe += 1
        elif reason == "pdt":
            stats.packets_dropped_pdt += 1
        elif reason == "illegal":
            stats.packets_dropped_illegal += 1
        elif reason == "policy":
            # Baseline policies (proportional, rate-limit) drop without
            # probing; charging them to the probe counter overstated the
            # probing cost in baseline comparison runs.
            stats.packets_dropped_policy += 1
        else:
            stats.packets_dropped_probe += 1
        if self.observer is not None:
            self.observer.on_defense_drop(packet, reason, now, self._atr)
        return False

    def _now(self, now: float | None) -> float:
        return self.sim.now if now is None else now

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MaficAgent(atr={self.router.name}, active={self.active}, "
            f"tables={self.tables.occupancy()})"
        )
