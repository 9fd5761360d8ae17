"""MAFIC agent configuration (the knobs of Section III + Table II)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.validation import (
    check_bool, check_fields, check_int, check_non_negative, check_positive,
    check_probability, declared,
)


@dataclass(frozen=True)
class MaficConfig:
    """Parameters of one MAFIC agent.

    Attributes
    ----------
    drop_probability:
        ``Pd`` — probability of dropping a suspicious flow's packet during
        the probing phase (Table II default 90%).
    probe_timer_rtt_multiplier:
        Verdict timer as a multiple of the flow's RTT; the paper fixes 2.
    default_rtt:
        RTT assumed for flows whose packets carry no usable timestamp echo
        (e.g. pure one-way UDP).  The paper reads RTT "by checking the
        time stamp in the packet header"; this is the fallback.
    response_ratio:
        A flow is "responsive" when its arrival rate over the probe window
        drops below ``response_ratio x`` its pre-probe baseline.  A
        conforming TCP halves its window on loss, so 0.75 accepts any
        halving plus margin while rejecting constant-rate senders.
    rate_window:
        Length (seconds) of the sliding window used for arrival-rate
        measurement at the ATR.
    min_packets_for_verdict:
        Flows that sent fewer packets than this during the probe window
        are treated as responsive (insufficient evidence to cut; they are
        re-probed if they speed up again).
    dup_acks_per_probe:
        Number of forged duplicate ACKs sent per probed (dropped) packet.
        Three is the fast-retransmit trigger of Reno TCP.
    probe_ack_size:
        Size in bytes of each forged duplicate ACK.
    renotice_interval:
        Once in the NFT, a flow is left alone; a fresh pushback *start*
        flushes all tables (Fig. 2 "End dropping & flush all tables").
        This interval bounds how long an NFT verdict is trusted during a
        single long pushback episode (0 disables re-probing).
    drop_illegal_sources:
        When True, packets whose claimed source fails the address-space
        legality check go straight to the PDT (Section III.A).
    max_sft_entries / max_pdt_entries:
        Table capacity bounds (0 = unbounded).  Section III.B stores
        hashed labels "to minimize the storage overhead"; under
        per-packet source rotation the SFT still grows one entry per
        packet, so a deployment needs hard caps.  Eviction is
        oldest-first (the entry longest in the table).
    """

    drop_probability: float = declared(0.90, check_probability)
    # Finite, too: an infinite RTT or timer multiplier makes every probe
    # window infinite; an infinite rate window reads every baseline as 0.0.
    probe_timer_rtt_multiplier: float = declared(2.0, check_positive)
    default_rtt: float = declared(0.150, check_positive)
    response_ratio: float = declared(0.75, check_probability)
    rate_window: float = declared(0.200, check_positive)
    min_packets_for_verdict: int = declared(3, check_int, 1)
    dup_acks_per_probe: int = declared(3, check_int, 0)
    probe_ack_size: int = declared(40, check_int, 1)
    renotice_interval: float = declared(0.0, check_non_negative)
    drop_illegal_sources: bool = declared(True, check_bool)
    max_sft_entries: int = declared(0, check_int, 0)  # 0 = unbounded
    max_pdt_entries: int = declared(0, check_int, 0)  # 0 = unbounded

    def __post_init__(self) -> None:
        check_fields(self)

    def probe_window(self, rtt: float | None) -> float:
        """The verdict timer for a flow with the given RTT estimate."""
        rtt_value = rtt if rtt is not None and rtt > 0 else self.default_rtt
        return self.probe_timer_rtt_multiplier * rtt_value
