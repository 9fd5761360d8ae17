"""MAFIC core: the adaptive malicious-flow identification and cutoff
algorithm (paper Section III).

The per-ATR agent (:class:`~repro.core.mafic.MaficAgent`) implements the
Figure-2 state machine: on a pushback request it probes every flow bound
for the victim by dropping packets with probability ``Pd`` and forging
duplicate ACKs toward the claimed source; flows whose arrival rate falls
within ``2 x RTT`` move to the Nice Flow Table and pass untouched, the
rest move to the Permanently Drop Table and are cut completely.  Packets
with illegal/unreachable sources go straight to the PDT.

Baseline policies (:mod:`repro.core.policy`) reproduce the comparison
points the paper motivates: the proportionate random dropper of [2] and a
static aggregate-rate-limiting pushback.
"""

from repro.core.config import MaficConfig
from repro.core.labels import FlowLabel, label_of_packet
from repro.core.mafic import MaficAgent
from repro.core.policy import (
    AdaptiveMaficPolicy,
    AggregateRateLimitPolicy,
    DropDecision,
    DropPolicy,
    PassthroughPolicy,
    ProportionalDropPolicy,
)
from repro.core.probe import DupAckProber
from repro.core.tables import FlowTables, SftEntry, TableName

__all__ = [
    "AdaptiveMaficPolicy",
    "AggregateRateLimitPolicy",
    "DropDecision",
    "DropPolicy",
    "DupAckProber",
    "FlowLabel",
    "FlowTables",
    "MaficAgent",
    "MaficConfig",
    "PassthroughPolicy",
    "ProportionalDropPolicy",
    "SftEntry",
    "TableName",
    "label_of_packet",
]
