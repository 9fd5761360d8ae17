"""Metric event types carried by the observability bus.

Every event is a slotted dataclass with a class-level ``kind`` string
(dotted, Prometheus-label friendly) and a :meth:`to_dict` that yields a
flat JSON-serializable payload.  :func:`encode_line` writes that payload
as one JSON line and is the wire format: recordings, the worker stdout
protocol and ``repro serve``'s SSE stream all carry its output and
nothing else serialises an event.  Producers construct events **only
when a sink is attached** (the bus is falsy when nobody listens), so the
batch hot path never pays for event allocation.

The taxonomy mirrors the layers that publish:

==================  ====================================================
kind                producer
==================  ====================================================
victim.arrival      victim metrics collector (one per arriving packet)
defense.decision    defence line (one per examined packet: drop/pass)
defense.verdict     MAFIC table verdicts, with ground truth attached
defense.activation  first pushback-start instant
monitor.snapshot    TrafficMonitor epoch (traffic-matrix recompute)
engine.stats        scheduler/queue occupancy, piggybacked on epochs
link.drop           a link-head hook, queue, or failed link ate a packet
link.stats          periodic per-link counter snapshot (serve layer)
run.started         run_experiment, after scenario build
run.completed       run_experiment, with the headline summary
campaign.run        cell worker, one per cell it filed
campaign.progress   campaign parent, after every filed cell
worker.started      cell worker, once per run_worker after store open
worker.heartbeat    cell worker, alongside each lease re-stamp
worker.died         pool parent, when a worker exits abnormally
==================  ====================================================
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable


@dataclass(slots=True)
class MetricEvent:
    """Base event: a timestamped occurrence on the bus.

    ``time`` is *simulation* time for sim/metrics events and 0.0 for
    orchestration events that happen outside any one run's clock.
    """

    kind = "event"

    time: float

    def to_dict(self) -> dict:
        """Flat JSON payload (``kind`` + every field)."""
        payload = {"kind": self.kind}
        for name in _FIELD_NAMES[type(self)]:
            payload[name] = getattr(self, name)
        return payload


@dataclass(slots=True)
class VictimArrival(MetricEvent):
    """One packet reached the victim host."""

    kind = "victim.arrival"

    size: int
    is_attack: bool


@dataclass(slots=True)
class DefenseDecision(MetricEvent):
    """The defence line examined one packet.

    ``action`` is ``"drop"`` or ``"pass"``; ``reason`` is the drop
    reason (``probe``/``pdt``/``illegal``/``policy``) or ``""`` for a
    pass.  ``truth`` is the packet's ground-truth class value.
    ``flow`` is the packet's flow hash and ``atr`` the deciding agent's
    router — the two dimensions the drill-down views aggregate over.
    """

    kind = "defense.decision"

    action: str
    reason: str
    truth: str
    flow: int = 0
    atr: str = ""


@dataclass(slots=True)
class Verdict(MetricEvent):
    """A MAFIC table verdict, classified against ground truth.

    ``atr`` names the agent (ingress router) that issued the verdict.
    """

    kind = "defense.verdict"

    label: int
    verdict: str
    truth: str
    atr: str = ""


@dataclass(slots=True)
class DefenseActivation(MetricEvent):
    """First pushback-start instant of the run."""

    kind = "defense.activation"


@dataclass(slots=True)
class MonitorSnapshot(MetricEvent):
    """One TrafficMonitor epoch finished its matrix recompute."""

    kind = "monitor.snapshot"

    epoch: int
    n_sources: int
    n_destinations: int
    ingress_total: float
    egress_total: float


@dataclass(slots=True)
class EngineStats(MetricEvent):
    """Scheduler/queue occupancy (piggybacked on monitor epochs)."""

    kind = "engine.stats"

    backend: str
    events_executed: int
    pending: int
    peak_occupancy: int


@dataclass(slots=True)
class LinkDrop(MetricEvent):
    """A link consumed an offered packet instead of forwarding it.

    ``reason`` is ``"hook"`` (a head hook ate it), ``"queue"`` (tail
    drop), or ``"down"`` (link failed).
    """

    kind = "link.drop"

    link: str
    reason: str


@dataclass(slots=True)
class LinkStats(MetricEvent):
    """Periodic per-link counter snapshot."""

    kind = "link.stats"

    link: str
    packets_offered: int
    packets_sent: int
    bytes_sent: int
    hook_drops: int
    failure_drops: int
    queue_len: int


@dataclass(slots=True)
class RunStarted(MetricEvent):
    """A run began executing (time is always 0.0).

    ``engine`` records the active engine build (``"compiled"`` or
    ``"pure"``, from :func:`repro.sim._core.core_info`) so recordings
    and dashboards say which core produced the event stream.
    """

    kind = "run.started"

    run_id: str
    seed: int
    scenario: str
    duration: float
    engine: str = ""


@dataclass(slots=True)
class RunCompleted(MetricEvent):
    """A run finished; carries the paper's headline rates (percent)."""

    kind = "run.completed"

    run_id: str
    seed: int
    alpha: float
    beta: float
    theta_p: float
    theta_n: float
    lr: float
    events_executed: int
    wall_seconds: float


@dataclass(slots=True)
class CampaignRun(MetricEvent):
    """A worker executed (not cache-hit) and filed one grid cell."""

    kind = "campaign.run"

    run_id: str
    seed: int
    point: dict
    alpha: float
    beta: float
    wall_seconds: float


@dataclass(slots=True)
class CampaignProgress(MetricEvent):
    """Per-cell campaign progress: ``done`` of ``total`` new runs filed."""

    kind = "campaign.progress"

    name: str
    done: int
    total: int
    cached: int


@dataclass(slots=True)
class WorkerStarted(MetricEvent):
    """A pool worker came up and opened the store (time is 0.0)."""

    kind = "worker.started"

    worker: str
    pid: int
    host: str
    store: str
    cells: int


@dataclass(slots=True)
class WorkerHeartbeat(MetricEvent):
    """A worker re-stamped its lease mid-cell: still alive, still on it."""

    kind = "worker.heartbeat"

    worker: str
    run_id: str
    elapsed: float
    executed: int


@dataclass(slots=True)
class WorkerDied(MetricEvent):
    """The pool parent noticed a worker exit abnormally.

    ``reason`` is ``"signal"`` (killed — SIGKILL, OOM, chaos),
    ``"timeout"`` (the worker's own cell-timeout watchdog fired) or
    ``"error"`` (nonzero exit); ``exitcode`` is the raw wait status'
    returncode (negative = signal number).
    """

    kind = "worker.died"

    worker: str
    reason: str
    exitcode: int


#: kind -> event class, for deserializing recorded/multiplexed streams.
EVENT_TYPES: dict[str, type[MetricEvent]] = {
    cls.kind: cls
    for cls in (
        VictimArrival,
        DefenseDecision,
        Verdict,
        DefenseActivation,
        MonitorSnapshot,
        EngineStats,
        LinkDrop,
        LinkStats,
        RunStarted,
        RunCompleted,
        CampaignRun,
        CampaignProgress,
        WorkerStarted,
        WorkerHeartbeat,
        WorkerDied,
    )
}


def event_from_dict(payload: dict) -> MetricEvent | None:
    """Rebuild the typed event a :meth:`MetricEvent.to_dict` produced.

    The exact inverse of ``to_dict`` for every kind in
    :data:`EVENT_TYPES`; unknown kinds (a newer recording schema's
    additions) and unknown fields are tolerated — the former return
    ``None``, the latter are dropped — so old readers degrade instead
    of crashing on new streams.
    """
    cls = EVENT_TYPES.get(payload.get("kind", ""))
    if cls is None:
        return None
    return cls(**{
        name: payload[name] for name in _FIELD_NAMES[cls] if name in payload
    })


class _PerClass(dict):
    """event class -> ``build(cls)``, computed on first use of the class
    (so a new event class needs no registration, and import stays cheap)."""

    __slots__ = ("_build",)

    def __init__(self, build: Callable[[type], object]) -> None:
        self._build = build

    def __missing__(self, cls: type):
        value = self[cls] = self._build(cls)
        return value


#: event class -> its field names in declaration order (hot in
#: ``to_dict`` and replay/demux; ``dataclasses.fields`` is not cheap).
_FIELD_NAMES = _PerClass(
    lambda cls: tuple(field.name for field in dataclasses.fields(cls))
)


# ------------------------------------------------------------ wire format
#
# One event, one JSON line.  ``encode_line`` is the only serialisation of
# an event in the package: recordings, the worker stdout protocol and the
# SSE stream all carry exactly these bytes.

_encode_any = json.JSONEncoder(separators=(",", ":")).encode

#: What a generated encoder may call (its globals).
_ENCODER_GLOBALS = {
    "_float": float.__repr__,
    "_int": int.__repr__,
    "_str": encode_basestring_ascii,
    "_any": _encode_any,
}

#: Declared field type -> ``(guard, fast)`` source for a value ``v`` whose
#: *exact* type is the declared one; anything else (a subclass, a numpy
#: scalar, ``None``, an int in a float field) falls through to ``_any``,
#: which is ``json`` itself.  ``v - v == 0.0`` is false for NaN and ±inf,
#: which ``json`` spells ``NaN`` / ``Infinity``, not as ``repr`` does.
_FAST_PATHS = {
    "float": ("type(v) is float and v - v == 0.0", "_float(v)"),
    "int": ("type(v) is int", "_int(v)"),
    "str": ("type(v) is str", "_str(v)"),
    "bool": ("type(v) is bool", "('true' if v else 'false')"),
}

def _build_line_encoder(cls: type) -> Callable[[MetricEvent], str]:
    """Generate ``cls``'s encoder from its dataclass fields.

    The result is straight-line code: one local per field holding the
    encoded value, then a single f-string whose literal parts are the
    precomputed ``{"kind":"…","time":`` / ``,"size":`` key fragments.
    """
    def literal(text: str) -> str:
        return text.replace("{", "{{").replace("}", "}}")

    source = ["def encode(event):"]
    template = "{{" + literal(f'"kind":{_encode_any(cls.kind)}')
    for index, field in enumerate(dataclasses.fields(cls)):
        declared = getattr(field.type, "__name__", field.type)
        source.append(f"    v = event.{field.name}")
        if declared in _FAST_PATHS:
            guard, fast = _FAST_PATHS[declared]
            source.append(f"    s{index} = {fast} if {guard} else _any(v)")
        else:
            source.append(f"    s{index} = _any(v)")
        template += literal(f",{_encode_any(field.name)}:") + f"{{s{index}}}"
    template += "}}\n"
    source.append(f"    return f{template!r}")
    namespace = dict(_ENCODER_GLOBALS)
    # Filed under this module's path, one name per class, so a profile
    # charges generated code to ``repro.obs.events`` and keeps the
    # classes apart.
    filename = f"{__file__}:<line encoder for {cls.__name__}>"
    exec(compile("\n".join(source), filename, "exec"), namespace)
    return namespace["encode"]


#: event class -> its generated line encoder.
_LINE_ENCODERS = _PerClass(_build_line_encoder)


def encode_line(event: MetricEvent) -> str:
    """``event`` as its JSON line, newline included.

    Byte-for-byte what ``json.dumps`` with ``separators=(",", ":")``
    makes of :meth:`MetricEvent.to_dict`, plus the newline, for every
    event class and every field value, at a fraction of the cost: no
    payload dict, no per-call ``JSONEncoder``.
    """
    return _LINE_ENCODERS[type(event)](event)
