"""``python -m repro serve`` — live metrics over HTTP, stdlib only.

One process, two halves.  The **work half** (main thread) runs a single
scenario or a campaign's missing cells exactly as the batch CLIs would —
same collectors, same artifacts — but with an
:class:`~repro.obs.bus.EventBus` attached.  The **serve half** (a
:class:`~http.server.ThreadingHTTPServer` on a background thread) turns
that bus into four views:

``/``
    Self-contained HTML dashboard (no external assets): stat cards
    polled from ``/state`` plus a live event log fed by ``/events``.
``/metrics``
    Prometheus text-format exposition of the windowed aggregates.
``/state``
    The full :meth:`~repro.obs.aggregators.LiveMetrics.snapshot` as
    JSON, plus server phase.
``/events`` and ``/stream``
    The curated event feed as Server-Sent Events or plain JSON lines.
    High-frequency kinds (``victim.arrival``, ``defense.decision``)
    are folded into the windowed aggregates instead of being streamed
    per-event; everything else streams live, plus periodic
    ``live.snapshot`` frames.

Determinism note: pacing and Ctrl-C responsiveness come from running the
simulation in clock slices (``run_experiment(slice_seconds=...)``),
which executes the *identical* event sequence as an unsliced run — the
results (and campaign artifacts) are bit-identical to batch mode.

Ctrl-C is a clean stop everywhere: mid-run it abandons the in-flight
result (campaign mode prints the ``campaign resume`` hint; completed
artifacts are already on disk), during ``--linger`` it is the normal
way to exit, and no traceback is ever printed.
"""

from __future__ import annotations

import json
import queue
import signal
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.obs.aggregators import AtrDrilldown, FlowDrilldown, LiveMetrics
from repro.obs.bus import EventBus, RunBatch
from repro.obs.events import MetricEvent, encode_line
from repro.obs.exposition import render_prometheus
from repro.obs.recorder import RecordingError, open_recording, recorded
from repro.util.validation import check_non_negative

#: Event kinds the drill-down aggregators fold (the per-packet kinds the
#: SSE stream deliberately excludes, plus verdicts, probes and pushback
#: starts/stops).
DRILLDOWN_KINDS: tuple[str, ...] = (
    "defense.decision",
    "defense.verdict",
    "defense.probe",
    "defense.pushback",
)

#: Event kinds forwarded to ``/events``/``/stream`` subscribers.  The
#: two per-packet kinds are deliberately absent: at simulation rates
#: they would swamp any client, and the windowed aggregates already
#: carry their information.
STREAMED_KINDS: tuple[str, ...] = (
    "defense.verdict",
    "defense.activation",
    "monitor.snapshot",
    "engine.stats",
    "link.drop",
    "run.started",
    "run.completed",
    "campaign.run",
    "campaign.progress",
    "worker.started",
    "worker.heartbeat",
    "worker.died",
)

#: Per-client queue bound; a slow client loses the *newest* events past
#: this (the log view cares about continuity of the recent past) and
#: the drop count is reported on its next delivered frame.
CLIENT_QUEUE_SIZE = 512


class SSEBroker:
    """Fan one event stream out to many HTTP clients, without blocking.

    A sink (subscribe it to the bus for :data:`STREAMED_KINDS`): each
    event is serialized to its JSON line **once**, then offered to every
    client's bounded queue.  A client that can't keep up drops frames —
    the simulation thread never waits on a socket.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._clients: list[queue.Queue] = []
        self._closed = False
        #: Events lost to full client queues, across all clients ever.
        self.dropped_events = 0
        #: Events offered to at least one client (serialized payloads).
        self.published_events = 0

    # ------------------------------------------------------------ sink API

    def emit(self, event: MetricEvent) -> None:
        self._offer(encode_line(event)[:-1])

    def close(self) -> None:
        """Wake every client with the end-of-stream sentinel."""
        with self._lock:
            self._closed = True
            clients = list(self._clients)
        for q in clients:
            try:
                q.put_nowait(None)
            except queue.Full:
                pass

    # --------------------------------------------------------- broker API

    def publish(self, payload: dict) -> None:
        """Offer a non-event payload (the periodic ``live.snapshot``)."""
        self._offer(json.dumps(payload, separators=(",", ":")))

    def _offer(self, line: str) -> None:
        """One serialized line to every client, drop (counted) on full."""
        dropped = 0
        with self._lock:
            clients = list(self._clients)
            self.published_events += 1
        for q in clients:
            try:
                q.put_nowait(line)
            except queue.Full:
                dropped += 1
        if dropped:
            with self._lock:
                self.dropped_events += dropped

    def stats(self) -> dict:
        """Back-pressure health: connected clients and lost events."""
        with self._lock:
            return {
                "clients": len(self._clients),
                "published_events": self.published_events,
                "dropped_events": self.dropped_events,
            }

    def register(self) -> queue.Queue:
        """A new client's queue (pre-poisoned if the stream ended)."""
        q: queue.Queue = queue.Queue(maxsize=CLIENT_QUEUE_SIZE)
        with self._lock:
            self._clients.append(q)
            if self._closed:
                q.put_nowait(None)
        return q

    def unregister(self, q: queue.Queue) -> None:
        with self._lock:
            if q in self._clients:
                self._clients.remove(q)


#: The dashboard page: one file, no external assets, works offline.
DASHBOARD_HTML = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>repro serve</title>
<style>
  body { font-family: ui-monospace, Menlo, Consolas, monospace;
         margin: 0; background: #10141a; color: #d5dce5; }
  header { padding: 10px 16px; background: #171d26;
           border-bottom: 1px solid #2a3442; display: flex;
           justify-content: space-between; align-items: baseline; }
  header h1 { font-size: 15px; margin: 0; color: #8ecaff; }
  #phase { font-size: 12px; color: #9aa7b5; }
  #cards { display: grid; gap: 10px; padding: 14px 16px;
           grid-template-columns: repeat(auto-fill, minmax(170px, 1fr)); }
  .card { background: #171d26; border: 1px solid #2a3442;
          border-radius: 6px; padding: 9px 12px; }
  .card .label { font-size: 10px; text-transform: uppercase;
                 letter-spacing: .08em; color: #7e8b99; color: #7e8b99; }
  .card .value { font-size: 19px; margin-top: 3px; color: #e8eef5; }
  .card .value.warn { color: #ffb566; }
  h2 { font-size: 11px; text-transform: uppercase; letter-spacing: .08em;
       color: #7e8b99; margin: 4px 16px; }
  #log { margin: 0 16px 16px; background: #0b0e13;
         border: 1px solid #2a3442; border-radius: 6px; padding: 8px;
         height: 280px; overflow-y: auto; font-size: 12px;
         line-height: 1.5; white-space: pre-wrap; }
  .k { color: #8ecaff; }
  .t { color: #6d7885; }
  #drill { display: grid; gap: 10px; margin: 0 16px 16px;
           grid-template-columns: repeat(auto-fit, minmax(340px, 1fr)); }
  table { width: 100%; border-collapse: collapse; font-size: 12px;
          background: #0b0e13; border: 1px solid #2a3442;
          border-radius: 6px; }
  th, td { padding: 4px 8px; text-align: right;
           border-bottom: 1px solid #1d2530; }
  th { color: #7e8b99; font-size: 10px; text-transform: uppercase;
       letter-spacing: .08em; }
  th:first-child, td:first-child { text-align: left; }
  td.flip { color: #ffb566; }
</style>
</head>
<body>
<header><h1>repro serve &mdash; MAFIC live metrics</h1>
<span><span id="engine"></span> <span id="phase">connecting&hellip;</span>
</span></header>
<div id="cards"></div>
<h2>drill-down &mdash; top dropped flows / ATR verdict churn</h2>
<div id="drill">
  <table id="flows"><thead><tr><th>flow</th><th>truth</th><th>atr</th>
  <th>drops</th><th>probe</th><th>passes</th><th>verdict</th></tr></thead>
  <tbody></tbody></table>
  <table id="atrs"><thead><tr><th>atr</th><th>verdicts</th><th>flips</th>
  <th>drops</th><th>v/s</th></tr></thead><tbody></tbody></table>
</div>
<h2>event stream</h2>
<div id="log"></div>
<script>
"use strict";
const CARDS = [
  ["sim time",       s => s.sim_time.toFixed(2) + " s"],
  ["arrivals",       s => s.arrivals_total],
  ["attack kbps",    s => s.attack_kbps.toFixed(1)],
  ["legit kbps",     s => s.legit_kbps.toFixed(1)],
  ["examined",       s => s.examined_total],
  ["drop ratio",     s => (100 * s.drop_ratio).toFixed(1) + " %"],
  ["drops / s",      s => s.drops_per_second.toFixed(1)],
  ["verdicts / s",   s => s.verdicts_per_second.toFixed(1)],
  ["pushback",       s => s.activation_time === null
                          ? "armed" : "t=" + s.activation_time.toFixed(2)],
  ["monitor epochs", s => s.epochs],
  ["events executed",s => s.events_executed],
  ["runs done",      s => s.runs_completed],
];
const cards = document.getElementById("cards");
for (const [label] of CARDS) {
  const div = document.createElement("div");
  div.className = "card";
  div.innerHTML = '<div class="label">' + label +
                  '</div><div class="value">&ndash;</div>';
  cards.appendChild(div);
}
async function poll() {
  try {
    const res = await fetch("/state");
    const body = await res.json();
    const s = body.live;
    document.getElementById("phase").textContent =
      body.mode + " / " + body.phase;
    document.getElementById("engine").textContent =
      s.engine_build ? "engine: " + s.engine_build + " /" : "";
    const values = cards.querySelectorAll(".value");
    CARDS.forEach(([_, fmt], i) => { values[i].textContent = fmt(s); });
  } catch (err) {
    document.getElementById("phase").textContent = "disconnected";
  }
  setTimeout(poll, 1000);
}
poll();
function fill(id, rows, cells) {
  const body = document.getElementById(id).querySelector("tbody");
  body.innerHTML = "";
  for (const row of rows) {
    const tr = document.createElement("tr");
    for (const [value, cls] of cells(row)) {
      const td = document.createElement("td");
      td.textContent = value;
      if (cls) td.className = cls;
      tr.appendChild(td);
    }
    body.appendChild(tr);
  }
}
async function drill() {
  try {
    const flows = await (await fetch("/flows")).json();
    fill("flows", flows.top_dropped.slice(0, 10), f => [
      [String(f.flow)], [f.truth], [f.atr], [f.drops],
      [f.drops_by_reason.probe || 0], [f.passes], [f.last_verdict || "-"],
    ]);
    const atrs = await (await fetch("/atrs")).json();
    fill("atrs", atrs.atrs.slice(0, 10), a => [
      [a.atr], [a.verdicts_total], [a.flips, a.flips ? "flip" : ""],
      [a.drops], [a.verdicts_per_second.toFixed(1)],
    ]);
  } catch (err) { /* server going away; poll() shows the phase */ }
  setTimeout(drill, 2000);
}
drill();
const log = document.getElementById("log");
function append(line) {
  const atEnd = log.scrollTop + log.clientHeight >= log.scrollHeight - 4;
  log.appendChild(line);
  while (log.childNodes.length > 400) log.removeChild(log.firstChild);
  if (atEnd) log.scrollTop = log.scrollHeight;
}
const source = new EventSource("/events");
source.onmessage = (msg) => {
  const e = JSON.parse(msg.data);
  if (e.kind === "live.snapshot") return;
  const div = document.createElement("div");
  const t = (e.time !== undefined) ? e.time.toFixed(3) : "-";
  const rest = Object.entries(e)
    .filter(([k]) => k !== "kind" && k !== "time")
    .map(([k, v]) => k + "=" + JSON.stringify(v)).join(" ");
  div.innerHTML = '<span class="t">' + t + '</span> <span class="k">' +
                  e.kind + "</span> " + rest;
  append(div);
};
</script>
</body>
</html>
"""


class _Handler(BaseHTTPRequestHandler):
    """Routes; the server object carries the shared live/broker/status."""

    protocol_version = "HTTP/1.1"
    server: "_Server"  # type: ignore[assignment]

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        """Quiet: per-request lines would bury the run's own output."""

    def _send(self, body: bytes, content_type: str, code: int = 200) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        path = self.path.split("?", 1)[0]
        try:
            if path in ("/", "/index.html"):
                self._send(
                    DASHBOARD_HTML.encode(), "text/html; charset=utf-8"
                )
            elif path == "/metrics":
                body = render_prometheus(
                    self.server.live,
                    flows=self.server.flows,
                    atrs=self.server.atrs,
                    sse=self.server.broker.stats(),
                ).encode()
                self._send(body, "text/plain; version=0.0.4; charset=utf-8")
            elif path == "/state":
                payload = dict(self.server.status)
                payload["live"] = self.server.live.snapshot()
                payload["sse"] = self.server.broker.stats()
                self._send(
                    json.dumps(payload).encode(),
                    "application/json; charset=utf-8",
                )
            elif path == "/flows":
                self._send(
                    json.dumps(self.server.flows.snapshot()).encode(),
                    "application/json; charset=utf-8",
                )
            elif path == "/atrs":
                self._send(
                    json.dumps(self.server.atrs.snapshot()).encode(),
                    "application/json; charset=utf-8",
                )
            elif path == "/healthz":
                self._send(b"ok\n", "text/plain; charset=utf-8")
            elif path == "/events":
                self._stream(sse=True)
            elif path == "/stream":
                self._stream(sse=False)
            else:
                self._send(b"not found\n", "text/plain; charset=utf-8", 404)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-write; nothing to clean up

    def _stream(self, sse: bool) -> None:
        """Long-poll one client queue out over SSE or raw JSON lines."""
        self.send_response(200)
        self.send_header(
            "Content-Type",
            "text/event-stream" if sse else "application/x-ndjson",
        )
        self.send_header("Cache-Control", "no-store")
        # No Content-Length on an unbounded stream: Connection: close
        # (which also sets close_connection) delimits the body instead.
        self.send_header("Connection", "close")
        self.end_headers()
        q = self.server.broker.register()
        try:
            while True:
                try:
                    line = q.get(timeout=15.0)
                except queue.Empty:
                    # Keep-alive so proxies/clients don't drop the idle
                    # stream; a JSONL comment would corrupt the framing,
                    # so plain mode sends an empty keep-alive line.
                    self.wfile.write(b": keep-alive\n\n" if sse else b"\n")
                    self.wfile.flush()
                    continue
                if line is None:
                    break
                if sse:
                    self.wfile.write(b"data: " + line.encode() + b"\n\n")
                else:
                    self.wfile.write(line.encode() + b"\n")
                self.wfile.flush()
        finally:
            self.server.broker.unregister(q)


class _Server(ThreadingHTTPServer):
    """ThreadingHTTPServer plus the shared observability objects."""

    daemon_threads = True  # don't let a hung client outlive the run

    def __init__(
        self,
        address,
        live: LiveMetrics,
        broker: SSEBroker,
        flows: FlowDrilldown | None = None,
        atrs: AtrDrilldown | None = None,
    ):
        super().__init__(address, _Handler)
        self.live = live
        self.broker = broker
        self.flows = flows if flows is not None else FlowDrilldown()
        self.atrs = atrs if atrs is not None else AtrDrilldown()
        #: Mutated by the work thread; read by ``/state``.
        self.status: dict = {"mode": "", "phase": "starting"}


def _snapshot_pump(live: LiveMetrics, broker: SSEBroker, interval: float):
    """An ``on_slice`` callback pushing throttled live.snapshot frames."""
    last = [0.0]

    def pump(_sim_now: float) -> None:
        now = time.monotonic()
        if now - last[0] >= interval:
            last[0] = now
            broker.publish({"kind": "live.snapshot", **live.snapshot()})

    return pump


def _paced_slicer(pace: float, on_slice):
    """(slice_seconds, callback) pair implementing wall-clock pacing.

    ``pace`` is simulated seconds per wall second; 0 means full speed.
    The callback sleeps until the wall clock catches up with the sim
    clock, so a run with ``--pace 1`` plays back in real time.  Slicing
    itself never changes results — see the module docstring.
    """
    pace = check_non_negative("pace", pace)
    if pace == 0:
        return 0.25, on_slice
    # ~20 pause points per wall second keeps pacing smooth and Ctrl-C
    # responsive without measurable event-loop overhead.
    slice_seconds = max(pace / 20.0, 1e-6)
    start = time.monotonic()

    def paced(sim_now: float) -> None:
        target = start + sim_now / pace
        delay = target - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        on_slice(sim_now)

    return slice_seconds, paced


def _serve_single(config, args, bus, live, broker, status) -> int:
    """Run one scenario under the server; returns the exit code."""
    from repro.experiments.runner import run_experiment

    status.update(mode="run", phase="running",
                  seed=config.seed, duration=config.duration)
    slice_seconds, on_slice = _paced_slicer(
        args.pace, _snapshot_pump(live, broker, interval=0.25)
    )
    try:
        result = run_experiment(
            config,
            bus=bus,
            slice_seconds=slice_seconds,
            on_slice=on_slice,
        )
    except KeyboardInterrupt:
        status.update(phase="interrupted")
        print("\ninterrupted mid-run; no results recorded", flush=True)
        return 130
    status.update(phase="done")
    pct = result.summary.as_percent()
    print(
        f"run complete: alpha={pct['alpha']:.2f}%  beta={pct['beta']:.2f}%  "
        f"({result.events_executed} events, {result.wall_seconds:.2f}s)",
        flush=True,
    )
    return 0


def _serve_campaign(args, bus, live, broker, status) -> int:
    """``campaign run`` with a dashboard on the bus.

    The same :func:`~repro.campaign.orchestrator.run_campaign` — leases,
    retry, quarantine, respawned workers at ``--jobs N`` — so artifacts
    are bit-identical to the batch CLI's.  What differs is what reaches
    the bus: workers add their cells' simulation events, and an
    in-process cell runs in clock slices so snapshots pump and Ctrl-C
    lands promptly.  Ctrl-C abandons only in-flight cells;
    ``campaign resume`` (or serve again) picks up the rest.
    """
    import functools

    from repro.campaign.orchestrator import (
        DEFAULT_ROOT, resume_hint, run_campaign,
    )
    from repro.campaign.spec import CampaignSpec
    from repro.experiments.runner import run_experiment
    from repro.obs.bus import CallbackSink

    spec = CampaignSpec.load(args.campaign)
    root = args.root if args.root is not None else DEFAULT_ROOT
    status.update(mode="campaign", phase="running", campaign=spec.name)
    pump = _snapshot_pump(live, broker, interval=0.25)
    # Worker subprocesses have no slices to pump from: pump per cell.
    bus.subscribe(
        CallbackSink(lambda event: pump(0.0)), kinds=("campaign.run",)
    )
    report = run_campaign(
        spec,
        root=root,
        jobs=args.jobs, bus=bus, sim_events=True,
        run_cell=functools.partial(
            run_experiment, slice_seconds=0.25, on_slice=pump
        ),
    )
    status.update(
        planned=report.planned, cached=report.cached,
        executed=report.executed, jobs=report.jobs,
        deaths=report.deaths, quarantined=report.quarantined,
    )
    if report.interrupted:
        status.update(phase="interrupted")
        print(
            f"\ninterrupted: {report.executed} new artifacts are on disk; "
            + resume_hint(args.campaign, root),
            flush=True,
        )
        return 130
    print(
        f"campaign {spec.name}: {report.planned} planned, {report.cached} "
        f"cached, {report.executed} executed (jobs={report.jobs}, "
        f"{report.deaths} deaths survived, {report.quarantined} cells "
        "quarantined)",
        flush=True,
    )
    status.update(phase="done" if report.complete else "incomplete")
    return 0 if report.complete else 1


def _replay_feed(args, bus, live, broker, status) -> int:
    """Feed a recording's events back through the bus, optionally paced."""
    try:
        recording = open_recording(args.recording)
    except (OSError, RecordingError) as exc:
        print(f"error: {exc}")
        return 2
    meta = recording.metadata
    status.update(
        mode="replay", phase="replaying", recording=args.recording,
        metadata=meta,
    )
    print(
        f"replaying {args.recording}"
        + (f" ({meta.get('scenario')})" if meta.get("scenario") else ""),
        flush=True,
    )
    pump = _snapshot_pump(live, broker, interval=0.25)
    pace = args.pace
    start = time.monotonic()
    events = 0
    batch = RunBatch(bus)
    try:
        for event in recording.events():
            if pace > 0 and event.time > 0:
                delay = (start + event.time / pace) - time.monotonic()
                if delay > 0:
                    batch.flush()  # the view is current while we wait
                    time.sleep(delay)
            batch.emit(event)
            events += 1
            if events % 1024 == 0:
                batch.flush()
                pump(event.time)
    except KeyboardInterrupt:
        status.update(phase="interrupted", events_replayed=events)
        print("\nreplay interrupted", flush=True)
        return 130
    except RecordingError as exc:
        status.update(phase="failed", events_replayed=events)
        print(f"error: {exc}")
        return 2
    finally:
        batch.flush()
    pump_final = _snapshot_pump(live, broker, interval=0.0)
    pump_final(0.0)
    status.update(phase="done", events_replayed=events,
                  unknown_kinds=recording.unknown_kinds)
    skipped = (
        f" ({recording.unknown_kinds} unknown-kind lines skipped)"
        if recording.unknown_kinds else ""
    )
    print(f"replayed {events} events{skipped}", flush=True)
    return 0


def _serve_common(args, work) -> int:
    """Bind, start the HTTP half, run ``work`` on this thread, linger.

    Shared chassis of ``serve`` and ``replay``: both want the same
    bus wiring (LiveMetrics + drill-downs + SSE broker), the same
    endpoints, and the same linger/shutdown story — they differ only
    in what the work half feeds the bus.
    """
    # A process backgrounded by a non-interactive shell (`serve ... &`,
    # the normal CI/daemonized shape) inherits SIGINT as SIG_IGN, and
    # Python then never installs KeyboardInterrupt — `kill -INT` would
    # be silently ignored.  Serve's whole shutdown story is Ctrl-C, so
    # restore the default handler unconditionally.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    live = LiveMetrics(window=args.window)
    flows = FlowDrilldown()
    atrs = AtrDrilldown(window=args.window)
    broker = SSEBroker()
    bus = EventBus()
    bus.subscribe(live)
    bus.subscribe(flows, kinds=DRILLDOWN_KINDS)
    bus.subscribe(atrs, kinds=DRILLDOWN_KINDS)
    bus.subscribe(broker, kinds=STREAMED_KINDS)

    try:
        server = _Server((args.host, args.port), live, broker, flows, atrs)
    except OSError as exc:
        print(f"error: cannot bind {args.host}:{args.port}: {exc}")
        return 2
    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}/  "
          "(dashboard /, Prometheus /metrics, SSE /events, "
          "drill-down /flows /atrs)", flush=True)
    http_thread = threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    )
    http_thread.start()

    campaign = getattr(args, "campaign", None)
    try:
        # The recording ends the moment the work half stops feeding the
        # bus: nothing new is recorded while lingering, and a reader (or
        # a replay of this very file) must not see a truncated gzip tail.
        with recorded(getattr(args, "record", None), bus, {
            "command": "serve" if campaign is None else "serve --campaign",
            "campaign": campaign,
        }):
            code = work(bus, live, broker, server.status)
        if code == 0 and args.linger:
            server.status["phase"] = "lingering"
            print("work finished; serving until Ctrl-C (--linger)",
                  flush=True)
            try:
                while True:
                    time.sleep(0.5)
            except KeyboardInterrupt:
                print("\nshutting down", flush=True)
    finally:
        bus.close()           # wakes SSE clients with the sentinel
        server.shutdown()     # stops serve_forever
        server.server_close()
        http_thread.join(timeout=5.0)
    return code


def cmd_serve(args) -> int:
    """The ``python -m repro serve`` entry point."""
    from repro.experiments.cli import _run_config

    config = None if args.campaign else _run_config(args)  # before the bind

    def work(bus, live, broker, status):
        if config is None:
            return _serve_campaign(args, bus, live, broker, status)
        return _serve_single(config, args, bus, live, broker, status)

    return _serve_common(args, work)


def cmd_replay(args) -> int:
    """The ``python -m repro replay`` entry point.

    Serves a *recording* through the identical broker stack: every
    endpoint behaves exactly as it would over the live run the file
    captured.  Lingers by default — serving a dead run is the point.
    """
    def work(bus, live, broker, status):
        return _replay_feed(args, bus, live, broker, status)

    return _serve_common(args, work)
